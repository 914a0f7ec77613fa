"""Shard-aware query architecture: one filter over partitioned rows.

The paper's experiments index up to :math:`2^{15}` sequences behind one
monolithic structure; the ROADMAP north-star is a production-scale
service, which means horizontal partitioning.  This package is that
layer (see ``docs/SHARDING.md``):

* :class:`Partitioner` — deterministic assignment of sequence ids to N
  shards (``hash`` or ``round_robin`` policy);
* :func:`build_sharded` / :func:`open_sharded` — split one database
  population into N self-contained shards, each with its own engine
  index (any registry backend) and optionally its own page-store file,
  described by a CRC-checked :class:`ShardManifest`;
* :class:`ShardRouter` — an :class:`~repro.engine.core.EngineIndex` over
  the shards: it holds one filter (the whole population's row codes)
  and bounds every single query with it exactly as the ``flat`` index
  does, then verifies through the shards' stores.  The shared verifier,
  the obs accounting and the resilience guards all apply unchanged.
* :class:`ShardWorkerPool` — one persistent worker process per
  populated shard, each holding its warm index built from its
  :class:`ShardSpec` (the shard's rows, or its page store); it builds
  the shards and serves exact ``search_many`` batches; enabled
  with ``worker_pool=True`` or the ``REPRO_SHARD_WORKERS`` environment
  switch (see ``docs/CONCURRENCY.md``).

The registry exposes the whole stack as just another backend::

    from repro.engine import get_index

    router = get_index("sharded", matrix, shards=4, backend="vptree")
    neighbors, stats = router.search(query, k=5)
"""

from repro.cluster.build import (
    build_sharded,
    default_shard_count,
    default_worker_pool,
    open_sharded,
)
from repro.cluster.manifest import MANIFEST_NAME, ShardManifest
from repro.cluster.partitioner import Partitioner
from repro.cluster.pool import ShardSpec, ShardStub, ShardWorkerPool
from repro.cluster.router import ShardRouter

__all__ = [
    "MANIFEST_NAME",
    "Partitioner",
    "ShardManifest",
    "ShardRouter",
    "ShardSpec",
    "ShardStub",
    "ShardWorkerPool",
    "build_sharded",
    "default_shard_count",
    "default_worker_pool",
    "open_sharded",
]
