"""Building (and reopening) a sharded population.

:func:`build_sharded` splits a ``(count, n)`` database matrix into N
shards under a deterministic :class:`~repro.cluster.Partitioner`;
:func:`open_sharded` reopens a directory it persisted.  Both follow one
recipe on either transport:

1. **Specs** — one :class:`~repro.cluster.ShardSpec` per populated
   shard: backend, names, the shard's rows and (``flat``) its slice of
   the population's row codes, quantised once, and the shard's
   page-store file when the population is persisted.
2. **Build** — every shard index comes out of the one builder,
   ``pool._build_shard_index``: called in process for the serial
   transport, or by each worker of a
   :class:`~repro.cluster.ShardWorkerPool` while it warms (the pooled
   transport, whose warm-up is also the parallel build).
3. **Wire** — one :class:`~repro.cluster.ShardRouter` over the built
   indexes, or over :class:`~repro.cluster.ShardStub` data-plane
   stand-ins for pooled shards.

With a ``directory``, each shard gets its own checksummed page-store
file (pagestore format 3) and the split is described by a CRC-checked
:class:`~repro.cluster.ShardManifest`; :func:`open_sharded` checks every
file's population against it before any index is built or any worker
is spawned.

A shard is its rows and its code slice (``flat``) or its rows alone
(``scan``, the paper's unfiltered baseline): the router's filter covers
the whole population, so no query consults anything else on a shard.

The default shard count comes from the ``REPRO_SHARDS`` environment
variable (else 2), and ``REPRO_SHARD_WORKERS`` (any integer >= 1)
selects the pooled transport — which is how the CI matrix runs the
whole tier-1 suite against a 4-shard or a pooled router without
touching any test; ``worker_pool=True``/``False`` overrides the
environment per call.  Pooled routers serve the same bit-identical
answers but, unlike serial ones over ``flat`` shards, cannot accept
dynamic inserts (see ``docs/CONCURRENCY.md``;
``docs/PERFORMANCE.md`` has the measured table behind the choice of
these two transports).
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro import obs
from repro.cluster.manifest import ShardManifest
from repro.cluster.partitioner import Partitioner
from repro.cluster.pool import (
    ShardSpec,
    ShardStub,
    ShardWorkerPool,
    _build_shard_index,
    _open_shard_store,
)
from repro.cluster.router import ShardRouter
from repro.compression.codes import RowCodes
from repro.engine.registry import get_index
from repro.exceptions import CorruptionError, ReproError
from repro.storage.pagestore import MemorySequenceStore, SequencePageStore
from repro.tools.envparse import parse_env_int

__all__ = [
    "build_sharded",
    "default_shard_count",
    "default_worker_pool",
    "open_sharded",
]

#: Fallback shard count when ``REPRO_SHARDS`` is unset or blank.
DEFAULT_SHARDS = 2

#: What a shard can be: its rows and row codes, or its rows alone.
SHARD_BACKENDS = ("flat", "scan")


def default_shard_count() -> int:
    """Shard count from ``REPRO_SHARDS``, else :data:`DEFAULT_SHARDS`.

    A set-but-unusable value raises :class:`~repro.exceptions.ReproError`
    naming the variable — a mistyped knob should fail loudly, not
    silently rebuild the population over the default shard count.
    """
    return parse_env_int("REPRO_SHARDS", DEFAULT_SHARDS, minimum=1)


def default_worker_pool() -> bool:
    """Whether ``REPRO_SHARD_WORKERS`` enables the persistent pool.

    Any integer >= 1 enables it; the pool always runs one worker per
    populated shard, so the value is a switch, not a count.  Unset,
    empty or ``0`` keeps the shards in process; anything else raises
    :class:`~repro.exceptions.ReproError` naming the variable.
    """
    return parse_env_int("REPRO_SHARD_WORKERS", 0, minimum=0) >= 1


def _canonical_backend(backend: str) -> str:
    key = "scan" if backend == "linear_scan" else backend
    if key in ("sharded", "shard", "cluster"):
        raise ReproError("shards cannot themselves be sharded")
    if key not in SHARD_BACKENDS:
        raise ReproError(
            f"unknown shard backend {backend!r}; a shard is "
            f"{' or '.join(SHARD_BACKENDS)}"
        )
    return key


def _shard_file(shard: int) -> str:
    return f"shard-{shard:02d}.pages"


def _specs(
    key, members, n, matrix, codes, *, files, directory, write_store,
    names=None,
) -> list[ShardSpec]:
    """The build recipe of every populated shard: its rows of
    ``matrix`` and its ``take()`` slice of the row ``codes``."""
    return [
        ShardSpec(
            shard=shard,
            backend=key,
            size=int(ids.size),
            sequence_length=n,
            obs_name=f"index.sharded.shard{shard:02d}",
            names=(
                tuple(names[int(i)] for i in ids)
                if names is not None
                else None
            ),
            store_path=(
                os.path.join(directory, files[shard])
                if directory is not None
                else None
            ),
            write_store=write_store,
            rows=matrix[ids],
            row_codes=codes.take(ids) if codes is not None else None,
        )
        for shard, ids in enumerate(members)
        if ids.size
    ]


def _quantise(key, matrix):
    """The population's row codes in one pass (``None`` for ``scan``)."""
    if key == "scan" or not len(matrix):
        return None
    with obs.span("ingest.compress"):
        return RowCodes.from_matrix(matrix)


def _serve(
    specs, members, partitioner, n, pooled, codes, stores=None,
) -> ShardRouter:
    """Build ``specs`` in process or on a warm pool; wire one router.

    ``codes`` are the whole population's row codes, the router's filter
    (``None`` for ``scan``, the unfiltered baseline); ``stores`` (a
    reopen) maps shards to the parent's count-checked page stores.  Any
    failure — spawn, a
    worker refusing to warm, a build — closes every store and the pool
    before the exception propagates: no orphan processes.
    """
    stores = {} if stores is None else stores
    subs = {}
    pool = None
    try:
        if pooled:
            pool = ShardWorkerPool(specs, shard_count=len(members))
            pool.start()  # warm-up = parallel store writes + index builds
            for spec in specs:
                if spec.shard not in stores:
                    # The parent's read handle: the finished page store,
                    # or a store over the very rows a respawn builds from.
                    stores[spec.shard] = (
                        _open_shard_store(spec.store_path, spec.size)
                        if spec.store_path is not None
                        else MemorySequenceStore.over(spec.rows)
                    )
                subs[spec.shard] = ShardStub(
                    n, stores[spec.shard], spec.names, spec.obs_name
                )
        else:
            for spec in specs:
                subs[spec.shard], _ = _build_shard_index(
                    spec, store=stores.get(spec.shard)
                )
            if codes is not None:
                # An empty flat shard is a flat over no rows, so a serial
                # router over flat shards takes routed inserts.
                names = None if specs[0].names is None else []
                empty = np.empty((0, n))
                for shard in set(range(len(members))) - set(subs):
                    subs[shard] = get_index("flat", empty, names=names)
        return ShardRouter(
            [(subs.get(shard), rows) for shard, rows in enumerate(members)],
            partitioner=partitioner,
            sequence_length=n,
            pool=pool,
            row_codes=codes,
        )
    except BaseException:
        for store in stores.values():
            store.close()
        if pool is not None:
            pool.close()
        raise


def build_sharded(
    matrix: np.ndarray,
    *,
    shards: int | None = None,
    policy: str = "hash",
    seed: int = 0,
    backend: str = "flat",
    names: Sequence[str] | None = None,
    directory: str | os.PathLike | None = None,
    partitioner: Partitioner | None = None,
    worker_pool: bool | None = None,
) -> ShardRouter:
    """Partition ``matrix`` into shards behind one router.

    Parameters
    ----------
    matrix:
        The ``(count, n)`` database.
    shards / policy / seed:
        Partitioner configuration (``shards``/``policy`` are ignored
        when an explicit ``partitioner`` is supplied).  ``shards=None``
        takes :func:`default_shard_count`.
    backend:
        ``"flat"`` (each shard holds its rows and its slice of the
        population's row codes; the router filters with the codes) or
        ``"scan"`` (rows alone, no filter: the paper's baseline).
    directory:
        When given, each shard's sequences are persisted to its own
        page-store file there and a checksummed manifest is written, so
        :func:`open_sharded` can rebuild the router later.
    worker_pool:
        ``True`` routes the returned router through a persistent
        :class:`~repro.cluster.ShardWorkerPool`, whose warm-up is also
        the parallel build (every worker writes its shard's store and
        constructs its index concurrently) and serves exact
        ``search_many`` batches; ``False`` builds and serves in
        process; ``None`` (default) defers to
        :func:`default_worker_pool` (the ``REPRO_SHARD_WORKERS``
        environment switch).  Pooled routers return bit-identical
        answers, shut their workers down deterministically via
        ``router.close()`` (or a ``with`` block), and do not support
        dynamic inserts; a serial router over ``flat`` shards does.
    """
    from repro.index.base import as_database

    matrix, names = as_database(matrix, names)
    key = _canonical_backend(backend)
    if partitioner is None:
        partitioner = Partitioner(
            shards if shards is not None else default_shard_count(),
            policy=policy,
            seed=seed,
        )
    total, n = int(matrix.shape[0]), int(matrix.shape[1])
    members = partitioner.members(total)
    files = [_shard_file(shard) for shard in range(len(members))]

    # The router's filter, also sliced into each flat shard's codes (a
    # slice is bit-identical to quantising the shard anew).
    codes = _quantise(key, matrix)

    if directory is not None:
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        for file, rows in zip(files, members):
            if rows.size == 0:
                # No spec builds an empty shard; its (empty) store file
                # is written here so reopen finds every file the
                # manifest promises.
                SequencePageStore(os.path.join(directory, file), n).close()

    specs = _specs(
        key, members, n, matrix, codes, files=files, directory=directory,
        write_store=directory is not None, names=names,
    )
    pooled = default_worker_pool() if worker_pool is None else bool(worker_pool)
    router = _serve(specs, members, partitioner, n, pooled, codes)
    if directory is not None:
        try:
            ShardManifest(
                policy=partitioner.policy,
                seed=partitioner.seed,
                shards=partitioner.shards,
                total=total,
                sequence_length=n,
                backend=key,
                counts=tuple(int(rows.size) for rows in members),
                files=tuple(files),
            ).save(directory)
        except BaseException:
            router.close()
            raise
    return router


def open_sharded(
    directory: str | os.PathLike,
    *,
    backend: str | None = None,
    worker_pool: bool | None = None,
) -> ShardRouter:
    """Rebuild a sharded router from a directory written by
    :func:`build_sharded`.

    The manifest's CRC and per-shard counts, and every shard file's
    population, are verified before any index is built or any worker is
    spawned; a mismatch raises
    :class:`~repro.exceptions.CorruptionError`.  ``backend`` (``"flat"``
    or ``"scan"``) defaults to the one recorded in the manifest; any
    other is refused.  The parent reads every shard's rows and quantises
    them once, as :func:`build_sharded` does its matrix, on either
    transport.  ``worker_pool`` follows the same ``REPRO_SHARD_WORKERS``
    default as :func:`build_sharded`; a respawned worker reopens its
    page-store file (the stores are the source of truth).
    """
    directory = os.fspath(directory)
    manifest = ShardManifest.load(directory)
    key = _canonical_backend(backend or manifest.backend)
    partitioner = Partitioner(
        manifest.shards, policy=manifest.policy, seed=manifest.seed
    )
    members = partitioner.members(manifest.total)
    for shard, rows in enumerate(members):
        if int(rows.size) != manifest.counts[shard]:
            raise CorruptionError(
                f"shard {shard} holds {manifest.counts[shard]} members "
                f"per manifest but the partitioner assigns {rows.size}"
            )

    n = manifest.sequence_length
    matrix = np.empty((manifest.total, n))
    stores: dict[int, SequencePageStore] = {}
    try:
        for shard, rows in enumerate(members):
            store = _open_shard_store(
                os.path.join(directory, manifest.files[shard]), int(rows.size)
            )
            if rows.size:
                stores[shard] = store
                matrix[rows] = store.read_many(range(rows.size), cached=False)
            else:
                store.close()
        codes = _quantise(key, matrix)
    except BaseException:
        for store in stores.values():
            store.close()
        raise

    specs = _specs(
        key, members, n, matrix, codes, files=manifest.files,
        directory=directory, write_store=False,
    )
    pooled = default_worker_pool() if worker_pool is None else bool(worker_pool)
    return _serve(specs, members, partitioner, n, pooled, codes, stores)
