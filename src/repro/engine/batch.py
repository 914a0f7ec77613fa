"""Batched multi-query search: ``search_many(index, queries, k)``.

Every query of a batch runs through the same pipeline as a single
``index.search`` — :func:`repro.engine.core._knn_pipeline`: guarded
generation, policy activation, the one refinement loop, the accounting
invariant — so its result and stats are exactly the single-query ones.
What this module adds is the *batch axis*: validation amortised once per
matrix, an ``engine.search_many`` obs span, and — for a
:class:`~repro.cluster.ShardRouter` — one full sub-search per shard,
merged by the parent into global top-k results.

A batch runs on one of two transports.  In process it is a loop over
the queries (per shard, for a router).  A router backed by a persistent
:class:`~repro.cluster.ShardWorkerPool` ships the whole batch to its
already-warm workers in one request per shard; that is the parallel
path, so a caller who wants a batch spread over cores builds
``build_sharded(matrix, shards=cores, worker_pool=True)`` (see
``docs/CONCURRENCY.md``; ``docs/PERFORMANCE.md`` has the measured
table).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import obs
from repro.engine.approx import ApproxPolicy, resolve_policy
from repro.engine.core import _EXACT_POLICY, _check_invariant, _knn_pipeline
from repro.exceptions import SeriesMismatchError
from repro.index.results import Neighbor, SearchStats

__all__ = ["search_many"]


def _validate(index, queries) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise SeriesMismatchError(
            f"expected a 2-D query matrix, got shape {queries.shape}"
        )
    if queries.shape[1] != index.sequence_length:
        raise SeriesMismatchError(
            f"query length {queries.shape[1]} does not match database "
            f"sequences of length {index.sequence_length}"
        )
    return queries


def search_many(
    index,
    queries,
    k: int = 1,
    *,
    policy: ApproxPolicy | None = None,
) -> list[tuple[list[Neighbor], SearchStats]]:
    """k-NN for every row of ``queries``; returns one result per query.

    Parameters
    ----------
    index:
        Any engine index (see :func:`repro.engine.get_index`).
    queries:
        ``(q, n)`` matrix of queries, validated once for the whole batch.
    k:
        Neighbours per query.
    policy:
        An :class:`~repro.engine.ApproxPolicy` opting the whole batch
        into the approximate tier; ``None`` defers to the
        ``REPRO_APPROX_*`` knobs.  The policy is resolved once here,
        and only the parent applies it (pooled workers run exact
        sub-searches or generate candidates), so a batch is never split
        across two readings of the environment.

    Each query's result is exactly what ``index.search(query, k,
    policy)`` returns; per-query stats are published to the active obs
    registry under the index's usual ``<obs_name>.search`` prefix, with
    the whole batch wrapped in an ``engine.search_many`` span.
    """
    queries = _validate(index, queries)
    if not 1 <= k <= len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    policy = resolve_policy(policy)

    with obs.span("engine.search_many"):
        if callable(getattr(index, "shard_views", None)):
            results = _sharded_fanout(index, queries, k, policy)
        else:
            results = [
                _knn_pipeline(index, query, k, policy) for query in queries
            ]

    prefix = f"{index.obs_name}.search"
    for _, stats in results:
        stats.publish(prefix)
    return results


def _shard_batch(sub, queries, k: int) -> list:
    """One shard's exact sub-search of a whole batch, at ``min(k, size)``.

    The per-shard half of :func:`_sharded_fanout`, run in process for a
    serial router and by each pool worker for its ``batch`` request.
    """
    sub_k = min(k, len(sub))
    return [
        _knn_pipeline(sub, query, sub_k, _EXACT_POLICY) for query in queries
    ]


def _pool_parts(router, queries, k):
    """Per-shard batch results from the persistent worker pool.

    Returns one ``[(neighbors, stats), ...]`` list per populated shard,
    aligned with ``router.shard_views()`` — or ``None`` if any worker
    died, in which case the caller falls back to the per-query scatter
    path (which serves dead shards degraded).
    """
    batches = router.worker_pool.batch_search(queries, k)
    parts = []
    for shard in router.populated_shards():
        shard_results = batches.get(shard)
        if shard_results is None:
            return None
        parts.append(shard_results)
    return parts


def _sharded_fanout_approx(router, queries, k, policy):
    """Batched fan-out under a non-exact policy: verify at the parent.

    The exact batch path runs one *full sub-search per shard* and merges
    per-shard answers — legal because exact per-shard top-k unions
    contain the global top-k.  An approximate policy breaks that
    argument: slack skips and patience stops depend on the *global*
    σ_UB and the *global* LB-ordered stream, so per-shard approximate
    sub-searches would neither match ``router.search(query, policy)``
    nor compose into any guarantee.  Instead the batch axis moves to
    candidate generation: pooled routers ship the whole batch to the
    warm workers in one ``cands`` request per shard (generation stays
    amortised), and the parent verifies each query once, globally —
    bit-identical to the per-query path.
    """
    pool = getattr(router, "worker_pool", None)
    per_query = pool.batch_candidates(queries, k) if pool is not None else None
    if per_query is None:
        # No pool, or a worker died mid-batch: the per-query scatter
        # path serves both, and absorbs worker death (fallback scan +
        # quarantine note).
        return [router.search(query, k=k, policy=policy) for query in queries]
    # Generation is done; finish each query as ``router.search`` would,
    # gathering the pre-scattered triples instead.
    return [
        _knn_pipeline(
            router, query, k, policy,
            generate=partial(router.gather_knn, triples, k),
        )
        for query, triples in zip(queries, per_query)
    ]


def _sharded_fanout(router, queries, k, policy):
    """One full sub-search per shard, merged into global per-query top-k.

    The parallelism axis is the *shard*: each task runs the whole query
    batch against one shard at ``min(k, shard_size)`` — exact within the
    shard, so the union of per-shard answers contains the global top-k —
    and the parent translates sequence ids (results and quarantine
    reports) to global ids and keeps the k canonical smallest
    ``(distance, seq_id)`` pairs per query.  Per-shard stats are
    published under each shard's own obs name; the merged per-query
    stats keep the extended accounting invariant globally, because the
    shards partition the population and each sub-search already honours
    it locally.  That containment argument needs *exact* sub-searches,
    so non-exact policies take :func:`_sharded_fanout_approx` instead.
    """
    if not policy.exact:
        return _sharded_fanout_approx(router, queries, k, policy)
    views = router.shard_views()

    if getattr(router, "worker_pool", None) is not None:
        # Persistent-pool fan-out: every warm worker runs the whole
        # batch against its shard in one request — the same
        # ``_shard_batch`` as the in-process path below, on the
        # workers' own copy of the index.
        parts = _pool_parts(router, queries, k)
        if parts is None:
            # A worker died mid-batch.  The per-query scatter path
            # absorbs worker death (fallback scan + quarantine note,
            # answers exact but flagged degraded), so route the batch
            # through it rather than reasoning about partial results.
            return [router.search(query, k=k, policy=policy) for query in queries]
    else:
        parts = [_shard_batch(sub, queries, k) for sub, _ in views]
    obs.add("cluster.fanout_shards", len(views))

    size = len(router)
    results = []
    for position in range(len(queries)):
        merged = SearchStats()
        hits: list[Neighbor] = []
        for (sub, global_ids), shard_results in zip(views, parts):
            neighbors, stats = shard_results[position]
            hits.extend(
                Neighbor(n.distance, int(global_ids[n.seq_id]), n.name)
                for n in neighbors
            )
            stats.quarantined_ids = tuple(
                int(global_ids[i]) for i in stats.quarantined_ids
            )
            stats.publish(f"{sub.obs_name}.search")
            merged.merge(stats)
        _check_invariant(merged, size, router)
        results.append((sorted(hits)[:k], merged))
    return results
