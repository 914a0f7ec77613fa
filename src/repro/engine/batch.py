"""Batched multi-query search: ``search_many(index, queries, k)``.

Every query of a batch runs through the same pipeline as a single
``index.search`` — :func:`repro.engine.core._knn_pipeline`: guarded
generation, policy activation, the one refinement loop, the accounting
invariant — so its result and stats are exactly the single-query ones.
What this module adds is the *batch axis*: validation amortised once per
matrix, an ``engine.search_many`` obs span, and fan-out.

``workers=N`` fans the work out over a process pool through the shared
executor (:func:`repro.engine.executor.fork_map`; fork start method: the
index is shared by inheritance, since bound kernels hold closures that
cannot pickle).  For a :class:`~repro.cluster.ShardRouter` the fan-out
axis is the *shard* instead of the query span: each worker runs the
whole batch against one shard and the parent merges the per-shard
answers into global top-k results — same executor, different work items.
A router backed by a persistent :class:`~repro.cluster.ShardWorkerPool`
skips the fork entirely: the batch is shipped to the already-warm
workers in one request per shard (see ``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import obs
from repro.engine.approx import ApproxPolicy, resolve_policy
from repro.engine.core import _check_invariant, _knn_pipeline
from repro.engine.executor import fork_map
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
    workers: int | None = None,
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
    workers:
        ``None`` (or 1) runs in-process; ``N > 1`` fans contiguous query
        chunks out over ``N`` forked worker processes.  Falls back to
        in-process execution where fork is unavailable.
    policy:
        An :class:`~repro.engine.ApproxPolicy` opting the whole batch
        into the approximate tier; ``None`` defers to the
        ``REPRO_APPROX_*`` knobs.  The policy is resolved once here and
        shipped explicitly to forked and pooled workers, so a batch is
        never split across two readings of the environment.

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
        results: list[tuple[list[Neighbor], SearchStats]] | None = None
        if callable(getattr(index, "shard_views", None)):
            results = _sharded_fanout(index, queries, k, workers, policy)
        else:
            if workers is not None and workers > 1 and len(queries) > 1:
                results = fork_map(
                    lambda query: _knn_pipeline(index, query, k, policy),
                    queries,
                    workers,
                )
            if results is None:
                results = [
                    _knn_pipeline(index, query, k, policy)
                    for query in queries
                ]

    prefix = f"{index.obs_name}.search"
    for _, stats in results:
        stats.publish(prefix)
    return results


def _pool_parts(router, queries, k, policy):
    """Per-shard batch results from the persistent worker pool.

    Returns one ``[(neighbors, stats), ...]`` list per populated shard,
    aligned with ``router.shard_views()`` — or ``None`` if any worker
    died, in which case the caller falls back to the per-query scatter
    path (which serves dead shards degraded).
    """
    batches = router.worker_pool.batch_search(queries, k, policy)
    parts = []
    for shard in router.populated_shards():
        shard_results = batches.get(shard)
        if shard_results is None:
            return None
        parts.append(shard_results)
    return parts


def _sharded_fanout_approx(router, queries, k, workers, policy):
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
    if pool is not None:
        per_query = pool.batch_candidates(queries, k)
        if per_query is not None:
            # Generation is done; finish each query as ``router.search``
            # would, gathering the pre-scattered triples instead.
            return [
                _knn_pipeline(
                    router, query, k, policy,
                    generate=partial(router.gather_knn, triples, k),
                )
                for query, triples in zip(queries, per_query)
            ]
        # A worker died mid-batch: the per-query scatter path absorbs
        # worker death (fallback scan + quarantine note).
        return [router.search(query, k=k, policy=policy) for query in queries]
    # No pool: the per-query scatter already fans out across shards
    # (``fork_map`` inside ``router.search``), and ``fork_map`` is not
    # reentrant — an outer fork over queries would have its inherited
    # globals cleared by the inner call — so the query axis stays serial.
    return [router.search(query, k=k, policy=policy) for query in queries]


def _sharded_fanout(router, queries, k, workers, policy):
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
    if workers is None:
        workers = getattr(router, "scatter_workers", None)
    if not policy.exact:
        return _sharded_fanout_approx(router, queries, k, workers, policy)
    views = router.shard_views()

    def shard_task(view):
        sub, _ = view
        sub_k = min(k, len(sub))
        return [_knn_pipeline(sub, query, sub_k, policy) for query in queries]

    parts = None
    pool = getattr(router, "worker_pool", None)
    if pool is not None:
        # Persistent-pool fan-out: every warm worker runs the whole
        # batch against its shard in one request — the same work as
        # ``shard_task``, without a fork or a re-pickle of the index.
        parts = _pool_parts(router, queries, k, policy)
        if parts is None:
            # A worker died mid-batch.  The per-query scatter path
            # absorbs worker death (fallback scan + quarantine note,
            # answers exact but flagged degraded), so route the batch
            # through it rather than reasoning about partial results.
            return [router.search(query, k=k, policy=policy) for query in queries]
    if parts is None:
        parts = fork_map(shard_task, views, workers)
    if parts is None:
        parts = [shard_task(view) for view in views]
    obs.add("cluster.fanout_shards", len(views))

    size = len(router)
    results = []
    for position in range(len(queries)):
        merged = SearchStats()
        pool: list[Neighbor] = []
        for (sub, global_ids), shard_results in zip(views, parts):
            neighbors, stats = shard_results[position]
            pool.extend(
                Neighbor(n.distance, int(global_ids[n.seq_id]), n.name)
                for n in neighbors
            )
            stats.quarantined_ids = tuple(
                int(global_ids[i]) for i in stats.quarantined_ids
            )
            stats.publish(f"{sub.obs_name}.search")
            merged.merge(stats)
        _check_invariant(merged, size, router)
        results.append((sorted(pool)[:k], merged))
    return results
