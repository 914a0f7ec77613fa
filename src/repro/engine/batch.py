"""Batched multi-query search: ``search_many(index, queries, k)``.

Every query of a batch run in the parent goes through the same pipeline
as a single ``index.search`` — :func:`repro.engine.core._knn_pipeline`:
guarded generation, policy activation, the one refinement loop, the
accounting invariant — so its result and stats are exactly the
single-query ones.
What this module adds is the *batch axis*: validation amortised once per
matrix, one row-code kernel call per block of queries (exact, so each
query gets the bounds a single search computes, bit for bit), an
``engine.search_many`` obs span, and — for an exact batch on
a :class:`~repro.cluster.ShardRouter` backed by a persistent
:class:`~repro.cluster.ShardWorkerPool` — one full sub-search per shard
on the already-warm workers, merged by the parent into global top-k
results.  That is the parallel path, so a caller who wants a batch
spread over cores builds ``build_sharded(matrix, shards=cores,
worker_pool=True)`` (see ``docs/CONCURRENCY.md``).  Every other batch —
any index, a serial router, a non-exact policy, a pool with a worker
down — is a loop over the queries in the parent.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.engine.approx import ApproxPolicy, resolve_policy
from repro.engine.core import _EXACT_POLICY, _check_invariant, _knn_pipeline
from repro.exceptions import SeriesMismatchError
from repro.index.results import Neighbor, SearchStats

__all__ = ["search_many"]

#: Queries per row-code kernel call: at most 64, and about 2**18 bounds.
QUERY_BLOCK, BLOCK_BOUNDS = 64, 1 << 18


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
        into the approximate tier; ``None`` is exact.

    Each query's answer and stats are what ``index.search(query, k,
    policy)`` returns, except that an exact batch on a pooled router
    reports the merged stats of the shards' sub-searches.  Per-query
    stats are published to the active obs registry under the index's
    usual ``<obs_name>.search`` prefix, with the whole batch wrapped in
    an ``engine.search_many`` span.
    """
    queries = _validate(index, queries)
    if not 1 <= k <= len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    policy = resolve_policy(policy)

    with obs.span("engine.search_many"):
        results = None
        if policy.exact and getattr(index, "worker_pool", None) is not None:
            results = _pooled_fanout(index, queries, k)
        if results is None:
            results = _pipelines(index, queries, k, policy)

    prefix = f"{index.obs_name}.search"
    for _, stats in results:
        stats.publish(prefix)
    return results


def _shard_batch(sub, queries, k: int) -> list:
    """One shard's exact sub-search of a whole batch, at ``min(k, size)``.

    The per-shard half of :func:`_pooled_fanout`, run by each pool
    worker for its ``batch`` request.
    """
    return _pipelines(sub, queries, min(k, len(sub)), _EXACT_POLICY)


def _pipelines(index, queries, k: int, policy: ApproxPolicy) -> list:
    """:func:`_knn_pipeline` for every query, one code-kernel call a block.

    On an index with row codes a block of queries is bounded against
    every row in one :meth:`~repro.compression.codes.RowCodes.bounds_sq`
    call, and each query's code stage takes its row of the block.  A
    tree that walks on its codes bounds each query in its own walk.
    """
    codes = getattr(index, "row_codes", None)
    if codes is None or getattr(index, "code_walked", False):
        return [_knn_pipeline(index, query, k, policy) for query in queries]
    size = max(1, min(QUERY_BLOCK, BLOCK_BOUNDS // max(len(codes), 1)))
    results = []
    for start in range(0, len(queries), size):
        block = queries[start : start + size]
        with obs.span("engine.codes"):
            lower, upper = codes.bounds_sq(block)
        results.extend(
            _knn_pipeline(index, query, k, policy, (lower[i], upper[i]))
            for i, query in enumerate(block)
        )
    return results


def _pooled_fanout(router, queries, k):
    """One full sub-search per shard on the pool, merged into global top-k.

    The parallelism axis is the *shard*: each warm worker runs the whole
    batch against its shard at ``min(k, shard_size)`` — exact within
    the shard, so the union of per-shard answers contains the global
    top-k — and the parent translates sequence ids (results and
    quarantine reports) to global ids and keeps the k canonical smallest
    ``(distance, seq_id)`` pairs per query.  Per-shard stats are
    published under each shard's own obs name; the merged per-query
    stats keep the extended accounting invariant globally, because the
    shards partition the population and each sub-search already honours
    it locally.  That containment argument needs *exact* sub-searches,
    so only exact batches come here.

    Returns ``None`` when a worker is unavailable: the caller then runs
    the batch in the parent over the router's filter, which needs no
    worker — the batch loses its parallelism, never its answer.
    """
    batches = router.worker_pool.batch_search(queries, k)
    views = router.shard_views()
    parts = [batches.get(shard) for shard in router.populated_shards()]
    if any(part is None for part in parts):
        return None
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
