"""The three k-NN serving workloads (see README.md for why each exists).

All three draw a database and a disjoint query set from
``QueryLogGenerator(seed)`` with the archetype shares of
``DEFAULT_MIXTURE`` met exactly (a stratified draw: the share of hard,
aperiodic queries is then the same for every seed, so a seed changes the
series and not the difficulty of the mix), replay the fixed query set in
passes, and take a query's latency as its median across passes.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter

import numpy as np

from repro import (
    ApproxPolicy,
    BestMinErrorCompressor,
    QueryLogGenerator,
    SketchDatabase,
    Spectrum,
    TimeSeriesCollection,
    batch_bounds,
    build_sharded,
    get_index,
    search_many,
)
from repro.datagen import DEFAULT_MIXTURE
from repro.index import SearchStats
from repro.storage import SequencePageStore

from harness import Workload, latency_metrics
from oracle import KnnOracle, check_invariant

K = 10
WARMUP_QUERIES = 20
#: The load rate comes from warm builds made beside the serving index, one
#: every :data:`BUILD_GAP_S` seconds of the untraced timed phase, and is
#: that of the fastest.  A build writes a file of twice the user bytes, and
#: on this host the kernel's share of that write takes anything from 7 to
#: 140 ms (wall far above user time, in a pattern of its own: every second
#: or third build); a third of a run's builds escape it, so the fastest is
#: the build's own cost, and it moves only as the queries do, with the
#: host's speed.  The median sat between the two modes and moved 2x.
BUILD_GAP_S = 0.6
BOUND_METHOD = "best_min_error_safe"  # FlatSketchIndex's default


def mixture_counts(count: int) -> dict[str, int]:
    """How many of ``count`` series each archetype gets (shares met exactly)."""
    shares = {a: w / sum(DEFAULT_MIXTURE.values()) for a, w in DEFAULT_MIXTURE.items()}
    counts = {a: int(count * s) for a, s in shares.items()}
    # Largest remainders take the rows the floors left over.
    by_remainder = sorted(shares, key=lambda a: counts[a] - count * shares[a])
    for archetype in by_remainder[: count - sum(counts.values())]:
        counts[archetype] += 1
    return counts


def stratified(generator, count: int, prefix: str) -> TimeSeriesCollection:
    """``count`` synthetic series, grouped by archetype, shares met exactly."""
    series = []
    for archetype, n in mixture_counts(count).items():
        if n:
            series.extend(
                generator.synthetic_database(
                    n, mixture={archetype: 1.0}, name_prefix=f"{prefix}-{archetype}"
                )
            )
    return TimeSeriesCollection(series)


def directory_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class KnnWorkload(Workload):
    """Shared set-up, replay loop, checks and metrics of the k-NN workloads."""

    name = ""

    def __init__(self, seed: int, scale: dict, scratch: str) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.index = None
        self.store = None  # a page store this workload opened itself
        self.stats: dict[int, SearchStats] = {}
        self.results: dict[int, int] = {}
        self.recalls: dict[int, float] = {}
        self.approximate: set[int] = set()

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        scale = self.scale
        generator = QueryLogGenerator(seed=self.seed, days=scale["days"])
        self.matrix = stratified(generator, scale["rows"], "db").standardize().as_matrix()
        queries = stratified(generator, scale["queries"], "query").standardize().as_matrix()
        # A query's rank within its archetype decides how it is asked (k,
        # range, single or batched, exact or approximate), so every way of
        # asking sees the same archetype mix; the order of asking is random.
        ranks = np.concatenate(
            [np.arange(n) for n in mixture_counts(scale["queries"]).values()]
        )
        order = np.random.default_rng(self.seed).permutation(len(queries))
        self.queries = np.ascontiguousarray(queries[order])
        self.rank = ranks[order]
        self.directory = os.path.join(self.scratch, "serving")
        os.mkdir(self.directory)
        start = perf_counter()
        self.build()
        self.load_s = perf_counter() - start
        self.oracle = KnnOracle(self.matrix, self.queries, K)
        # The lowest ranks of every archetype: the same mix for every seed.
        for i in np.argsort(self.rank, kind="stable")[:WARMUP_QUERIES]:
            self.index.search(self.queries[i], k=K)

    def build(self) -> None:
        """Build ``self.index`` (and ``self.store``) under ``self.directory``."""
        raise NotImplementedError

    def build_if_due(self, recorder) -> None:
        """Between two queries: a warm build, if the last is long enough ago.

        Built beside the serving index, then closed and deleted again;
        only the build is timed.
        """
        if recorder.tracer is not None or perf_counter() < self._next_build:
            return
        serving = self.directory, self.index, self.store
        self.directory = os.path.join(self.scratch, "load")
        os.mkdir(self.directory)
        self.index = self.store = None
        try:
            recorder.op("load", self.build)
        finally:
            self.close()
            shutil.rmtree(self.directory)
            self.directory, self.index, self.store = serving
        self._next_build = perf_counter() + BUILD_GAP_S

    def stores(self) -> list:
        """The page stores queries read through, for the I/O counters."""
        return [self.index.store]

    def settings(self) -> dict:
        store = self.stores()[0]
        return {
            "cache_bytes": store.cache.budget_bytes if store.cache else 0,
            "use_mmap": store.uses_mmap,
            "store_fsync": store.fsync_enabled,
            "k": K,
        }

    def _io_snapshot(self) -> dict[str, int]:
        totals = dict.fromkeys(
            ("read_calls", "pages_read", "hits", "misses", "evictions"), 0
        )
        for store in self.stores():
            totals["read_calls"] += store.stats.read_calls
            totals["pages_read"] += store.stats.pages_read
            if store.cache is not None:
                totals["hits"] += store.cache.hits
                totals["misses"] += store.cache.misses
                totals["evictions"] += store.cache.evictions
        return totals

    def begin(self, recorder) -> None:
        self._io_start = self._io_snapshot()
        self._queries_run = 0
        self._next_build = perf_counter()

    # -- the timed replay -------------------------------------------------
    def round(self, recorder, number: int, stop_at: float | None) -> None:
        for i in range(len(self.queries)):
            if stop_at is not None and perf_counter() >= stop_at:
                return
            self.query_op(recorder, i)
            self._queries_run += 1
            self.build_if_due(recorder)

    def query_op(self, recorder, i: int) -> None:
        raise NotImplementedError

    def knn_op(self, recorder, i: int, k: int, policy=None, kind="knn") -> None:
        query = self.queries[i]
        answer = recorder.op(
            kind, lambda: self.index.search(query, k=k, policy=policy), key=i
        )
        if answer is not None:
            self.check_knn(recorder, i, answer, k, policy)

    def check_knn(self, recorder, i: int, answer, k: int, policy) -> None:
        neighbors, stats = answer
        if policy is None:
            reason = self.oracle.check_knn(i, neighbors, k)
        else:
            reason = self.oracle.check_approx(i, neighbors, k, policy.epsilon, stats)
            self.approximate.add(i)
        self.recalls[i] = self.oracle.recall(i, neighbors, k)
        recorder.check(reason or check_invariant(stats, len(self.matrix)), f"query {i}")
        self.stats[i] = stats
        self.results[i] = len(neighbors)

    def verify(self, recorder) -> None:
        missing = set(range(len(self.queries))) - set(self.stats)
        recorder.check(
            f"queries never answered: {sorted(missing)[:5]}" if missing else None
        )

    # -- metrics ----------------------------------------------------------
    query_kinds = ("knn",)

    def query_latencies(self, recorder, traced: bool = False) -> list[float]:
        return list(recorder.per_key(self.query_kinds, traced).values())

    def end_to_end(self, recorder, load_s) -> dict[str, float]:
        metrics = latency_metrics(self.query_latencies(recorder))
        builds = recorder.seconds("load")
        metrics["load_rows_per_s"] = len(self.matrix) / min(recorder.seconds("load"))
        # Recall of the approximate answers where there are any; of the
        # exact ones (which the checks hold to 1) where there are none.
        judged = self.approximate or set(self.recalls)
        metrics["recall_at_10"] = float(np.mean([self.recalls[i] for i in judged]))
        return metrics

    def mean_stat(self, field: str) -> float:
        return float(np.mean([getattr(s, field) for s in self.stats.values()]))

    def per_layer(self, recorder, summary) -> dict[str, float]:
        kinds = set(self.query_kinds)
        traced_queries = self.traced_query_count(recorder)
        per_query_ms = 1e3 / max(traced_queries, 1)
        io_end = self._io_snapshot()
        io = {key: io_end[key] - self._io_start[key] for key in io_end}
        lookups = io["hits"] + io["misses"]
        disk = directory_bytes(self.scratch)
        retrievals = sum(s.full_retrievals for s in self.stats.values())
        reads = {"SequencePageStore.read", "SequencePageStore.read_many",
                 "MemorySequenceStore.read", "MemorySequenceStore.read_many"}
        engine = {"FlatSketchIndex.search", "FlatSketchIndex.range_search",
                  "VPTreeIndex.search", "VPTreeIndex.range_search",
                  "ShardRouter.search", "ShardRouter.range_search"}
        setup = {"setup"}
        return {
            "retrievals_per_query": self.mean_stat("full_retrievals"),
            "store_bytes_per_user_byte": disk / self.matrix.nbytes,
            "compression.from_matrix_s": summary.total_s({"SketchDatabase.from_matrix"}, setup),
            "compression.rows": float(len(self.matrix)),
            "storage.append_matrix_s": summary.total_s({"SequencePageStore.append_matrix"}, setup),
            "storage.fetch_ms_per_query": summary.self_s(reads, kinds) * per_query_ms,
            "storage.read_calls_per_query": io["read_calls"] / max(self._queries_run, 1),
            "storage.pages_read_per_query": io["pages_read"] / max(self._queries_run, 1),
            "storage.cache.hit_rate": io["hits"] / lookups if lookups else 0.0,
            "storage.cache.evictions": float(io["evictions"]),
            "storage.bytes_on_disk": float(disk),
            "bounds.pairs_per_query": self.mean_stat("bound_computations"),
            "index.candidates_after_sub_filter_per_query": self.mean_stat("candidates_after_sub_filter"),
            "engine.verify_ms_per_query": summary.self_s(engine, kinds) * per_query_ms,
            "engine.early_abandons_per_query": self.mean_stat("early_abandons"),
            "engine.skipped_approx_per_query": self.mean_stat("skipped_approx"),
            "engine.stopped_early_share": self.mean_stat("stopped_early"),
            "engine.useful_retrieval_ratio": (
                sum(self.results.values()) / retrievals if retrievals else 0.0
            ),
        }

    def traced_query_count(self, recorder) -> int:
        return sum(len(recorder.traced[kind]) for kind in self.query_kinds)

    def close(self) -> None:
        """Stop the router's workers (if any) and close the page store."""
        closer = getattr(self.index, "close", None)
        if closer is not None:
            closer()
        if self.store is not None:
            self.store.close()
        self.index = self.store = None


class KnnFlatDisk(KnnWorkload):
    """Flat index over a checksummed page store with a cache 1/8 its size."""

    name = "knn-flat-disk"
    query_kinds = ("knn", "range")

    def build(self) -> None:
        matrix = self.matrix
        self.sketches = SketchDatabase.from_matrix(matrix, BestMinErrorCompressor(14))
        self.store = SequencePageStore(
            os.path.join(self.directory, "sequences.dat"),
            matrix.shape[1],
            cache_bytes=matrix.nbytes // 8,
            use_mmap=False,
        )
        self.store.append_matrix(matrix)
        self.index = get_index("flat", matrix, store=self.store, sketch_db=self.sketches)

    def begin(self, recorder) -> None:
        super().begin(recorder)
        self._kernel_s = 0.0

    def query_op(self, recorder, i: int) -> None:
        self.ask(recorder, i)
        if recorder.tracing:
            # The kernel the index runs is bound at construction and cannot
            # be wrapped: the same public kernel is replayed right after the
            # traced query, on the same sketches, while the host is as fast
            # (or slow) as it was for the query itself.
            start = perf_counter()
            batch_bounds(Spectrum.from_series(self.queries[i]), self.sketches, BOUND_METHOD)
            self._kernel_s += perf_counter() - start

    def ask(self, recorder, i: int) -> None:
        if self.rank[i] % 10 not in (2, 5, 8):
            self.knn_op(recorder, i, K)
            return
        query, radius = self.queries[i], self.oracle.kth(i, K)
        answer = recorder.op(
            "range", lambda: self.index.range_search(query, radius), key=i
        )
        if answer is not None:
            neighbors, stats = answer
            reason = self.oracle.check_range(i, neighbors, radius)
            right = recorder.check(
                reason or check_invariant(stats, len(self.matrix)), f"range {i}"
            )
            self.recalls[i] = float(right)
            self.stats[i] = stats
            self.results[i] = len(neighbors)

    def per_layer(self, recorder, summary) -> dict[str, float]:
        metrics = super().per_layer(recorder, summary)
        per_query_ms = 1e3 / max(self.traced_query_count(recorder), 1)
        candidates = {"FlatSketchIndex.knn_candidates", "FlatSketchIndex.range_candidates"}
        span_ms = summary.self_s(candidates, set(self.query_kinds)) * per_query_ms
        kernel_ms = self._kernel_s * per_query_ms
        metrics["bounds.kernel_ms_per_query"] = kernel_ms
        metrics["index.flat.candidates_ms_per_query"] = span_ms - kernel_ms
        metrics["index.flat.build_s"] = summary.self_s({"FlatSketchIndex.__init__"}, {"setup"})
        return metrics

    def rebook(self, budget: dict[str, float]) -> dict[str, float]:
        """The replayed kernel time is the bounds layer's, not the index's."""
        budget["index"] -= self._kernel_s
        budget["bounds"] += self._kernel_s
        return {"index->bounds": self._kernel_s}


class KnnVPTreeCached(KnnWorkload):
    """The paper's VP-tree over a page store whose cache holds everything."""

    name = "knn-vptree-cached"

    def build(self) -> None:
        matrix = self.matrix
        self.store = SequencePageStore(
            os.path.join(self.directory, "sequences.dat"),
            matrix.shape[1],
            cache_bytes=4 * matrix.nbytes,  # page padding doubles the bytes; all fit
        )
        self.index = get_index("vptree", matrix, store=self.store)

    def query_op(self, recorder, i: int) -> None:
        self.knn_op(recorder, i, 1 if self.rank[i] % 2 == 0 else K)

    def per_layer(self, recorder, summary) -> dict[str, float]:
        metrics = super().per_layer(recorder, summary)
        per_query_ms = 1e3 / max(self.traced_query_count(recorder), 1)
        candidates = {"VPTreeIndex.knn_candidates", "VPTreeIndex.range_candidates"}
        metrics["index.vptree.candidates_ms_per_query"] = (
            summary.self_s(candidates, set(self.query_kinds)) * per_query_ms
        )
        metrics["index.vptree.build_s"] = summary.self_s({"VPTreeIndex.__init__"}, {"setup"})
        metrics["index.vptree.nodes_visited_per_query"] = self.mean_stat("nodes_visited")
        metrics["index.vptree.subtrees_pruned_per_query"] = self.mean_stat("subtrees_pruned")
        return metrics


class KnnShardedPool(KnnWorkload):
    """Two flat shards behind a router and a persistent worker pool."""

    name = "knn-sharded-pool"
    query_kinds = ("knn", "knn-approx", "batch", "batch-approx")
    SHARDS = 2

    def build(self) -> None:
        self.index = build_sharded(
            self.matrix,
            shards=self.SHARDS,
            backend="flat",
            directory=os.path.join(self.directory, "shards"),
            worker_pool=True,
        )

    def stores(self) -> list:
        return [sub.store for sub, _ in self.index.shard_views()]

    def settings(self) -> dict:
        return {**super().settings(), "shards": self.SHARDS, "worker_pool": True,
                "approx": ApproxPolicy.default().wire()}

    def worker_pids(self) -> list[int]:
        return [pid for pid in self.index.worker_pool.pids().values() if pid]

    def single_ids(self) -> np.ndarray:
        """Queries served one ``router.search`` each: the even ranks."""
        return np.flatnonzero(self.rank % 2 == 0)

    def batches(self) -> list[np.ndarray]:
        """The odd ranks, in asking order, cut into ``search_many`` batches."""
        batched = np.flatnonzero(self.rank % 2 == 1)
        size = self.scale["batch"]
        return [batched[first : first + size] for first in range(0, len(batched), size)]

    def round(self, recorder, number: int, stop_at: float | None) -> None:
        for i in self.single_ids():
            if stop_at is not None and perf_counter() >= stop_at:
                return
            policy = ApproxPolicy.default() if self.rank[i] % 4 == 2 else None
            self.knn_op(recorder, int(i), K, policy, "knn-approx" if policy else "knn")
            self._queries_run += 1
            self.build_if_due(recorder)
        for position, ids in enumerate(self.batches()):
            if stop_at is not None and perf_counter() >= stop_at:
                return
            policy = ApproxPolicy.default() if position % 2 else None
            self.batch_op(recorder, position, ids, policy)
            self._queries_run += len(ids)
            self.build_if_due(recorder)

    def batch_op(self, recorder, position: int, ids, policy) -> None:
        queries = self.queries[ids]
        kind = "batch-approx" if policy else "batch"
        answers = recorder.op(
            kind,
            lambda: search_many(self.index, queries, k=K, policy=policy),
            key=position,
            layer="engine",
        )
        if answers is None:
            return
        for i, answer in zip(ids, answers):
            self.check_knn(recorder, int(i), answer, K, policy)

    def end_to_end(self, recorder, load_s) -> dict[str, float]:
        """Throughput over every query; percentiles over the single ones.

        A batch member has no latency of its own, and giving each an
        equal share of its batch's wall makes a second mode that the
        95th percentile then straddles.
        """
        metrics = super().end_to_end(recorder, load_s)
        walls = recorder.per_key(self.query_kinds)
        metrics["queries_per_s"] = len(self.queries) / sum(walls.values())
        return metrics

    def query_latencies(self, recorder, traced: bool = False) -> list[float]:
        return list(recorder.per_key(("knn", "knn-approx"), traced).values())

    def traced_query_count(self, recorder) -> int:
        sizes = [len(ids) for ids in self.batches()]
        count = 0
        for kind in self.query_kinds:
            for key, _ in recorder.traced[kind]:
                count += sizes[key] if kind.startswith("batch") else 1
        return count

    def per_layer(self, recorder, summary) -> dict[str, float]:
        metrics = super().per_layer(recorder, summary)
        single = {"knn", "knn-approx"}
        batched = {"batch", "batch-approx"}
        singles = sum(len(recorder.traced[kind]) for kind in single)
        batch_queries = self.traced_query_count(recorder) - singles
        scatter_ms = summary.total_s(
            {"ShardWorkerPool.scatter_knn", "ShardWorkerPool.scatter_range"}, single
        ) / max(singles, 1) * 1e3
        gather = {"ShardRouter.knn_candidates", "ShardRouter.range_candidates",
                  "ShardRouter.gather_knn"}
        pool_batch = {"ShardWorkerPool.batch_search", "ShardWorkerPool.batch_candidates"}
        shard_ms, sizes = self.in_process_replay()
        # The workers' kernels cannot be seen from here; the same kernel
        # over the whole population, replayed in the parent, prices them.
        sketches = SketchDatabase.from_matrix(self.matrix, BestMinErrorCompressor(14))
        start = perf_counter()
        for query in self.queries:
            batch_bounds(Spectrum.from_series(query), sketches, BOUND_METHOD)
        kernel_ms = (perf_counter() - start) / len(self.queries) * 1e3
        pool = self.index.worker_pool
        retrievals = {
            approx: float(np.mean([
                s.full_retrievals for i, s in self.stats.items()
                if (i in self.approximate) == approx
            ]))
            for approx in (False, True)
        }
        metrics.update({
            "engine.retrievals_exact_per_query": retrievals[False],
            "engine.retrievals_approx_per_query": retrievals[True],
            "bounds.kernel_ms_per_query": kernel_ms,
            "engine.search_many_ms_per_query": (
                summary.self_s({"op:batch", "op:batch-approx"}, batched)
                / max(batch_queries, 1) * 1e3
            ),
            "cluster.build_sharded_s": self.load_s,
            "cluster.pool.start_s": summary.total_s({"ShardWorkerPool.start"}, {"setup"}),
            "cluster.scatter_wait_ms_per_query": scatter_ms,
            "cluster.gather_ms_per_query": (
                summary.self_s(gather, single) / max(singles, 1) * 1e3
            ),
            "cluster.ipc_overhead_ms_per_query": scatter_ms - shard_ms,
            "cluster.batch_ms_per_query": (
                summary.total_s(pool_batch, batched) / max(batch_queries, 1) * 1e3
            ),
            "cluster.merged_candidates_per_query": self.mean_stat("candidates_after_sub_filter"),
            "cluster.shard_skew": float(np.mean(sizes.max(axis=1) / sizes.mean(axis=1))),
            "cluster.pool.respawns": float(
                sum(pool.respawn_count(shard) for shard in range(self.SHARDS))
            ),
        })
        return metrics

    def in_process_replay(self):
        """Slowest shard's candidate time per query, without a pool.

        Worker-side time is one opaque wait to the parent, so the same
        queries run against an in-process router over the same shards:
        what is left of the pooled scatter wait after the slowest
        shard's own candidate generation is pipes, pickling and
        scheduling.  Also returns per-query per-shard candidate counts.
        """
        router = build_sharded(
            self.matrix, shards=self.SHARDS, backend="flat", worker_pool=False
        )
        try:
            shards = [sub for sub, _ in router.shard_views()]
            slowest = np.zeros(len(self.queries))
            sizes = np.zeros((len(self.queries), len(shards)))
            for i, query in enumerate(self.queries):
                for j, sub in enumerate(shards):
                    start = perf_counter()
                    candidates = sub.knn_candidates(query, K, SearchStats())
                    slowest[i] = max(slowest[i], perf_counter() - start)
                    sizes[i, j] = len(candidates.entries)
            singles = self.single_ids()
            return float(slowest[singles].mean() * 1e3), np.maximum(sizes, 1.0)
        finally:
            router.close()
