"""The scatter-gather router's protocol surface and plumbing."""

import numpy as np
import pytest

from repro import obs
from repro.cluster import Partitioner, ShardRouter, build_sharded
from repro.engine import get_index, search_many
from repro.exceptions import KeyNotFoundError, ReproError


def split(matrix, shards, policy="hash", seed=0):
    """Hand-rolled ``(index, global_ids)`` pairs for direct construction."""
    members = Partitioner(shards, policy=policy, seed=seed).members(
        len(matrix)
    )
    return [
        (get_index("flat", matrix[rows]) if rows.size else None, rows)
        for rows in members
    ]


class TestConstruction:
    def test_len_and_sequence_length(self, matrix):
        router = ShardRouter(split(matrix, 4))
        assert len(router) == len(matrix)
        assert router.sequence_length == matrix.shape[1]
        assert router.shard_count == 4

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ReproError, match="at least one shard"):
            ShardRouter([])

    def test_populated_shard_needs_an_index(self, matrix):
        with pytest.raises(ReproError, match="needs an index"):
            ShardRouter([(None, np.arange(3))])

    def test_index_size_must_match_ids(self, matrix):
        sub = get_index("flat", matrix[:5])
        with pytest.raises(ReproError, match="holds 5 members but"):
            ShardRouter([(sub, np.arange(4))])

    def test_ids_must_partition_the_range(self, matrix):
        sub_a = get_index("flat", matrix[:5])
        sub_b = get_index("flat", matrix[5:10])
        # Shard B repeats id 0 and skips id 9.
        with pytest.raises(ReproError, match="partition"):
            ShardRouter(
                [(sub_a, np.arange(5)), (sub_b, np.array([0, 5, 6, 7, 8]))]
            )

    def test_all_empty_router_needs_sequence_length(self):
        with pytest.raises(ReproError, match="sequence_length"):
            ShardRouter([(None, np.array([], dtype=np.intp))])
        router = ShardRouter(
            [(None, np.array([], dtype=np.intp))], sequence_length=64
        )
        assert len(router) == 0
        assert router.sequence_length == 64

    def test_empty_shards_are_skipped_by_views(self, matrix):
        # round_robin over more shards than members leaves empties.
        router = build_sharded(
            matrix[:3], shards=5, policy="round_robin", backend="flat"
        )
        assert router.shard_count == 5
        assert len(router.shard_views()) == 3
        hits, _ = router.search(matrix[0], k=2)
        assert hits[0].seq_id == 0


class TestRouting:
    def test_fetch_translates_global_ids(self, matrix):
        router = ShardRouter(split(matrix, 3))
        for gid in (0, 7, len(matrix) - 1):
            assert np.array_equal(router.fetch(gid), matrix[gid])

    def test_fetch_out_of_range(self, matrix):
        router = ShardRouter(split(matrix, 3))
        with pytest.raises(KeyNotFoundError, match="out of range"):
            router.fetch(len(matrix))

    def test_shard_of_agrees_with_partitioner(self, matrix):
        parts = Partitioner(3, seed=2)
        router = build_sharded(matrix, partitioner=parts, backend="flat")
        for gid in range(len(matrix)):
            assert router.shard_of(gid) == parts.shard_of(gid)

    def test_result_names_survive_partitioning(self, matrix):
        names = [f"q{i}" for i in range(len(matrix))]
        router = build_sharded(matrix, shards=4, backend="flat", names=names)
        assert router.result_name(17) == "q17"
        hits, _ = router.search(matrix[17], k=1)
        assert hits[0].name == "q17"


class TestRouterStore:
    def test_read_matches_fetch(self, matrix):
        router = ShardRouter(split(matrix, 3))
        assert np.array_equal(router.store.read(11), matrix[11])
        assert len(router.store) == len(matrix)

    def test_read_many_reassembles_request_order(self, matrix):
        router = ShardRouter(split(matrix, 4))
        # Deliberately interleaves shards and repeats an id.
        ids = [31, 2, 77, 2, 50, 13]
        block = router.store.read_many(ids)
        assert np.array_equal(block, matrix[ids])

    @pytest.mark.parametrize("backend", ["flat", "mtree", "rtree"])
    def test_read_many_equals_stacked_fetch(self, matrix, backend):
        """Ids spanning shards, repeated and unsorted, as one block.

        ``mtree`` / ``rtree`` shards keep no store, so their rows come
        through ``fetch_block``'s per-row fallback.
        """
        ids = [len(matrix) - 1, 4, 4, 0, 33, 17, 4, 61, 2]
        with build_sharded(
            matrix, shards=3, backend=backend, worker_pool=False
        ) as router:
            expected = np.stack([router.fetch(gid) for gid in ids])
            assert np.array_equal(router.store.read_many(ids), expected)
            assert router.store.read_many([]).shape == (0, matrix.shape[1])
            for bad in (len(matrix), -1):
                with pytest.raises(KeyNotFoundError, match="out of range"):
                    router.store.read_many(ids + [bad])

    def test_read_many_keeps_each_stores_request_order(
        self, matrix, tmp_path, monkeypatch
    ):
        """Per-shard I/O counters, cache counters and LRU order equal a
        per-id ``fetch`` loop's: each shard is read in request order."""
        monkeypatch.setenv("REPRO_CACHE_BYTES", str(3 * 4096))
        ids = [40, 3, 41, 3, 90, 7, 40, 12, 55, 3, 70, 1]
        routers = [
            build_sharded(
                matrix, shards=3, backend="flat", worker_pool=False,
                directory=tmp_path / name,
            )
            for name in ("block", "per-id")
        ]
        with routers[0] as block, routers[1] as per_id:
            block.store.read_many(ids)
            for gid in ids:
                per_id.fetch(gid)
            for (ours, _), (theirs, _) in zip(
                block.shard_views(), per_id.shard_views()
            ):
                assert ours.store.stats == theirs.store.stats
                for name in ("hits", "misses", "evictions"):
                    assert getattr(ours.store.cache, name) == getattr(
                        theirs.store.cache, name
                    )
                assert [i for i, _ in ours.store.cache.items()] == [
                    i for i, _ in theirs.store.cache.items()
                ]


class TestInsert:
    def test_insert_routes_by_partitioner(self, matrix):
        # Pooled routers are read-only (docs/CONCURRENCY.md): inserts
        # need the live in-process sub-indexes.
        router = build_sharded(
            matrix, shards=3, backend="vptree", seed=1,
            names=[f"q{i}" for i in range(len(matrix))],
            worker_pool=False,
        )
        assert router.supports_insert
        row = np.full(matrix.shape[1], 0.25)
        gid = router.insert(row, "newbie")
        assert gid == len(matrix)
        assert router.shard_of(gid) == router._partitioner.shard_of(gid)
        hits, _ = router.search(row, k=1)
        assert (hits[0].seq_id, hits[0].distance) == (gid, 0.0)
        assert hits[0].name == "newbie"

    def test_flat_shards_cannot_insert(self, matrix):
        router = build_sharded(matrix, shards=3, backend="flat")
        assert not router.supports_insert
        with pytest.raises(ReproError, match="cannot insert"):
            router.insert(matrix[0])

    def test_router_without_partitioner_cannot_insert(self, matrix):
        router = ShardRouter(split(matrix, 2))
        assert not router.supports_insert


class TestObservability:
    def test_scatter_gather_spans_and_shard_tags(self, matrix, queries):
        """One filter span per query in the parent; shard tags per batch.

        Single queries (and every batch on a serial router) are bounded
        by the router's row codes, one engine ``engine.codes`` kernel
        pass under ``index.sharded.search`` (or per query block under
        ``engine.search_many``); only an
        exact pooled batch reaches the shards, whose merged sub-search
        stats land under their shard-addressed prefixes.
        """
        router = build_sharded(
            matrix, shards=3, backend="flat", seed=0, worker_pool=False
        )
        registry = obs.enable()
        try:
            router.search(queries[0], k=3)
            search_many(router, np.stack(queries), k=2)
        finally:
            obs.disable()
        snapshot = registry.snapshot()
        histograms = snapshot["histograms"]
        assert "span.index.sharded.search.engine.codes" in histograms
        assert "span.engine.search_many.engine.codes" in histograms
        assert not any("scatter" in name for name in histograms)
        assert not any("shard00" in name for name in snapshot["counters"])
        assert (
            snapshot["counters"]["index.sharded.search.queries"]
            == 1 + len(queries)
        )

        with build_sharded(
            matrix, shards=3, backend="flat", seed=0, worker_pool=True
        ) as pooled:
            registry = obs.enable()
            try:
                pooled.search(queries[0], k=3)
                search_many(pooled, np.stack(queries), k=2)
            finally:
                obs.disable()
        counters = registry.snapshot()["counters"]
        assert counters["cluster.fanout_shards"] == 3
        assert counters["cluster.pool.requests"] == 3  # the batch only
        assert (
            counters["index.sharded.shard00.search.queries"] == len(queries)
        )
        # One single-query search plus the merged batch results.
        assert counters["index.sharded.search.queries"] == 1 + len(queries)
