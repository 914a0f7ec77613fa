"""The exactness contract: ``ApproxPolicy(0.0)`` is a no-op.

With ``epsilon=0`` the approximate tier must be *bit-identical* to the
exact engine — same ids, same float distances, same ordering, and the
same :class:`~repro.index.results.SearchStats` field for field — for
every backend, shard count in {1, 2, 4, 7}, and storage mode (cache,
mmap, worker pool), mirroring ``test_block_identity.py``.  The exact
relaxation factor multiplies lower bounds by exactly ``1.0`` (an IEEE
no-op), so nothing may drift: not results, not accounting, not the
``approximate`` flag.
"""

import dataclasses

import pytest

from repro.cluster import build_sharded
from repro.engine import ApproxPolicy, available_indexes, get_index, search_many
from repro.index.flat import FlatSketchIndex
from repro.index.vptree import VPTreeIndex
from repro.storage.pagestore import SequencePageStore
from tests.engine.conftest import shard_backend

BACKENDS = tuple(name for name in available_indexes() if name != "sharded")
SHARD_COUNTS = (1, 2, 4, 7)
EXACT = ApproxPolicy(epsilon=0.0)


def snap(hits, stats):
    """Everything a query answer observable to a caller, as plain data."""
    return (
        [(h.distance, h.seq_id, h.name) for h in hits],
        dataclasses.asdict(stats),
    )


def assert_exact_flags(stats):
    assert stats["approximate"] is False
    assert stats["stopped_early"] is False
    assert stats["skipped_approx"] == 0


def run_knn(index, query, k, policy):
    hits, stats = index.search(query, k=k, policy=policy)
    return snap(hits, stats)


def run_range(index, query, radius, policy):
    hits, stats = index.range_search(query, radius=radius, policy=policy)
    return snap(hits, stats)


def test_exact_policy_is_the_default_policy():
    assert EXACT.exact
    assert ApproxPolicy().exact
    assert EXACT.relax_sq == 1.0
    assert not ApproxPolicy.default().exact


@pytest.mark.parametrize("backend", BACKENDS)
class TestMonolithic:
    def test_knn_exact_policy_identical(self, matrix, queries, backend):
        index = get_index(backend, matrix)
        for query in queries:
            for k in (1, 2, 5, 9):
                plain = run_knn(index, query, k, None)
                explicit = run_knn(index, query, k, EXACT)
                assert explicit == plain, (backend, k)
                assert_exact_flags(explicit[1])

    def test_range_exact_policy_identical(self, matrix, queries, backend):
        index = get_index(backend, matrix)
        for query in queries:
            far, _ = index.search(query, k=9)
            for radius in (far[4].distance, far[-1].distance, 0.0):
                plain = run_range(index, query, radius, None)
                explicit = run_range(index, query, radius, EXACT)
                assert explicit == plain, (backend, radius)
                assert_exact_flags(explicit[1])

    def test_blocked_verifier_identical_under_exact_policy(
        self, matrix, queries, backend, monkeypatch
    ):
        index = get_index(backend, matrix)
        query = queries[0]
        monkeypatch.setenv("REPRO_VERIFY_BLOCK", "0")
        scalar = run_knn(index, query, 5, EXACT)
        for block in (3, 7, 256):
            monkeypatch.setenv("REPRO_VERIFY_BLOCK", str(block))
            assert run_knn(index, query, 5, EXACT) == scalar, (backend, block)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestSharded:
    """A router over ``shard_backend(backend)`` shards; its exact answers
    also equal the monolithic ``backend``'s."""

    def test_knn_exact_policy_identical(self, matrix, queries, backend, shards):
        router = build_sharded(
            matrix, shards=shards, backend=shard_backend(backend)
        )
        mono = get_index(backend, matrix)
        for query in queries:
            for k in (1, 5):
                plain = run_knn(router, query, k, None)
                explicit = run_knn(router, query, k, EXACT)
                assert explicit == plain, (backend, shards, k)
                assert_exact_flags(explicit[1])
                assert explicit[0] == run_knn(mono, query, k, None)[0]

    def test_range_exact_policy_identical(
        self, matrix, queries, backend, shards
    ):
        router = build_sharded(
            matrix, shards=shards, backend=shard_backend(backend)
        )
        mono = get_index(backend, matrix)
        query = queries[0]
        far, _ = router.search(query, k=9)
        for radius in (far[4].distance, 0.0):
            plain = run_range(router, query, radius, None)
            explicit = run_range(router, query, radius, EXACT)
            assert explicit == plain, (backend, shards, radius)
            assert explicit[0] == run_range(mono, query, radius, None)[0]


@pytest.mark.parametrize(
    "cache_bytes,use_mmap",
    [(0, False), (0, True), (1 << 20, False), (1 << 20, True)],
    ids=["plain", "mmap", "cache", "cache+mmap"],
)
@pytest.mark.parametrize("cls", [FlatSketchIndex, VPTreeIndex])
def test_disk_store_modes(
    matrix, queries, tmp_path, cls, cache_bytes, use_mmap
):
    """Cache and mmap toggles never interact with the exact policy."""
    store = SequencePageStore(
        tmp_path / "rows.dat",
        matrix.shape[1],
        cache_bytes=cache_bytes,
        use_mmap=use_mmap,
    )
    kwargs = {"store": store}
    if cls is VPTreeIndex:
        kwargs["seed"] = 7
    index = cls(matrix, **kwargs)
    for query in queries[:3]:
        for k in (1, 5):
            plain = run_knn(index, query, k, None)
            explicit = run_knn(index, query, k, EXACT)
            assert explicit == plain, (cls.__name__, cache_bytes, use_mmap)
        far, _ = index.search(query, k=9)
        assert run_range(index, query, far[4].distance, EXACT) == run_range(
            index, query, far[4].distance, None
        )
    store.close()


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
def test_worker_pool_modes(matrix, queries, pooled):
    """Pooled scatter under the exact wire policy equals the reference.

    The policy crosses the pool protocol as a wire tuple; an exact one
    must round-trip to answers indistinguishable from a policy-less
    serial router.
    """
    reference = build_sharded(matrix, shards=3, backend="flat")
    router = build_sharded(
        matrix, shards=3, backend="flat", worker_pool=pooled
    )
    try:
        assert (router.worker_pool is not None) == pooled
        for query in queries:
            explicit = snap(*router.search(query, k=5, policy=EXACT))
            plain = snap(*reference.search(query, k=5))
            assert explicit == plain, pooled
    finally:
        close = getattr(router, "close", None)
        if close is not None:
            close()


def test_batched_search_exact_policy_identical(matrix, queries):
    """``search_many`` with the exact policy equals the plain batch."""
    import numpy as np

    index = get_index("flat", matrix)
    batch = np.stack(queries)
    plain = [
        snap(hits, stats) for hits, stats in search_many(index, batch, k=5)
    ]
    explicit = [
        snap(hits, stats)
        for hits, stats in search_many(index, batch, k=5, policy=EXACT)
    ]
    assert explicit == plain
    for _, stats in explicit:
        assert_exact_flags(stats)
