"""Block-vs-scalar bit-identity: the blocked verifier is a pure speedup.

The acceptance bar (ISSUE 7): for every backend, shard count in
{1, 2, 4, 7}, and storage mode (cache on/off, mmap on/off, worker pool
on/off), blockwise verification returns *exactly* what the scalar
reference loop returns — same ids, same float distances, same ordering,
and the same :class:`~repro.index.results.SearchStats` field for field
(``full_retrievals``, ``early_abandons``, pruning accounting, degraded
flags).  ``REPRO_VERIFY_BLOCK=0`` pins the scalar loop; awkward block
sizes (3, 7) exercise partial blocks and mid-block termination.

The only permitted difference is physical: the blocked path may prefetch
rows past the termination point, so store-level ``IOStats`` may charge
more reads — never fewer — than the scalar loop.  SearchStats must not
drift at all.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import build_sharded
from repro.engine import available_indexes, get_index
from repro.index.flat import FlatSketchIndex
from repro.index.vptree import VPTreeIndex
from repro.storage.pagestore import SequencePageStore
from tests.engine.conftest import shard_backend

BACKENDS = tuple(name for name in available_indexes() if name != "sharded")
SHARD_COUNTS = (1, 2, 4, 7)
BLOCK_SIZES = (3, 7, 256)
KS = (1, 2, 5, 9)


def snap(hits, stats):
    """Everything a query answer observable to a caller, as plain data."""
    return (
        [(h.distance, h.seq_id, h.name) for h in hits],
        dataclasses.asdict(stats),
    )


def assert_invariant(stats, size):
    assert (
        stats.candidates_pruned + stats.full_retrievals + stats.quarantined
        == size
    )


def run_knn(monkeypatch, index, query, k, block):
    monkeypatch.setenv("REPRO_VERIFY_BLOCK", str(block))
    hits, stats = index.search(query, k=k)
    assert_invariant(stats, len(index))
    return snap(hits, stats)


def run_range(monkeypatch, index, query, radius, block):
    monkeypatch.setenv("REPRO_VERIFY_BLOCK", str(block))
    hits, stats = index.range_search(query, radius=radius)
    assert_invariant(stats, len(index))
    return snap(hits, stats)


def test_suite_covers_every_backend():
    assert set(BACKENDS) == set(available_indexes()) - {"sharded"}


@pytest.mark.parametrize("backend", BACKENDS)
class TestMonolithic:
    def test_knn_blocked_equals_scalar(
        self, matrix, queries, backend, monkeypatch
    ):
        index = get_index(backend, matrix)
        for query in queries:
            for k in KS:
                scalar = run_knn(monkeypatch, index, query, k, 0)
                for block in BLOCK_SIZES:
                    blocked = run_knn(monkeypatch, index, query, k, block)
                    assert blocked == scalar, (backend, k, block)

    def test_range_blocked_equals_scalar(
        self, matrix, queries, backend, monkeypatch
    ):
        index = get_index(backend, matrix)
        for query in queries:
            far, _ = index.search(query, k=9)
            for radius in (far[4].distance, far[-1].distance, 0.0):
                scalar = run_range(monkeypatch, index, query, radius, 0)
                for block in BLOCK_SIZES:
                    blocked = run_range(
                        monkeypatch, index, query, radius, block
                    )
                    assert blocked == scalar, (backend, radius, block)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestSharded:
    """A router over ``shard_backend(backend)`` shards; its blocked
    answers also equal the monolithic ``backend``'s scalar ones."""

    def test_knn_blocked_equals_scalar(
        self, matrix, queries, backend, shards, monkeypatch
    ):
        router = build_sharded(
            matrix, shards=shards, backend=shard_backend(backend)
        )
        mono = get_index(backend, matrix)
        for query in queries:
            for k in (1, 5):
                scalar = run_knn(monkeypatch, router, query, k, 0)
                blocked = run_knn(monkeypatch, router, query, k, 7)
                assert blocked == scalar, (backend, shards, k)
                assert blocked[0] == run_knn(monkeypatch, mono, query, k, 0)[0]

    def test_range_blocked_equals_scalar(
        self, matrix, queries, backend, shards, monkeypatch
    ):
        router = build_sharded(
            matrix, shards=shards, backend=shard_backend(backend)
        )
        mono = get_index(backend, matrix)
        query = queries[0]
        far, _ = router.search(query, k=9)
        for radius in (far[4].distance, 0.0):
            scalar = run_range(monkeypatch, router, query, radius, 0)
            blocked = run_range(monkeypatch, router, query, radius, 7)
            assert blocked == scalar, (backend, shards, radius)
            assert blocked[0] == run_range(
                monkeypatch, mono, query, radius, 0
            )[0]


@pytest.mark.parametrize(
    "cache_bytes,use_mmap",
    [(0, False), (0, True), (1 << 20, False), (1 << 20, True)],
    ids=["plain", "mmap", "cache", "cache+mmap"],
)
@pytest.mark.parametrize("cls", [FlatSketchIndex, VPTreeIndex])
def test_disk_store_modes(
    matrix, queries, tmp_path, cls, cache_bytes, use_mmap, monkeypatch
):
    """Cache and mmap toggles change I/O plumbing, never the answer."""
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
    assert store.uses_mmap == use_mmap
    for query in queries[:3]:
        for k in (1, 5):
            scalar = run_knn(monkeypatch, index, query, k, 0)
            blocked = run_knn(monkeypatch, index, query, k, 5)
            assert blocked == scalar, (cls.__name__, cache_bytes, use_mmap)
        far, _ = index.search(query, k=9)
        scalar = run_range(monkeypatch, index, query, far[4].distance, 0)
        blocked = run_range(monkeypatch, index, query, far[4].distance, 5)
        assert blocked == scalar
    store.close()


def test_mmap_env_knob_routes_blocked_reads(
    matrix, queries, tmp_path, monkeypatch
):
    """REPRO_MMAP=1 + default blocking matches scalar buffered reads."""
    monkeypatch.setenv("REPRO_MMAP", "1")
    store = SequencePageStore(tmp_path / "env.dat", matrix.shape[1])
    assert store.uses_mmap
    index = FlatSketchIndex(matrix, store=store)
    for query in queries[:2]:
        scalar = run_knn(monkeypatch, index, query, 5, 0)
        blocked = run_knn(monkeypatch, index, query, 5, 256)
        assert blocked == scalar
    store.close()


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
def test_worker_pool_modes(matrix, queries, pooled, monkeypatch):
    """Pooled scatter under default blocking equals the scalar answer.

    Pool workers read ``REPRO_VERIFY_BLOCK`` in their own process, so
    the blocked router is built under the default environment and
    compared against an in-process scalar reference.
    """
    monkeypatch.delenv("REPRO_VERIFY_BLOCK", raising=False)
    reference = build_sharded(matrix, shards=3, backend="flat")
    router = build_sharded(
        matrix, shards=3, backend="flat", worker_pool=pooled
    )
    try:
        assert (router.worker_pool is not None) == pooled
        for query in queries:
            blocked_pool = snap(*router.search(query, k=5))
            monkeypatch.setenv("REPRO_VERIFY_BLOCK", "0")
            scalar = snap(*reference.search(query, k=5))
            monkeypatch.delenv("REPRO_VERIFY_BLOCK", raising=False)
            assert blocked_pool == scalar, pooled
    finally:
        close = getattr(router, "close", None)
        if close is not None:
            close()


def test_stream_backend_stays_scalar(matrix, monkeypatch):
    """R-tree k-NN streams take the scalar loop regardless of the knob.

    Pulling a stream item mutates the traversal's own accounting, so
    the stream path must not be prefetched; identical stats under both
    knob settings prove it is not.
    """
    index = get_index("rtree", matrix)
    query = matrix[0]
    scalar = run_knn(monkeypatch, index, query, 3, 0)
    blocked = run_knn(monkeypatch, index, query, 3, 256)
    assert blocked == scalar


def test_block_distances_match_scalar_kernel(matrix):
    """The vectorised distance pass is bitwise equal to the kernel."""
    import math

    from repro.engine import block_distances_sq
    from repro.index.distance import euclidean_early_abandon_sq

    query = matrix[3]
    rows = np.ascontiguousarray(matrix[10:40])
    bulk = block_distances_sq(rows, query)
    for row, d_sq in zip(rows, bulk.tolist()):
        assert d_sq == euclidean_early_abandon_sq(query, row, math.inf)
