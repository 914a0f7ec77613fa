"""The engine's row-code stage: fewer rows read, the same answers.

Between candidate generation and refinement the engine bounds every
sketch survivor from the index's resident row codes.  What it may move
is ``full_retrievals``, ``early_abandons`` and ``candidates_pruned``;
the sketch measures (``bound_computations``, the traversal counters and
the two candidate funnels) and every answer stay what the sketch-only
engine produces.  The sketch-only engine is the same index with its
codes hidden.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster import build_sharded, open_sharded
from repro.engine import get_index
from repro.index import VPTreeIndex
from repro.storage import SequencePageStore
from repro.timeseries import zscore

SKETCH_FIELDS = (
    "bound_computations",
    "nodes_visited",
    "subtrees_pruned",
    "candidates_after_traversal",
    "candidates_after_sub_filter",
)


@pytest.fixture(scope="module")
def walks():
    """Random walks and white noise: flat spectra the sketch bounds badly."""
    rng = np.random.default_rng(11)
    rows = [zscore(np.cumsum(rng.normal(size=128))) for _ in range(150)]
    rows += [zscore(rng.normal(size=128)) for _ in range(150)]
    queries = [zscore(np.cumsum(rng.normal(size=128))) for _ in range(3)]
    queries += [zscore(rng.normal(size=128)) for _ in range(3)]
    return np.array(rows), queries


def sketch_only(index):
    index._row_codes = None  # the stage is skipped without codes
    return index


def pairs(neighbors):
    return [(n.seq_id, n.distance) for n in neighbors]


@pytest.mark.parametrize("backend", ["flat", "vptree", "mvptree"])
def test_knn_reads_fewer_rows_for_the_same_answer(walks, backend):
    matrix, queries = walks
    coded = get_index(backend, matrix)
    plain = sketch_only(get_index(backend, matrix))
    read, unread = 0, 0
    for query in queries:
        hits, stats = coded.search(query, k=5)
        base_hits, base = plain.search(query, k=5)
        assert pairs(hits) == pairs(base_hits)
        for field in SKETCH_FIELDS:
            assert getattr(stats, field) == getattr(base, field), field
        assert stats.full_retrievals <= base.full_retrievals
        assert stats.candidates_pruned + stats.full_retrievals == len(matrix)
        read += stats.full_retrievals
        unread += base.full_retrievals
    assert read < unread / 4


def test_range_drops_what_the_codes_clear(walks):
    matrix, queries = walks
    coded = get_index("flat", matrix)
    plain = sketch_only(get_index("flat", matrix))
    read, unread = 0, 0
    for query in queries:
        radius = coded.search(query, k=5)[0][-1].distance
        hits, stats = coded.range_search(query, radius)
        base_hits, base = plain.range_search(query, radius)
        assert pairs(hits) == pairs(base_hits)
        for field in SKETCH_FIELDS:
            assert getattr(stats, field) == getattr(base, field), field
        assert stats.full_retrievals <= base.full_retrievals
        assert stats.candidates_pruned + stats.full_retrievals == len(matrix)
        read += stats.full_retrievals
        unread += base.full_retrievals
    assert read < unread / 4


def test_pruned_counter_is_published_when_obs_is_on(walks):
    matrix, queries = walks
    index = get_index("flat", matrix)
    noise = queries[-1]  # a flat spectrum: the sketch admits many rows
    with obs.observed() as registry:
        index.search(noise, k=5)
        after_knn = registry.counter("engine.codes.pruned").value
        radius = index.search(noise, k=5)[0][-1].distance
        before_range = registry.counter("engine.codes.pruned").value
        index.range_search(noise, radius)
        after_range = registry.counter("engine.codes.pruned").value
    assert after_knn > 0
    assert after_range > before_range


def test_router_and_inserts_carry_the_codes(walks):
    matrix, queries = walks
    router = get_index(
        "sharded", matrix[:-10], shards=3, backend="flat", worker_pool=False
    )
    tree = get_index("vptree", matrix[:-10])
    grown = get_index("flat", matrix[:-10])
    for row in matrix[-10:]:
        router.insert(row)
        tree.insert(row)
        grown.insert(row)
    assert (
        len(router.row_codes) == len(tree.row_codes) == len(grown.row_codes)
        == len(matrix)
    )
    flat = get_index("flat", matrix)
    for query in queries:
        expected = flat.search(query, k=5)
        for index in (router, tree, grown):
            hits, stats = index.search(query, k=5)
            assert pairs(hits) == pairs(expected[0])
            assert stats.full_retrievals < 40


def assert_same_codes(left, right):
    for field in ("lo", "step", "codes", "norms_sq"):
        assert getattr(left, field).tobytes() == getattr(right, field).tobytes()


def test_reopened_filters_requantise_their_rows(walks, tmp_path):
    matrix, _ = walks
    store = SequencePageStore(str(tmp_path / "rows.dat"), matrix.shape[1])
    tree = VPTreeIndex(matrix, store=store)
    tree.save(tmp_path / "tree.npz")
    loaded = VPTreeIndex.load(tmp_path / "tree.npz")
    assert_same_codes(loaded.row_codes, tree.row_codes)
    assert loaded.store.stats.read_calls == 0  # the rebuild is not query I/O
    loaded.store.close()
    store.close()

    built = build_sharded(
        matrix, shards=3, directory=tmp_path / "shards", worker_pool=False
    )
    reopened = open_sharded(tmp_path / "shards", worker_pool=False)
    assert_same_codes(reopened.row_codes, built.row_codes)
    built.close()
    reopened.close()
