"""Tests for VP-tree epsilon (range) search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SeriesMismatchError
from repro.index import VPTreeIndex, distances_to_query
from repro.index.vptree import _InternalNode, _LeafNode
from repro.timeseries import zscore


def make_db(count=100, n=48, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.array(
        [
            zscore(
                np.sin(2 * np.pi * t / [6, 9, 16][i % 3] + rng.uniform(0, 6))
                + 0.4 * rng.normal(size=n)
            )
            for i in range(count)
        ]
    )


@pytest.fixture(scope="module")
def matrix():
    return make_db()


@pytest.fixture(scope="module")
def index(matrix):
    return VPTreeIndex(matrix, leaf_size=5, seed=1)


class TestRangeSearch:
    def test_matches_brute_force(self, matrix, index):
        rng = np.random.default_rng(2)
        query = zscore(rng.normal(size=48))
        truth = distances_to_query(matrix, query)
        for radius in (truth.min() * 1.01, np.median(truth), truth.max() + 1):
            hits, _ = index.range_search(query, radius)
            expected = set(np.flatnonzero(truth <= radius).tolist())
            assert {h.seq_id for h in hits} == expected
            for hit in hits:
                assert hit.distance == pytest.approx(
                    truth[hit.seq_id], abs=1e-9
                )

    def test_zero_radius_on_member(self, matrix, index):
        hits, _ = index.range_search(matrix[9], 0.0)
        assert [h.seq_id for h in hits] == [9]

    def test_empty_result(self, matrix, index):
        rng = np.random.default_rng(3)
        query = zscore(rng.normal(size=48))
        truth = distances_to_query(matrix, query)
        hits, stats = index.range_search(query, truth.min() * 0.5)
        assert hits == []
        assert stats.bound_computations > 0

    def test_results_sorted_by_distance(self, matrix, index):
        query = matrix[0] * 0.95
        hits, _ = index.range_search(query, 10.0)
        distances = [h.distance for h in hits]
        assert distances == sorted(distances)

    def test_small_radius_prunes(self, matrix, index):
        hits, stats = index.range_search(matrix[3], 1.0)
        assert stats.full_retrievals < len(matrix)
        assert 3 in {h.seq_id for h in hits}

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.1, max_value=15.0),
    )
    def test_property_equivalence(self, seed, radius):
        matrix = make_db(count=40, n=32, seed=seed)
        index = VPTreeIndex(matrix, leaf_size=3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        query = zscore(rng.normal(size=32))
        truth = distances_to_query(matrix, query)
        hits, _ = index.range_search(query, radius)
        assert {h.seq_id for h in hits} == set(
            np.flatnonzero(truth <= radius).tolist()
        )

    def test_respects_deletions(self, matrix):
        index = VPTreeIndex(matrix, leaf_size=5, seed=4)
        index.remove(9)
        hits, _ = index.range_search(matrix[9], 0.5)
        assert all(h.seq_id != 9 for h in hits)

    def test_validation(self, index, matrix):
        with pytest.raises(SeriesMismatchError):
            index.range_search(np.zeros(10), 1.0)
        with pytest.raises(ValueError):
            index.range_search(matrix[0], -1.0)


def test_code_walk_keeps_its_margin_at_the_median():
    """A right-hand row one ulp past the median is still a range hit.

    The build measures ``d(VP, R)`` two ulps above the verifier's
    ``sqrt(d_sq)`` for this row, and the query is the vantage point
    itself, whose code bounds are exact (a constant row).  A median
    between the two puts ``R`` on the right, and a bare ``median - UB >
    radius`` rule would prune it at the radius the verifier reports.
    """
    row = np.random.default_rng(14).normal(size=256)
    zero = np.zeros(256)
    matrix = np.stack([zero, row, 0.5 * row])
    index = VPTreeIndex(matrix, leaf_size=1)
    built = float(distances_to_query(row[None], zero)[0])
    radius = index.search(zero, k=3)[0][-1].distance
    median = np.nextafter(radius, np.inf)
    assert radius < median < built  # the row's two distances disagree
    index._root = _InternalNode(
        vantage_id=0, median=float(median),
        left=_LeafNode(rows=np.array([2])), right=_LeafNode(rows=np.array([1])),
    )
    hits, _ = index.range_search(zero, radius)
    assert [h.seq_id for h in hits] == [0, 2, 1]
