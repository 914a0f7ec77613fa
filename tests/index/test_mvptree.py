"""Tests for the multi-vantage-point tree extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import BestMinErrorCompressor, WangCompressor
from repro.exceptions import SeriesMismatchError
from repro.index import distances_to_query
from repro.index.mvptree import MVPTreeIndex
from repro.timeseries import zscore


def make_db(count=120, n=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            row = rng.normal(size=n)
        elif kind == 1:
            row = np.cumsum(rng.normal(size=n))
        else:
            period = [7, 30][kind - 2]
            row = np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) + (
                0.4 * rng.normal(size=n)
            )
        rows.append(zscore(row))
    return np.array(rows)


@pytest.fixture(scope="module")
def matrix():
    return make_db()


@pytest.fixture(scope="module")
def index(matrix):
    return MVPTreeIndex(matrix, leaf_size=6, seed=1)


class TestExactness:
    def test_1nn_matches_brute_force(self, matrix, index):
        rng = np.random.default_rng(5)
        for _ in range(10):
            query = zscore(rng.normal(size=64))
            hits, _ = index.search(query, k=1)
            truth = float(distances_to_query(matrix, query).min())
            assert hits[0].distance == pytest.approx(truth, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_knn_matches_brute_force(self, matrix, index, k):
        rng = np.random.default_rng(6)
        query = zscore(np.cumsum(rng.normal(size=64)))
        hits, _ = index.search(query, k=k)
        truth = np.sort(distances_to_query(matrix, query))[:k]
        np.testing.assert_allclose(
            [h.distance for h in hits], truth, atol=1e-9
        )

    def test_query_in_database(self, matrix, index):
        hits, _ = index.search(matrix[23], k=1)
        assert hits[0].seq_id == 23
        assert hits[0].distance == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_property_exact(self, seed):
        matrix = make_db(count=50, n=32, seed=seed)
        index = MVPTreeIndex(matrix, leaf_size=3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        query = zscore(rng.normal(size=32))
        hits, _ = index.search(query, k=2)
        truth = np.sort(distances_to_query(matrix, query))[:2]
        np.testing.assert_allclose(
            [h.distance for h in hits], truth, atol=1e-9
        )

    def test_every_object_reachable(self, matrix, index):
        """A huge radius-equivalent search (k = count) returns everyone."""
        hits, _ = index.search(matrix[0], k=len(matrix))
        assert sorted(h.seq_id for h in hits) == list(range(len(matrix)))


class TestBehaviour:
    def test_prunes(self, matrix, index):
        totals = []
        for row in matrix[:10]:
            _, stats = index.search(row, k=1)
            totals.append(stats.full_retrievals)
        assert np.mean(totals) < len(matrix) * 0.6

    def test_works_with_wang_sketches(self, matrix):
        index = MVPTreeIndex(
            matrix, compressor=WangCompressor(8), bound_method="wang", seed=2
        )
        rng = np.random.default_rng(7)
        query = zscore(rng.normal(size=64))
        hits, _ = index.search(query, k=1)
        truth = float(distances_to_query(matrix, query).min())
        assert hits[0].distance == pytest.approx(truth, abs=1e-9)

    def test_names(self, matrix):
        names = [f"q{i}" for i in range(len(matrix))]
        index = MVPTreeIndex(matrix, names=names, seed=3)
        hits, _ = index.search(matrix[4], k=1)
        assert hits[0].name == "q4"

    def test_validation(self, matrix, index):
        with pytest.raises(SeriesMismatchError):
            MVPTreeIndex(np.zeros(8))
        with pytest.raises(SeriesMismatchError):
            MVPTreeIndex(matrix, names=["x"])
        with pytest.raises(ValueError):
            MVPTreeIndex(matrix, leaf_size=0)
        with pytest.raises(SeriesMismatchError):
            index.search(np.zeros(10), k=1)
        with pytest.raises(ValueError):
            index.search(matrix[0], k=0)

    def test_small_database(self):
        matrix = make_db(count=5, n=16, seed=9)
        index = MVPTreeIndex(
            matrix, compressor=BestMinErrorCompressor(4), leaf_size=2, seed=4
        )
        hits, _ = index.search(matrix[2], k=1)
        assert hits[0].seq_id == 2
