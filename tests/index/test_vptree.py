"""Tests for the VP-tree index — exactness against brute force is the key."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    AdaptiveEnergyCompressor,
    BestMinErrorCompressor,
    WangCompressor,
)
from repro.exceptions import SeriesMismatchError
from repro.index import LinearScanIndex, VPTreeIndex, distances_to_query
from repro.spectral import Spectrum
from repro.storage import SequencePageStore
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
    return VPTreeIndex(matrix, seed=1)


class TestExactness:
    def test_1nn_matches_brute_force(self, matrix, index):
        rng = np.random.default_rng(5)
        for _ in range(15):
            query = zscore(rng.normal(size=64))
            neighbors, _ = index.search(query, k=1)
            truth = distances_to_query(matrix, query)
            assert neighbors[0].distance == pytest.approx(truth.min(), abs=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_knn_matches_brute_force(self, matrix, index, k):
        rng = np.random.default_rng(6)
        query = zscore(np.cumsum(rng.normal(size=64)))
        neighbors, _ = index.search(query, k=k)
        truth = np.sort(distances_to_query(matrix, query))[:k]
        np.testing.assert_allclose(
            [n.distance for n in neighbors], truth, atol=1e-9
        )

    def test_query_in_database(self, matrix, index):
        neighbors, _ = index.search(matrix[17], k=1)
        assert neighbors[0].distance == pytest.approx(0.0, abs=1e-9)
        assert neighbors[0].seq_id == 17

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_property_exact_with_safe_bounds(self, seed):
        matrix = make_db(count=40, n=32, seed=seed)
        index = VPTreeIndex(matrix, leaf_size=3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        query = zscore(rng.normal(size=32))
        neighbors, _ = index.search(query, k=2)
        truth = np.sort(distances_to_query(matrix, query))[:2]
        np.testing.assert_allclose(
            [n.distance for n in neighbors], truth, atol=1e-9
        )

    def test_agrees_with_linear_scan(self, matrix, index):
        scan = LinearScanIndex(matrix)
        rng = np.random.default_rng(8)
        query = zscore(rng.normal(size=64))
        from_tree, _ = index.search(query, k=4)
        from_scan, _ = scan.search(query, k=4)
        np.testing.assert_allclose(
            [n.distance for n in from_tree],
            [n.distance for n in from_scan],
            atol=1e-9,
        )


class TestPruning:
    def test_examines_fewer_than_scan(self, matrix):
        """The whole point of the index: far fewer full retrievals."""
        index = VPTreeIndex(matrix, compressor=BestMinErrorCompressor(10), seed=2)
        rng = np.random.default_rng(9)
        t = np.arange(64)
        total = 0
        for _ in range(10):
            query = zscore(
                np.sin(2 * np.pi * t / 7 + rng.uniform(0, 6))
                + 0.4 * rng.normal(size=64)
            )
            _, stats = index.search(query, k=1)
            total += stats.full_retrievals
        assert total < 10 * len(matrix) * 0.5

    def test_stats_populated(self, matrix, index):
        _, stats = index.search(matrix[0], k=1)
        assert stats.nodes_visited >= 1
        assert stats.bound_computations >= 1
        assert stats.candidates_after_sub_filter <= stats.candidates_after_traversal
        assert 0 < stats.fraction_examined(len(matrix)) <= 1

    def test_guided_off_still_exact(self, matrix):
        index = VPTreeIndex(matrix, guided=False, seed=3)
        rng = np.random.default_rng(10)
        query = zscore(rng.normal(size=64))
        neighbors, _ = index.search(query, k=1)
        truth = distances_to_query(matrix, query)
        assert neighbors[0].distance == pytest.approx(truth.min(), abs=1e-9)


class TestConfigurations:
    def test_paper_bound_method_runs(self, matrix):
        index = VPTreeIndex(matrix, bound_method="best_min_error", seed=4)
        neighbors, _ = index.search(matrix[0], k=1)
        assert neighbors[0].distance == pytest.approx(0.0, abs=1e-9)

    def test_wang_compressor_supported(self, matrix):
        index = VPTreeIndex(
            matrix, compressor=WangCompressor(8), bound_method="wang", seed=5
        )
        assert index.bound_method == "wang"
        rng = np.random.default_rng(11)
        query = zscore(rng.normal(size=64))
        neighbors, _ = index.search(query, k=1)
        truth = distances_to_query(matrix, query)
        assert neighbors[0].distance == pytest.approx(truth.min(), abs=1e-9)

    def test_adaptive_compressor_supported(self, matrix):
        index = VPTreeIndex(
            matrix,
            compressor=AdaptiveEnergyCompressor(0.9),
            bound_method="best_min_error_safe",
            seed=6,
        )
        rng = np.random.default_rng(12)
        query = zscore(rng.normal(size=64))
        neighbors, _ = index.search(query, k=1)
        truth = distances_to_query(matrix, query)
        assert neighbors[0].distance == pytest.approx(truth.min(), abs=1e-9)

    def test_disk_store(self, matrix, tmp_path, monkeypatch):
        # Scalar verify mode: the blocked verifier may prefetch a few
        # rows past the termination point (physical reads only), so the
        # strict read_calls == full_retrievals equality is a property of
        # the scalar reference loop.
        monkeypatch.setenv("REPRO_VERIFY_BLOCK", "0")
        store = SequencePageStore(tmp_path / "db.dat", matrix.shape[1])
        index = VPTreeIndex(matrix, store=store, seed=7)
        store.stats.reset()
        _, stats = index.search(zscore(np.arange(64.0)), k=1)
        assert store.stats.read_calls == stats.full_retrievals
        assert store.stats.pages_read > 0

    def test_disk_store_blocked(self, matrix, tmp_path, monkeypatch):
        # Blocked verify mode prefetches whole candidate blocks: the
        # logical accounting stays scalar-identical while physical reads
        # may run ahead of consumption.
        monkeypatch.delenv("REPRO_VERIFY_BLOCK", raising=False)
        store = SequencePageStore(tmp_path / "db.dat", matrix.shape[1])
        index = VPTreeIndex(matrix, store=store, seed=7)
        store.stats.reset()
        _, stats = index.search(zscore(np.arange(64.0)), k=1)
        assert store.stats.read_calls >= stats.full_retrievals
        assert store.stats.pages_read > 0

    def test_leaf_size_one(self):
        matrix = make_db(count=20, n=32, seed=42)
        index = VPTreeIndex(matrix, leaf_size=1, seed=8)
        neighbors, _ = index.search(matrix[5], k=1)
        assert neighbors[0].seq_id == 5

    def test_names(self, matrix):
        names = [f"q{i}" for i in range(len(matrix))]
        index = VPTreeIndex(matrix, names=names, seed=9)
        neighbors, _ = index.search(matrix[3], k=1)
        assert neighbors[0].name == "q3"

    def test_compressed_size_much_smaller_than_raw(self, matrix):
        index = VPTreeIndex(
            matrix, compressor=BestMinErrorCompressor(6), seed=13
        )
        raw_doubles = matrix.size
        assert index.compressed_size_doubles() < raw_doubles / 4

    def test_compressed_size_counts_the_bound_source(self, matrix):
        """A sketch tree reports its sketches; a code tree ``n`` code
        bytes and three doubles a row."""
        compressor = BestMinErrorCompressor(6)
        sketched = VPTreeIndex(matrix, compressor=compressor, seed=13)
        sketches = sum(
            compressor.compress(Spectrum.from_series(row)).storage_doubles()
            for row in matrix
        )
        assert sketched.compressed_size_doubles() == sketches
        coded = VPTreeIndex(matrix, seed=13)
        count, n = matrix.shape
        assert coded.code_walked
        assert coded.compressed_size_doubles() == count * (n / 8 + 3)

    def test_height_reasonable(self, index):
        # 120 points, leaf_size 8 -> expect a shallow, balanced-ish tree.
        assert 2 <= index.height() <= 12


class TestValidation:
    def test_bad_matrix(self):
        with pytest.raises(SeriesMismatchError):
            VPTreeIndex(np.zeros(10))

    def test_bad_names(self, matrix):
        with pytest.raises(SeriesMismatchError):
            VPTreeIndex(matrix, names=["x"])

    def test_bad_leaf_size(self, matrix):
        with pytest.raises(ValueError):
            VPTreeIndex(matrix, leaf_size=0)

    def test_bad_vantage_parameters(self, matrix):
        with pytest.raises(ValueError):
            VPTreeIndex(matrix, vantage_candidates=0)
        with pytest.raises(ValueError):
            VPTreeIndex(matrix, vantage_sample=1)

    def test_query_length_checked(self, index):
        with pytest.raises(SeriesMismatchError):
            index.search(np.zeros(10), k=1)

    def test_k_range_checked(self, matrix, index):
        with pytest.raises(ValueError):
            index.search(matrix[0], k=0)
        with pytest.raises(ValueError):
            index.search(matrix[0], k=len(matrix) + 1)
