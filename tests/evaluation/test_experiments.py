"""Tests for the tightness, pruning and timing experiment harnesses."""

import numpy as np
import pytest

from repro.compression import SketchDatabase, StorageBudget
from repro.datagen import QueryLogGenerator
from repro.evaluation import (
    bound_tightness_experiment,
    fraction_examined,
    index_vs_scan_experiment,
    pruning_power_experiment,
)
from repro.index import distances_to_query
from repro.spectral import Spectrum


@pytest.fixture(scope="module")
def data():
    gen = QueryLogGenerator(seed=21, days=256)
    db = gen.synthetic_database(128)
    matrix = db.standardize().as_matrix()
    queries = gen.queries_outside_database(8).standardize().as_matrix()
    return matrix, queries


class TestTightness:
    def test_bounds_bracket_truth_cumulatively(self, data):
        matrix, _ = data
        results = bound_tightness_experiment(
            matrix, [StorageBudget(8)], pairs=40, seed=1
        )
        result = results[0]
        for method, lb in result.lower.items():
            if method != "best_min_error":  # the published combo may exceed
                assert lb <= result.true_distance + 1e-6, method
        for method in ("wang", "best_error"):
            assert result.upper[method] >= result.true_distance - 1e-6

    def test_gemini_has_no_upper_bound(self, data):
        matrix, _ = data
        result = bound_tightness_experiment(
            matrix, [StorageBudget(8)], pairs=10, seed=2
        )[0]
        assert result.upper["gemini"] == float("inf")

    def test_best_min_error_is_tightest(self, data):
        matrix, _ = data
        result = bound_tightness_experiment(
            matrix, [StorageBudget(16)], pairs=60, seed=3
        )[0]
        assert result.lb_improvement() > 0
        assert result.ub_improvement() > 0

    def test_more_budget_tightens_lower_bounds(self, data):
        matrix, _ = data
        small, large = bound_tightness_experiment(
            matrix, [StorageBudget(8), StorageBudget(32)], pairs=40, seed=4
        )
        for method in small.lower:
            assert large.lower[method] >= small.lower[method] - 1e-6

    def test_table_renders(self, data):
        matrix, _ = data
        result = bound_tightness_experiment(
            matrix, [StorageBudget(8)], pairs=5, seed=5
        )[0]
        table = result.as_table()
        assert "full euclidean" in table
        assert "best_min_error" in table

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bound_tightness_experiment(np.zeros((1, 8)), [StorageBudget(2)])


class TestPruning:
    def test_fraction_examined_finds_the_true_nn(self, data):
        """Soundness: the examined prefix must contain the 1-NN."""
        matrix, queries = data
        budget = StorageBudget(8)
        sketch_db = SketchDatabase.from_matrix(
            matrix, budget.compressor("best_min_error")
        )
        for query in queries[:4]:
            spectrum = Spectrum.from_series(query)
            fraction = fraction_examined(query, spectrum, sketch_db, matrix)
            assert 0.0 < fraction <= 1.0

    def test_best_min_error_examines_least(self, data):
        matrix, queries = data
        result = pruning_power_experiment(
            matrix, queries, [StorageBudget(16)]
        )[0]
        assert result.fractions["best_min_error"] <= result.fractions["wang"]
        assert result.fractions["best_min_error"] <= result.fractions["gemini"]
        assert result.reduction_vs_next_best() >= 0

    def test_more_coefficients_prune_more(self, data):
        matrix, queries = data
        small, large = pruning_power_experiment(
            matrix, queries, [StorageBudget(8), StorageBudget(32)]
        )
        assert (
            large.fractions["best_min_error"]
            <= small.fractions["best_min_error"] + 0.05
        )

    def test_gemini_has_no_sub_filter(self, data):
        """Without upper bounds every object survives to the LB walk."""
        matrix, queries = data
        budget = StorageBudget(8)
        sketch_db = SketchDatabase.from_matrix(matrix, budget.compressor("gemini"))
        query = queries[0]
        fraction = fraction_examined(
            query, Spectrum.from_series(query), sketch_db, matrix
        )
        assert fraction > 0.0

    def test_table_renders(self, data):
        matrix, queries = data
        result = pruning_power_experiment(
            matrix, queries[:2], [StorageBudget(8)]
        )[0]
        assert "fraction examined" in result.as_table()


class TestTiming:
    def test_index_beats_scan_on_modeled_time(self, data, tmp_path):
        matrix, queries = data
        result = index_vs_scan_experiment(matrix, queries, tmp_path, seed=1)
        # The scan compares against the whole database; the index must not.
        assert result.index_memory.full_retrievals < result.scan.full_retrievals
        assert result.speedup_disk() > 1.0
        assert result.speedup_memory() >= result.speedup_disk()

    def test_rows_account_operations(self, data, tmp_path):
        matrix, queries = data
        result = index_vs_scan_experiment(matrix, queries[:2], tmp_path, seed=2)
        assert result.scan.full_retrievals == len(matrix) * 2
        assert result.scan.bound_computations == 0
        assert result.index_disk.feature_pages > 0
        assert result.index_memory.feature_pages == 0
        assert (
            result.index_disk.modeled_seconds()
            >= result.index_memory.modeled_seconds()
        )
        assert "configuration" in result.as_table()

    def test_modeled_seconds_formula(self):
        from repro.evaluation.timing import TimingRow

        row = TimingRow(
            label="x",
            wall_seconds=1.0,
            full_retrievals=1000,
            bound_computations=2000,
            feature_pages=100,
        )
        expected = (1000 * 1.3 + 2000 * 0.03 + 100 * 0.05) / 1000.0
        assert row.modeled_seconds() == pytest.approx(expected)
        # Custom constants flow through.
        assert row.modeled_seconds(euclid_ms=2.0, bound_ms=0.0, page_ms=0.0) == (
            pytest.approx(2.0)
        )

    def test_fraction_examined_stat(self):
        from repro.index import SearchStats

        stats = SearchStats(full_retrievals=50)
        assert stats.fraction_examined(200) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            stats.fraction_examined(0)

    def test_scan_answers_match_index(self, data, tmp_path):
        """Both timed paths must return the same 1-NN distances."""
        from repro.index import LinearScanIndex, VPTreeIndex

        matrix, queries = data
        scan = LinearScanIndex(matrix)
        index = VPTreeIndex(matrix, seed=3)
        for query in queries[:3]:
            truth = distances_to_query(matrix, query).min()
            a, _ = scan.search(query, k=1)
            b, _ = index.search(query, k=1)
            assert a[0].distance == pytest.approx(truth, abs=1e-9)
            assert b[0].distance == pytest.approx(truth, abs=1e-9)
