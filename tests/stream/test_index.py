"""StreamIndex: the live + sealed union behind every stream query."""

import numpy as np
import pytest

from repro.engine.registry import get_index
from repro.stream.index import StreamIndex
from repro.timeseries.preprocessing import zscore

DAYS = 32


def _rows(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 50, size=(count, DAYS)).astype(float)
    return np.stack([zscore(row) for row in raw])


def _answers(index, query, k):
    neighbors, _ = index.search(query, k)
    return {(n.name, round(n.distance, 12)) for n in neighbors}


@pytest.fixture
def tiers():
    sealed = _rows(10, seed=1)
    live = _rows(4, seed=2)
    sealed_names = tuple(f"s{i}" for i in range(10))
    live_names = tuple(f"l{i}" for i in range(4))
    return sealed, sealed_names, live, live_names


class TestIdentifierLayout:
    def test_sealed_then_live_in_insertion_order(self, tiers):
        sealed, sealed_names, live, live_names = tiers
        index = StreamIndex(sealed, sealed_names, live, live_names)
        assert len(index) == 14
        assert index.sequence_length == DAYS
        for seq_id, name in enumerate(sealed_names + live_names):
            assert index.result_name(seq_id) == name
        np.testing.assert_array_equal(index.fetch(3), sealed[3])
        np.testing.assert_array_equal(index.fetch(10), live[0])


class TestUnionAnswers:
    def _reference(self, tiers):
        sealed, sealed_names, live, live_names = tiers
        return get_index(
            "scan",
            np.vstack([sealed, live]),
            names=list(sealed_names + live_names),
        )

    def test_knn_matches_a_scan_over_concatenation(self, tiers):
        query = zscore(np.arange(DAYS, dtype=float) % 7)
        index = StreamIndex(*tiers)
        reference = self._reference(tiers)
        for k in (1, 5, 14):
            assert _answers(index, query, k) == _answers(reference, query, k)

    def test_range_search_spans_both_tiers(self, tiers):
        query = zscore(np.arange(DAYS, dtype=float) % 7)
        index = StreamIndex(*tiers)
        reference = self._reference(tiers)
        got, _ = index.range_search(query, 7.8)
        expected, _ = reference.range_search(query, 7.8)
        assert {(n.name, round(n.distance, 12)) for n in got} == {
            (n.name, round(n.distance, 12)) for n in expected
        }
        # Sanity: the radius actually splits the population.
        assert 0 < len(got) < 14

    def test_live_only_union(self, tiers):
        _, _, live, live_names = tiers
        empty = np.empty((0, DAYS), dtype=np.float64)
        index = StreamIndex(empty, (), live, live_names)
        query = zscore(np.arange(DAYS, dtype=float))
        reference = get_index("scan", live, names=list(live_names))
        assert _answers(index, query, 3) == _answers(reference, query, 3)

    def test_sealed_only_union(self, tiers):
        sealed, sealed_names, _, _ = tiers
        empty = np.empty((0, DAYS), dtype=np.float64)
        index = StreamIndex(sealed, sealed_names, empty, ())
        query = zscore(np.arange(DAYS, dtype=float))
        reference = get_index("scan", sealed, names=list(sealed_names))
        assert _answers(index, query, 3) == _answers(reference, query, 3)

    def test_stats_count_live_injection_as_generated(self, tiers):
        index = StreamIndex(*tiers)
        query = zscore(np.arange(DAYS, dtype=float) % 7)
        _, stats = index.search(query, 2)
        # Every member, the 4 live rows included, enters at lower bound 0.
        assert stats.candidates_after_traversal == 14
