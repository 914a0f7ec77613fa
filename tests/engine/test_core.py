"""The shared verifier: SUB machinery, accounting invariant, validation."""

import math

import numpy as np
import pytest

from repro.engine import available_indexes, get_index
from repro.engine.core import (
    CandidateSet,
    EngineIndex,
    SigmaTracker,
    candidates_from_bound_arrays,
    execute_knn,
    execute_range,
)
from repro.exceptions import SeriesMismatchError
from repro.stream.index import StreamIndex


class TestSigmaTracker:
    def test_infinite_before_k_offers(self):
        tracker = SigmaTracker(3)
        tracker.offer(1.0)
        tracker.offer(2.0)
        assert tracker.sigma() == math.inf

    def test_kth_smallest_upper_bound(self):
        tracker = SigmaTracker(2)
        for upper in (5.0, 3.0, 8.0, 4.0):
            tracker.offer(upper)
        assert tracker.sigma() == 4.0
        assert tracker.sigma_sq() == 16.0

    def test_non_finite_offers_ignored(self):
        tracker = SigmaTracker(1)
        tracker.offer(math.inf)
        tracker.offer(math.nan)
        assert tracker.sigma() == math.inf
        tracker.offer(2.0)
        assert tracker.sigma() == 2.0


class TestCandidatesFromBoundArrays:
    def test_sub_filter_and_ordering(self):
        lower = np.array([3.0, 0.0, 2.0, 9.0])
        upper = np.array([5.0, 1.5, 2.5, 10.0])
        cands = candidates_from_bound_arrays(lower, upper, k=2)
        # sigma = 2nd smallest upper = 2.5; members 0 and 3 exceed it.
        assert cands.sigma_sq == pytest.approx(2.5**2)
        assert cands.generated == 4
        # Entries carry squared LBs in increasing order.
        assert cands.entries == [(0.0, 1), (4.0, 2)]

    def test_too_few_finite_uppers_keeps_everyone(self):
        lower = np.array([1.0, 2.0, 3.0])
        upper = np.array([math.inf, 4.0, math.inf])
        cands = candidates_from_bound_arrays(lower, upper, k=2)
        assert cands.sigma_sq == math.inf
        assert [seq_id for _, seq_id in cands.entries] == [0, 1, 2]


class _DriftingIndex:
    """A generator that inflates its stats — the verifier must object."""

    obs_name = "index.drifting"

    def __init__(self, matrix):
        self._matrix = matrix

    def __len__(self):
        return len(self._matrix)

    @property
    def sequence_length(self):
        return self._matrix.shape[1]

    def _candidates(self, stats):
        stats.full_retrievals += 3  # phantom work nobody did
        return CandidateSet(
            entries=[(0.0, i) for i in range(len(self._matrix))],
            generated=len(self._matrix),
        )

    def knn_candidates(self, query, k, stats):
        return self._candidates(stats)

    def range_candidates(self, query, radius, stats):
        return self._candidates(stats)

    def fetch(self, seq_id):
        return self._matrix[seq_id]

    def result_name(self, seq_id):
        return None


class TestAccountingInvariant:
    def test_knn_rejects_drifting_accounting(self, matrix):
        with pytest.raises(AssertionError, match="accounting drift"):
            execute_knn(_DriftingIndex(matrix), matrix[0], k=1)

    def test_range_rejects_drifting_accounting(self, matrix):
        with pytest.raises(AssertionError, match="accounting drift"):
            execute_range(_DriftingIndex(matrix), matrix[0], radius=1.0)

    @pytest.mark.parametrize("name", [*available_indexes(), "stream"])
    def test_real_indexes_satisfy_protocol(self, matrix, name):
        if name == "stream":
            names = [f"s{i}" for i in range(len(matrix))]
            index = StreamIndex(
                "flat", matrix[:80], names[:80], matrix[80:], names[80:]
            )
        else:
            index = get_index(name, matrix)
        try:
            assert isinstance(index, EngineIndex)
        finally:
            close = getattr(index, "close", None)
            if close is not None:
                close()


class TestValidation:
    @pytest.fixture(scope="class")
    def index(self, matrix):
        return get_index("scan", matrix)

    def test_wrong_query_length(self, index):
        with pytest.raises(SeriesMismatchError):
            index.search(np.zeros(13), k=1)

    @pytest.mark.parametrize("k", [0, -1, 10_000])
    def test_k_out_of_range(self, index, matrix, k):
        with pytest.raises(ValueError):
            index.search(matrix[0], k=k)

    def test_negative_radius(self, index, matrix):
        with pytest.raises(ValueError):
            index.range_search(matrix[0], radius=-0.5)


class TestTieBreaking:
    def test_duplicate_rows_break_ties_by_sequence_id(self, matrix):
        # Rows 0 and len-6 are bit-identical (conftest duplicates); the
        # canonical answer keeps the smaller id first.
        index = get_index("flat", matrix)
        twin = len(matrix) - 6
        hits, _ = index.search(matrix[0], k=2)
        assert [h.seq_id for h in hits] == [0, twin]
        assert hits[0].distance == hits[1].distance == 0.0
