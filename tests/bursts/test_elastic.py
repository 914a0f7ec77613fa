"""Tests for the Zhu & Shasha elastic burst detection baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bursts import BurstRegion, ElasticModel, ShiftedWaveletTree

#: Dyadic window lengths up to 32 days.
DYADIC = (1, 2, 4, 8, 16, 32)


def linear_threshold(scale=10.0, per_unit=2.0):
    return lambda w: scale + per_unit * w


class TestShiftedWaveletTree:
    def test_window_sum(self):
        tree = ShiftedWaveletTree(np.arange(10.0))
        assert tree.window_sum(0, 3) == 3.0  # 0+1+2
        assert tree.window_sum(7, 3) == 24.0  # 7+8+9
        assert tree.window_sum(8, 5) == 17.0  # clipped at the end

    def test_levels_overlap_by_half(self):
        tree = ShiftedWaveletTree(np.ones(16))
        starts = tree.level_starts[2]  # window 4, step 2
        np.testing.assert_array_equal(np.diff(starts), 2)

    def test_top_level_covers_everything(self):
        tree = ShiftedWaveletTree(np.ones(100))
        top = tree.levels[tree.max_level]
        assert top[0] == pytest.approx(100.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=2, max_value=64),
    )
    def test_containment_guarantee(self, length, start, n):
        """Every window fits inside some cell of its guard level."""
        start = start % n
        length = min(length, n - start)
        if length < 1:
            length = 1
        tree = ShiftedWaveletTree(np.ones(n))
        level = tree.guard_level(length)
        window = 2**level
        starts = tree.level_starts[level]
        contained = any(
            cell_start <= start and start + length <= min(cell_start + window, n)
            for cell_start in starts
        )
        assert contained, (length, start, n, level)


class TestElasticBurstDetector:
    def test_matches_naive_on_counts(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(5.0, size=365).astype(float)
        counts[200:208] += 40.0
        model = ElasticModel(linear_threshold(30.0, 8.0), lengths=DYADIC)
        fast = model.detect(counts)
        naive = model.detect_naive(counts)
        assert fast == naive
        assert fast, "the planted burst must qualify at some window length"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_property_no_false_dismissals(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(3.0, size=128).astype(float)
        spikes = rng.integers(0, 120, size=2)
        counts[spikes] += rng.integers(10, 60, size=2)
        model = ElasticModel(lambda w: 12.0 + 4.0 * w, lengths=(1, 2, 4, 8))
        assert model.detect(counts) == model.detect_naive(counts)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        n=st.integers(min_value=1, max_value=160),
        lengths=st.lists(
            st.integers(min_value=1, max_value=200), min_size=1, max_size=5
        ),
        # 0/0: every cell alarms and every window qualifies, as on the
        # raw counts the benchmark feeds the default model.
        threshold=st.sampled_from([(0.0, 0.0), (4.0, 1.0), (12.0, 4.0), (60.0, 0.5)]),
    )
    def test_vectorised_pass_equals_the_exhaustive_spec(
        self, seed, n, lengths, threshold
    ):
        """Any length mix (some longer than the series), any alarm rate."""
        rng = np.random.default_rng(seed)
        counts = rng.poisson(3.0, size=n).astype(float)
        spikes = rng.integers(0, n, size=2)
        counts[spikes] += rng.integers(10, 60, size=2)
        offset, rate = threshold
        model = ElasticModel(lengths=lengths, offset=offset, rate=rate)
        assert model.detect(counts) == model.detect_naive(counts)

        # Negatives are clipped to zero first.
        signed = counts - rng.integers(0, 5, size=n)
        assert model.detect(signed) == model.detect_naive(
            np.maximum(signed, 0.0)
        )

    def test_elasticity_finds_slow_wide_bursts(self):
        """A burst too weak per-day still qualifies over a wide window."""
        counts = np.full(200, 1.0)
        counts[100:140] = 3.0  # mild, long elevation
        model = ElasticModel(lambda w: 10.0 + 1.8 * w, lengths=(1, 4, 16, 32))
        found = model.detect(counts)
        assert found
        assert all(len(burst) >= 16 for burst in found)
        assert not [b for b in found if len(b) == 1]

    def test_negative_values_rejected(self):
        """The SWT pass itself refuses what ``detect`` clips."""
        model = ElasticModel(linear_threshold(), lengths=DYADIC)
        with pytest.raises(ValueError):
            model.windows(np.array([1.0, -1.0, 2.0]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ElasticModel(linear_threshold(), lengths=())
        with pytest.raises(ValueError):
            ElasticModel(linear_threshold(), lengths=(0,))

    def test_storage_cells_exceed_triplets(self):
        """The paper's storage claim: SWT state vs compact triplets."""
        from repro.bursts import BurstDetector, compact_bursts
        from repro.datagen import QueryLogGenerator

        series = QueryLogGenerator(seed=0).series("halloween")
        model = ElasticModel(linear_threshold(), lengths=DYADIC)
        cells = model.storage_cells(series.values)

        standardized = series.standardize()
        triplets = compact_bursts(
            standardized, BurstDetector.long_term().detect(standardized)
        )
        assert cells > 10 * max(len(triplets), 1) * 3

    def test_burst_ordering(self):
        a = BurstRegion(1, 3, 10.0)
        b = BurstRegion(2, 3, 5.0)
        assert a < b
        assert len(a) == 3
