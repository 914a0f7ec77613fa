"""Tests for the Kleinberg burst-automaton baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bursts import BurstRegion, KleinbergModel


def bursty_counts(n=200, start=120, width=20, base=50.0, boost=4.0, seed=0):
    rng = np.random.default_rng(seed)
    rates = np.full(n, base)
    rates[start : start + width] *= boost
    return rng.poisson(rates).astype(float)


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            KleinbergModel(scaling=1.0)
        with pytest.raises(ValueError):
            KleinbergModel(gamma=0.0)
        with pytest.raises(ValueError):
            KleinbergModel(states=1)


class TestTwoState:
    def test_finds_planted_burst(self):
        counts = bursty_counts()
        bursts = KleinbergModel().detect(counts)
        assert len(bursts) == 1
        burst = bursts[0]
        assert 115 <= burst.start <= 125
        assert 135 <= burst.end <= 145
        assert burst.level == 1

    def test_flat_stream_has_almost_no_bursts(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(50.0, size=300).astype(float)
        # With Kleinberg's default gamma a lucky day can flicker into the
        # burst state; anything beyond a couple of isolated days would be
        # a real false-positive problem.
        bursts = KleinbergModel().detect(counts)
        assert sum(len(b) for b in bursts) <= 2
        # A stricter transition cost removes even those.
        assert KleinbergModel(gamma=3.0).detect(counts) == []

    def test_state_sequence_shape(self):
        counts = bursty_counts()
        states = KleinbergModel().state_sequence(counts)
        assert states.shape == (200,)
        assert set(np.unique(states)) <= {0, 1}

    def test_higher_gamma_is_more_conservative(self):
        counts = bursty_counts(boost=2.0, width=6, seed=3)
        eager = KleinbergModel(gamma=0.5).detect(counts)
        strict = KleinbergModel(gamma=20.0).detect(counts)
        eager_days = sum(len(b) for b in eager)
        strict_days = sum(len(b) for b in strict)
        assert strict_days <= eager_days

    def test_two_separated_bursts(self):
        counts = bursty_counts(n=300, start=50, width=15, seed=4)
        counts[200:215] *= 4.0
        bursts = KleinbergModel().detect(counts)
        assert len(bursts) == 2
        assert bursts[0].end < bursts[1].start

    def test_burst_at_stream_end(self):
        counts = bursty_counts(n=150, start=130, width=20, seed=5)
        bursts = KleinbergModel().detect(counts)
        assert bursts
        assert bursts[-1].end == 149


class TestHierarchical:
    def test_stronger_burst_reaches_higher_state(self):
        rng = np.random.default_rng(6)
        rates = np.full(300, 40.0)
        rates[100:120] *= 2.2   # moderate burst (may fragment)
        rates[200:220] *= 9.0   # extreme burst
        counts = rng.poisson(rates).astype(float)
        model = KleinbergModel(states=4)
        bursts = model.detect(counts)
        moderate = [b for b in bursts if b.end < 150]
        extreme = [b for b in bursts if b.start >= 150]
        assert moderate and extreme
        assert max(b.level for b in extreme) > max(b.level for b in moderate)
        # The extreme burst is caught as one clean run.
        assert len(extreme) == 1
        assert 195 <= extreme[0].start <= 205
        assert 215 <= extreme[0].end <= 225

    def test_burst_dataclass(self):
        burst = BurstRegion(10, 14, 3.5, level=2)
        assert len(burst) == 5
        assert burst < BurstRegion(20, 21, 0.5, level=1)


class TestAgreementWithMovingAverage:
    def test_both_flag_the_halloween_burst(self):
        """The two detectors agree on the obvious seasonal burst."""
        from repro.bursts import BurstDetector, compact_bursts
        from repro.datagen import QueryLogGenerator

        series = QueryLogGenerator(seed=0).series("halloween")
        kleinberg = KleinbergModel().detect(series.values)
        standardized = series.standardize()
        annotation = BurstDetector.long_term().detect(standardized)
        ma_bursts = compact_bursts(standardized, annotation)

        assert kleinberg and ma_bursts
        k_days = set()
        for burst in kleinberg:
            k_days.update(range(burst.start, burst.end + 1))
        ma_days = set()
        for burst in ma_bursts:
            ma_days.update(range(burst.start, burst.end + 1))
        overlap = len(k_days & ma_days) / min(len(k_days), len(ma_days))
        assert overlap > 0.5


def numpy_viterbi(model, n, emission):
    """The per-day numpy recurrence ``_viterbi`` replaced: the oracle."""
    k = model.states
    transition = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            transition[i, j] = model._transition_cost(i, j, n)
    cost = np.full(k, np.inf)
    cost[0] = emission[0, 0]
    for j in range(1, k):
        cost[j] = transition[0, j] + emission[0, j]
    backpointer = np.zeros((n, k), dtype=np.intp)
    for day in range(1, n):
        step = cost[:, None] + transition
        best_from = np.argmin(step, axis=0)
        cost = step[best_from, np.arange(k)] + emission[day]
        backpointer[day] = best_from
    states = np.zeros(n, dtype=np.intp)
    states[-1] = int(np.argmin(cost))
    for day in range(n - 1, 0, -1):
        states[day - 1] = backpointer[day, states[day]]
    return states


# All-zero, constant, one spike, huge, length 1 and 2: where costs tie and
# the first minimum (the lowest state) must win, as np.argmin picks it.
tie_prone_counts = st.one_of(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=80),
    st.lists(st.sampled_from([0, 0, 0, 1, 7, 10**9]), min_size=1, max_size=40),
    st.builds(
        lambda n, level, at, spike: [level] * (at % n)
        + [level + spike]
        + [level] * (n - 1 - at % n),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0),
        st.sampled_from([0, 1, 50, 10**6, 10**12]),
    ),
)


class TestViterbiAgainstTheNumpyRecurrence:
    @pytest.mark.parametrize("states", [2, 3, 4])
    @settings(max_examples=150, deadline=None)
    @given(
        counts=tie_prone_counts,
        gamma=st.sampled_from([0.25, 1.0, 3.0]),
        scaling=st.sampled_from([1.5, 2.0, 4.0]),
    )
    def test_state_sequence_is_the_oracles(self, states, counts, gamma, scaling):
        model = KleinbergModel(scaling=scaling, gamma=gamma, states=states)
        arr = np.asarray(counts, dtype=np.float64)
        emission = model._emission_costs(arr, model._rates(arr))
        want = numpy_viterbi(model, arr.size, emission)
        got = model.state_sequence(arr)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("states", [2, 3, 4])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_first_minimum_wins_on_tied_costs(self, states, data):
        """Poisson costs almost never tie exactly; whole-number ones do.

        Descending is free, so equal accumulated costs in two states tie
        every comparison downstream of them: ``<=`` for ``<`` in the
        kernel fails here and nowhere above.
        """
        n = data.draw(st.integers(min_value=1, max_value=24))
        cell = st.sampled_from([0.0, 0.0, 1.0, 2.0, float("inf")])
        emission = np.array(
            data.draw(
                st.lists(
                    st.lists(cell, min_size=states, max_size=states),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        model = KleinbergModel(states=states)
        np.testing.assert_array_equal(
            model._viterbi(n, emission), numpy_viterbi(model, n, emission)
        )

    @pytest.mark.parametrize("states", [2, 3, 4])
    def test_the_named_tie_cases(self, states):
        model = KleinbergModel(states=states)
        for counts in ([0], [5], [0, 0], [3, 3], [0] * 30, [7] * 30, [10**9, 0]):
            arr = np.asarray(counts, dtype=np.float64)
            emission = model._emission_costs(arr, model._rates(arr))
            np.testing.assert_array_equal(
                model.state_sequence(arr),
                numpy_viterbi(model, arr.size, emission),
            )
