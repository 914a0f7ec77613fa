"""Tests for the burst similarity measures (fig. 17 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bursts import (
    Burst,
    burst_similarity,
    intersect,
    overlap,
    value_similarity,
)

bursts = st.builds(
    Burst,
    start=st.integers(min_value=0, max_value=200),
    end=st.integers(min_value=0, max_value=200),
    average=st.floats(min_value=-10, max_value=10, allow_nan=False),
).filter(lambda b: True)


@st.composite
def valid_bursts(draw):
    start = draw(st.integers(min_value=0, max_value=200))
    length = draw(st.integers(min_value=1, max_value=50))
    average = draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
    return Burst(start, start + length - 1, average)


class TestOverlap:
    def test_full_overlap(self):
        a = Burst(10, 20, 1.0)
        assert overlap(a, a) == 11

    def test_containment(self):
        outer = Burst(0, 30, 1.0)
        inner = Burst(10, 12, 1.0)
        assert overlap(outer, inner) == 3

    def test_partial(self):
        assert overlap(Burst(0, 10, 1.0), Burst(5, 20, 1.0)) == 6

    def test_touching_endpoints_count_one_day(self):
        assert overlap(Burst(0, 5, 1.0), Burst(5, 9, 1.0)) == 1

    def test_disjoint(self):
        assert overlap(Burst(0, 4, 1.0), Burst(6, 9, 1.0)) == 0

    @settings(max_examples=80)
    @given(valid_bursts(), valid_bursts())
    def test_symmetric_and_bounded(self, a, b):
        assert overlap(a, b) == overlap(b, a)
        assert 0 <= overlap(a, b) <= min(len(a), len(b))


class TestIntersect:
    def test_identical_bursts_score_one(self):
        a = Burst(3, 9, 1.0)
        assert intersect(a, a) == pytest.approx(1.0)

    def test_disjoint_score_zero(self):
        assert intersect(Burst(0, 2, 1.0), Burst(10, 12, 1.0)) == 0.0

    @settings(max_examples=80)
    @given(valid_bursts(), valid_bursts())
    def test_symmetric_and_in_unit_interval(self, a, b):
        assert intersect(a, b) == pytest.approx(intersect(b, a))
        assert 0.0 <= intersect(a, b) <= 1.0


class TestValueSimilarity:
    def test_equal_averages(self):
        assert value_similarity(Burst(0, 1, 2.5), Burst(5, 6, 2.5)) == 1.0

    def test_symmetric_in_difference_sign(self):
        a, b = Burst(0, 1, 1.0), Burst(0, 1, 4.0)
        assert value_similarity(a, b) == pytest.approx(value_similarity(b, a))
        assert value_similarity(a, b) == pytest.approx(1.0 / 4.0)

    @settings(max_examples=80)
    @given(valid_bursts(), valid_bursts())
    def test_bounded(self, a, b):
        assert 0.0 < value_similarity(a, b) <= 1.0


class TestBurstSimilarity:
    def test_empty_sets(self):
        assert burst_similarity([], []) == 0.0
        assert burst_similarity([Burst(0, 1, 1.0)], []) == 0.0

    def test_perfect_match(self):
        bursts = [Burst(0, 9, 2.0), Burst(50, 59, 3.0)]
        assert burst_similarity(bursts, bursts) == pytest.approx(2.0)

    def test_overlapping_beats_disjoint(self):
        query = [Burst(100, 120, 2.0)]
        aligned = [Burst(102, 118, 2.1)]
        elsewhere = [Burst(200, 220, 2.0)]
        assert burst_similarity(query, aligned) > burst_similarity(
            query, elsewhere
        )

    def test_value_closeness_breaks_ties(self):
        query = [Burst(0, 9, 2.0)]
        close = [Burst(0, 9, 2.2)]
        far = [Burst(0, 9, 8.0)]
        assert burst_similarity(query, close) > burst_similarity(query, far)

    @settings(max_examples=60)
    @given(
        st.lists(valid_bursts(), max_size=5),
        st.lists(valid_bursts(), max_size=5),
    )
    def test_symmetric_and_nonnegative(self, xs, ys):
        forward = burst_similarity(xs, ys)
        backward = burst_similarity(ys, xs)
        assert forward == pytest.approx(backward)
        assert forward >= 0.0

    @settings(max_examples=200)
    @given(
        st.lists(valid_bursts(), max_size=8),
        st.lists(valid_bursts(), max_size=8),
    )
    def test_equals_the_composed_single_pair_forms(self, xs, ys):
        """Unsorted, mutually overlapping lists; ``==``, not approx.

        The inlined loop must add the same products in the same order
        as ``intersect * value_similarity`` pair by pair.
        """
        total = 0.0
        for a in xs:
            for b in ys:
                weight = intersect(a, b)
                if weight:
                    total += weight * value_similarity(a, b)
        assert burst_similarity(xs, ys) == total
