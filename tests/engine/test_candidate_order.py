"""Array producers emit candidates ascending by ``(LB^2, seq_id)``.

A :class:`~repro.engine.core.CandidateSet` stores its survivors as two
arrays, ``lb_sq`` (``float64``) and ``ids`` (``intp``).  Every producer
that hands arrays over — the SUB filter over bound arrays, the tree
walk and the stream union — must put them in the order
``sorted(zip(lb_sq, ids))`` gives, ties broken by id, which is the
order the verifier's termination rule and the tree walks' sorted pair
lists rely on.  Bounds are drawn from a handful of values so ties are
the rule, not the exception.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.core import CandidateSet, candidates_from_bound_arrays
from repro.index.results import SearchStats
from repro.index.walk import BoundedWalk
from repro.stream.index import StreamIndex
from repro.timeseries import zscore

LEVELS = (0.0, 0.5, 1.0, 1.5, 2.0)


def assert_ascending(cands: CandidateSet) -> None:
    assert cands.lb_sq.dtype == np.float64
    assert cands.ids.dtype == np.intp
    pairs = list(zip(cands.lb_sq.tolist(), cands.ids.tolist()))
    assert pairs == sorted(pairs)
    assert cands.entries == pairs


@st.composite
def bound_arrays(draw):
    """Tied lower bounds and upper bounds at or above them."""
    count = draw(st.integers(1, 40))
    lower = np.array(draw(st.lists(
        st.sampled_from(LEVELS), min_size=count, max_size=count
    )))
    gaps = np.array(draw(st.lists(
        st.sampled_from(LEVELS), min_size=count, max_size=count
    )))
    return lower, lower + gaps


@settings(max_examples=100, deadline=None)
@given(bounds=bound_arrays(), k=st.integers(1, 40))
def test_bound_arrays_filter(bounds, k):
    lower, upper = bounds
    k = min(k, lower.size)
    assert_ascending(candidates_from_bound_arrays(lower, upper, k))


@settings(max_examples=100, deadline=None)
@given(bounds=bound_arrays(), k=st.integers(1, 5), data=st.data())
def test_bounded_walk(bounds, k, data):
    lower, upper = bounds
    visits = data.draw(st.permutations(range(lower.size)))
    # The tied levels serve as squared bounds, walked with no margin.
    walk = BoundedWalk(lower, upper, 0.0, SearchStats(), min(k, lower.size))
    for start in range(0, len(visits), 3):
        walk.examine(list(visits[start : start + 3]))
    assert_ascending(walk.knn_result())


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sealed_count=st.integers(0, 12),
    live_count=st.integers(0, 6),
)
def test_stream_union(seed, sealed_count, live_count):
    rng = np.random.default_rng(seed)
    rows = np.array(
        [zscore(rng.normal(size=32)) for _ in range(sealed_count + live_count)]
    ).reshape(-1, 32)
    index = StreamIndex(
        rows[:sealed_count],
        tuple(f"s{i}" for i in range(sealed_count)),
        rows[sealed_count:],
        tuple(f"l{i}" for i in range(live_count)),
    )
    if not len(index):
        return
    query = rows[0] if sealed_count else zscore(rng.normal(size=32))
    for cands in (
        index.knn_candidates(query, 1, SearchStats()),
        index.range_candidates(query, 4.0, SearchStats()),
    ):
        assert_ascending(cands)
        assert set(range(sealed_count, len(index))) <= set(cands.ids.tolist())
