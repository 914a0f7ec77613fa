"""Laws of the resident 8-bit row codes (:class:`RowCodes`).

* Soundness: ``bounds_sq(q, ids)`` brackets the squared distance the
  verifier computes, on any finite row — z-scored, offset, Poisson
  counts, constant, one spike, huge or tiny magnitudes — and for a query
  equal to a database row (lower bound 0).
* ``take(rows)`` is bitwise equal to quantising ``matrix[rows]`` anew:
  the premise that a shard's code slice equals its own build, so
  sharded ≡ monolithic.
* ``appended(row)`` equals a rebuild over the grown matrix.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codes import RowCodes
from repro.engine.core import block_distances_sq

ROW_CLASSES = (
    "zscored", "offset", "counts", "constant", "spike", "huge", "tiny",
)


def draw_row(rng, kind, n):
    """One row of ``kind``: the shapes whose range stresses the codes."""
    if kind == "zscored":
        row = rng.normal(size=n)
        return (row - row.mean()) / (row.std() or 1.0)
    if kind == "offset":
        return rng.normal(size=n) + rng.uniform(-1e6, 1e6)
    if kind == "counts":
        return rng.poisson(rng.uniform(0.5, 60.0), size=n).astype(float)
    if kind == "constant":
        return np.full(n, rng.uniform(-5.0, 5.0))
    if kind == "spike":
        row = rng.normal(size=n)
        row[rng.integers(n)] += rng.uniform(-1e4, 1e4)
        return row
    if kind == "huge":
        return rng.normal(size=n) * 10.0 ** rng.uniform(100, 307)
    return rng.normal(size=n) * 10.0 ** rng.uniform(-320, -290)


def draw_matrix(rng, kinds, n, count):
    return np.array(
        [draw_row(rng, kinds[i % len(kinds)], n) for i in range(count)]
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((1, 2, 7, 32, 64, 200)),
    kinds=st.lists(st.sampled_from(ROW_CLASSES), min_size=1, max_size=4),
    query_kind=st.sampled_from(ROW_CLASSES + ("row",)),
)
def test_bounds_bracket_the_distance(seed, n, kinds, query_kind):
    rng = np.random.default_rng(seed)
    matrix = draw_matrix(rng, kinds, n, 12)
    if query_kind == "row":
        query = matrix[int(rng.integers(len(matrix)))].copy()
    else:
        query = draw_row(rng, query_kind, n)
    codes = RowCodes.from_matrix(matrix)
    ids = rng.permutation(len(matrix))
    lower, upper = codes.bounds_sq(query, ids)
    with np.errstate(over="ignore"):
        exact = block_distances_sq(matrix[ids], query)
    assert not np.isnan(lower).any() and not np.isnan(upper).any()
    assert (lower >= 0).all()
    assert (lower <= exact).all(), (lower, exact)
    assert (exact <= upper).all(), (exact, upper)
    if query_kind == "row":
        assert lower[exact == 0.0].tolist() == [0.0] * int((exact == 0).sum())


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((1, 5, 64)),
    kinds=st.lists(st.sampled_from(ROW_CLASSES), min_size=1, max_size=4),
    count=st.integers(1, 700),
    data=st.data(),
)
def test_take_is_a_rebuild_of_the_rows(seed, n, kinds, count, data):
    rng = np.random.default_rng(seed)
    matrix = draw_matrix(rng, kinds, n, count)
    rows = data.draw(
        st.lists(st.integers(0, count - 1), max_size=40), label="rows"
    )
    view = RowCodes.from_matrix(matrix).take(rows)
    fresh = RowCodes.from_matrix(matrix[rows])
    assert_bitwise_equal(view, fresh)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(ROW_CLASSES), min_size=1, max_size=4),
    count=st.integers(1, 300),
    row_kind=st.sampled_from(ROW_CLASSES),
)
def test_appended_equals_a_rebuild(seed, kinds, count, row_kind):
    rng = np.random.default_rng(seed)
    matrix = draw_matrix(rng, kinds, 16, count)
    row = draw_row(rng, row_kind, 16)
    grown = RowCodes.from_matrix(matrix).appended(row)
    assert_bitwise_equal(grown, RowCodes.from_matrix(np.vstack((matrix, row))))


def assert_bitwise_equal(left, right):
    for field in ("lo", "step", "codes", "norms_sq"):
        a, b = getattr(left, field), getattr(right, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def test_codes_cost_one_byte_per_value():
    matrix = np.random.default_rng(0).normal(size=(100, 512))
    codes = RowCodes.from_matrix(matrix)
    resident = sum(
        getattr(codes, field).nbytes
        for field in ("lo", "step", "codes", "norms_sq")
    )
    assert codes.codes.dtype == np.uint8
    assert resident == 100 * (512 + 3 * 8)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 300),
    scale=st.sampled_from((1.0, 1e-3, 1e5)),
    away=st.floats(0.0, 50.0),
)
def test_worst_case_rounding_is_covered(seed, n, scale, away):
    """Every value half a step from its code, the query on the far side.

    Then ``‖x - x̂‖`` is ``√n · step / 2`` but for the two end values,
    and ``q = x ± t (x - x̂)`` makes the triangle inequality the lower
    (upper) bound rests on an equality: an understated rounding radius
    shows here.
    The row is centred so that the float32 slack stays small beside it.
    """
    rng = np.random.default_rng(seed)
    row = rng.integers(0, 255, size=n) + 0.5
    row[:2] = (0.0, 255.0)  # the row's min and max: step is exactly 1
    row = (row - 127.5) * scale
    codes = RowCodes.from_matrix(row[None])
    coded = codes.lo[0] + codes.step[0] * codes.codes[0]
    for sign in (1.0, -1.0):
        query = row + sign * away * (row - coded)
        lower, upper = codes.bounds_sq(query, np.array([0]))
        exact = block_distances_sq(row[None], query)[0]
        assert lower[0] <= exact <= upper[0]
