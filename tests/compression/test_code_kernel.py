"""Laws of the exact row-code kernel (:meth:`RowCodes.bounds_sq`).

* The integer dot products a block of queries gets from the float32
  GEMM equal a float64 integer reference bit for bit, at every row
  length, the 512-column chunk boundaries included.
* ``LB <= computed d² <= UB`` on every finite input: constant rows
  (step 0), overflowing rows (step ∞), the zero query, a query equal to
  a row and magnitudes scaled by 2^±40.  A query's bounds are the same
  bits in a block, alone, and over any subset of ids.
* ``search_many(Q)[i] == search(Q[i])``, answer and ``SearchStats``, on
  every index whose batches bound a block in one kernel call: ``flat``,
  the serial and the pooled shard router, and the stream union.

CI runs this file once more under ``OPENBLAS_NUM_THREADS=1``: together
with the default-thread run, that shows the GEMM exact at both thread
counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_sharded
from repro.compression.codes import RowCodes, _integer_dots, _quantised
from repro.engine import get_index, search_many
from repro.engine.core import block_distances_sq
from repro.index.results import SearchStats
from repro.stream.index import StreamIndex
from repro.timeseries import zscore

LENGTHS = (1, 3, 511, 512, 513, 1024)
ROW_KINDS = ("zscored", "walk", "constant", "overflow", "tiny")


def draw_row(rng, kind, n, exponent):
    if kind == "zscored":
        return zscore(rng.normal(size=n)) * 2.0**exponent
    if kind == "walk":
        return np.cumsum(rng.normal(size=n)) * 2.0**exponent
    if kind == "constant":
        return np.full(n, rng.uniform(-5.0, 5.0) * 2.0**exponent)
    if kind == "overflow":
        return rng.normal(size=n) * 1e300  # ‖x̂‖² overflows: step ∞
    return rng.normal(size=n) * 1e-310


@st.composite
def blocks(draw):
    """``(codes, matrix, queries)``: rows of mixed kinds, a query block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from(LENGTHS))
    count = draw(st.sampled_from((1, 3, 513)))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=3))
    exponent = draw(st.integers(-40, 40))
    matrix = np.array([
        draw_row(rng, kinds[i % len(kinds)], n, exponent) for i in range(count)
    ])
    queries = [
        np.zeros(n),
        matrix[int(rng.integers(count))].copy(),
        rng.normal(size=n) * 2.0 ** draw(st.integers(-40, 40)),
    ]
    return RowCodes.from_matrix(matrix), matrix, np.array(queries)


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_integer_dots_equal_a_float64_reference(block):
    codes, _, queries = block
    halves = _quantised(queries)[0]
    high, low = np.split(halves.astype(np.float64), 2, axis=1)
    assert ((-128 <= high) & (high <= 127)).all()
    assert ((0 <= low) & (low <= 127)).all()
    # Integers below 2⁵³ in any float64 order: the reference is exact.
    reference = (codes.codes.astype(np.float64) @ (128.0 * high + low)).T
    dots = _integer_dots(codes.codes.astype(np.float32), halves)
    assert dots.tobytes() == reference.tobytes()


@settings(max_examples=60, deadline=None)
@given(blocks(), st.data())
def test_bounds_bracket_every_finite_input(block, data):
    codes, matrix, queries = block
    lower, upper = codes.bounds_sq(queries)
    ids = np.array(
        data.draw(st.lists(st.integers(0, len(matrix) - 1), max_size=20)),
        dtype=np.intp,
    )
    for query, low, up in zip(queries, lower, upper):
        alone = codes.bounds_sq(query)
        subset = codes.bounds_sq(query, ids)
        assert alone[0].tobytes() == low.tobytes()
        assert alone[1].tobytes() == up.tobytes()
        assert subset[0].tobytes() == low[ids].tobytes()
        assert subset[1].tobytes() == up[ids].tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            exact = block_distances_sq(matrix, query)
        assert not np.isnan(low).any() and not np.isnan(up).any()
        assert (low >= 0).all()
        assert (low <= exact).all(), (low, exact)
        assert (exact <= up).all(), (exact, up)


def walks(count, n=64, seed=3):
    rng = np.random.default_rng(seed)
    return np.array(
        [zscore(np.cumsum(rng.normal(size=n))) for _ in range(count)]
    )


def assert_batch_is_singles(index, queries, k, single=None):
    single = single or (lambda query: index.search(query, k=k))
    batch = search_many(index, queries, k=k)
    assert len(batch) == len(queries)
    for query, (hits, stats) in zip(queries, batch):
        expected_hits, expected_stats = single(query)
        assert [(h.distance, h.seq_id, h.name) for h in hits] == [
            (h.distance, h.seq_id, h.name) for h in expected_hits
        ]
        assert stats == expected_stats


@pytest.fixture(scope="module")
def database():
    return walks(300)


@pytest.fixture(scope="module")
def queries():
    return walks(70, seed=4)  # more than one kernel block (64 queries)


@pytest.mark.parametrize("k", [1, 5])
def test_flat_batch_equals_singles(database, queries, k):
    assert_batch_is_singles(get_index("flat", database), queries, k)


@pytest.mark.parametrize("shards", [2, 3])
def test_serial_router_batch_equals_singles(database, queries, shards):
    router = build_sharded(database, shards=shards, worker_pool=False)
    try:
        assert_batch_is_singles(router, queries, 5)
    finally:
        router.close()


def test_pooled_router_batch_equals_shard_singles(database, queries):
    """A pooled batch is one sub-search per shard in its worker: each
    equals that shard's single search, merged in shard order."""
    pooled = build_sharded(database, shards=2, worker_pool=True)
    serial = build_sharded(database, shards=2, worker_pool=False)
    k = 5

    def merged(query):
        hits, stats = [], SearchStats()
        for sub, global_ids in serial.shard_views():
            sub_hits, sub_stats = sub.search(query, k=min(k, len(sub)))
            hits += [
                type(h)(h.distance, int(global_ids[h.seq_id]), h.name)
                for h in sub_hits
            ]
            stats.merge(sub_stats)
        return sorted(hits)[:k], stats

    try:
        assert_batch_is_singles(pooled, queries, k, single=merged)
    finally:
        pooled.close()
        serial.close()


def test_stream_union_batch_equals_singles(database, queries):
    names = tuple(f"r{i}" for i in range(len(database)))
    union = StreamIndex(
        database[:200], names[:200], database[200:], names[200:]
    )
    assert_batch_is_singles(union, queries, 5)
