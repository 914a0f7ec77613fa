"""Every stored row is its own range hit at radius 0, and its own 1-NN.

Query-by-example with a stored series is the paper's S2 use, so a query
at distance 0 from a row is routine.  Every filter here keeps a row iff
``sqrt(LB²) <= radius``, with no absolute slack, on a bound that is at
most the verifier's computed ``d_sq``: the row codes of ``flat``, the
shard router and the stream union; the sound squared bounds the trees
walk on, from their codes or from sketches widened by
``BatchBounds.bounds_sq``; and the M-tree's and R-tree's margined triangle
and feature bounds.  So a row at distance 0 always survives, at every
verify block size.  The second law takes rows a hair from the query,
where a bound's rounding is largest beside the distance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_sharded
from repro.compression import BestMinErrorCompressor
from repro.engine import get_index
from repro.index.distance import euclidean_early_abandon_sq
from repro.stream.index import StreamIndex
from repro.timeseries import zscore

KINDS = ("zscored", "walk", "gaussian", "counts")
COMPRESSOR = BestMinErrorCompressor(14)
BLOCK_SIZES = (0, 3, 256)


def draw_row(rng, kind, n):
    if kind == "zscored":
        return zscore(rng.normal(size=n))
    if kind == "walk":
        return np.cumsum(rng.normal(size=n))
    if kind == "gaussian":
        return rng.normal(size=n) * 1e3
    return rng.poisson(40.0, size=n).astype(float)


def database(seed, unique, duplicates, kind, n):
    """Rows built the way the verifier property law builds its own:
    ``unique`` rows, ``duplicates`` copies of some, one constant row."""
    rng = np.random.default_rng(seed)
    rows = [draw_row(rng, kind, n) for _ in range(unique)]
    for _ in range(duplicates):
        rows.append(rows[int(rng.integers(unique))].copy())
    rows.append(zscore(np.full(n, 2.0)))  # no shape: all zeros
    return np.array(rows)[rng.permutation(len(rows))]


def indexes(matrix):
    names = tuple(f"r{i}" for i in range(len(matrix)))
    sealed = len(matrix) // 2
    yield get_index("flat", matrix)
    for tree in ("vptree", "mvptree"):
        yield get_index(tree, matrix, leaf_size=4)
        yield get_index(tree, matrix, leaf_size=4, compressor=COMPRESSOR)
    yield get_index("mtree", matrix)
    yield get_index("rtree", matrix)
    yield build_sharded(matrix, shards=2, worker_pool=False)
    yield StreamIndex(
        matrix[:sealed], names[:sealed], matrix[sealed:], names[sealed:]
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    unique=st.integers(3, 14),
    duplicates=st.integers(1, 3),
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((32, 256)),
    block=st.sampled_from(BLOCK_SIZES),
)
# The draw on which the sketch-filtered ``flat`` once returned an empty
# range answer at radius ≈ 0: rng seed 1070, 5 rows, k = 1.
@example(seed=1070, unique=3, duplicates=1, kind="zscored", n=32, block=256)
def test_every_row_is_its_own_hit(seed, unique, duplicates, kind, n, block):
    matrix = database(seed, unique, duplicates, kind, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_VERIFY_BLOCK", str(block))
        for index in indexes(matrix):
            for seq_id, row in enumerate(matrix):
                hits, _ = index.range_search(row, 0.0)
                found = {h.seq_id for h in hits}
                assert seq_id in found, (index.obs_name, seq_id)
                nearest, _ = index.search(row, k=1)
                assert nearest[0].distance == 0.0, (index.obs_name, seq_id)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((32, 256)),
    exponent=st.integers(-13, -8),
    frequency=st.integers(1, 3),
    block=st.sampled_from(BLOCK_SIZES),
)
def test_a_near_duplicate_is_a_hit_at_its_distance(
    seed, kind, n, exponent, frequency, block
):
    """Rows that differ from the query only in one low coefficient, far
    below their norms, sit where a bound's rounding is largest beside the
    distance: each row is a range hit at the distance the k-NN reports,
    and the k-NN answer is the brute-force one."""
    rng = np.random.default_rng(seed)
    query = draw_row(rng, kind, n)
    wave = np.sin(2 * np.pi * frequency * np.arange(n) / n)
    step = 10.0**exponent * np.abs(query).max()
    rows = [query + step * scale * wave for scale in (1, 3, 10)]
    matrix = np.array(rows + [draw_row(rng, kind, n) for _ in range(3)])
    truth = sorted(
        range(len(matrix)),
        key=lambda i: (euclidean_early_abandon_sq(query, matrix[i], np.inf), i),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_VERIFY_BLOCK", str(block))
        for index in indexes(matrix):
            hits, _ = index.search(query, k=len(matrix))
            assert [h.seq_id for h in hits] == truth, index.obs_name
            for hit in hits:
                found, _ = index.range_search(query, hit.distance)
                assert hit.seq_id in {h.seq_id for h in found}, (
                    index.obs_name, hit.seq_id
                )
