"""Every stored row is its own range hit at radius 0, and its own 1-NN.

Query-by-example with a stored series is the paper's S2 use, so a query
at distance 0 from a row is routine.  On the indexes whose filter is the
row codes — ``flat``, the shard router and the stream union over
``flat`` — a row is kept iff ``sqrt(code LB²) <= radius``, with no
absolute slack: the code bound is at most the verifier's computed
``d_sq``, so a row at distance 0 always survives.  The sketch filters of
``vptree`` and ``mvptree`` can still drop one (their ``RANGE_SLACK``
sits in plain distance while the sketch's rounding sits in squared
distance), so they are not held to this law yet.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_sharded
from repro.engine import get_index
from repro.stream.index import StreamIndex
from repro.timeseries import zscore

KINDS = ("zscored", "walk", "gaussian", "counts")


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
)
# The draw on which the sketch-filtered ``flat`` once returned an empty
# range answer at radius ≈ 0: rng seed 1070, 5 rows, k = 1.
@example(seed=1070, unique=3, duplicates=1, kind="zscored", n=32)
def test_every_row_is_its_own_hit(seed, unique, duplicates, kind, n):
    matrix = database(seed, unique, duplicates, kind, n)
    for index in indexes(matrix):
        for seq_id, row in enumerate(matrix):
            hits, _ = index.range_search(row, 0.0)
            assert seq_id in {h.seq_id for h in hits}, (index.obs_name, seq_id)
            nearest, _ = index.search(row, k=1)
            assert nearest[0].distance == 0.0, (index.obs_name, seq_id)
