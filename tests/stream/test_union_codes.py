"""The stream union prunes with row codes and still answers exactly.

:class:`~repro.stream.index.StreamIndex` hands the engine codes for the
whole union: the sealed rows' codes, made once per sealed epoch, then
codes of the live snapshot, made once per live tier.  The law, for any
sealed and live sizes (either may be empty): k-NN and range answers over
the union equal a numpy brute force over ``vstack(sealed, live)``, the
accounting closes, and the codes a :meth:`~StreamIndex.with_live` union
bounds with are bit for bit those of quantising that stack anew, never
the previous live tier's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compression.codes import RowCodes
from repro.stream.index import StreamIndex
from repro.timeseries import zscore

LENGTH = 32
CODE_FIELDS = ("lo", "step", "codes", "norms_sq")


def _rows(rng, count: int) -> np.ndarray:
    rows = [zscore(rng.normal(size=LENGTH)) for _ in range(count)]
    return np.array(rows).reshape(count, LENGTH)


def _union(sealed, live) -> StreamIndex:
    return StreamIndex(
        sealed,
        tuple(f"s{i}" for i in range(len(sealed))),
        live,
        tuple(f"l{i}" for i in range(len(live))),
    )


def _check_accounting(stats, size: int) -> None:
    assert (
        stats.candidates_pruned + stats.full_retrievals + stats.quarantined
        == size
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    sealed_count=st.integers(0, 24),
    live_counts=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    k=st.integers(1, 6),
)
def test_union_answers_and_codes(seed, sealed_count, live_counts, k):
    rng = np.random.default_rng(seed)
    sealed = _rows(rng, sealed_count)
    first_live, live = (_rows(rng, count) for count in live_counts)
    query = zscore(rng.normal(size=LENGTH))
    before = _union(sealed, first_live)
    if len(before):
        before.search(query, 1)
    index = before.with_live(live, tuple(f"l{i}" for i in range(len(live))))
    union = np.vstack([sealed, live])
    size = len(union)
    codes, expected = index.row_codes, RowCodes.from_matrix(union)
    for name in CODE_FIELDS:
        np.testing.assert_array_equal(
            getattr(codes, name), getattr(expected, name)
        )
    if not size:
        return
    names = np.array(
        [f"s{i}" for i in range(sealed_count)]
        + [f"l{i}" for i in range(len(live))]
    )
    d_sq = ((union - query) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(size), d_sq))

    k = min(k, size)
    neighbors, stats = index.search(query, k)
    assert [n.name for n in neighbors] == names[order[:k]].tolist()
    np.testing.assert_allclose(
        [n.distance for n in neighbors], np.sqrt(d_sq[order[:k]]),
        rtol=1e-9,
    )
    _check_accounting(stats, size)

    # A radius halfway between two neighbours keeps rounding off the
    # boundary.
    ranked = np.sqrt(d_sq[order])
    cut = min(k, size - 1)
    radius = (ranked[cut - 1] + ranked[cut]) / 2 if cut else ranked[0] + 1
    hits, stats = index.range_search(query, radius)
    assert sorted(n.name for n in hits) == sorted(
        names[np.sqrt(d_sq) <= radius].tolist()
    )
    _check_accounting(stats, size)


def test_codes_prune_both_tiers():
    """Count-like rows defeat the sketch; the codes still cut the reads,
    and they are booked under the union's name."""
    rng = np.random.default_rng(3)
    counts = rng.poisson(40, size=(260, 64)).astype(float)
    rows = np.array([zscore(row) for row in counts])
    index = _union(rows[:200], rows[200:])
    with obs.observed() as registry:
        _, stats = index.search(rows[7], 5)
    counters = registry.snapshot()["counters"]
    assert counters["engine.codes.pruned"] > 0
    assert stats.full_retrievals < len(rows) // 4
    _check_accounting(stats, len(rows))


def test_every_tier_split_prunes_alike():
    """400 Poisson(40) rows, 5-NN: all sealed, half sealed or all live,
    the codes keep every query to a few rows of the union."""
    counts = np.random.default_rng(11).poisson(40, (420, 64)).astype(float)
    rows = np.array([zscore(row) for row in counts])
    for sealed in (400, 200, 0):
        index = _union(rows[:sealed], rows[sealed:400])
        for query in rows[400:]:
            _, stats = index.search(query, 5)
            assert stats.full_retrievals <= 20, sealed
            assert stats.bound_computations == 400
