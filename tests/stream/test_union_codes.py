"""The stream union prunes with row codes and still answers exactly.

:class:`~repro.stream.index.StreamIndex` hands the engine codes for the
whole union: the inner backend's for the sealed ids, then codes of the
live snapshot, made once per live tier.  The law, for any sealed and
live sizes (either may be empty): k-NN and range answers over the union
equal a numpy brute force over ``vstack(sealed, live)``, the accounting
closes, and the codes a :meth:`~StreamIndex.with_live` union bounds with
are bit for bit those of quantising that stack anew, never the previous
live tier's.  ``scan`` holds no codes, so its union has none and stays
the exhaustive oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compression.codes import RowCodes
from repro.stream.index import StreamIndex
from repro.timeseries import zscore

BACKENDS = ("flat", "vptree", "sharded", "scan")
LENGTH = 32
CODE_FIELDS = ("lo", "step", "codes", "norms_sq")


def _rows(rng, count: int) -> np.ndarray:
    rows = [zscore(rng.normal(size=LENGTH)) for _ in range(count)]
    return np.array(rows).reshape(count, LENGTH)


def _union(backend, sealed, live) -> StreamIndex:
    kwargs = {"shards": 2} if backend == "sharded" else {}
    return StreamIndex(
        backend,
        sealed,
        tuple(f"s{i}" for i in range(len(sealed))),
        live,
        tuple(f"l{i}" for i in range(len(live))),
        **kwargs,
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
    backend=st.sampled_from(BACKENDS),
    k=st.integers(1, 6),
)
def test_union_answers_and_codes(
    seed, sealed_count, live_counts, backend, k
):
    rng = np.random.default_rng(seed)
    sealed = _rows(rng, sealed_count)
    first_live, live = (_rows(rng, count) for count in live_counts)
    query = zscore(rng.normal(size=LENGTH))
    before = _union(backend, sealed, first_live)
    try:
        if len(before):
            before.search(query, 1)  # the first live tier's codes are made
        index = before.with_live(
            live, tuple(f"l{i}" for i in range(len(live)))
        )
        union = np.vstack([sealed, live])
        size = len(union)
        codes = index.row_codes
        if backend == "scan" or not sealed_count:
            assert codes is None
        else:
            expected = RowCodes.from_matrix(union)
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
        if backend == "scan":
            assert stats.full_retrievals == size

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
    finally:
        before.close()


def test_codes_prune_both_tiers():
    """Count-like rows defeat the sketch; the codes still cut the reads,
    and they are booked under the union's name."""
    rng = np.random.default_rng(3)
    counts = rng.poisson(40, size=(260, 64)).astype(float)
    rows = np.array([zscore(row) for row in counts])
    index = _union("flat", rows[:200], rows[200:])
    with obs.observed() as registry:
        _, stats = index.search(rows[7], 5)
    counters = registry.snapshot()["counters"]
    assert counters["engine.codes.pruned"] > 0
    assert stats.full_retrievals < len(rows) // 4
    _check_accounting(stats, len(rows))
