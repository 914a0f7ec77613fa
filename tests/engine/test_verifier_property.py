"""Differential property over the one verifier.

Block size only decides where a distance comes from (prefetched block,
or the per-id scalar kernel at 0/1), never what the loop decides — so
for any database, backend, ``k``, block size and policy, the answer *and*
every :class:`~repro.index.results.SearchStats` field must equal the
block-0 run, the extended pruning invariant must close, and an exact
policy must agree with a numpy brute force.  The databases carry planted
duplicate rows (exact distance ties, broken by id) and a constant row;
rows and queries are standardised, where the sketch bounds are tight.
A second law draws raw rows, whose DC is not zero (offsets, counts,
unnormalised noise): the bounds are sound on any finite row, so every
backend must still agree with brute force there.
"""

import dataclasses
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ApproxPolicy, available_indexes, get_index
from repro.timeseries import zscore

BACKENDS = tuple(name for name in available_indexes() if name != "sharded")
BLOCK_SIZES = (0, 1, 2, 3, 7, 256)
POLICIES = (
    ApproxPolicy(),
    ApproxPolicy(epsilon=0.3),
    ApproxPolicy(patience=2),
    ApproxPolicy(epsilon=0.3, patience=2),
)
LENGTH = 32


@st.composite
def databases(draw):
    """``(matrix, query)``: random rows + duplicates + one constant row."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    unique = draw(st.integers(3, 14))
    rows = [zscore(rng.normal(size=LENGTH)) for _ in range(unique)]
    for _ in range(draw(st.integers(1, 3))):
        rows.append(rows[int(rng.integers(unique))].copy())
    rows.append(zscore(np.full(LENGTH, 2.0)))  # no shape: all zeros
    matrix = np.array(rows)[rng.permutation(len(rows))]
    if draw(st.booleans()):
        query = matrix[int(rng.integers(len(matrix)))].copy()  # forces ties
    else:
        query = zscore(rng.normal(size=LENGTH))
    return matrix, query


def run(index, block, search):
    with mock.patch.dict(os.environ, {"REPRO_VERIFY_BLOCK": str(block)}):
        hits, stats = search(index)
    assert (
        stats.candidates_pruned
        + stats.full_retrievals
        + stats.quarantined
        + stats.skipped_approx
        == len(index)
    )
    return [(h.distance, h.seq_id) for h in hits], dataclasses.asdict(stats)


@settings(max_examples=60, deadline=None)
@given(
    databases(),
    st.sampled_from(BACKENDS),
    st.sampled_from(BLOCK_SIZES),
    st.sampled_from(POLICIES),
    st.data(),
)
def test_any_block_size_equals_block_zero(db, backend, block, policy, data):
    matrix, query = db
    k = data.draw(st.integers(1, len(matrix)), label="k")
    index = get_index(backend, matrix)
    brute = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    truth = np.sort(brute)
    # Just outside the k-th neighbour, so kernel-vs-numpy rounding cannot
    # move a boundary member across the radius.
    radius = truth[k - 1] * (1 + 1e-9) + 1e-9
    for expected, search in (
        (truth[:k], lambda ix: ix.search(query, k=k, policy=policy)),
        (
            truth[truth <= radius],
            lambda ix: ix.range_search(query, radius, policy=policy),
        ),
    ):
        reference = run(index, 0, search)
        assert run(index, block, search) == reference
        if policy.exact:
            # Distances, not ids, against numpy: rows equidistant up to
            # rounding (every standardised row, from the constant one)
            # may order differently there.  Each id must own its distance.
            hits = reference[0]
            ids = [i for _, i in hits]
            assert len(set(ids)) == len(ids) == len(expected)
            np.testing.assert_allclose(
                [d for d, _ in hits], expected, atol=1e-9
            )
            np.testing.assert_allclose(
                [d for d, _ in hits], brute[ids], atol=1e-9
            )


def test_a_row_whose_bounds_round_apart_keeps_its_place():
    """An all-zero row's LB and UB are both ``|q|``.  On this database
    rounding puts its LB an ulp above its UB, which is sigma at k = 1:
    the SUB filter must not prune the row that sets sigma."""
    rng = np.random.default_rng(187)
    rows = [zscore(rng.normal(size=LENGTH)) for _ in range(rng.integers(3, 15))]
    rows.append(zscore(np.full(LENGTH, 2.0)))
    matrix = np.array(rows)[rng.permutation(len(rows))]
    query = zscore(rng.normal(size=LENGTH))
    nearest = int(np.argmin(((matrix - query) ** 2).sum(axis=1)))
    assert not matrix[nearest].any()
    for backend in BACKENDS:
        hits, _ = get_index(backend, matrix).search(query, k=1)
        assert [h.seq_id for h in hits] == [nearest], backend


ROW_CLASSES = ("centred", "offset", "counts", "unnormalised")


@st.composite
def raw_databases(draw):
    """``(matrix, query)`` of one row class: DC is zero only if centred."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(ROW_CLASSES))
    shape = (draw(st.integers(5, 30)) + 1, LENGTH)
    if kind == "counts":
        rows = rng.poisson(draw(st.sampled_from((3.0, 40.0))), size=shape)
    else:
        rows = rng.normal(size=shape)
        if kind == "centred":
            rows -= rows.mean(axis=1, keepdims=True)
        elif kind == "offset":
            rows += draw(st.sampled_from((-20.0, 5.0)))
    rows = rows.astype(np.float64)
    return rows[:-1], rows[-1]


@settings(max_examples=60, deadline=None)
@given(raw_databases(), st.sampled_from(BACKENDS), st.data())
def test_any_finite_row_agrees_with_brute_force(db, backend, data):
    matrix, query = db
    k = data.draw(st.integers(1, 5), label="k")
    index = get_index(backend, matrix)
    brute = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    truth = np.sort(brute)
    radius = truth[k - 1] * (1 + 1e-9) + 1e-9
    for expected, (hits, _) in (
        (truth[:k], index.search(query, k=k)),
        (truth[truth <= radius], index.range_search(query, radius)),
    ):
        distances = [h.distance for h in hits]
        np.testing.assert_allclose(distances, expected, rtol=1e-9)
        np.testing.assert_allclose(
            distances, brute[[h.seq_id for h in hits]], rtol=1e-9
        )
