"""The k-NN prefetch reads only rows the running cutoff still admits.

The blocked verifier bulk-reads a block of candidates before the loop
consumes them.  Its k-NN blocks are bounded by the loop's own stop rule:
the first block holds at most ``k`` ids (no cutoff exists before k
distances are known), and every later block holds only ids whose relaxed
lower bound ``lb_sq * relax_sq`` is at most the k-th smallest squared
distance among the rows read before it.  The answer and every
:class:`~repro.index.results.SearchStats` field still equal the
``REPRO_VERIFY_BLOCK=0`` run, where every distance comes per id from the
scalar kernel.
"""

import dataclasses
import math
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import BestMinErrorCompressor
from repro.engine import ApproxPolicy, get_index
from repro.index.distance import euclidean_early_abandon_sq
from repro.index.results import SearchStats
from repro.timeseries import zscore

LENGTH = 32
#: The backends whose verifier reads through a store's ``read_many``:
#: ``flat``, a code-walked tree and a sketch-walked one.
BACKENDS = ("flat", "vptree", "mvptree")
KNOBS = {"mvptree": {"compressor": BestMinErrorCompressor(14)}}
POLICIES = (ApproxPolicy(), ApproxPolicy(epsilon=0.1), ApproxPolicy(epsilon=0.5))


class _RecordingStore:
    """A store that records the ids of every bulk read."""

    def __init__(self, inner):
        self._inner = inner
        self.blocks = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def read_many(self, ids):
        self.blocks.append([int(i) for i in ids])
        return self._inner.read_many(ids)


@st.composite
def databases(draw):
    """``(matrix, query)``: standardised rows, some duplicated for ties."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    unique = draw(st.integers(4, 40))
    rows = [zscore(rng.normal(size=LENGTH)) for _ in range(unique)]
    for _ in range(draw(st.integers(0, 3))):
        rows.append(rows[int(rng.integers(unique))].copy())
    matrix = np.array(rows)
    if draw(st.booleans()):
        query = matrix[int(rng.integers(len(matrix)))].copy()
    else:
        query = zscore(rng.normal(size=LENGTH))
    return matrix, query


def search(index, query, k, policy, block):
    with mock.patch.dict(os.environ, {"REPRO_VERIFY_BLOCK": str(block)}):
        hits, stats = index.search(query, k=k, policy=policy)
    return [(h.distance, h.seq_id) for h in hits], dataclasses.asdict(stats)


@settings(max_examples=80, deadline=None)
@given(
    databases(),
    st.sampled_from(BACKENDS),
    st.sampled_from(POLICIES),
    st.sampled_from((2, 3, 7, 256)),
    st.data(),
)
def test_prefetch_stops_at_the_running_kth_distance(
    db, backend, policy, block, data
):
    matrix, query = db
    k = data.draw(
        st.one_of(st.sampled_from((1, len(matrix))), st.integers(1, len(matrix))),
        label="k",
    )
    index = get_index(backend, matrix, **KNOBS.get(backend, {}))
    scalar = search(index, query, k, policy, 0)
    recorder = _RecordingStore(index.store)
    index._store = recorder
    blocked = search(index, query, k, policy, block)
    assert blocked == scalar

    lb_sq = {
        seq_id: value
        for value, seq_id in index.knn_candidates(query, k, SearchStats()).entries
    }
    relax_sq = policy.relax_sq
    if recorder.blocks:
        assert len(recorder.blocks[0]) <= k
    read: list[float] = []
    for ids in recorder.blocks:
        kth = sorted(read)[k - 1] if len(read) >= k else math.inf
        for seq_id in ids:
            assert lb_sq[seq_id] * relax_sq <= kth, (seq_id, kth)
        read.extend(
            euclidean_early_abandon_sq(query, matrix[i], math.inf) for i in ids
        )
