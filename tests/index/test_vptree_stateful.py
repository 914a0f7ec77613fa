"""Stateful testing of the dynamic VP-tree against a brute-force model.

Every search is also replayed through the per-node fig. 11 reference
(``fig11_reference.py``): candidates, counters, answers and
``SearchStats`` must match it bit for bit after any interleaving of
inserts, leaf rebuilds and removals.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.compression import BestMinErrorCompressor
from repro.index import VPTreeIndex, distances_to_query
from repro.timeseries import zscore
from tests.index.fig11_reference import (
    assert_same_answers,
    assert_same_candidates,
    vantage_ids,
)

N = 32
LEAF_SIZE = 3


def make_rows(count, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(N)
    return [
        zscore(
            np.sin(2 * np.pi * t / rng.choice([4, 8, 16]) + rng.uniform(0, 6))
            + 0.5 * rng.normal(size=N)
        )
        for _ in range(count)
    ]


class VPTreeMachine(RuleBasedStateMachine):
    """Insert / remove / search interleavings stay exact vs brute force."""

    @initialize(
        seed=st.integers(min_value=0, max_value=10_000), guided=st.booleans()
    )
    def setup(self, seed, guided):
        self.seed = seed
        self.fresh = iter(make_rows(200, seed + 1))
        rows = make_rows(12, seed)
        self.index = VPTreeIndex(
            np.stack(rows),
            compressor=BestMinErrorCompressor(6),
            leaf_size=LEAF_SIZE,
            guided=guided,
            seed=seed,
        )
        self.model: dict[int, np.ndarray] = dict(enumerate(rows))

    @rule()
    def insert(self):
        row = next(self.fresh, None)
        if row is None:
            return
        seq_id = self.index.insert(row)
        self.model[seq_id] = row

    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def insert_past_rebuild(self, pick):
        """Crowd one leaf past ``4 * leaf_size``: it is rebuilt as a subtree.

        Copies of one near-copy of a member route to the same leaf every
        time, so the crowding cannot spread over sibling leaves (distinct
        near-copies can, once earlier crowding has split the region).
        That leaf overflows within ``4 * leaf_size + 1`` inserts; if its
        older rows were mostly tombstoned the rebuild is a single leaf,
        and the next ``4 * leaf_size + 1`` copies overflow that one with
        enough live rows to split.
        """
        anchor = self.model[sorted(self.model)[pick % len(self.model)]]
        rng = np.random.default_rng(pick)
        row = zscore(anchor + 1e-3 * rng.normal(size=N))
        internal = len(vantage_ids(self.index))
        for _ in range(2 * (4 * LEAF_SIZE + 1)):
            self.model[self.index.insert(row)] = row
            if len(vantage_ids(self.index)) > internal:
                return
        raise AssertionError("no leaf was rebuilt")

    @precondition(lambda self: len(self.model) > 2)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def remove(self, pick):
        victim = sorted(self.model)[pick % len(self.model)]
        self.index.remove(victim)
        del self.model[victim]

    @precondition(lambda self: len(self.model) >= 2)
    @rule(seed=st.integers(min_value=0, max_value=10**6), k=st.integers(1, 3))
    def knn_search(self, seed, k):
        rng = np.random.default_rng(seed)
        query = zscore(rng.normal(size=N))
        k = min(k, len(self.model))
        live_ids = sorted(self.model)
        live = np.stack([self.model[i] for i in live_ids])
        truth = np.sort(distances_to_query(live, query))[:k]
        hits, _ = self.index.search(query, k=k)
        np.testing.assert_allclose(
            [h.distance for h in hits], truth, atol=1e-9
        )
        assert all(h.seq_id in self.model for h in hits)
        for each in {k, len(self.model)}:
            assert_same_candidates(self.index, "knn", query, each)
            assert_same_answers(self.index, "knn", query, each)

    @precondition(lambda self: len(self.model) >= 1)
    @rule(seed=st.integers(min_value=0, max_value=10**6))
    def range_search(self, seed):
        rng = np.random.default_rng(seed)
        query = zscore(rng.normal(size=N))
        live_ids = sorted(self.model)
        live = np.stack([self.model[i] for i in live_ids])
        truth = distances_to_query(live, query)
        # With an odd member count the median IS one of the distances;
        # nudge the radius off that float boundary (different summation
        # orders legitimately disagree in the last ulp there).
        radius = float(np.median(truth)) * (1 + 1e-9) + 1e-9
        hits, _ = self.index.range_search(query, radius)
        expected = {
            live_ids[i] for i in np.flatnonzero(truth <= radius)
        }
        assert {h.seq_id for h in hits} == expected
        assert_same_candidates(self.index, "range", query, radius)
        assert_same_answers(self.index, "range", query, radius)

    @invariant()
    def size_agrees(self):
        assert len(self.index) == len(self.model)


TestVPTreeStateful = VPTreeMachine.TestCase
TestVPTreeStateful.settings = settings(
    max_examples=12, stateful_step_count=16, deadline=None
)


def test_crowding_one_anchor_again_still_rebuilds():
    """A sequence that once drew 39 near-copies without a rebuild.

    The third crowding of one anchor used to spread its near-copies over
    leaves that never passed ``4 * leaf_size``.
    """
    machine = VPTreeMachine()
    machine.setup(seed=1500, guided=True)
    for _ in range(3):
        machine.insert_past_rebuild(pick=0)
        machine.size_agrees()
    machine.knn_search(seed=0, k=3)
    machine.range_search(seed=0)
