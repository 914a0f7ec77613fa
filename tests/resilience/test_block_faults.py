"""Bulk-fetch fault drill: block reads take the guarded path per block.

The blocked verifier fetches whole candidate blocks in one batched store
read; the resilience contract (docs/RESILIENCE.md) must survive that
change of grain.  The drill proves each leg:

* a transient bulk failure retries the *block* (one retry schedule per
  block, not one per row) and the answer is indistinguishable from the
  fault-free run;
* a permanently corrupt member falls back to per-id consumption —
  healthy rows still answer, the victim is quarantined and reported,
  and the extended accounting invariant holds;
* corruption handling is bit-identical between the scalar and blocked
  verifiers (deterministic faults, so stats must match exactly);
* on a clean disk store, range verification keeps the strict
  physical/logical equality ``read_calls == full_retrievals`` even
  under blocking (no termination, hence no prefetch overshoot).
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.obs as obs
from repro.engine.registry import get_index
from repro.index.distance import euclidean_early_abandon_sq
from repro.index.flat import FlatSketchIndex
from repro.resilience import (
    FaultPlan,
    FaultyStore,
    RetryPolicy,
    policy_context,
)
from repro.storage.pagestore import SequencePageStore

pytestmark = pytest.mark.faults

FAST = RetryPolicy(sleep=lambda s: None)
K = 3


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(64, 32))
    queries = rng.normal(size=(3, 32))
    return matrix, queries


def snap(index, queries, k=K):
    out = []
    for query in queries:
        neighbors, stats = index.search(query, k)
        out.append(
            (
                [(n.seq_id, n.distance) for n in neighbors],
                dataclasses.asdict(stats),
            )
        )
    return out


def assert_invariant(stats, size):
    assert (
        stats.candidates_pruned + stats.full_retrievals + stats.quarantined
        == size
    )


class _FlakyBulk:
    """A store whose first ``read_many`` raises a transient fault."""

    def __init__(self, inner, failures=1):
        self._inner = inner
        self.remaining = failures
        self.bulk_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def read_many(self, ids):
        self.bulk_calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise OSError("transient bulk failure")
        return self._inner.read_many(ids)


def test_transient_bulk_failure_retries_once_per_block(workload):
    matrix, queries = workload
    clean = snap(get_index("flat", matrix), queries)
    # An un-faulted twin counts the query's blocks.
    twin = get_index("flat", matrix)
    counted = _FlakyBulk(twin.store, failures=0)
    twin._store = counted
    twin.search(queries[0], K)
    clean_blocks = counted.bulk_calls
    index = get_index("flat", matrix)
    flaky = _FlakyBulk(index.store, failures=1)
    index._store = flaky
    with policy_context(FAST), obs.observed() as registry:
        neighbors, stats = index.search(queries[0], K)
    # One retry for the failed block — not one retry per row.
    assert registry.counter("resilience.retries").value == 1
    assert registry.counter("resilience.giveups").value == 0
    assert flaky.bulk_calls == clean_blocks + 1
    assert not stats.degraded
    assert_invariant(stats, len(matrix))
    assert [(n.seq_id, n.distance) for n in neighbors] == clean[0][0]


def test_exhausted_bulk_retries_fall_back_per_id(workload):
    """A block that never bulk-reads still answers through per-id fetches."""
    matrix, queries = workload
    clean = snap(get_index("flat", matrix), queries)
    index = get_index("flat", matrix)
    index._store = _FlakyBulk(index.store, failures=10_000)
    with policy_context(FAST), obs.observed() as registry:
        got = snap(index, queries)
    assert registry.counter("resilience.giveups").value >= 1
    # Per-id fallback uses store.read, which is healthy: the answer and
    # the logical accounting match the fault-free run exactly.
    assert got == clean


def test_random_transient_faults_absorbed_under_blocking(workload):
    matrix, queries = workload
    baseline = [entry[0] for entry in snap(get_index("flat", matrix), queries)]
    index = get_index("flat", matrix)
    index._store = FaultyStore(
        index.store, FaultPlan(seed=13, transient_rate=0.3)
    )
    with policy_context(FAST):
        got = snap(index, queries)
    for (pairs, stats_dict), expected in zip(got, baseline):
        assert pairs == expected
        assert not stats_dict["degraded"]


def test_corrupt_member_quarantined_through_block_path(workload):
    matrix, queries = workload
    query = queries[0]
    # Corrupt the true nearest neighbour, so every correct answer must
    # have consumed (and failed) the victim through the block path.
    victim = int(
        np.argmin(
            [
                euclidean_early_abandon_sq(query, row, math.inf)
                for row in matrix
            ]
        )
    )
    index = get_index("flat", matrix)
    index._store = FaultyStore(index.store, FaultPlan(), corrupt_ids=[victim])
    with policy_context(FAST):
        neighbors, stats = index.search(query, K)
    truth = sorted(
        (euclidean_early_abandon_sq(query, row, math.inf), seq_id)
        for seq_id, row in enumerate(matrix)
        if seq_id != victim
    )[:K]
    assert [(n.distance, n.seq_id) for n in neighbors] == [
        (math.sqrt(d_sq), seq_id) for d_sq, seq_id in truth
    ]
    assert stats.degraded
    assert victim in stats.quarantined_ids
    assert_invariant(stats, len(matrix))


def test_corruption_handling_identical_scalar_vs_blocked(
    workload, monkeypatch
):
    """Deterministic faults: scalar and blocked stats must match exactly."""
    matrix, queries = workload

    def run(block):
        monkeypatch.setenv("REPRO_VERIFY_BLOCK", str(block))
        index = get_index("flat", matrix)
        index._store = FaultyStore(
            index.store, FaultPlan(), corrupt_ids=[3, 19]
        )
        with policy_context(FAST):
            return snap(index, queries)

    assert run(0) == run(5) == run(256)


def test_range_blocking_keeps_physical_logical_equality(tmp_path, workload):
    matrix, queries = workload
    store = SequencePageStore(tmp_path / "rows.dat", matrix.shape[1])
    index = FlatSketchIndex(matrix, store=store)
    store.stats.reset()
    _, stats = index.range_search(queries[0], radius=6.0)
    assert store.stats.read_calls == stats.full_retrievals
    assert_invariant(stats, len(matrix))
    store.close()
