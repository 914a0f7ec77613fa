"""Approximation and degradation never launder each other's accounting.

The two opt-in failure-tolerance surfaces — the resilience quarantine
and the approximate tier — compose along three promises:

* a quarantined member keeps its own bucket: whatever the policy does,
  a storage casualty is counted ``quarantined`` (and flagged
  ``degraded``), never ``skipped_approx``;
* a degraded candidate set *suspends* the policy: fallback-scan
  candidates carry no ordered lower bounds to relax, so the engine
  serves the exact degraded answer and ``approximate`` stays False;
* the extended accounting invariant — ``pruned + retrievals +
  quarantined + skipped_approx == db`` — closes under every
  combination of faults and knobs.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.engine import ApproxPolicy
from repro.engine.registry import available_indexes, get_index
from repro.exceptions import ReproError
from repro.resilience import (
    FaultPlan,
    FaultyIndex,
    RetryPolicy,
    policy_context,
    quarantine_of,
)
from tests.coarse_codes import spiked

pytestmark = pytest.mark.faults

BACKENDS = available_indexes()
K = 3
FAST = RetryPolicy(sleep=lambda s: None)

POLICIES = [
    ApproxPolicy(epsilon=1.0),
    ApproxPolicy(patience=2),
    ApproxPolicy(epsilon=0.5, patience=4),
]
POLICY_IDS = ["epsilon", "patience", "both"]


@pytest.fixture(scope="module")
def workload():
    # Spiked, so that the exact tier reads past its k answers and the
    # queries reach the corrupt victim (see tests/coarse_codes.py).
    rng = np.random.default_rng(7)
    matrix = spiked(rng.normal(size=(64, 32)))
    queries = spiked(rng.normal(size=(4, 32)))
    return matrix, queries


@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("name", BACKENDS)
def test_quarantine_is_never_counted_skipped_approx(name, workload, policy):
    """Pre-quarantined victims keep their bucket under any policy."""
    matrix, queries = workload
    victim = 17
    broken = FaultyIndex(get_index(name, matrix), FaultPlan(), [victim])
    with policy_context(FAST):
        # Pre-quarantine the victim with an exact query so every
        # subsequent approximate query sees it in the quarantine set.
        for query in queries:
            broken.search(query, K)
        assert victim in quarantine_of(broken)
        for query in queries:
            neighbors, stats = broken.search(query, K, policy=policy)
            assert len(neighbors) == K
            assert victim not in {n.seq_id for n in neighbors}
            if victim in stats.quarantined_ids:
                assert stats.degraded
            assert (
                stats.candidates_pruned
                + stats.full_retrievals
                + stats.quarantined
                + stats.skipped_approx
                == len(matrix)
            ), (name, policy)
            # The victim is a storage casualty, not a policy casualty:
            # it must appear in the quarantined accounting of any query
            # that reached it, and a policy skip may never absorb it.
            if stats.quarantined:
                assert victim in stats.quarantined_ids


@pytest.mark.parametrize("name", BACKENDS)
def test_transient_faults_keep_approx_answers_identical(name, workload):
    """Bounded retries are invisible to the policy's decisions."""
    matrix, queries = workload
    policy = ApproxPolicy(epsilon=0.5, patience=8)
    baseline = [
        get_index(name, matrix).search(query, K, policy=policy)
        for query in queries
    ]
    noisy = FaultyIndex(
        get_index(name, matrix), FaultPlan(seed=13, transient_rate=0.3)
    )
    with policy_context(FAST):
        faulted = [noisy.search(query, K, policy=policy) for query in queries]
    assert [
        [(n.seq_id, n.distance) for n in neighbors]
        for neighbors, _ in faulted
    ] == [
        [(n.seq_id, n.distance) for n in neighbors]
        for neighbors, _ in baseline
    ]
    assert not any(stats.degraded for _, stats in faulted)
    assert all(stats.approximate for _, stats in faulted)


class _BrokenGenerator:
    """An index whose candidate generator always fails."""

    def __init__(self, inner, error):
        self._inner = inner
        self._error = error

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def knn_candidates(self, query, k, stats):
        raise self._error

    def range_candidates(self, query, radius, stats):
        raise self._error

    def search(self, query, k=1, policy=None):
        from repro.engine.core import execute_knn

        return execute_knn(self, query, k, policy)

    def range_search(self, query, radius, policy=None):
        from repro.engine.core import execute_range

        return execute_range(self, query, radius, policy)


def test_fallback_scan_suspends_the_policy(workload):
    """A degraded candidate set is served exactly: no slack, no stop."""
    matrix, queries = workload
    exact_degraded = _BrokenGenerator(
        get_index("vptree", matrix), ReproError("traversal exploded")
    )
    approx_degraded = _BrokenGenerator(
        get_index("vptree", matrix), ReproError("traversal exploded")
    )
    policy = ApproxPolicy(epsilon=2.0, patience=1)
    with obs.observed() as registry, policy_context(FAST):
        expected = [exact_degraded.search(query, K) for query in queries]
        got = [
            approx_degraded.search(query, K, policy=policy)
            for query in queries
        ]
    assert [
        [(n.seq_id, n.distance) for n in neighbors] for neighbors, _ in got
    ] == [
        [(n.seq_id, n.distance) for n in neighbors]
        for neighbors, _ in expected
    ]
    for _, stats in got:
        assert stats.degraded
        assert stats.approximate is False
        assert stats.stopped_early is False
        assert stats.skipped_approx == 0
    assert registry.counter("engine.approx.suspended").value == len(queries)
    assert registry.counter("engine.approx.queries").value == 0


def test_mid_query_quarantine_lands_in_quarantined_bucket(workload):
    """A fetch that fails *during* approximate refinement degrades the
    answer and bills the victim to ``quarantined``, with the extended
    invariant still closing."""
    matrix, queries = workload
    victim = 17
    broken = FaultyIndex(get_index("flat", matrix), FaultPlan(), [victim])
    policy = ApproxPolicy(epsilon=0.25)
    with policy_context(FAST):
        neighbors, stats = broken.search(queries[0], K, policy=policy)
    assert len(neighbors) == K
    assert victim not in {n.seq_id for n in neighbors}
    assert stats.approximate is True
    if stats.quarantined:
        assert stats.degraded
        assert victim in stats.quarantined_ids
    assert (
        stats.candidates_pruned
        + stats.full_retrievals
        + stats.quarantined
        + stats.skipped_approx
        == len(matrix)
    )
