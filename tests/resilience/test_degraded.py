"""Degraded-mode acceptance: every backend, every fault class.

The PR's acceptance criteria, as tests:

* under a seeded plan of bounded transient faults, all six index
  backends return kNN answers identical to the fault-free run;
* under permanent corruption of one sequence, queries complete through
  the degraded path — results flagged ``degraded``, the victim
  quarantined and reported — and never an unhandled exception;
* the batched verifier (``search_many``) does the same;
* a failing candidate generator falls back to a linear scan.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.engine.batch import search_many
from repro.engine.registry import available_indexes, get_index
from repro.exceptions import CorruptionError, ReproError
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


@pytest.fixture(scope="module")
def workload():
    # Spiked, so that the exact tier reads past its k answers and the
    # queries reach the corrupt victim (see tests/coarse_codes.py).
    rng = np.random.default_rng(7)
    matrix = spiked(rng.normal(size=(64, 32)))
    queries = spiked(rng.normal(size=(4, 32)))
    return matrix, queries


def answers(index, queries, k=K):
    out = []
    for query in queries:
        neighbors, stats = index.search(query, k)
        out.append(([(n.seq_id, n.distance) for n in neighbors], stats))
    return out


@pytest.mark.parametrize("name", BACKENDS)
def test_transient_faults_leave_answers_identical(name, workload):
    matrix, queries = workload
    baseline = answers(get_index(name, matrix), queries)
    noisy = FaultyIndex(
        get_index(name, matrix), FaultPlan(seed=13, transient_rate=0.3)
    )
    with policy_context(FAST):
        faulted = answers(noisy, queries)
    assert [pairs for pairs, _ in faulted] == [pairs for pairs, _ in baseline]
    assert not any(stats.degraded for _, stats in faulted)
    assert all(stats.quarantined == 0 for _, stats in faulted)
    assert len(quarantine_of(noisy)) == 0


@pytest.mark.parametrize("name", BACKENDS)
def test_permanent_corruption_serves_degraded(name, workload):
    matrix, queries = workload
    victim = 17
    broken = FaultyIndex(get_index(name, matrix), FaultPlan(), [victim])
    with policy_context(FAST):
        results = answers(broken, queries)  # must not raise
    assert all(len(pairs) == K for pairs, _ in results)
    assert victim not in {
        seq_id for pairs, _ in results for seq_id, _ in pairs
    }
    hits = [stats for _, stats in results if stats.degraded]
    assert hits, "no query ever touched the corrupted sequence"
    for stats in hits:
        assert victim in stats.quarantined_ids
        assert stats.quarantined >= 1
    assert victim in quarantine_of(broken)
    assert "CorruptionError" in quarantine_of(broken).reason(victim)


@pytest.mark.parametrize("name", BACKENDS)
def test_batched_search_matches_per_query_under_faults(name, workload):
    matrix, queries = workload
    victim = 17
    with policy_context(FAST):
        noisy = FaultyIndex(
            get_index(name, matrix), FaultPlan(seed=13, transient_rate=0.3)
        )
        batched = search_many(noisy, queries, K)
        baseline = answers(get_index(name, matrix), queries)
        assert [
            [(n.seq_id, n.distance) for n in neighbors]
            for neighbors, _ in batched
        ] == [pairs for pairs, _ in baseline]

        broken = FaultyIndex(get_index(name, matrix), FaultPlan(), [victim])
        degraded = search_many(broken, queries, K)  # must not raise
    assert all(len(neighbors) == K for neighbors, _ in degraded)
    flagged = [stats for _, stats in degraded if stats.degraded]
    assert flagged
    assert all(victim in stats.quarantined_ids for stats in flagged)
    assert victim in quarantine_of(broken)


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

    def search(self, query, k=1):
        from repro.engine.core import execute_knn

        return execute_knn(self, query, k)

    def range_search(self, query, radius):
        from repro.engine.core import execute_range

        return execute_range(self, query, radius)


def test_generator_failure_falls_back_to_linear_scan(workload):
    matrix, queries = workload
    baseline = answers(get_index("scan", matrix), queries)
    broken = _BrokenGenerator(
        get_index("vptree", matrix), ReproError("traversal exploded")
    )
    with obs.observed() as registry, policy_context(FAST):
        fallback = answers(broken, queries)
    # Exhaustive fallback: same answers as a linear scan, marked degraded.
    assert [pairs for pairs, _ in fallback] == [pairs for pairs, _ in baseline]
    assert all(stats.degraded for _, stats in fallback)
    assert registry.counter("resilience.fallback_scans").value == len(queries)
    assert quarantine_of(broken).generator_failures == len(queries)


def test_generator_failure_falls_back_in_batched_path(workload):
    matrix, queries = workload
    broken = _BrokenGenerator(
        get_index("flat", matrix), OSError("index file unreadable")
    )
    with policy_context(FAST):
        results = search_many(broken, queries, K)
    baseline = answers(get_index("scan", matrix), queries)
    assert [
        [(n.seq_id, n.distance) for n in neighbors] for neighbors, _ in results
    ] == [pairs for pairs, _ in baseline]
    assert all(stats.degraded for _, stats in results)


def test_range_search_degrades_too(workload):
    matrix, queries = workload
    victim = 17
    broken = FaultyIndex(get_index("flat", matrix), FaultPlan(), [victim])
    with policy_context(FAST):
        neighbors, stats = broken.range_search(queries[0], 7.0)
    assert victim not in {n.seq_id for n in neighbors}
    if stats.degraded:
        assert victim in stats.quarantined_ids


def test_fail_stop_policy_restores_raising(workload):
    matrix, queries = workload
    broken = FaultyIndex(get_index("scan", matrix), FaultPlan(), [17])
    with policy_context(FAST.with_(degrade=False)):
        with pytest.raises(CorruptionError):
            broken.search(queries[0], K)


def test_accounting_invariant_under_degradation(workload):
    matrix, queries = workload
    broken = FaultyIndex(get_index("scan", matrix), FaultPlan(), [17, 40])
    with policy_context(FAST):
        for _, stats in answers(broken, queries):
            assert (
                stats.candidates_pruned
                + stats.full_retrievals
                + stats.quarantined
                == len(matrix)
            )
            assert stats.quarantined == 2


def test_quarantine_is_sticky_across_queries(workload):
    matrix, queries = workload
    broken = FaultyIndex(get_index("scan", matrix), FaultPlan(), [17])
    with obs.observed() as registry, policy_context(FAST):
        answers(broken, queries)
    # One quarantine event despite every query touching the victim: the
    # first failure quarantines, later queries skip without re-fetching.
    assert registry.counter("resilience.quarantines").value == 1
    assert len(quarantine_of(broken)) == 1


def test_degraded_queries_publish_obs_counter(workload):
    matrix, queries = workload
    broken = FaultyIndex(get_index("scan", matrix), FaultPlan(), [17])
    with obs.observed() as registry, policy_context(FAST):
        neighbors, stats = broken.search(queries[0], K)
        stats.publish("scan.search")
    assert registry.counter("scan.search.degraded_queries").value == 1
    assert registry.counter("scan.search.quarantined").value == 1
