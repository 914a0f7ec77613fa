"""Degraded-shard containment: one poisoned shard, the rest unaffected.

The fault-drill companion for the cluster layer.  An entire shard's
store is corrupted (every member read raises ``CorruptionError``); the
router must keep serving from the healthy shards, quarantine only the
poisoned shard's members, flag the answers as degraded, and keep the
extended accounting invariant ``pruned + retrievals + quarantined ==
database_size`` both per query and globally.
"""

import math

import numpy as np
import pytest

from repro.cluster import Partitioner, ShardRouter, build_sharded
from repro.compression.codes import RowCodes
from repro.engine import get_index, search_many
from repro.index.distance import euclidean_early_abandon_sq
from repro.resilience import FaultPlan, FaultyIndex, FaultyStore, quarantine_of
from repro.storage import MemorySequenceStore
from tests.coarse_codes import spiked

K = 4
POISONED = 1


def poison(matrix):
    """A 4-shard flat router with every member of shard 1 unreadable."""
    # The split build_sharded(shards=4, seed=0) makes, over in-process
    # flat shards whose stores are built here, so shard 1's can fail.
    members = Partitioner(4, seed=0).members(len(matrix))
    shards = []
    for shard, rows in enumerate(members):
        store = MemorySequenceStore.over(matrix[rows])
        if shard == POISONED:
            store = FaultyStore(store, FaultPlan(), corrupt_ids=range(rows.size))
        shards.append((get_index("flat", matrix[rows], store=store), rows))
    router = ShardRouter(shards, row_codes=RowCodes.from_matrix(matrix))
    return router, {int(gid) for gid in members[POISONED]}


@pytest.fixture
def poisoned(matrix):
    return poison(matrix)


def survivors_knn(matrix, victims, query, k):
    """Brute-force truth over the healthy members only."""
    exact = sorted(
        (euclidean_early_abandon_sq(query, row, math.inf), seq_id)
        for seq_id, row in enumerate(matrix)
        if seq_id not in victims
    )
    return [(math.sqrt(d_sq), seq_id) for d_sq, seq_id in exact[:k]]


def test_healthy_shards_keep_answering(matrix, queries):
    # Spiked, so that every query reads past its k answers and reaches
    # the poisoned shard (see tests/coarse_codes.py).
    matrix, queries = spiked(matrix), spiked(queries)
    router, victims = poison(matrix)
    for query in queries:
        hits, stats = router.search(query, k=K)
        got = [(h.distance, h.seq_id) for h in hits]
        assert got == survivors_knn(matrix, victims, query, K)
        assert stats.degraded
        assert set(stats.quarantined_ids) <= victims
        assert (
            stats.candidates_pruned
            + stats.full_retrievals
            + stats.quarantined
            == len(matrix)
        )


def test_quarantine_is_contained_to_the_poisoned_shard(
    matrix, queries, poisoned
):
    router, victims = poisoned
    for query in queries:
        router.search(query, k=K)
    grouped = router.quarantined_by_shard()
    assert set(grouped) == {POISONED}
    assert set(grouped[POISONED]) <= victims
    assert grouped[POISONED]  # something was actually quarantined


def test_batched_fanout_contains_the_poisoned_shard(
    matrix, queries, poisoned
):
    router, victims = poisoned
    batch = np.stack(queries)
    for query, (hits, stats) in zip(batch, search_many(router, batch, k=K)):
        assert [(h.distance, h.seq_id) for h in hits] == survivors_knn(
            matrix, victims, query, K
        )
        assert (
            stats.candidates_pruned
            + stats.full_retrievals
            + stats.quarantined
            == len(matrix)
        )


def test_range_search_skips_the_poisoned_shard(matrix, queries, poisoned):
    router, victims = poisoned
    query = queries[0]
    truth_sq = sorted(
        (euclidean_early_abandon_sq(query, row, math.inf), seq_id)
        for seq_id, row in enumerate(matrix)
        if seq_id not in victims
    )
    radius = math.sqrt(truth_sq[len(matrix) // 3][0])
    hits, stats = router.range_search(query, radius=radius)
    got = [(h.distance, h.seq_id) for h in hits]
    # The boundary member is admitted: the radius is its own distance.
    assert got == [
        (math.sqrt(d_sq), seq_id)
        for d_sq, seq_id in truth_sq
        if math.sqrt(d_sq) <= radius
    ]
    assert set(stats.quarantined_ids) <= victims


def test_generator_failure_degrades_that_shard_only(matrix, queries):
    """A failing filter kernel gives the engine's global fallback.

    The router bounds every query with one kernel over the whole
    population's row codes, so there is no per-shard generator left to
    fail alone: a kernel failure falls back to one exhaustive scan of
    every shard, noted on the router's quarantine.  Answers stay
    *identical* to the monolithic index, flagged degraded.
    """

    def failing_kernel(queries, ids=None):
        raise OSError("filter offline")

    router = build_sharded(
        matrix, shards=3, backend="flat", seed=0, worker_pool=False
    )
    router.row_codes.bounds_sq = failing_kernel
    mono = get_index("flat", matrix)
    for query in queries:
        expected, _ = mono.search(query, k=K)
        hits, stats = router.search(query, k=K)
        assert [(h.distance, h.seq_id) for h in hits] == [
            (h.distance, h.seq_id) for h in expected
        ]
        assert stats.degraded
        assert stats.full_retrievals == len(matrix)
        assert (
            stats.candidates_pruned
            + stats.full_retrievals
            + stats.quarantined
            == len(matrix)
        )
    assert quarantine_of(router).generator_failures == len(queries)


def test_router_composes_with_faulty_index_wrapper(matrix, queries):
    """The PR-3 fault harness wraps the router like any other index."""
    victim = 17
    broken = FaultyIndex(
        build_sharded(matrix, shards=3, backend="flat", seed=0),
        FaultPlan(),
        [victim],
    )
    probe = matrix[victim]
    hits, stats = broken.search(probe, k=2)
    assert victim not in {h.seq_id for h in hits}
    assert stats.degraded
    assert victim in quarantine_of(broken)
