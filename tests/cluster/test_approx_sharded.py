"""Approximate search across shards: one relaxation, at the gather.

The policy never crosses into per-shard sub-searches — shards only
*generate* candidates; the relaxed comparisons live in the parent's
shared verifier over the merged, globally re-filtered stream.  What
that buys, as tests:

* for backends whose candidate stream is the whole population (flat,
  scan) sharded-approx is *bit-identical* to monolithic-approx — same
  ids, same float distances, same approx accounting — for every shard
  count in {1, 2, 4, 7};
* the ε-guarantee holds through the router for every backend (the
  sharded answer's k-th distance is within ``(1+ε)`` of the exact
  sharded answer's);
* ``search_many`` over a router under a policy equals the per-query
  ``router.search`` loop — results and stats — with and without the
  worker pool (the pooled batch ships candidates over the ``cands``
  protocol op and verifies at the parent);
* the extended accounting invariant closes against the *global*
  database size.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import build_sharded
from repro.engine import ApproxPolicy, available_indexes, get_index, search_many

BACKENDS = tuple(name for name in available_indexes() if name != "sharded")
SHARD_COUNTS = (1, 2, 4, 7)

#: Backends whose candidate stream is the entire population in both the
#: monolithic and sharded layouts, making approx decisions replayable
#: bit for bit.  Tree traversals may *generate* different candidate
#: sets per layout, so only the ε-guarantee — not bit-identity against
#: the monolithic index — is promised there.
FULL_STREAM_BACKENDS = ("flat", "scan")

POLICIES = [
    ApproxPolicy(epsilon=0.5),
    ApproxPolicy(patience=3),
    ApproxPolicy(epsilon=0.25, patience=5),
]
POLICY_IDS = ["epsilon", "patience", "both"]


def snap(hits, stats):
    return (
        [(h.distance, h.seq_id, h.name) for h in hits],
        dataclasses.asdict(stats),
    )


def as_pairs(hits):
    return [(h.distance, h.seq_id) for h in hits]


@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", FULL_STREAM_BACKENDS)
def test_full_stream_backends_bit_identical_to_monolithic(
    matrix, queries, backend, shards, policy
):
    mono = get_index(backend, matrix)
    router = build_sharded(matrix, shards=shards, backend=backend)
    for query in queries:
        for k in (1, 5):
            expected, expected_stats = mono.search(query, k=k, policy=policy)
            got, stats = router.search(query, k=k, policy=policy)
            assert as_pairs(got) == as_pairs(expected), (backend, shards, k)
            assert stats.approximate == expected_stats.approximate
            assert stats.skipped_approx == expected_stats.skipped_approx
            assert stats.stopped_early == expected_stats.stopped_early
            assert stats.full_retrievals == expected_stats.full_retrievals


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_epsilon_guarantee_through_router(matrix, queries, backend, shards):
    epsilon = 0.5
    policy = ApproxPolicy(epsilon=epsilon)
    router = build_sharded(matrix, shards=shards, backend=backend)
    for query in queries:
        exact_hits, _ = router.search(query, k=5)
        approx_hits, stats = router.search(query, k=5, policy=policy)
        assert len(approx_hits) == 5
        assert stats.approximate is True
        bound = (1.0 + epsilon) * exact_hits[-1].distance
        for exact_hit, approx_hit in zip(exact_hits, approx_hits):
            assert approx_hit.distance >= exact_hit.distance
            assert approx_hit.distance <= bound + 1e-12, (backend, shards)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_extended_invariant_is_global(matrix, queries, backend, shards):
    router = build_sharded(matrix, shards=shards, backend=backend)
    for policy in POLICIES:
        _, stats = router.search(queries[0], k=3, policy=policy)
        assert (
            stats.candidates_pruned
            + stats.full_retrievals
            + stats.quarantined
            + stats.skipped_approx
            == len(matrix)
        ), (backend, shards, policy)


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
def test_batched_matches_per_query(matrix, queries, pooled, policy):
    """``search_many`` under a policy replays the per-query router path.

    The pooled batch cannot push the policy into per-shard
    sub-searches (the relaxation is global); it gathers candidates via
    the pool's ``cands`` op and verifies per query at the parent, which
    must be indistinguishable — results *and* stats — from calling
    ``router.search`` per query.
    """
    router = build_sharded(
        matrix, shards=3, backend="flat", worker_pool=pooled
    )
    try:
        assert (router.worker_pool is not None) == pooled
        batch = np.stack(queries)
        batched = search_many(router, batch, k=5, policy=policy)
        for query, (hits, stats) in zip(queries, batched):
            solo_hits, solo_stats = router.search(query, k=5, policy=policy)
            assert snap(hits, stats) == snap(solo_hits, solo_stats), pooled
    finally:
        close = getattr(router, "close", None)
        if close is not None:
            close()


def test_range_epsilon_through_router(matrix, queries):
    router = build_sharded(matrix, shards=4, backend="flat")
    mono = get_index("flat", matrix)
    epsilon = 0.5
    policy = ApproxPolicy(epsilon=epsilon)
    for query in queries:
        far, _ = router.search(query, k=9)
        radius = far[-1].distance
        expected, _ = mono.range_search(query, radius=radius, policy=policy)
        got, stats = router.range_search(query, radius=radius, policy=policy)
        assert as_pairs(got) == as_pairs(expected)
        assert stats.approximate is True
        exact_hits, _ = router.range_search(query, radius=radius)
        reported = {h.seq_id for h in got}
        assert reported <= {h.seq_id for h in exact_hits}
        for hit in exact_hits:
            if hit.distance <= radius / (1.0 + epsilon):
                assert hit.seq_id in reported
