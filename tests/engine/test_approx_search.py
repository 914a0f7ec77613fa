"""Approximate-tier semantics: the guarantee, the knob, the accounting.

What a non-exact :class:`~repro.engine.ApproxPolicy` is allowed to do
and what it must still honour:

* the ε-guarantee — every reported k-th distance is within
  ``(1+epsilon)`` of the true k-th-NN distance, for every backend,
  because only candidates *provably* outside the relaxed threshold are
  skipped;
* the extended accounting invariant — ``pruned + retrievals +
  quarantined + skipped_approx == database_size`` for every answer;
* the flag — ``approximate`` set whenever a non-exact policy is in
  effect;
* the knob — invalid ``ApproxPolicy`` values fail loudly;
* range search — ε may only lose matches in the
  ``(radius/(1+epsilon), radius]`` annulus.
"""

import numpy as np
import pytest

from repro import obs
from repro.compression import BestMinErrorCompressor
from repro.engine import (
    ApproxPolicy,
    available_indexes,
    get_index,
    search_many,
)
from repro.exceptions import ReproError
from tests.coarse_codes import spiked

BACKENDS = tuple(name for name in available_indexes() if name != "sharded")

#: The policy is inert on the linear scan (all lower bounds are zero,
#: so no relaxed comparison can ever fire) — everything it reports
#: stays exact by construction.
LB_BACKENDS = tuple(name for name in BACKENDS if name != "scan")


class TestPolicyValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ReproError, match="epsilon"):
            ApproxPolicy(epsilon=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "loose"])
    def test_non_finite_epsilon_rejected(self, bad):
        with pytest.raises(ReproError, match="epsilon"):
            ApproxPolicy(epsilon=bad)

    def test_policy_argument_type_checked(self, matrix):
        index = get_index("flat", matrix)
        with pytest.raises(ReproError, match="ApproxPolicy"):
            index.search(matrix[0], k=1, policy=0.25)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
class TestEpsilonGuarantee:
    def test_kth_distance_within_bound(self, matrix, queries, backend, epsilon):
        index = get_index(backend, matrix)
        policy = ApproxPolicy(epsilon=epsilon)
        for query in queries:
            for k in (1, 5, 9):
                exact_hits, _ = index.search(query, k=k)
                approx_hits, stats = index.search(query, k=k, policy=policy)
                assert len(approx_hits) == k
                assert stats.approximate is True
                bound = (1.0 + epsilon) * exact_hits[-1].distance
                # Reported distances are real distances of real members,
                # so each is at least its exact counterpart and at most
                # the relaxed bound on the true k-th.
                for exact_hit, approx_hit in zip(exact_hits, approx_hits):
                    assert approx_hit.distance >= exact_hit.distance
                    assert approx_hit.distance <= bound + 1e-12


@pytest.mark.parametrize("backend", BACKENDS)
def test_extended_invariant_holds(matrix, queries, backend):
    index = get_index(backend, matrix)
    size = len(index)
    for policy in (ApproxPolicy(epsilon=1.0), ApproxPolicy(epsilon=0.5)):
        for query in queries:
            _, stats = index.search(query, k=3, policy=policy)
            assert (
                stats.candidates_pruned
                + stats.full_retrievals
                + stats.quarantined
                + stats.skipped_approx
                == size
            ), (backend, policy)


def test_slack_skips_save_retrievals(matrix, queries):
    """A generous ε skips fetches on the VP-tree and accounts them."""
    # Spiked: the exact tier must read past its k answers.  On ``flat``
    # and the code-walked tree the row codes stop it at about k, so the
    # sketch tree, whose sketch is the filter, shows the skips.
    index = get_index(
        "vptree", spiked(matrix), compressor=BestMinErrorCompressor(14)
    )
    query = spiked(queries[0])
    _, exact_stats = index.search(query, k=3)
    _, approx_stats = index.search(
        query, k=3, policy=ApproxPolicy(epsilon=2.0)
    )
    assert approx_stats.skipped_approx > 0
    assert approx_stats.full_retrievals < exact_stats.full_retrievals
    assert approx_stats.approximate is True
    assert approx_stats.stopped_early is False


def test_stream_backend_books_the_tail_pruned(matrix, queries):
    """R-tree streams bound members lazily: whatever the stream did not
    reach when refinement terminated is pruned, under ε as when exact."""
    index = get_index("rtree", matrix)
    for policy in (None, ApproxPolicy(epsilon=2.0)):
        _, stats = index.search(queries[0], k=3, policy=policy)
        assert stats.skipped_approx == 0
        assert stats.candidates_pruned + stats.full_retrievals == len(index)


def test_scan_backend_policy_is_inert(matrix, queries):
    """All-zero lower bounds: ε can never skip, answers stay exact."""
    index = get_index("scan", matrix)
    query = queries[0]
    exact_hits, _ = index.search(query, k=5)
    hits, stats = index.search(
        query, k=5, policy=ApproxPolicy(epsilon=10.0)
    )
    assert stats.approximate is True
    assert stats.skipped_approx == 0
    assert [(h.distance, h.seq_id) for h in hits] == [
        (h.distance, h.seq_id) for h in exact_hits
    ]


@pytest.mark.parametrize("backend", LB_BACKENDS)
def test_range_epsilon_misses_only_the_annulus(matrix, queries, backend):
    index = get_index(backend, matrix)
    epsilon = 0.5
    policy = ApproxPolicy(epsilon=epsilon)
    for query in queries[:3]:
        far, _ = index.search(query, k=9)
        radius = far[-1].distance
        exact_hits, _ = index.range_search(query, radius=radius)
        approx_hits, stats = index.range_search(
            query, radius=radius, policy=policy
        )
        assert stats.approximate is True
        reported = {h.seq_id for h in approx_hits}
        assert reported <= {h.seq_id for h in exact_hits}
        for hit in exact_hits:
            if hit.distance <= radius / (1.0 + epsilon):
                assert hit.seq_id in reported, (backend, hit)


@pytest.mark.parametrize("backend", LB_BACKENDS)
@pytest.mark.parametrize(
    "policy",
    [ApproxPolicy(epsilon=0.5)],
    ids=["epsilon"],
)
def test_blocked_verifier_identical_under_any_policy(
    matrix, queries, backend, policy, monkeypatch
):
    """The blocked path replays the scalar decisions under ε too: it
    relaxes the same termination comparison, so results and stats are
    bit-identical regardless of ``REPRO_VERIFY_BLOCK``."""
    import dataclasses

    index = get_index(backend, matrix)
    query = queries[0]
    monkeypatch.setenv("REPRO_VERIFY_BLOCK", "0")
    scalar_hits, scalar_stats = index.search(query, k=5, policy=policy)
    scalar = (
        [(h.distance, h.seq_id) for h in scalar_hits],
        dataclasses.asdict(scalar_stats),
    )
    for block in (3, 7, 256):
        monkeypatch.setenv("REPRO_VERIFY_BLOCK", str(block))
        hits, stats = index.search(query, k=5, policy=policy)
        blocked = (
            [(h.distance, h.seq_id) for h in hits],
            dataclasses.asdict(stats),
        )
        assert blocked == scalar, (backend, block, policy)


def test_batched_approx_matches_per_query(matrix, queries):
    """``search_many`` under a policy equals the per-query loop."""
    import dataclasses

    index = get_index("flat", matrix)
    policy = ApproxPolicy(epsilon=0.5)
    batch = np.stack(queries)
    batched = search_many(index, batch, k=5, policy=policy)
    for query, (hits, stats) in zip(queries, batched):
        solo_hits, solo_stats = index.search(query, k=5, policy=policy)
        assert [(h.distance, h.seq_id) for h in hits] == [
            (h.distance, h.seq_id) for h in solo_hits
        ]
        assert dataclasses.asdict(stats) == dataclasses.asdict(solo_stats)


def test_obs_counters_published(matrix, queries):
    # Spiked: the exact tier must read past its k answers (on the sketch
    # tree, as above).
    index = get_index(
        "vptree", spiked(matrix), compressor=BestMinErrorCompressor(14)
    )
    query = spiked(queries[0])
    registry = obs.enable()
    try:
        index.search(query, k=3, policy=ApproxPolicy(epsilon=2.0))
        index.search(query, k=3)  # exact: no approx counters
        assert registry.counter("engine.approx.queries").value == 1
        assert registry.counter("engine.approx.skipped").value > 0
        prefix = f"{index.obs_name}.search"
        assert registry.counter(f"{prefix}.skipped_approx").value > 0
    finally:
        obs.disable()
