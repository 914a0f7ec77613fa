"""Persistent shard worker pool: bit-identity, worker death, hygiene.

The contract under test (see ``docs/CONCURRENCY.md``): a pooled router
answers exactly like a serial one — same answers bit for bit, same
accounting invariant.  Single queries are bounded by the router's own
filter in the parent; the pool serves builds and exact batches.  Worker
death never hangs a batch and never changes its answer: the batch runs
in the parent instead (exact, not degraded), and the worker is
respawned from its spec for later batches.  Every exit path — success,
exception, kill — must leave zero worker processes behind.
"""

import filecmp
import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.cluster import ShardWorkerPool, build_sharded, open_sharded
from repro.engine import get_index, search_many
from repro.exceptions import ReproError
from repro.index.results import SearchStats
from repro.resilience.retry import active_policy, policy_context
from tests.engine.conftest import STRUCTURES, shard_backend

SHARD_COUNTS = (1, 2, 4, 7)


def as_pairs(neighbors):
    return [(n.distance, n.seq_id, n.name) for n in neighbors]


def assert_invariant(stats, size):
    assert (
        stats.candidates_pruned + stats.full_retrievals + stats.quarantined
        == size
    )


@pytest.fixture(autouse=True)
def no_leaked_state():
    """Every test must clean up its workers.

    Measured as a delta: when the whole suite runs with
    ``REPRO_SHARD_WORKERS`` set, earlier tests' unclosed routers leave
    daemon workers behind (they die with the interpreter), and those
    must not be billed to this test.
    """
    workers_before = {proc.pid for proc in _live_workers()}
    yield
    new_workers = [
        proc for proc in _live_workers() if proc.pid not in workers_before
    ]
    assert not new_workers, f"leaked worker process(es): {new_workers}"


def _kill_and_wait(pool, shard):
    os.kill(pool.pids()[shard], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while pool.pids()[shard] is not None:
        assert time.monotonic() < deadline, "worker did not die"
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Bit-identity: pooled == serial == monolithic, every structure x shard
# count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", STRUCTURES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_pool_agrees_with_serial_scatter(matrix, queries, backend, shards):
    shard = shard_backend(backend)
    serial = build_sharded(
        matrix, shards=shards, backend=shard, worker_pool=False
    )
    mono = get_index(backend, matrix)
    expected_knn, expected_stats = [], []
    for query in queries:
        neighbors, stats = serial.search(query, k=5)
        expected_knn.append(as_pairs(neighbors))
        expected_stats.append(stats)
        assert expected_knn[-1] == as_pairs(mono.search(query, k=5)[0])
    radius = expected_knn[0][-1][0] * 1.1
    expected_range = as_pairs(serial.range_search(queries[0], radius)[0])
    expected_batch = [
        as_pairs(neighbors)
        for neighbors, _ in search_many(serial, queries, k=5)
    ]
    serial.close()

    with build_sharded(
        matrix, shards=shards, backend=shard, worker_pool=True
    ) as router:
        assert router.worker_pool is not None
        for query, expected, serial_stats in zip(
            queries, expected_knn, expected_stats
        ):
            neighbors, stats = router.search(query, k=5)
            assert as_pairs(neighbors) == expected
            assert_invariant(stats, len(router))
            assert stats.full_retrievals == serial_stats.full_retrievals
            assert stats.candidates_pruned == serial_stats.candidates_pruned
        assert (
            as_pairs(router.range_search(queries[0], radius)[0])
            == expected_range
        )
        batch = [
            as_pairs(neighbors)
            for neighbors, _ in search_many(router, queries, k=5)
        ]
        assert batch == expected_batch


def test_pooled_build_writes_byte_identical_shards(matrix, queries, tmp_path):
    serial_dir = tmp_path / "serial"
    pooled_dir = tmp_path / "pooled"
    serial = build_sharded(
        matrix, shards=4, backend="flat",
        directory=serial_dir, worker_pool=False,
    )
    expected = [as_pairs(serial.search(q, k=3)[0]) for q in queries]
    serial.close()
    with build_sharded(
        matrix, shards=4, backend="flat",
        directory=pooled_dir, worker_pool=True,
    ) as router:
        assert [
            as_pairs(router.search(q, k=3)[0]) for q in queries
        ] == expected
    for name in sorted(os.listdir(serial_dir)):
        assert filecmp.cmp(
            serial_dir / name, pooled_dir / name, shallow=False
        ), f"{name} differs between serial and pooled builds"

    # ... and a pooled reopen serves the same answers from those files.
    with open_sharded(pooled_dir, worker_pool=True) as router:
        assert router.worker_pool is not None
        assert [
            as_pairs(router.search(q, k=3)[0]) for q in queries
        ] == expected


def test_env_switch_enables_pool(matrix, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "4")
    with build_sharded(matrix, shards=2, backend="flat") as router:
        assert router.worker_pool is not None
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "0")
    router = build_sharded(matrix, shards=2, backend="flat")
    assert router.worker_pool is None
    router.close()


def test_candidate_request_api_gathers_the_filters_candidates(
    matrix, queries
):
    """No serving path sends ``knn`` / ``range`` / ``cands`` any more.

    The request API still works: per-shard candidates gathered under
    the rebuilt global σ_UB are the router's own filter's candidates.
    """
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        batched = pool.batch_candidates(np.stack(queries), 5)
        for query, triples in zip(queries, batched):
            gathered = router.gather_knn(
                pool.scatter_knn(query, 5), 5, SearchStats()
            )
            assert gathered == router.gather_knn(triples, 5, SearchStats())
            own = router.knn_candidates(query, 5, SearchStats())
            assert gathered.entries == own.entries
            assert gathered.sigma_sq == own.sigma_sq
        assert len(pool.scatter_range(queries[0], 5.0)) == 4


# ----------------------------------------------------------------------
# Worker-kill drills
# ----------------------------------------------------------------------
# Single queries never reach the pool (the router bounds them with its
# own filter), so every drill kills a worker under an exact batch, the
# pool's one serving op.  The contract: a killed worker costs the batch
# its parallelism, never its answer.
def _serial_batch(matrix, queries, k=5):
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=False
    ) as serial:
        return [
            as_pairs(neighbors)
            for neighbors, _ in search_many(serial, np.stack(queries), k=k)
        ]


def _dead_victim(router, respawn=False):
    """Kill one worker; without ``respawn`` its budget is spent first."""
    pool = router.worker_pool
    victim = next(s for s, pid in pool.pids().items() if pid)
    if not respawn:
        pool._respawns[victim] = pool._max_respawns  # no resurrection
    _kill_and_wait(pool, victim)
    return pool, victim


def _counters(registry):
    return registry.snapshot()["counters"]


def test_sigkill_mid_flight_degrades_and_stays_exact(matrix, queries):
    """A dead worker the pool cannot respawn: the parent runs the batch.

    Answers equal the serial batch, nothing is degraded (the router's
    filter needs no worker), the invariant holds, and the pool books
    the shard's fallback.  Single queries never noticed the death.
    """
    expected = _serial_batch(matrix, queries)
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        _dead_victim(router)
        registry = obs.enable()
        try:
            results = search_many(router, np.stack(queries), k=5)
        finally:
            obs.disable()
        assert [as_pairs(neighbors) for neighbors, _ in results] == expected
        for _, stats in results:
            assert not stats.degraded
            assert_invariant(stats, len(router))
        counters = _counters(registry)
        assert counters["cluster.pool.fallbacks"] >= 1
        assert "cluster.fanout_shards" not in counters
        for query, want in zip(queries, expected):
            neighbors, stats = router.search(query, k=5)
            assert as_pairs(neighbors) == want
            assert not stats.degraded


@pytest.mark.parametrize(
    "persisted", [False, True], ids=["memory", "directory"]
)
def test_sigkill_then_respawn_serves_clean(
    matrix, queries, persisted, tmp_path
):
    """In memory, the respawn builds from the spec's rows; from a
    directory, it reopens the page store the first build wrote, and
    never rewrites it under the parent's open read handle."""
    expected = _serial_batch(matrix, queries)
    directory = tmp_path / "shards"
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True,
        directory=directory if persisted else None,
    ) as router:
        written = {
            path.name: path.stat().st_mtime_ns
            for path in directory.glob("shard-*.pages")
        }
        pool, victim = _dead_victim(router, respawn=True)
        registry = obs.enable()
        try:
            results = search_many(router, np.stack(queries), k=5)
        finally:
            obs.disable()
        # Death was noticed before the batch was sent: the worker is
        # rebuilt from its spec and the pool serves the batch itself.
        assert [as_pairs(neighbors) for neighbors, _ in results] == expected
        assert not any(stats.degraded for _, stats in results)
        counters = _counters(registry)
        assert counters["cluster.fanout_shards"] == 4
        assert "cluster.pool.fallbacks" not in counters
        assert pool.respawn_count(victim) == 1
        assert pool.pids()[victim] is not None
        assert all(pool.heartbeat().values())
        assert {
            path.name: path.stat().st_mtime_ns
            for path in directory.glob("shard-*.pages")
        } == written


def test_sigkill_during_batch_falls_back_and_stays_exact(matrix, queries):
    expected = None
    serial = build_sharded(
        matrix, shards=4, backend="flat", worker_pool=False
    )
    expected = [
        as_pairs(neighbors)
        for neighbors, _ in search_many(serial, queries, k=5)
    ]
    serial.close()
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool = router.worker_pool
        victim = next(s for s, pid in pool.pids().items() if pid)
        _kill_and_wait(pool, victim)
        results = search_many(router, queries, k=5)
        # Whether the batch hit the dead worker (the parent's per-query
        # loop) or a respawned one, the answers are the serial answers.
        assert [as_pairs(neighbors) for neighbors, _ in results] == expected


def test_degrade_disabled_raises_worker_crash(matrix, queries):
    """With degradation disabled a worker death no longer raises.

    A dead worker costs an exact batch its parallelism only, and single
    queries never touch the pool, so nothing degrades and nothing
    raises :class:`WorkerCrashError`: the answer is the exact one.
    """
    expected = _serial_batch(matrix, queries)
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        _dead_victim(router)
        with policy_context(active_policy().with_(degrade=False)):
            results = search_many(router, np.stack(queries), k=5)
            neighbors, stats = router.search(queries[0], k=5)
        assert [as_pairs(hits) for hits, _ in results] == expected
        assert as_pairs(neighbors) == expected[0]
        assert not stats.degraded


def test_exhausted_budget_stays_degraded(matrix, queries):
    """An exhausted respawn budget leaves the *pool* degraded: the shard
    stays down and every exact batch runs in the parent, exactly."""
    expected = _serial_batch(matrix, queries)
    with build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    ) as router:
        pool, victim = _dead_victim(router)
        for _ in range(2):
            results = search_many(router, np.stack(queries), k=5)
            assert [as_pairs(hits) for hits, _ in results] == expected
            for _, stats in results:
                assert not stats.degraded
                assert_invariant(stats, len(router))
        assert pool.respawn_count(victim) == pool._max_respawns
        assert pool.heartbeat()[victim] is False


# ----------------------------------------------------------------------
# Lifecycle hygiene
# ----------------------------------------------------------------------
def test_close_reaps_workers(matrix):
    router = build_sharded(
        matrix, shards=4, backend="flat", worker_pool=True
    )
    pool = router.worker_pool
    pids = [pid for pid in pool.pids().values() if pid]
    assert pids
    router.close()
    assert pool.closed
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)  # ESRCH: process fully reaped
    router.close()  # idempotent
    with pytest.raises(ReproError):
        pool.scatter_knn(matrix[0], 1)


def test_failed_warmup_tears_everything_down(matrix, tmp_path):
    """A worker that cannot build must not orphan its siblings."""
    directory = tmp_path / "shards"
    build_sharded(
        matrix, shards=4, backend="flat",
        directory=directory, worker_pool=False,
    ).close()
    victims = sorted(directory.glob("shard-*.pages"))
    original = victims[1].read_bytes()
    victims[1].write_bytes(original[: len(original) // 2])  # torn file
    workers_before = {proc.pid for proc in _live_workers()}
    with pytest.raises(ReproError):
        open_sharded(directory, worker_pool=True)
    assert not [
        proc for proc in _live_workers() if proc.pid not in workers_before
    ]


def test_spec_size_mismatch_fails_warmup(matrix):
    from repro.cluster.pool import ShardSpec

    spec = ShardSpec(
        shard=0,
        backend="flat",
        size=len(matrix) + 7,  # lie about the population
        sequence_length=matrix.shape[1],
        obs_name="index.sharded.shard00",
        store_path="/nonexistent/path.pages",
    )
    pool = ShardWorkerPool([spec], shard_count=1)
    with pytest.raises(ReproError):
        pool.start()
    assert pool.closed


def _live_workers():
    import multiprocessing

    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-worker")
    ]
