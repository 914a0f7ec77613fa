"""The seeded kill-point drill: crash at every seam, recover exactly.

For each write-path mutation the drill first *records* the seam
sequence with an unarmed :class:`~repro.resilience.CrashPlan`, then
re-runs the mutation once per step with a step-armed plan, "kills the
process" there (the store poisons itself, exactly like a real kill
would make the memory image unreachable), reopens the directory, and
asserts the recovered state is **bit-identical to a legal snapshot** —
the state just before the mutation or just after it, nothing in
between and nothing invented.

Which of the two is legal is not "either": every seam has an exact
expectation.  A WAL group is atomic around its single ``write(2)``
(``wal.write`` → before, ``wal.sync`` → after); a seal or compaction
belongs to the old generation until the manifest rename lands
(everything up to and including ``manifest.rename`` → before,
``*.gc`` → after).  The drill asserts that mapping seam by seam.
"""

import contextlib

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.resilience import CrashPlan, InjectedCrashError, crash_plan
from repro.stream import StreamStore
from repro.timeseries.preprocessing import zscore

pytestmark = pytest.mark.faults

DAYS = 32

#: Exact post-recovery expectation per seam: does a kill *at* this seam
#: land on the state before the mutation, or after it completed?
EXPECT = {
    "wal.write": "before",
    "wal.sync": "after",
    "seal.segment.write": "before",
    "seal.segment.sync": "before",
    "seal.wal.rotate": "before",
    "manifest.tmp.write": "before",
    "manifest.rename": "before",
    "seal.gc": "after",
    "compact.segment.write": "before",
    "compact.segment.sync": "before",
    "compact.gc": "after",
}

SEAL_SEAMS = (
    "seal.segment.write",
    "seal.segment.sync",
    "seal.wal.rotate",
    "manifest.tmp.write",
    "manifest.rename",
    "seal.gc",
)
COMPACT_SEAMS = (
    "compact.segment.write",
    "compact.segment.sync",
    "manifest.tmp.write",
    "manifest.rename",
    "compact.gc",
)


def _counts(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=DAYS).astype(float)


_QUERIES = (
    zscore(np.arange(DAYS, dtype=float) % 7),
    zscore(_counts(777)),
)


def _build(directory) -> StreamStore:
    """The deterministic pre-state every scenario starts from.

    Six sealed series (one generation), two live ones with a WAL tail
    behind them — both tiers populated, so every recovery assertion
    exercises segment adoption *and* WAL replay.
    """
    store = StreamStore(directory, DAYS, fsync=False)
    store.append_many((f"s{i}", _counts(i)) for i in range(6))
    store.seal()
    store.append("l0", _counts(10))
    store.append("l1", _counts(11))
    store.record("l0", 4.0)
    return store


def _snapshot(store) -> tuple:
    """The canonical observable state: names, generation and answers.

    Answers are keyed by name (recovery may renumber live rows) with
    distances kept to full precision modulo a 1e-12 round — the
    "bit-identical" bar every legal snapshot comparison uses.  ``k``
    is the whole population, so every visible row's distance is part of
    the canonical state and no mutation can hide below the cut.
    """
    k = len(store)
    answers = tuple(
        frozenset(
            (n.name, round(n.distance, 12))
            for n in store.search(query, k)[0]
        )
        for query in _QUERIES
    )
    return (tuple(sorted(store.names())), store.generation, answers)


# Each scenario is one atomic mutation: (name, op).  The drill builds
# the shared pre-state, records op's seam sequence, then kills at every
# step of it.
SCENARIOS = (
    ("append", lambda s: s.append("fresh", _counts(20))),
    (
        "append-batch",
        lambda s: s.append_many(
            [("b0", _counts(21)), ("b1", _counts(22)), ("b2", _counts(23))]
        ),
    ),
    ("append-supersede", lambda s: s.append("s1", _counts(24))),
    ("record-event", lambda s: s.record("l0", 9.0)),
    ("record-supersede", lambda s: s.record("s0", 9.0)),
    ("rollover", lambda s: s.rollover()),
    ("delete-live", lambda s: s.delete("l1")),
    ("delete-sealed", lambda s: s.delete("s2")),
    ("seal", lambda s: s.seal()),
)


def _record_seams(tmp_path, op) -> list[str]:
    plan = CrashPlan()  # recording mode: log every seam, never fire
    store = _build(tmp_path / "record")
    try:
        with crash_plan(plan):
            op(store)
    finally:
        store.close()
    assert plan.fired is None
    return plan.log


def _legal_states(tmp_path, op) -> dict:
    before_store = _build(tmp_path / "before")
    try:
        before = _snapshot(before_store)
    finally:
        before_store.close()
    after_store = _build(tmp_path / "after")
    try:
        op(after_store)
        after = _snapshot(after_store)
    finally:
        after_store.close()
    return {"before": before, "after": after}


@pytest.mark.parametrize("name,op", SCENARIOS, ids=[n for n, _ in SCENARIOS])
def test_kill_at_every_seam_recovers_a_legal_snapshot(tmp_path, name, op):
    seams = _record_seams(tmp_path, op)
    assert seams, f"scenario {name} crossed no crash points"
    if name == "seal":
        assert tuple(seams) == SEAL_SEAMS
    else:
        assert tuple(seams) == ("wal.write", "wal.sync")
    legal = _legal_states(tmp_path, op)
    assert legal["before"] != legal["after"]  # the op is observable
    for step, seam in enumerate(seams):
        directory = tmp_path / f"kill-{step}"
        store = _build(directory)
        plan = CrashPlan(step=step)
        with pytest.raises(InjectedCrashError):
            with crash_plan(plan):
                op(store)
        assert plan.fired == seam
        # The store is poisoned: its memory image may trail the disk,
        # so it refuses everything until reopened — like a dead process.
        with pytest.raises(StorageError, match="poisoned"):
            store.names()
        with contextlib.suppress(Exception):
            store.close()
        with StreamStore(directory, fsync=False) as reopened:
            assert _snapshot(reopened) == legal[EXPECT[seam]], (
                f"scenario {name}: kill at {seam!r} (step {step}) did "
                f"not recover to the {EXPECT[seam]} snapshot"
            )


def test_kill_at_every_compaction_seam(tmp_path):
    def build(directory):
        store = StreamStore(directory, DAYS, fsync=False)
        store.append_many((f"s{i}", _counts(i)) for i in range(5))
        store.seal()
        store.append("s0", _counts(30))  # supersede across segments
        store.append("extra", _counts(31))
        store.seal()
        store.delete("s3")
        return store

    plan = CrashPlan()
    store = build(tmp_path / "record")
    try:
        with crash_plan(plan):
            store.compact()
    finally:
        store.close()
    assert tuple(plan.log) == COMPACT_SEAMS

    before_store = build(tmp_path / "before")
    try:
        before = _snapshot(before_store)
    finally:
        before_store.close()
    after_store = build(tmp_path / "after")
    try:
        after_store.compact()
        after = _snapshot(after_store)
    finally:
        after_store.close()
    # Compaction changes no answers, only the generation and layout.
    assert before[0] == after[0] and before[2] == after[2]
    legal = {"before": before, "after": after}

    for step, seam in enumerate(COMPACT_SEAMS):
        directory = tmp_path / f"kill-{step}"
        store = build(directory)
        with pytest.raises(InjectedCrashError):
            with crash_plan(CrashPlan(step=step)):
                store.compact()
        with contextlib.suppress(Exception):
            store.close()
        with StreamStore(directory, fsync=False) as reopened:
            assert _snapshot(reopened) == legal[EXPECT[seam]], (
                f"kill at {seam!r} did not recover to the "
                f"{EXPECT[seam]} snapshot"
            )
            assert reopened.recovery.wal_records > 0 or seam.endswith(".gc")


def test_torn_wal_tail_costs_only_the_last_group(tmp_path):
    """A kill mid-``write(2)`` tears the WAL's final record: the store
    reopens, truncates the tear, and answers like a twin that only ever
    saw the groups before it."""
    directory = tmp_path / "stream"
    store = StreamStore(directory, DAYS, fsync=False)
    for i in range(3):
        store.append(f"s{i}", _counts(i))
    store.close()
    (wal,) = directory.glob("wal-*.log")
    with open(wal, "r+b") as handle:
        handle.truncate(wal.stat().st_size - 5)

    with StreamStore(directory, fsync=False) as reopened, StreamStore(
        tmp_path / "twin", DAYS, fsync=False
    ) as twin:
        assert reopened.recovery.wal_truncated_bytes > 0
        for i in range(2):
            twin.append(f"s{i}", _counts(i))
        recovered, expected = _snapshot(reopened), _snapshot(twin)
        assert recovered[0] == expected[0] == ("s0", "s1")
        assert recovered[2] == expected[2]


def test_recovered_store_serves_every_backend(tmp_path):
    """After a mid-seal kill, the union answers on all seven backends."""
    directory = tmp_path / "stream"
    store = _build(directory)
    before = _snapshot(store)
    with pytest.raises(InjectedCrashError):
        with crash_plan(CrashPlan(point="manifest.rename")):
            store.seal()
    with contextlib.suppress(Exception):
        store.close()
    with StreamStore(directory, fsync=False) as reopened:
        assert _snapshot(reopened) == before
        flat = {
            (n.name, round(n.distance, 12))
            for n in reopened.search(_QUERIES[0], 4)[0]
        }
        for backend in ("scan", "vptree", "mvptree", "mtree", "rtree"):
            got = {
                (n.name, round(n.distance, 12))
                for n in reopened.search(_QUERIES[0], 4, backend=backend)[0]
            }
            assert got == flat, backend
        sharded = {
            (n.name, round(n.distance, 12))
            for n in reopened.search(
                _QUERIES[0], 4, backend="sharded", shards=2
            )[0]
        }
        assert sharded == flat


def test_repeated_kills_then_recovery_converges(tmp_path):
    """Crash-on-crash: killing every seal attempt never corrupts."""
    directory = tmp_path / "stream"
    store = _build(directory)
    before = _snapshot(store)
    store.close()
    for step in range(5):  # every pre-rename seal seam, repeatedly
        store = StreamStore(directory, fsync=False)
        assert _snapshot(store) == before
        with pytest.raises(InjectedCrashError):
            with crash_plan(CrashPlan(step=step)):
                store.seal()
        with contextlib.suppress(Exception):
            store.close()
    with StreamStore(directory, fsync=False) as survivor:
        assert _snapshot(survivor) == before
        survivor.seal()  # and the seal still lands when allowed to
        assert sorted(survivor.names()) == sorted(before[0])
        assert survivor.live_count == 0


def test_recovered_monitor_equals_one_that_never_crashed(tmp_path):
    """Replayed adds take the bulk path: same alerts, same detector state.

    The crashed store and its twin acknowledge the same ``append_many``
    batches, seal, events and rollovers; the crashed one is then killed
    inside one more (unacknowledged) batch and reopened at constructor
    defaults, so every add in the WAL is replayed through the burst
    monitor's bulk ``extend``.  The seal forgets the sealed series'
    detectors, as the reopened store, which replays only the WAL written
    since the seal, never builds them.
    """

    def bursty(seed: int) -> np.ndarray:
        values = _counts(seed)
        values[12 + seed % 9 :][:3] += 400.0
        return values

    def acknowledged(store) -> None:
        for batch in range(3):
            store.append_many(
                (f"q{batch}-{i}", bursty(4 * batch + i)) for i in range(4)
            )
            if batch == 0:
                store.seal()
                store.drain_alerts()  # raised before the replayed WAL
        store.record("q0-1", 900.0)  # supersedes a sealed series
        store.rollover()
        store.delete("q1-2")  # forgets the detector ...
        store.append("q1-2", bursty(40))  # ... and seeds a fresh one

    def monitor_state(store) -> dict:
        state = {}
        for name in sorted(store.names()):
            detector = store.monitor.detector(name)
            state[name] = None if detector is None else (
                detector.regions(),
                detector.size,
                detector.bursting,
                detector.decision_statistic,
                detector.decision_threshold,
            )
        return state

    crashed = StreamStore(tmp_path / "crashed", DAYS)
    acknowledged(crashed)
    with pytest.raises(InjectedCrashError):
        with crash_plan(CrashPlan(point="wal.write")):
            crashed.append_many([("lost", bursty(50))])
    with contextlib.suppress(Exception):
        crashed.close()

    with StreamStore(tmp_path / "twin", DAYS) as twin:
        acknowledged(twin)
        with StreamStore(tmp_path / "crashed") as reopened:
            assert reopened.recovery.wal_records > 0
            assert "lost" not in reopened.names()
            alerts = reopened.drain_alerts()
            assert alerts and alerts == twin.drain_alerts()
            assert monitor_state(reopened) == monitor_state(twin)
            assert len(reopened.monitor) == len(twin.monitor)
