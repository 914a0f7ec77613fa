"""StreamStore lifecycle: append, seal, shadowing, compaction, reopen."""

import os

import numpy as np
import pytest

from repro.engine.registry import get_index
from repro.exceptions import (
    CorruptionError,
    IngestionError,
    KeyNotFoundError,
    StorageError,
)
from repro.storage import SequencePageStore
from repro.stream import StreamStore
from repro.stream.store import fsync_enabled_from_env
from repro.timeseries.preprocessing import zscore

DAYS = 32


def _counts(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=DAYS).astype(float)


def _answers(store, query, k=4, **kwargs):
    neighbors, _ = store.search(query, k, **kwargs)
    return {(n.name, round(n.distance, 12)) for n in neighbors}


@pytest.fixture
def store(tmp_path):
    with StreamStore(tmp_path / "stream", DAYS, fsync=False) as opened:
        yield opened


class TestAppend:
    def test_append_and_query(self, store):
        values = _counts(1)
        store.append("cinema", values)
        assert store.names() == ("cinema",)
        assert len(store) == 1 and store.live_count == 1
        (hit,), _ = store.search(zscore(values), 1)
        assert hit.name == "cinema" and hit.distance == pytest.approx(0.0)

    def test_validation_rejects_bad_counts(self, store):
        with pytest.raises(IngestionError):
            store.append("neg", np.full(DAYS, -1.0))
        with pytest.raises(IngestionError):
            store.append("short", np.ones(DAYS - 1))
        store.append("ok", _counts(2))
        with pytest.raises(IngestionError):
            store.append("ok", _counts(3))  # already live

    def test_append_many_is_all_or_nothing(self, store):
        batch = [(f"q{i}", _counts(i)) for i in range(4)]
        bad = batch + [("broken", np.full(DAYS, -5.0))]
        with pytest.raises(IngestionError):
            store.append_many(bad)
        assert len(store) == 0  # validation happens before any write
        store.append_many(batch)
        assert store.names() == tuple(f"q{i}" for i in range(4))
        with pytest.raises(IngestionError):
            store.append_many([("dup", _counts(9)), ("dup", _counts(9))])
        store.append_many([])  # a no-op, not an error

    def test_record_defaults_to_today(self, store):
        store.record("fresh", 5.0)
        index = store.index()
        row = index.fetch(0)
        # One spike in an otherwise-zero window: today's z-score is the
        # window maximum.
        assert row.argmax() == DAYS - 1

    def test_rollover_slides_live_windows(self, store):
        values = _counts(4)
        store.append("q", values)
        store.rollover()
        expected = np.concatenate([values[1:], [0.0]])
        np.testing.assert_array_equal(
            store.index().fetch(0), zscore(expected)
        )

    def test_delete_unknown_name(self, store):
        with pytest.raises(KeyNotFoundError):
            store.delete("ghost")


class TestSealAndShadowing:
    def test_seal_moves_live_to_sealed(self, store):
        store.append("q", _counts(1))
        segment = store.seal()
        assert segment is not None
        assert store.live_count == 0
        assert store.names() == ("q",)
        assert store.generation == 2
        assert os.path.exists(os.path.join(store.directory, segment))

    def test_seal_empty_live_tier_is_none(self, store):
        assert store.seal() is None
        assert store.generation == 1

    def test_supersede_appends_over_a_sealed_name(self, store):
        old = _counts(1)
        new = _counts(2)
        store.append("q", old)
        store.seal()
        store.append("q", new)  # tombstone + fresh live, one WAL group
        assert store.names() == ("q",)
        (hit,), _ = store.search(zscore(new), 1)
        assert hit.distance == pytest.approx(0.0)
        (miss,), _ = store.search(zscore(old), 1)
        assert miss.distance > 1.0  # the sealed row is shadowed

    def test_latest_sealed_occurrence_wins(self, store):
        store.append("q", _counts(1))
        store.seal()
        store.append("q", _counts(2))
        store.seal()  # two segments both hold a row named "q"
        assert store.names() == ("q",)
        (hit,), _ = store.search(zscore(_counts(2)), 1)
        assert hit.distance == pytest.approx(0.0)

    def test_sealing_a_name_clears_its_tombstone(self, store):
        store.append("q", _counts(1))
        store.seal()
        store.delete("q")
        store.append("q", _counts(2))
        store.seal()
        assert store.names() == ("q",)

    def test_delete_hides_sealed_rows(self, store):
        store.append("keep", _counts(1))
        store.append("drop", _counts(2))
        store.seal()
        store.delete("drop")
        assert store.names() == ("keep",)
        with pytest.raises(KeyNotFoundError):
            store.delete("drop")  # already invisible


class TestCompaction:
    def test_compact_merges_and_drops_shadowed_rows(self, store):
        store.append_many((f"q{i}", _counts(i)) for i in range(4))
        store.seal()
        store.append("q0", _counts(40))  # supersede
        store.seal()
        store.delete("q3")
        query = zscore(_counts(17))
        before = _answers(store, query, k=3)
        assert len(store.segment_files()) == 2
        merged = store.compact()
        assert merged is not None
        assert store.segment_files() == (merged,)
        # One physical row per visible name: q1, q2 and the new q0.
        assert sorted(store.names()) == ["q0", "q1", "q2"]
        assert _answers(store, query, k=3) == before

    def test_compact_with_nothing_to_do_is_none(self, store):
        store.append("q", _counts(1))
        store.seal()
        assert store.compact() is None  # one segment, no tombstones

    def test_compact_everything_deleted_leaves_no_segment(self, store):
        store.append("q", _counts(1))
        store.seal()
        store.delete("q")
        assert store.compact() is None  # nothing visible, tombstones only
        # ... but the tombstone alone makes a follow-up compact legal:
        store.append("r", _counts(2))
        store.seal()
        store.compact()
        assert store.names() == ("r",)


class TestIndexCache:
    def test_index_cached_until_mutation(self, store):
        store.append("q", _counts(1))
        first = store.index()
        assert store.index() is first
        store.record("q", 1.0)
        assert store.index() is not first

    def test_kwargs_key_the_cache(self, store):
        store.append_many((f"q{i}", _counts(i)) for i in range(6))
        flat = store.index("flat")
        scan = store.index("scan")
        assert flat is not scan
        assert store.index("flat") is flat

    @staticmethod
    def _two_segments_and_live(store):
        store.append_many((f"s{i}", _counts(i)) for i in range(6))
        store.seal()
        store.append_many((f"t{i}", _counts(10 + i)) for i in range(3))
        store.seal()
        store.append("live", _counts(50))

    @staticmethod
    def _union_names(index):
        return tuple(index.result_name(i) for i in range(len(index)))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.append("new", _counts(60)),
            lambda s: s.append_many([("new", _counts(60))]),
            lambda s: s.record("live", 2.0),
            lambda s: s.record("new", 2.0),
            lambda s: s.rollover(),
        ],
        ids=["append", "append_many", "record-live", "record-new", "rollover"],
    )
    def test_live_mutation_keeps_the_sealed_index(self, store, mutate):
        self._two_segments_and_live(store)
        first = store.index()
        mutate(store)
        second = store.index()
        assert second is not first and second._inner is first._inner
        assert self._union_names(second) == store.names()
        assert store.index() is second

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.seal(),
            lambda s: s.compact(),
            lambda s: s.delete("s1"),
            lambda s: s.append("s2", _counts(70)),
            lambda s: s.record("t0", 1.0),
        ],
        ids=["seal", "compact", "delete", "supersede-append", "supersede-record"],
    )
    def test_sealed_change_replaces_the_inner_index(self, store, mutate):
        self._two_segments_and_live(store)
        first = store.index()
        mutate(store)
        second = store.index()
        assert second._inner is not first._inner
        assert self._union_names(second) == store.names()

    def test_sharded_inner_is_closed_once_and_reaps_its_workers(self, store):
        self._two_segments_and_live(store)
        options = {"backend": "sharded", "shards": 2, "worker_pool": True}

        def watched():
            router = store.index(**options)._inner
            pids = [pid for pid in router.worker_pool.pids().values() if pid]
            closes = []
            close = router.close
            router.close = lambda: (closes.append(1), close())
            return router, pids, closes

        def reaped(router, pids):
            assert router.worker_pool.closed
            for pid in pids:
                with pytest.raises(OSError):
                    os.kill(pid, 0)  # ESRCH: process fully reaped
            return True

        router, pids, closes = watched()
        assert pids
        store.record("live", 1.0)
        store.rollover()
        assert store.index(**options)._inner is router and closes == []
        store.delete("s0")  # a sealed change closes it ...
        assert closes == [1] and reaped(router, pids)
        router, pids, closes = watched()
        store.close()  # ... and so does close(), once
        store.close()
        assert closes == [1] and reaped(router, pids)


class TestCorruption:
    def test_sealed_epoch_change_rereads_through_the_crc(self, store):
        store.append_many((f"s{i}", _counts(i)) for i in range(4))
        store.seal()
        query = zscore(_counts(1))
        before = _answers(store, query)
        path = os.path.join(store.directory, store.segment_files()[0])
        with SequencePageStore.open(path) as probe:
            offset = probe._offset_of(1) + 100  # inside s1's payload
        with open(path, "r+b") as raw:
            raw.seek(offset)
            byte = raw.read(1)[0]
            raw.seek(offset)
            raw.write(bytes([byte ^ 0x01]))
        # A live-only write keeps the copy that was CRC-checked at load.
        store.record("fresh", 1.0)
        after = _answers(store, query, k=5)
        assert {hit for hit in after if hit[0] != "fresh"} == before
        store.delete("s3")  # a sealed change re-reads every visible row
        with pytest.raises(CorruptionError):
            store.search(query, 1)


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "backend", ["scan", "vptree", "mvptree", "mtree", "rtree"]
    )
    def test_all_backends_answer_like_flat(self, store, backend):
        store.append_many((f"s{i}", _counts(i)) for i in range(8))
        store.seal()
        store.append_many((f"l{i}", _counts(100 + i)) for i in range(3))
        query = zscore(_counts(55))
        assert _answers(store, query, backend=backend) == _answers(
            store, query, backend="flat"
        )

    def test_sharded_router_serves_the_union(self, store):
        store.append_many((f"s{i}", _counts(i)) for i in range(8))
        store.seal()
        store.append("live", _counts(99))
        query = zscore(_counts(55))
        assert _answers(store, query, backend="sharded", shards=2) == _answers(
            store, query, backend="flat"
        )


class TestReopen:
    def test_roundtrip_preserves_answers(self, tmp_path):
        directory = tmp_path / "stream"
        series = {f"q{i}": _counts(i) for i in range(6)}
        query = zscore(_counts(31))
        with StreamStore(directory, DAYS, fsync=False) as store:
            store.append_many(list(series.items())[:4])
            store.seal()
            store.append_many(list(series.items())[4:])
            store.record("q4", 3.0)
            before = _answers(store, query)
        with StreamStore(directory, fsync=False) as reopened:
            assert not reopened.recovery.created
            assert reopened.recovery.wal_records > 0
            assert set(reopened.names()) == set(series)
            assert _answers(reopened, query) == before
        # Reference answers from outside the stream stack entirely.
        rows = {name: values.copy() for name, values in series.items()}
        rows["q4"][DAYS - 1] += 3.0
        reference = get_index(
            "scan",
            np.stack([zscore(row) for row in rows.values()]),
            names=list(rows),
        )
        expected = {
            (n.name, round(n.distance, 12))
            for n in reference.search(query, 4)[0]
        }
        assert before == expected

    def test_closed_store_refuses_calls(self, tmp_path):
        store = StreamStore(tmp_path / "stream", DAYS, fsync=False)
        store.close()
        store.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            store.append("q", _counts(1))
        with pytest.raises(StorageError, match="closed"):
            store.names()


class TestAlerts:
    def test_burst_in_live_feed_raises_alert(self, tmp_path):
        with StreamStore(
            tmp_path / "stream", DAYS, fsync=False, burst_window=3
        ) as store:
            quiet = np.full(DAYS, 10.0)
            quiet[-1] = 500.0  # today spikes, but today is not complete
            store.append("q", quiet)
            assert store.drain_alerts() == []
            store.rollover()  # the spike day completes now
            (alert,) = store.drain_alerts()
            assert alert.name == "q" and alert.value == 500.0
            assert store.drain_alerts() == []

    def test_alerting_can_be_disabled(self, tmp_path):
        with StreamStore(
            tmp_path / "stream", DAYS, fsync=False, burst_window=None
        ) as store:
            assert store.monitor is None
            values = np.full(DAYS, 10.0)
            values[-1] = 500.0
            store.append("q", values)
            store.rollover()
            assert store.drain_alerts() == []


class TestFsyncKnob:
    def test_env_knob_parses_common_spellings(self, monkeypatch):
        for raw, expected in [
            ("1", True), ("true", True), ("ON", True), ("yes", True),
            ("0", False), ("false", False), ("off", False), ("no", False),
        ]:
            monkeypatch.setenv("REPRO_FSYNC", raw)
            assert fsync_enabled_from_env(default=not expected) is expected

    def test_env_knob_defaults_when_unset_or_junk(self, monkeypatch):
        monkeypatch.delenv("REPRO_FSYNC", raising=False)
        assert fsync_enabled_from_env(default=True) is True
        assert fsync_enabled_from_env(default=False) is False
        monkeypatch.setenv("REPRO_FSYNC", "maybe")
        assert fsync_enabled_from_env(default=True) is True

    def test_store_honours_the_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FSYNC", "0")
        with StreamStore(tmp_path / "stream", DAYS) as store:
            assert store._fsync is False
        monkeypatch.setenv("REPRO_FSYNC", "1")
        with StreamStore(tmp_path / "stream") as store:
            assert store._fsync is True
            store.append("q", _counts(1))  # fsync path actually runs
            store.seal()


class TestPluggableAlerting:
    """burst_model / period_window wiring through the WAL-replayed path."""

    def _spiky(self):
        values = np.full(DAYS, 10.0)
        values[-1] = 500.0  # today's still-open slot
        return values

    def test_store_runs_a_named_burst_model(self, tmp_path):
        with StreamStore(
            tmp_path / "stream", DAYS, fsync=False, burst_model="macd"
        ) as store:
            assert store.monitor.model.name == "macd"
            store.append("q", self._spiky())
            assert store.drain_alerts() == []  # flat history: no momentum
            store.rollover()
            (alert,) = store.drain_alerts()
            assert alert.name == "q" and alert.value == 500.0
            assert alert.region is not None

    def test_replay_reproduces_the_alerts(self, tmp_path):
        directory = tmp_path / "stream"
        with StreamStore(
            directory, DAYS, fsync=False, burst_model="macd"
        ) as store:
            store.append("q", self._spiky())
            store.rollover()
            live = store.drain_alerts()
        assert live
        with StreamStore(
            directory, fsync=False, burst_model="macd"
        ) as reopened:
            replayed = reopened.drain_alerts()
        assert replayed == live  # recovery replays the same WAL records

    def test_period_monitoring_is_opt_in(self, store):
        assert store.period_monitor is None
        assert store.drain_period_alerts() == []

    def test_period_window_raises_change_alerts(self, tmp_path):
        t = np.arange(DAYS, dtype=float)
        rhythmic = np.sin(2 * np.pi * t / 8.0) * 40.0 + 50.0
        with StreamStore(
            tmp_path / "stream",
            DAYS,
            fsync=False,
            # 24 on-grid samples of a period-8 tone; a 16-sample window
            # leaves too few bins for the 0.9999-confidence tail test.
            period_window=24,
        ) as store:
            assert store.period_monitor is not None
            store.append("q", rhythmic)
            alerts = store.drain_period_alerts()
            assert alerts
            gained = [p for a in alerts for p in a.gained]
            assert any(abs(p.period - 8.0) < 1.5 for p in gained)
            assert store.drain_period_alerts() == []

    def test_tombstone_forgets_both_monitors(self, tmp_path):
        with StreamStore(
            tmp_path / "stream",
            DAYS,
            fsync=False,
            period_window=16,
        ) as store:
            store.append("q", self._spiky())
            store.delete("q")
            assert store.monitor.detector("q") is None
            assert store.period_monitor.detector("q") is None

    def test_seal_forgets_both_monitors_and_leaves_them_on(self, tmp_path):
        with StreamStore(
            tmp_path / "stream",
            DAYS,
            fsync=False,
            period_window=16,
        ) as store:
            store.append("q", self._spiky())
            store.seal()
            for monitor in (store.monitor, store.period_monitor):
                assert monitor.detector("q") is None and len(monitor) == 0
                assert monitor  # watching nothing, but still on
