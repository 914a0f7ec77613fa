"""``stream-rw``: writes beside reads on the crash-safe stream store.

Phase A (set-up): bulk-load the base population with ``append_many`` and
seal it.  Phase B (the timed rounds): one round is one "day" — new
series arrive, count events land one fsynced WAL group each, the day
rolls over, readers search (the first search after the day's writes pays
the index rebuild), and every ``seal_every`` days the live tier is
sealed.  Phase C (after the rounds): compaction, then crash drills — a
child process appends rows, reports each acknowledged batch up a pipe and
dies without ``close()``; the parent reopens the directory and searches.

The store runs with its constructor defaults: fsync on, ``burst_window=7``
(so every appended history is replayed through the burst monitor, on
append and again on recovery), no period monitor.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
from time import perf_counter

import numpy as np

from repro import StreamStore

from harness import Workload, latency_metrics
from knn import WARMUP_QUERIES, directory_bytes
from oracle import check_invariant, check_named_knn

K = 10
RATE = 40.0  # Poisson mean of the daily counts


def zscored(rows: np.ndarray) -> np.ndarray:
    """Row-wise z-score; a constant row becomes zeros, as the store's does."""
    centred = rows - rows.mean(axis=1, keepdims=True)
    std = rows.std(axis=1, keepdims=True)
    return np.divide(centred, std, out=centred, where=std > 0)


def crash_writer(directory: str, batches, conn) -> None:
    """Child body: append, acknowledge each batch, die without closing."""
    store = StreamStore(directory)
    for batch in batches:
        store.append_many(batch)
        conn.send([name for name, _ in batch])
    conn.close()
    os._exit(0)  # no close(), no atexit: the WAL tail is all that is left


class StreamReadWrite(Workload):
    name = "stream-rw"

    def __init__(self, seed: int, scale: dict, scratch: str) -> None:
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.directory = os.path.join(scratch, "stream")
        self.rng = np.random.default_rng([seed, 7])
        self.store: StreamStore | None = None
        self.next_name = 0
        # What the store must be serving, kept beside it: sealed rows
        # are frozen z-scores, live rows are raw windows still moving.
        self.sealed_names: list[str] = []
        self.sealed_rows: list[np.ndarray] = []
        self.live: dict[str, np.ndarray] = {}
        self.alerts = 0
        self.open_s: list[float] = []
        self.wal_ratio: list[float] = []
        self.after_compaction = 0.0
        self.recovered_wal_records = 0

    # -- inputs -----------------------------------------------------------
    def new_rows(self, count: int) -> list[tuple[str, np.ndarray]]:
        values = self.rng.poisson(RATE, size=(count, self.scale["days"])).astype(np.float64)
        names = [f"q{self.next_name + i:06d}" for i in range(count)]
        self.next_name += count
        return list(zip(names, values))

    def expected(self) -> tuple[np.ndarray, list[str]]:
        """The z-scored population a correct store answers from."""
        rows = list(self.sealed_rows)
        if self.live:
            rows.extend(zscored(np.stack(list(self.live.values()))))
        return np.stack(rows), self.sealed_names + list(self.live)

    def note_seal(self) -> None:
        if self.live:
            self.sealed_names.extend(self.live)
            self.sealed_rows.extend(zscored(np.stack(list(self.live.values()))))
            self.live.clear()

    # -- Phase A ----------------------------------------------------------
    def setup(self) -> None:
        scale = self.scale
        self.queries = zscored(
            self.rng.poisson(RATE, size=(scale["queries"], scale["days"])).astype(np.float64)
        )
        base = self.new_rows(scale["base_rows"])
        start = perf_counter()
        self.store = StreamStore(self.directory, scale["days"])
        for first in range(0, len(base), scale["load_batch"]):
            self.store.append_many(base[first : first + scale["load_batch"]])
        self.store.seal()
        self.load_s = perf_counter() - start
        self.live.update(base)
        self.note_seal()
        for query in self.queries[:WARMUP_QUERIES]:
            self.store.search(query, k=K)

    def settings(self) -> dict:
        monitor = self.store.monitor
        return {
            "fsync": True,  # the constructor default, REPRO_FSYNC cleared
            "burst_window": monitor.window if monitor else None,
            "period_window": None,
            "search_backend": "flat",
            "k": K,
        }

    def begin(self, recorder) -> None:
        self.rows_written = 0
        self.query_cursor = 0
        self.answers = 0
        self.right_answers = 0
        self.retrievals = 0

    # -- Phase B: one day ---------------------------------------------------
    def round(self, recorder, number: int, stop_at: float | None) -> None:
        scale, store = self.scale, self.store
        arrivals = self.new_rows(scale["day_rows"])
        recorder.op("append", lambda: store.append_many(arrivals), key=number)
        self.live.update(arrivals)
        self.rows_written += len(arrivals)

        live_names = list(self.live)
        targets = self.rng.integers(0, len(live_names), size=scale["day_events"])
        for target in targets:
            name = live_names[target]
            recorder.op("record", lambda: store.record(name, 1.0))
            self.live[name][-1] += 1.0
        recorder.op("rollover", store.rollover)
        for window in self.live.values():
            window[:-1] = window[1:]
            window[-1] = 0.0

        matrix, names = self.expected()
        for position in range(scale["day_searches"]):
            query = self.queries[self.query_cursor % len(self.queries)]
            self.query_cursor += 1
            kind = "search-first" if position == 0 else "search"
            answer = recorder.op(kind, lambda: store.search(query, k=K))
            if answer is not None:
                neighbors, stats = answer
                self.answers += 1
                self.retrievals += stats.full_retrievals
                self.right_answers += recorder.check(
                    check_named_knn(matrix, names, query, neighbors, K)
                    or check_invariant(stats, len(names)),
                    f"day {number} search {position}",
                )
        self.alerts += len(store.drain_alerts())
        if (number + 1) % scale["seal_every"] == 0:
            self.seal(recorder)

    def seal(self, recorder) -> None:
        if self.live:
            self.wal_ratio.append(self.wal_bytes() / self.live_bytes())
        recorder.op("seal", self.store.seal)
        self.note_seal()

    def live_bytes(self) -> int:
        return len(self.live) * self.scale["days"] * 8

    def wal_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
            if name.startswith("wal-")
        )

    # -- Phase C ----------------------------------------------------------
    def finish(self, recorder) -> None:
        with recorder.section(1):  # traced in a traced run
            self.seal(recorder)
            recorder.op("compact", self.store.compact)
        self.after_compaction = directory_bytes(self.directory) / (
            len(self.sealed_names) * self.scale["days"] * 8
        )
        recoveries = self.scale["recoveries"] if recorder.tracer is None else 2
        for number in range(recoveries):
            with recorder.section(number):
                self.crash_and_recover(recorder, number)

    def crash_and_recover(self, recorder, number: int) -> None:
        scale = self.scale
        rows = self.new_rows(scale["crash_rows"])
        batches = [
            rows[first : first + scale["day_rows"]]
            for first in range(0, len(rows), scale["day_rows"])
        ]
        self.store.close()
        # spawn: the child starts from a fresh import, with no copy of the
        # parent's handles, threads or (in a traced run) timing wrappers.
        context = multiprocessing.get_context("spawn")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=crash_writer, args=(self.directory, batches, sender))
        child.start()
        sender.close()
        acknowledged: list[str] = []
        try:
            while True:
                acknowledged.extend(receiver.recv())
        except EOFError:
            pass
        finally:
            receiver.close()
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
        recorder.check(
            None if len(acknowledged) == len(rows)
            else f"child acknowledged {len(acknowledged)} of {len(rows)} rows",
            f"crash {number}",
        )
        written = dict(rows)
        self.live.update((name, written[name]) for name in acknowledged)
        matrix, names = self.expected()
        query = self.queries[number % len(self.queries)]

        def reopen_and_search():
            start = perf_counter()
            self.store = StreamStore(self.directory)
            self.open_s.append(perf_counter() - start)
            return self.store.search(query, k=K)

        answer = recorder.op("recover", reopen_and_search, key=number)
        if answer is None:
            return
        neighbors, _ = answer
        visible = set(self.store.names())
        lost = [name for name in acknowledged if name not in visible]
        recorder.check(
            (f"acknowledged rows lost: {lost[:5]}" if lost else None)
            or check_named_knn(matrix, names, query, neighbors, K),
            f"recovery {number}",
        )
        # An acknowledged row is readable when a search for it finds it.
        for name in acknowledged[:4]:
            own = zscored(written[name][None, :])[0]
            nearest, _ = self.store.search(own, k=1)
            recorder.check(
                None if nearest[0].name == name and nearest[0].distance < 1e-9
                else f"row {name!r} not served after recovery",
            )
        self.recovered_wal_records = self.store.recovery.wal_records
        self.seal(recorder)

    def verify(self, recorder) -> None:
        matrix, names = self.expected()
        recorder.check(
            None if sorted(self.store.names()) == sorted(names)
            else "store population differs from the acknowledged population"
        )

    # -- metrics ----------------------------------------------------------
    def end_to_end(self, recorder, load_s) -> dict[str, float]:
        searches = recorder.seconds("search-first") + recorder.seconds("search")
        metrics = latency_metrics(searches)
        write_s = (
            statistics.median(load_s)
            + sum(recorder.seconds("append"))
            + sum(recorder.seconds("seal"))
            + sum(recorder.seconds("compact"))
        )
        metrics["load_rows_per_s"] = (self.scale["base_rows"] + self.rows_written) / write_s
        metrics["recall_at_10"] = self.right_answers / self.answers
        return metrics

    def per_layer(self, recorder, summary) -> dict[str, float]:
        def mean_ms(span: str, kind: str) -> float:
            calls = summary.calls({span}, {kind})
            return summary.total_s({span}, {kind}) / calls * 1e3 if calls else 0.0

        appended = summary.calls({"StreamStore.append_many"}, {"append"}) * self.scale["day_rows"]
        first = recorder.seconds("search-first")
        steady = recorder.seconds("search")
        records = recorder.seconds("record")
        days = max(len(recorder.traced["append"]), 1)
        day_kinds = {"append", "record", "rollover", "search-first", "search", "seal"}
        recover = recorder.seconds("recover")
        return {
            "retrievals_per_query": self.retrievals / self.answers,
            "events_per_s": len(records) / sum(records),
            "recover_ms": statistics.median(recover) * 1e3,
            "store_bytes_per_user_byte": self.after_compaction,
            "storage.bytes_on_disk": float(directory_bytes(self.directory)),
            "stream.append_ms_per_row": (
                summary.total_s({"StreamStore.append_many"}, {"append"}) / max(appended, 1) * 1e3
            ),
            "stream.monitor_ms_per_row": (
                summary.total_s({"LiveBurstMonitor.observe_series"}, {"append"})
                / max(appended, 1) * 1e3
            ),
            "stream.record_ms_per_event": mean_ms("StreamStore.record", "record"),
            "stream.rollover_ms": mean_ms("StreamStore.rollover", "rollover"),
            "stream.seal_ms": mean_ms("StreamStore.seal", "seal"),
            "stream.compact_ms": mean_ms("StreamStore.compact", "compact"),
            "stream.index_rebuild_ms": (
                (statistics.median(first) - statistics.median(steady)) * 1e3
            ),
            "stream.search_steady_ms": statistics.median(steady) * 1e3,
            "stream.recover.open_ms": statistics.median(self.open_s) * 1e3,
            "stream.recover.wal_records": float(self.recovered_wal_records),
            "stream.wal_bytes_per_user_byte": statistics.median(self.wal_ratio),
            "stream.fsyncs": summary.calls({"os.fsync"}, day_kinds) / days,
            "stream.segments_final": float(len(self.store.segment_files())),
            "stream.alerts_emitted": float(self.alerts),
        }

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
