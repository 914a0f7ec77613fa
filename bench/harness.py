"""The measuring loop shared by every workload.

Load model: closed loop, one client, one generator process.  A workload
is set up three times, twice before the rounds and once after them
(``setup_s`` is the median), its caches are warmed inside set-up, and
*rounds* of operations run until ``--seconds`` have passed.  Every operation is timed from outside by
:meth:`Recorder.op` and its answer checked right after, outside the
timed interval.  In a traced run odd-numbered rounds execute with the
timing wrappers of :mod:`trace` installed and even-numbered rounds
without, so end-to-end numbers never include a wrapper and the traced
and untraced walls of the same operations sit side by side.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import tempfile
import traceback
from collections import defaultdict
from time import perf_counter

import trace as spans

class Recorder:
    """Times operations, counts attempts and failures, owns the tracer."""

    def __init__(self, tracer: spans.Tracer | None) -> None:
        self.tracer = tracer  # None in an untraced run
        self._live: spans.Tracer | None = None  # set while wrappers are on
        self.untraced: dict[str, list[tuple[object, float]]] = defaultdict(list)
        self.traced: dict[str, list[tuple[object, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def section(self, number: int):
        """Odd-numbered sections of a traced run execute under tracing."""
        if self.tracer is None or number % 2 == 0:
            yield
            return
        with spans.tracing(self.tracer):
            self._live = self.tracer
            try:
                yield
            finally:
                self._live = None

    @property
    def tracing(self) -> bool:
        """Whether operations are being traced right now."""
        return self._live is not None

    def op(self, kind: str, func, key=None, layer: str = spans.UNATTRIBUTED):
        """Run ``func()`` as one operation; returns its result or None.

        An operation that raises is a failed operation and has no
        latency: a failure counts as missing every latency limit.
        """
        self.attempted += 1
        live = self._live
        root = live.begin_op(kind, layer) if live is not None else None
        start = perf_counter()
        try:
            result = func()
            elapsed = perf_counter() - start
        except Exception:  # the run must go on, to report the failure
            self.failed += 1
            self.failures.append(
                f"{kind}[{key}] raised: {traceback.format_exc(limit=4)}"
            )
            return None
        finally:
            if root is not None:
                live.end(root)
        (self.traced if live is not None else self.untraced)[kind].append(
            (key, elapsed)
        )
        return result

    def check(self, reason: str | None, what: str = "") -> bool:
        """Count a wrong answer (``reason`` not None) as a failed op."""
        if reason is None:
            return True
        self.failed += 1
        self.failures.append(f"{what}: {reason}" if what else reason)
        return False

    # ------------------------------------------------------------------
    # Reading the samples back
    # ------------------------------------------------------------------
    def seconds(self, kind: str, traced: bool = False) -> list[float]:
        return [s for _, s in (self.traced if traced else self.untraced)[kind]]

    def per_key(self, kinds, traced: bool = False) -> dict:
        """Median seconds per (kind, key) over the passes that ran it."""
        grouped: dict = defaultdict(list)
        source = self.traced if traced else self.untraced
        for kind in kinds:
            for key, elapsed in source[kind]:
                grouped[(kind, key)].append(elapsed)
        return {k: statistics.median(v) for k, v in grouped.items()}

    def trace_overhead_share(self) -> float:
        """Traced wall / untraced wall - 1 over operations run both ways."""
        kinds = set(self.traced) & set(self.untraced)
        with_wrappers = self.per_key(kinds, traced=True)
        without = self.per_key(kinds, traced=False)
        common = set(with_wrappers) & set(without)
        base = sum(without[k] for k in common)
        if base == 0.0:
            return 0.0
        return sum(with_wrappers[k] for k in common) / base - 1.0


class Workload:
    """What the loop below asks of a workload; the defaults do nothing.

    A workload also defines ``name``, ``setup()``, ``begin(recorder)``,
    ``round(recorder, number, stop_at)``, ``settings()``,
    ``end_to_end(recorder, load_s)`` and ``per_layer(recorder, summary)``.
    """

    #: Wall of the load phase inside this set-up, where set-up has one.
    load_s: float | None = None

    def worker_pids(self) -> list[int]:
        """Live worker processes whose memory counts with ours."""
        return []

    def finish(self, recorder) -> None:
        """Measured operations that follow the rounds."""

    def verify(self, recorder) -> None:
        """Untimed checks against the oracle, after everything measured."""

    def rebook(self, budget: dict[str, float]) -> dict[str, float]:
        """Move time between layers of the budget; returns what moved."""
        return {}

    def close(self) -> None:
        """Release files and processes; called on every exit path."""


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    """Throughput, median and 95th percentile of per-query seconds."""
    ordered = sorted(latencies)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return {
        "queries_per_s": len(ordered) / sum(ordered),
        "query_p50_ms": statistics.median(ordered) * 1e3,
        "query_p95_ms": p95 * 1e3,
    }


def peak_rss_mb(worker_pids=()) -> float:
    """Peak resident set of this process plus the given live workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass  # the worker is gone; its peak went with it
    return kib / 1024.0


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Workers and the crash child are stopped by their workload's
    ``close``; any still alive here (a path out through an exception) is
    killed.  What is left then is multiprocessing's resource tracker,
    which shared-memory staging and the spawn context start behind the
    scenes and which otherwise outlives this process by a second or so.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # also reaps the finished
        child.kill()
        child.join()
    # Closing the tracker's pipe ends it once it has unlinked what is left;
    # _stop also waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(cls, seed: int, seconds: float, trace: bool, scale: dict,
                 scratch_root: str | None = None, spans_out: str | None = None):
    """Set up, measure, verify and tear down one workload.

    Returns ``(recorder, metrics, info)`` where ``metrics`` maps every
    metric the run produced to its value: the end-to-end set of an
    untraced run, the per-layer set of a traced one.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    recorder = Recorder(spans.Tracer() if trace else None)
    root = tempfile.mkdtemp(prefix="bench-", dir=scratch_root)
    workload = None
    setup_s, load_s = [], []

    def set_up(traced: bool = False):
        """A fresh instance, set up as one timed operation."""
        scratch = os.path.join(root, f"setup{len(setup_s)}")
        os.mkdir(scratch)
        fresh = cls(seed, scale, scratch)
        start = perf_counter()
        with recorder.section(1 if traced else 0):
            recorder.op("setup", fresh.setup)
        setup_s.append(perf_counter() - start)
        if fresh.load_s is not None:
            load_s.append(fresh.load_s)
        return fresh

    try:
        workload = set_up()
        workload.close()
        # The one that is measured, so the one worth tracing.
        workload = set_up(traced=True)
        if recorder.failed:
            raise RuntimeError("set-up failed:\n" + "\n".join(recorder.failures))

        workload.begin(recorder)
        minimum = 2 if trace else 1
        start = perf_counter()
        deadline = start + seconds
        number = 0
        while number < minimum or perf_counter() < deadline:
            with recorder.section(number):
                workload.round(
                    recorder, number, deadline if number >= minimum else None
                )
            number += 1
        workload.finish(recorder)
        timed_s = perf_counter() - start
        workload.verify(recorder)

        rss = peak_rss_mb(workload.worker_pids())
        info = {
            "workload": cls.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "rounds": number,
            "timed_phase_s": timed_s,
            "setup_runs_s": setup_s,
            "scale": scale,
            "settings": workload.settings(),
        }
        if trace:
            summary = recorder.tracer.summary()
            metrics = workload.per_layer(recorder, summary)
            timed = set(summary.op_count) - {"setup"}
            wall = summary.wall_s(timed)
            budget = summary.layer_self_s(timed)
            moved = workload.rebook(budget)
            for layer in spans.LAYERS:
                metrics[f"budget.{layer}"] = budget[layer] / wall if wall else 0.0
            metrics["bench.unattributed_share"] = (
                budget[spans.UNATTRIBUTED] / wall if wall else 0.0
            )
            metrics["bench.trace_overhead_share"] = recorder.trace_overhead_share()
            info["traced_wall_s"] = wall
            info["layer_self_s"] = budget
            # The same budget per operation kind, before any re-booking.
            info["by_kind"] = {
                kind: {
                    "ops": summary.op_count[kind],
                    "wall_s": summary.wall_s({kind}),
                    "layer_self_s": {
                        layer: seconds
                        for layer, seconds in summary.layer_self_s({kind}).items()
                        if seconds
                    },
                }
                for kind in sorted(summary.op_count)
            }
            info["rebooked_s"] = moved
            info["span_names"] = sorted(summary.span_names())
            info["spans"] = len(recorder.tracer.names)
            if spans_out:
                recorder.tracer.dump(spans_out)
        else:
            # The third set-up comes after the rounds: three in a row see
            # the same few seconds of a host whose speed drifts.
            workload.close()
            late = set_up()
            late.close()
            metrics = workload.end_to_end(recorder, load_s)
            metrics["setup_s"] = statistics.median(setup_s)
            metrics["peak_rss_mb"] = rss
        info["failures"] = recorder.failures[:20]
        return recorder, metrics, info
    finally:
        try:
            if workload is not None:
                workload.close()
        finally:
            stop_children()
            shutil.rmtree(root, ignore_errors=True)
