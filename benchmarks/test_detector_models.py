"""Pluggable detector stack: per-model throughput, bulk seeding, the
online periodogram's push.

Kept beside ``bench/``: ``mine-detect`` never compares ``extend`` with
a push per day, and runs the online periodogram only inside its period
detector, at window 128.

Three questions this benchmark prices:

* **What does each burst backend cost?**  Batch ``detect`` throughput
  (days/second) for every registered model over the same bursty
  workload — the number an operator needs before switching the stream
  monitor from the default ``ma`` to Kleinberg's automaton (dynamic
  programming over states) or the elastic SWT.
* **What does bulk seeding save?**  A full-series add hands a whole
  history to ``OnlineDetector.extend``; for ``ma`` that is one
  vectorised pass against a push per day (same alerts, asserted here).
* **What does a day cost the online periodogram?**  Each push takes the
  exact ``rfft`` of the window; the microseconds per push at window 512
  go to the trend, and the last read is asserted bit-identical to the
  batch periodogram.

Acceptance bars (default scale; smoke scales record and skip):

* every model must clear a floor of 10k days/second batch detect
  throughput at the default workload;
* seeding an ``ma`` detector with ``extend`` must cost at most a third
  of pushing the same days (gated at every scale: the ratio is about
  11x at 128 days and 37x at 512, so the smoke scale can carry the
  gate).

Appends to the ``BENCH_detectors.json`` trend at the repo root.
``REPRO_DETECTOR_BENCH_SIZE`` (``"series,days"``) selects a smoke
scale for CI.
"""

import os
import time

import numpy as np

from _bench_io import REPO_ROOT, append_trend
from repro.bursts.models import ElasticModel
from repro.bursts.registry import available_burst_models, get_burst_model
from repro.evaluation import format_table
from repro.spectral.online import OnlinePeriodogram
from repro.spectral.periodogram import periodogram as batch_pgram

BENCH_JSON = REPO_ROOT / "BENCH_detectors.json"

#: Default workload: 64 series of 512 days; periodogram window 512.
DEFAULT_SIZE = (64, 512)
PGRAM_WINDOW = 512
PGRAM_DAYS = 8192

#: Workload override for CI smoke runs, as ``"series,days"``.
SIZE_ENV = "REPRO_DETECTOR_BENCH_SIZE"


def _workload_size():
    raw = os.environ.get(SIZE_ENV, "").strip()
    if not raw:
        return DEFAULT_SIZE
    series, days = (int(part) for part in raw.split(","))
    return series, days


def _workload(series, days, seed=17):
    """Poisson base load with injected multi-day bursts."""
    rng = np.random.default_rng(seed)
    values = rng.poisson(25.0, size=(series, days)).astype(np.float64)
    for row in values:
        bursts = rng.integers(1, 4)
        for _ in range(bursts):
            start = int(rng.integers(0, days - 20))
            row[start : start + int(rng.integers(5, 20))] += rng.poisson(
                80.0
            )
    return values


def _models(values):
    """Every registered model, elastic re-based to the raw-count scale."""
    mean_count = float(values.mean())
    models = {}
    for name in available_burst_models():
        if name == "elastic":
            models[name] = ElasticModel(offset=0.0, rate=2.0 * mean_count)
        else:
            models[name] = get_burst_model(name)
    return models


def test_detector_model_throughput(report):
    series, days = _workload_size()
    smoke = (series, days) != DEFAULT_SIZE
    values = _workload(series, days)
    total_days = series * days

    # ------------------------------------------------------------------
    # Batch detect throughput per registered model
    # ------------------------------------------------------------------
    model_rows = []
    model_stats = {}
    for name, model in _models(values).items():
        regions = 0
        start = time.perf_counter()
        for row in values:
            regions += len(model.detect(row))
        elapsed = time.perf_counter() - start
        rate = total_days / elapsed
        model_rows.append((name, elapsed, rate, regions))
        model_stats[name] = {
            "seconds": elapsed,
            "days_per_second": rate,
            "regions": regions,
        }

    def best_of(runner, repeats=3):
        """Best-of-N wall time: damps scheduler noise around the gate."""
        times, state = [], None
        for _ in range(repeats):
            start = time.perf_counter()
            state = runner()
            times.append(time.perf_counter() - start)
        return min(times), state

    # ------------------------------------------------------------------
    # Seeding the stream monitor's default model: extend vs push per day
    # ------------------------------------------------------------------
    ma = get_burst_model("ma")

    def run_seeded():
        return [ma.online().extend(row) for row in values]

    def run_pushed():
        alerts = []
        for row in values:
            detector = ma.online()
            alerts.append(
                [a for day, v in enumerate(row) for a in detector.push(day, v)]
            )
        return alerts

    seeded, seeded_alerts = best_of(run_seeded)
    pushed, pushed_alerts = best_of(run_pushed)
    assert seeded_alerts == pushed_alerts  # field for field, floats exact
    seed_speedup = pushed / seeded

    # ------------------------------------------------------------------
    # Online periodogram: one exact rfft of the window per push
    # ------------------------------------------------------------------
    pgram_days = PGRAM_DAYS if not smoke else max(4 * PGRAM_WINDOW, 1024)
    signal = _workload(1, pgram_days, seed=23)[0]

    def run_online():
        online = OnlinePeriodogram(PGRAM_WINDOW)
        for value in signal:
            online.push(value)
            _ = online.power  # what the period detector reads each day
        return online

    pgram_seconds, online = best_of(run_online)
    push_us = pgram_seconds / pgram_days * 1e6

    report(
        format_table(
            ["model", "seconds", "days/s", "regions"],
            model_rows,
            title=(
                f"batch detect throughput ({series} series x {days} days)"
            ),
        ),
        f"online periodogram, window {PGRAM_WINDOW}: {pgram_days} pushes "
        f"in {pgram_seconds:.3f} s ({push_us:.1f} us a push)",
        f"ma seeded by extend: {seeded / series * 1e3:.3f} ms a series, "
        f"pushed per day: {pushed / series * 1e3:.3f} ms "
        f"({seed_speedup:.2f}x)",
    )

    append_trend(
        BENCH_JSON,
        {
            "bench": "detector_models",
            "cpu_count": os.cpu_count(),
            "workload": {"series": series, "days": days},
            "models": model_stats,
            "ma_seed": {
                "seeded_seconds": seeded,
                "pushed_seconds": pushed,
                "speedup": seed_speedup,
            },
            "periodogram": {
                "window": PGRAM_WINDOW,
                "pushes": pgram_days,
                "seconds": pgram_seconds,
                "push_us": push_us,
            },
        },
    )

    # Correctness rides along at every scale: the last answer must be
    # bit-identical to the batch periodogram.
    np.testing.assert_array_equal(
        online.periodogram().power,
        batch_pgram(signal[-PGRAM_WINDOW:]).power,
    )

    assert seed_speedup >= 3.0, (
        f"seeding ma with extend must be >= 3x cheaper than pushing, "
        f"got {seed_speedup:.2f}x"
    )

    if smoke:
        return  # smoke scale: record the entry, skip the other gates

    for name, stats in model_stats.items():
        assert stats["days_per_second"] > 10_000, (
            f"{name} fell below the 10k days/s floor: "
            f"{stats['days_per_second']:.0f}"
        )
