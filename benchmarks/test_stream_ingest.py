"""Streaming ingest throughput: WAL appends, seal latency, recovery.

Kept beside ``bench/``: ``stream-rw`` never compares fsynced single
appends with ``append_many``, so only this gate prices the batch's
fsync amortisation.

The crash-safe streaming store (``repro.stream``) buys durability with
a write-ahead log in front of every mutation and a generational
manifest behind every seal.  This benchmark prices that machinery:

* single-series appends per second through the WAL, fsync **on** —
  the true durability price (one ``fsync(2)`` per append);
* batched ``append_many`` throughput (one WAL group, one fsync, per
  batch — the amortisation the fast-ingest path is built on);
* seal latency (live tier -> checksummed segment + manifest commit);
* recovery wall time for a directory with a sealed generation and a
  WAL tail, reopened at the constructor defaults (the restart-to-serving
  cost a default user pays, burst monitor on);
* compaction wall time over two overlapping generations.

Acceptance bar: batching must amortise the fsync — ``append_many``
must move rows at >= 3x the single-append rate at the default
workload (the whole point of grouped WAL writes).  Smoke scales
record their entry and skip the gate with a reason.  Correctness
rides along: recovered answers must be bit-identical to the
pre-shutdown ones.

Appends to the ``BENCH_stream.json`` trend at the repo root.
``REPRO_STREAM_BENCH_SIZE`` (``"rows,length"``) selects a smoke-scale
workload for CI.
"""

import json
import os
import time

import numpy as np
import pytest

from _bench_io import REPO_ROOT, append_trend
from repro.evaluation import format_table
from repro.stream import StreamStore

BENCH_JSON = REPO_ROOT / "BENCH_stream.json"

#: Default workload: 2048 series of 512 days (the gate scale).
DEFAULT_SIZE = (2048, 512)

#: Workload override for CI smoke runs, as ``"rows,length"``.
SIZE_ENV = "REPRO_STREAM_BENCH_SIZE"


def _workload_size():
    raw = os.environ.get(SIZE_ENV, "").strip()
    if not raw:
        return DEFAULT_SIZE
    rows, length = (int(part) for part in raw.split(","))
    return rows, length


def _answers(store, queries, k=5):
    return [
        frozenset(
            (n.name, round(n.distance, 12))
            for n in store.search(query, k)[0]
        )
        for query in queries
    ]


def test_stream_ingest_throughput(report, tmp_path):
    rows, length = _workload_size()
    rng = np.random.default_rng(29)
    counts = rng.poisson(40.0, size=(rows, length)).astype(np.float64)
    queries = [
        np.asarray(row, dtype=np.float64)
        for row in rng.normal(size=(4, length))
    ]
    half = rows // 2

    store = StreamStore(
        tmp_path / "stream", length, fsync=True, burst_window=None
    )

    # Single appends: one WAL group — and one fsync — per series.
    started = time.perf_counter()
    for i in range(half):
        store.append(f"q{i}", counts[i])
    single_wall = time.perf_counter() - started

    # Seal the first half into a segment.
    started = time.perf_counter()
    store.seal()
    seal_wall = time.perf_counter() - started

    # Batched appends: the second half as one WAL group, one fsync.
    batch = [(f"q{i}", counts[i]) for i in range(half, rows)]
    started = time.perf_counter()
    store.append_many(batch)
    batch_wall = time.perf_counter() - started

    before = _answers(store, queries)
    store.close()

    # Recovery: adopt the manifest, open the segment, replay the tail —
    # at the constructor defaults, so every replayed add also seeds its
    # burst detector.
    started = time.perf_counter()
    recovered = StreamStore(tmp_path / "stream", fsync=False)
    recover_wall = time.perf_counter() - started
    assert recovered.recovery.wal_records >= len(batch)
    assert _answers(recovered, queries) == before  # bit-identical

    # Compaction: second segment + supersede, then merge everything.
    recovered.seal()
    recovered.append("q0", counts[0])
    recovered.seal()
    started = time.perf_counter()
    recovered.compact()
    compact_wall = time.perf_counter() - started
    assert len(recovered.segment_files()) == 1
    recovered.close()

    single_rate = half / single_wall
    batch_rate = len(batch) / batch_wall
    record = {
        "bench": "stream_ingest",
        "fsync": True,
        "cpu_count": os.cpu_count(),
        "database_size": rows,
        "sequence_length": length,
        "single_appends_per_second": round(single_rate, 1),
        "batch_appends_per_second": round(batch_rate, 1),
        "batch_speedup": round(batch_rate / single_rate, 2),
        "seal_seconds": round(seal_wall, 4),
        "recover_seconds": round(recover_wall, 4),
        "recover_burst_monitor": recovered.monitor.model.name,
        "compact_seconds": round(compact_wall, 4),
        "wal_records_replayed": recovered.recovery.wal_records,
    }
    append_trend(BENCH_JSON, record)

    report(
        format_table(
            ("path", "wall s", "rows/s"),
            [
                ("single appends (WAL group each)", single_wall, single_rate),
                ("batched append_many (one group)", batch_wall, batch_rate),
                ("seal to segment", seal_wall, half / seal_wall),
                ("recovery (reopen)", recover_wall, rows / recover_wall),
                ("compaction", compact_wall, rows / compact_wall),
            ],
            title=(
                f"streaming ingest, {rows} series x {length} days, "
                f"fsync on"
            ),
            digits=3,
        ),
        f"BENCH {json.dumps(record)}",
    )

    if (rows, length) != DEFAULT_SIZE:
        pytest.skip(
            f"batch 3x gate applies at the default {DEFAULT_SIZE} workload; "
            f"ran smoke scale {rows}x{length} (entry recorded)"
        )
    assert record["batch_speedup"] >= 3.0
