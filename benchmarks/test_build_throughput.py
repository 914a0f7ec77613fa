"""Build/ingest throughput: the vectorised fast path vs the reference.

The fast-ingest acceptance bars, as a recorded benchmark:

* batch ingest (batched compression + bulk store write) is at least 5x
  the per-row reference on a 2^13 x 1024 matrix — the paper's database
  scale, where the Lernaean Hydra evaluations show build cost dominates;
* batch and scalar paths are bit-identical (asserted inside the
  experiment: sketch databases array-for-array, store files byte-for-
  byte).

Each leg is timed as a minimum over repeats (see ``ingest_experiment``)
and the store files live on tmpfs when the host has one, so the numbers
measure the encode paths rather than device writeback or scheduler
interference.

Results append to the ``BENCH_build.json`` trend at the repo root.  Set
``REPRO_BUILD_BENCH_SIZE=count,n`` for a smaller smoke configuration
(CI uses one); the 5x gate applies only at full scale, the smoke gate is
"batch is no slower than scalar".
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from _bench_io import REPO_ROOT, append_trend
from repro.evaluation import ingest_experiment

BENCH_JSON = REPO_ROOT / "BENCH_build.json"

FULL_COUNT, FULL_LENGTH = 2**13, 1024


def _configured_size() -> tuple[int, int]:
    raw = os.environ.get("REPRO_BUILD_BENCH_SIZE", "").strip()
    if not raw:
        return FULL_COUNT, FULL_LENGTH
    count, n = (int(part) for part in raw.split(","))
    return count, n


def _scratch_dir(tmp_path) -> str:
    """RAM-backed scratch when available, the pytest tmpdir otherwise.

    The store legs compare two *encode paths*; on a throughput-limited
    disk their wall time is dominated by device writeback instead, so
    the files go to tmpfs when the host has one.  The full matrix run
    needs about 1 GB of scratch.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK):
        return tempfile.mkdtemp(prefix="repro-bench-", dir=shm)
    return str(tmp_path)


def test_build_throughput(tmp_path, report):
    count, n = _configured_size()
    # Compression and page encoding are data-independent, so synthetic
    # gaussians measure the same work as catalog series at this shape.
    matrix = np.random.default_rng(0).normal(size=(count, n))

    scratch = _scratch_dir(tmp_path)
    try:
        result = ingest_experiment(matrix, scratch, repeats=3)
    finally:
        if scratch != str(tmp_path):
            shutil.rmtree(scratch, ignore_errors=True)
    assert result.equivalent  # bit-identity is part of the bar

    record = {
        "bench": "build_throughput",
        "database_size": count,
        "sequence_length": n,
        "cpu_count": os.cpu_count(),
        "timing": "min-of-3, cpu-time speedups",
        "compress_scalar_cpu_seconds": round(
            result.compress_scalar.cpu_seconds, 4
        ),
        "compress_batch_cpu_seconds": round(
            result.compress_batch.cpu_seconds, 4
        ),
        "store_scalar_cpu_seconds": round(result.store_scalar.cpu_seconds, 4),
        "store_bulk_cpu_seconds": round(result.store_bulk.cpu_seconds, 4),
        "compress_scalar_wall_seconds": round(
            result.compress_scalar.wall_seconds, 4
        ),
        "compress_batch_wall_seconds": round(
            result.compress_batch.wall_seconds, 4
        ),
        "store_scalar_wall_seconds": round(
            result.store_scalar.wall_seconds, 4
        ),
        "store_bulk_wall_seconds": round(result.store_bulk.wall_seconds, 4),
        "compress_speedup": round(result.compress_speedup, 2),
        "store_speedup": round(result.store_speedup, 2),
        "ingest_speedup": round(result.ingest_speedup, 2),
        "equivalent": result.equivalent,
    }
    append_trend(BENCH_JSON, record)
    report(result.as_table(), f"BENCH {json.dumps(record)}")

    if count >= FULL_COUNT and n >= FULL_LENGTH:
        # The full-scale acceptance bar.
        assert result.ingest_speedup >= 5.0
    else:
        # Smoke configurations only require "no slower than scalar".
        assert result.ingest_speedup >= 1.0
