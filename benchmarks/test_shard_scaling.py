"""Shard-scaling throughput: serial scatter vs persistent shard workers.

Two sweeps over the same database and query stream, one per transport:

* ``serial`` — every shard's sub-search runs in process, one after the
  other.  It prices what partitioning alone costs (per-shard kernels
  over fewer rows, plus the merge) and is recorded for the trend, not
  gated.
* ``pool`` — the persistent :class:`~repro.cluster.ShardWorkerPool`:
  one warm worker per shard over shared memory, spawned once during the
  untimed build.  This is the architecture's acceptance bar: at the
  largest measured shard count the host has a core for — 4 shards on
  4 cores, 2 on 2 — pooled shards must beat the single-shard baseline
  (``speedup_vs_single_shard > 1.0``).  A one-core host records its
  entry (with the honest ``cpu_count``) and skips the gate with a
  reason, because shard parallelism cannot exceed the cores under it.

Results must stay bit-identical to the monolithic index at every shard
count and on both transports; exactness is asserted inside the
experiment.  Each sweep appends its own ``mode``-tagged entry to the
``BENCH_shards.json`` trend at the repo root.
"""

import json
import os

import numpy as np
import pytest

from _bench_io import REPO_ROOT, append_trend
from repro.compression import StorageBudget
from repro.evaluation import shard_scaling_experiment

BENCH_JSON = REPO_ROOT / "BENCH_shards.json"

K = 5
SHARD_COUNTS = (1, 2, 4)


def _record(result, matrix):
    return {
        "bench": "shard_scaling",
        "mode": result.mode,
        "database_size": result.database_size,
        "sequence_length": int(matrix.shape[1]),
        "queries": result.queries,
        "k": K,
        "backend": result.backend,
        "cpu_count": os.cpu_count(),
        "agreement": result.agreement,
        "rows": [
            {
                "shards": row.shards,
                "wall_seconds": round(row.wall_seconds, 4),
                "queries_per_second": round(row.queries_per_second, 2),
                "speedup_vs_single_shard": round(row.speedup, 2),
            }
            for row in result.rows
        ],
        "four_shard_speedup": round(result.row_for(4).speedup, 2),
    }


def test_shard_scaling_throughput(database_matrix, query_matrix, report):
    matrix = database_matrix[:4096]
    # Steady-state traffic, not a single probe: both transports are
    # measured over a real query stream, so the pool's per-request pipe
    # round-trips are priced honestly.
    queries = np.vstack([query_matrix] * 8)
    compressor = StorageBudget(16).compressor("best_min_error")
    common = dict(
        shard_counts=SHARD_COUNTS,
        k=K,
        backend="flat",
        repeats=2,
        compressor=compressor,
    )

    serial = shard_scaling_experiment(matrix, queries, **common)
    assert serial.agreement  # sharded == monolithic, bit for bit
    pooled = shard_scaling_experiment(
        matrix, queries, worker_pool=True, **common
    )
    assert pooled.agreement

    serial_entry = _record(serial, matrix)
    pool_entry = _record(pooled, matrix)
    append_trend(BENCH_JSON, serial_entry)
    append_trend(BENCH_JSON, pool_entry)

    report(
        serial.as_table(),
        pooled.as_table(),
        f"BENCH {json.dumps(serial_entry)}",
        f"BENCH {json.dumps(pool_entry)}",
    )

    assert len(matrix) == 2**12
    assert serial.row_for(1).speedup == 1.0
    assert pooled.row_for(1).speedup == 1.0

    # The acceptance bar: persistent workers must make N shards *win*
    # over 1, at the largest measured N the host has a core for.
    cpus = os.cpu_count() or 1
    gate_shards = max(count for count in SHARD_COUNTS if count <= cpus)
    if gate_shards == 1:
        pytest.skip(
            "pooled >1x gate needs >= 2 CPUs; host has 1 (entry "
            "recorded with honest cpu_count)"
        )
    assert pooled.row_for(gate_shards).speedup > 1.0
