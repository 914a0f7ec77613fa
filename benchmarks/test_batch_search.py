"""Batched search throughput: ``search_many`` vs a loop of ``search()``.

Kept beside ``bench/``: ``bench/`` never runs ``search_many`` on a
monolithic index, and a bound kernel over a block of queries
(ROADMAP.md) is judged by this serial leg.

Both paths run every query through the engine's one k-NN pipeline; the
batch path amortises validation and the obs span, and over a router on
the persistent :class:`~repro.cluster.ShardWorkerPool` it ships the
whole batch to one warm worker per shard.  The acceptance bar: pooled
``search_many`` delivers at least 1.5x the throughput of looping
single-query ``search()`` over the same 2^12-series database.  Results
must stay byte-identical across all three paths.

The measured configuration and speedups append to the ``BENCH_batch.json``
trend at the repo root (one timestamped entry per run).
"""

import gc
import json
import math
import os
import time

import numpy as np

from _bench_io import REPO_ROOT, append_trend
from repro.cluster import build_sharded
from repro.compression import StorageBudget
from repro.engine import get_index, search_many
from repro.evaluation import format_table

BENCH_JSON = REPO_ROOT / "BENCH_batch.json"

#: Alternated runs per leg; each leg's best counts.
REPEATS = 3


def timed(run):
    """``run()``'s wall clock and result, with the collector off."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        result = run()
        return time.perf_counter() - started, result
    finally:
        gc.enable()


def test_batch_search_throughput(database_matrix, query_matrix, report):
    matrix = database_matrix[:4096]
    # A production-sized query stream: throughput is measured over
    # enough queries to represent steady-state traffic, not a single
    # probe.
    queries = np.vstack([query_matrix] * 16)
    k = 5
    shards = max(2, os.cpu_count() or 1)
    compressor = StorageBudget(16).compressor("best_min_error")
    index = get_index("flat", matrix, compressor=compressor)

    # One warm worker per shard over the same matrix, started during the
    # untimed build.  Each leg's wall is the best of REPEATS alternated
    # runs with the collector off: steady-state throughput is what the
    # paths exist for, and one collection or one burst of other load on
    # the host should not decide the ratio.
    walls = dict.fromkeys(("singles", "serial", "pooled"), math.inf)
    results = {}
    with build_sharded(
        matrix,
        shards=shards,
        backend="flat",
        compressor=compressor,
        worker_pool=True,
    ) as router:
        legs = {
            "singles": lambda: [index.search(query, k=k) for query in queries],
            "serial": lambda: search_many(index, queries, k=k),
            "pooled": lambda: search_many(router, queries, k=k),
        }
        for _ in range(REPEATS):
            for leg, run in legs.items():
                wall, results[leg] = timed(run)
                walls[leg] = min(walls[leg], wall)
    singles, serial, pooled = results.values()
    single_wall, serial_wall, pooled_wall = walls.values()

    def as_pairs(results):
        return [[(h.distance, h.seq_id) for h in hits] for hits, _ in results]

    assert as_pairs(serial) == as_pairs(singles)
    assert as_pairs(pooled) == as_pairs(singles)

    record = {
        "bench": "batch_search",
        "database_size": len(matrix),
        "sequence_length": int(matrix.shape[1]),
        "queries": len(queries),
        "k": k,
        "transport": "pool",
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "single_search_seconds": round(single_wall, 4),
        "search_many_serial_seconds": round(serial_wall, 4),
        "search_many_pooled_seconds": round(pooled_wall, 4),
        "serial_speedup": round(single_wall / serial_wall, 2),
        "pooled_speedup": round(single_wall / pooled_wall, 2),
    }
    append_trend(BENCH_JSON, record)

    report(
        format_table(
            ("path", "wall s", "speedup vs singles"),
            [
                ("search() loop", single_wall, 1.0),
                ("search_many serial", serial_wall, record["serial_speedup"]),
                (
                    f"search_many pool ({shards} shards)",
                    pooled_wall,
                    record["pooled_speedup"],
                ),
            ],
            title=(
                f"batched search, {len(matrix)} seqs x "
                f"{matrix.shape[1]} days, {len(queries)} queries, k={k}"
            ),
            digits=3,
        ),
        f"BENCH {json.dumps(record)}",
    )

    # The engine acceptance bar: pooled batch beats the single-query
    # loop by 1.5x on a 2^12-series database.
    assert len(matrix) == 2**12
    assert record["pooled_speedup"] >= 1.5
