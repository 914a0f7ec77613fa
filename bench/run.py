"""The repo's one benchmark: ``python3 bench/run.py``.

    python3 bench/run.py --workload knn-flat-disk --seed 1 --seconds 14 --trace 0

runs one workload and prints every end-to-end metric by name with its
unit (``--trace 1``: every per-layer metric), then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Without ``--workload`` all five run in turn.  ``--out
FILE`` appends one JSON line per workload run (metrics plus settings,
sizes and run facts) for ``compare.py``; ``--check`` exits non-zero if
any operation failed or any metric is missing.  Metric names, units and
regression bounds are read from ``BENCHMARK.json``; README.md explains
the load model, the workloads and how to read a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FULL = {
    "knn-flat-disk": {"rows": 4096, "days": 512, "queries": 400},
    "knn-vptree-cached": {"rows": 1024, "days": 512, "queries": 400},
    "knn-sharded-pool": {"rows": 4096, "days": 512, "queries": 400, "batch": 25},
    "stream-rw": {
        "days": 256, "base_rows": 320, "load_batch": 64, "day_rows": 16,
        "day_events": 128, "day_searches": 8, "seal_every": 16,
        "crash_rows": 32, "recoveries": 2, "queries": 200,
    },
    "mine-detect": {
        "rows": 1024, "days": 512, "queries": 1200, "batch_series": 12,
        "online_series": 4, "kleinberg_days": 64, "round_queries": 100,
    },
}
SMOKE = {
    "knn-flat-disk": {"rows": 256, "days": 128, "queries": 40},
    "knn-vptree-cached": {"rows": 256, "days": 128, "queries": 40},
    "knn-sharded-pool": {"rows": 256, "days": 128, "queries": 40, "batch": 5},
    "stream-rw": {
        "days": 64, "base_rows": 64, "load_batch": 32, "day_rows": 4,
        "day_events": 16, "day_searches": 4, "seal_every": 2,
        "crash_rows": 8, "recoveries": 1, "queries": 40,
    },
    "mine-detect": {
        "rows": 64, "days": 128, "queries": 20, "batch_series": 2,
        "online_series": 1, "kleinberg_days": 32, "round_queries": 10,
    },
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_classes() -> dict:
    """Name -> class; importing them imports ``repro`` from ``src/``."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"bench: no repro package under {source}")
    if source not in sys.path:
        sys.path.insert(0, source)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from knn import KnnFlatDisk, KnnShardedPool, KnnVPTreeCached
    from mine import MineDetect
    from stream import StreamReadWrite

    classes = (KnnFlatDisk, KnnVPTreeCached, KnnShardedPool, StreamReadWrite, MineDetect)
    return {cls.name: cls for cls in classes}


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_one(name: str, args, spec: dict) -> dict:
    """One workload run, as the record ``--out`` stores."""
    from harness import run_workload

    scale = (SMOKE if args.smoke else FULL)[name]
    # Temporary files stay inside the checkout unless --scratch says where.
    scratch = args.scratch or os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    try:
        recorder, measured, info = run_workload(
            workload_classes()[name], args.seed, args.seconds, bool(args.trace),
            scale, scratch_root=scratch, spans_out=args.spans,
        )
    finally:
        if not args.scratch and not os.listdir(scratch):
            os.rmdir(scratch)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, missing = {}, []
    for entry in declared:
        value = measured.pop(entry["name"], None)
        if value is None:
            if not args.trace:
                missing.append(entry["name"])
            value = 0.0  # a layer this workload does not run
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    missing.extend(f"undeclared:{extra}" for extra in measured)
    return {
        "correct": recorder.failed == 0 and not missing,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": metrics,
        "missing": missing,
        "info": {**info, "host": host_facts()},
    }


def print_table(record: dict) -> None:
    info = record["info"]
    print(
        f"== {info['workload']}  seed={info['seed']}  trace={info['trace']}  "
        f"rounds={info['rounds']}  timed_phase={info['timed_phase_s']:.2f}s  "
        f"ops={record['attempted']}  failed={record['failed']}  "
        f"failed_ops_share={record['failed'] / record['attempted']:.6f}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for reason in info["failures"]:
        print(f"  FAILED {reason}")
    if record["missing"]:
        print(f"  MISSING {record['missing']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload name (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--out", help="append one JSON line per workload run")
    parser.add_argument("--spans", help="write the traced run's spans here")
    parser.add_argument("--scratch", help="directory for the run's temporary files")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if an operation failed or a metric is missing")
    args = parser.parse_args(argv)
    # A terminated run unwinds like any other, so its processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    record = None
    bad = False
    for name in names:
        record = run_one(name, args, spec)
        bad = bad or not record["correct"]
        print_table(record)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({key: record[key] for key in keys}))
    return 1 if args.check and bad else 0


if __name__ == "__main__":
    sys.exit(main())
