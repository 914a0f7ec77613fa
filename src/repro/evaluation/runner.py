"""One-shot experiment runner: ``python -m repro.evaluation``.

Regenerates the paper's headline quantitative results (figs. 20-23) plus
the figure-level qualitative ones (13, 14, 19) in a single consolidated
report, without pytest.  Useful for eyeballing a configuration before
committing to the full benchmark suite, and as the scripted entry point
for the experiment harness.

Example::

    python -m repro.evaluation --db-size 2048 --queries 20 --seed 11

``--obs`` appends the observability run summary (stage latencies, prune
ratios, I/O counters) to the report; ``--obs-json PATH`` additionally
writes the full metric/span record as JSON lines.

``--shards N`` appends the cluster scatter-gather section: the same
database behind an N-shard :class:`~repro.cluster.ShardRouter`, timed
against the unsharded index with bit-identical results asserted (see
:func:`repro.evaluation.sharding.shard_scaling_experiment`).

``--ingest`` appends the ingest-pipeline section: batched compression
and bulk store writes timed against the per-row reference, with
equivalence asserted (see
:func:`repro.evaluation.ingest.ingest_experiment`).

``--stream`` appends the streaming-lifecycle section: the same raw
counts ingested through a crash-safe
:class:`~repro.stream.StreamStore` (WAL-backed appends, a timed seal, a
mid-seal injected crash with bit-identical recovery asserted, and a
compaction), verified against an independent reference index (see
:func:`repro.evaluation.streaming.stream_experiment`).

``--approx`` appends the approximate-tier quality section: recall@k,
tightness and work saved for the documented default
:class:`~repro.engine.ApproxPolicy` knobs, measured per backend and per
shard count against the same configuration's exact answers (see
:func:`repro.evaluation.approx.approx_quality_experiment` and
``docs/APPROX.md``).

``--bursts [MODEL]`` appends the pluggable-burst-model section: the
named backend's burstiness leaderboard over the catalog, plus the
cross-model agreement matrix with the worst-agreeing query per pair
(see :func:`repro.evaluation.bursts.burst_model_experiment`).

``--faults [SEED]`` skips the report and runs the resilience drill
instead (see :func:`repro.evaluation.fault_drill.fault_drill`): every
index backend under seeded transient faults and permanent corruption,
plus write-path crash drills over the streaming store and an on-disk
CRC round trip.  Exit status reflects the drill verdict.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
import tempfile

from repro import obs
from repro.bursts.compaction import compact_bursts
from repro.bursts.detection import BurstDetector
from repro.bursts.query import BurstDatabase
from repro.compression.budget import StorageBudget
from repro.datagen.generator import QueryLogGenerator
from repro.evaluation.approx import approx_quality_experiment
from repro.evaluation.bursts import burst_model_experiment
from repro.evaluation.ingest import ingest_experiment
from repro.evaluation.pruning import pruning_power_experiment
from repro.evaluation.sharding import shard_scaling_experiment
from repro.evaluation.streaming import stream_experiment
from repro.evaluation.tightness import bound_tightness_experiment
from repro.evaluation.timing import index_vs_scan_experiment
from repro.periods.detector import PeriodDetector

__all__ = ["main", "run_report"]

_HEADLINE_PERIOD_QUERIES = ("cinema", "full moon", "nordstrom", "dudley moore")
_QUERY_BY_BURST = ("world trade center", "hurricane", "christmas")


def _section(title: str, out) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}", file=out)


def run_report(
    db_size: int = 1024,
    days: int = 512,
    queries: int = 15,
    pairs: int = 100,
    seed: int = 11,
    budgets: tuple[int, ...] = (8, 16, 32),
    shards: int | None = None,
    ingest: bool = False,
    stream: bool = False,
    bursts: str | None = None,
    approx: bool = False,
    out=None,
) -> None:
    """Run every experiment once and print the consolidated report."""
    out = out or sys.stdout
    budget_objects = [StorageBudget(c) for c in budgets]

    _section("workload", out)
    generator = QueryLogGenerator(seed=seed, days=days)
    database = generator.synthetic_database(db_size, include_catalog=True)
    matrix = database.standardize().as_matrix()
    query_matrix = (
        generator.queries_outside_database(queries).standardize().as_matrix()
    )
    print(
        f"database: {db_size} sequences x {days} days (catalog + synthetic "
        f"mixture), {queries} out-of-database queries, seed {seed}",
        file=out,
    )

    _section("figs 20/21 - bound tightness", out)
    for result in bound_tightness_experiment(
        matrix, budget_objects, pairs=pairs, seed=seed
    ):
        print(result.as_table(), file=out)
        print(
            f"BestMinError improvement: LB +{result.lb_improvement():.2f}%, "
            f"UB -{result.ub_improvement():.2f}% vs next best",
            file=out,
        )

    _section("fig 22 - pruning power (fraction of DB examined)", out)
    for result in pruning_power_experiment(matrix, query_matrix, budget_objects):
        print(result.as_table(), file=out)
        print(
            f"reduction vs next best: "
            f"{result.reduction_vs_next_best():.2f} percentage points",
            file=out,
        )

    _section("fig 23 - index vs linear scan", out)
    with tempfile.TemporaryDirectory() as tmp:
        timing = index_vs_scan_experiment(
            matrix,
            query_matrix,
            tmp,
            compressor=budget_objects[-1].compressor("best_min_error"),
            seed=seed,
        )
    print(timing.as_table(), file=out)
    print(
        f"modeled speedups: disk {timing.speedup_disk():.1f}x, "
        f"memory {timing.speedup_memory():.1f}x",
        file=out,
    )

    if ingest:
        _section("ingest pipeline - batch vs per-row build", out)
        with tempfile.TemporaryDirectory() as tmp:
            result = ingest_experiment(
                matrix,
                tmp,
                compressor=budget_objects[-1].compressor("best_min_error"),
            )
        print(result.as_table(), file=out)

    if stream:
        _section("streaming ingest - WAL, seal, crash recovery, compaction", out)
        with tempfile.TemporaryDirectory() as tmp:
            result = stream_experiment(
                database.as_matrix(),
                database.names,
                query_matrix,
                tmp,
                k=5,
            )
        print(result.as_table(), file=out)

    if shards is not None:
        _section(
            f"cluster - scatter-gather scaling (router over {shards} "
            f"shard{'s' if shards != 1 else ''})",
            out,
        )
        counts = (1, shards) if shards > 1 else (1,)
        scaling = shard_scaling_experiment(
            matrix,
            query_matrix,
            shard_counts=counts,
            k=5,
            backend="flat",
            compressor=budget_objects[-1].compressor("best_min_error"),
        )
        print(scaling.as_table(), file=out)
        print(
            "agreement with the unsharded index: "
            + ("bit-identical" if scaling.agreement else "MISMATCH"),
            file=out,
        )

    if approx:
        _section(
            "approximate tier - recall@k and tightness vs exact answers",
            out,
        )
        quality = approx_quality_experiment(
            matrix,
            query_matrix,
            k=min(10, db_size),
            shard_counts=(shards,) if shards else (2,),
            seed=seed,
        )
        print(quality.as_table(), file=out)
        print(
            f"worst recall@{quality.k} over all configurations: "
            f"{quality.worst_recall:.3f} "
            f"(epsilon-skip distance bound: {quality.guarantee_bound:g}x; "
            f"patience stops are heuristic — measured above)",
            file=out,
        )

    _section("fig 13 - significant periods (2002 catalog)", out)
    year = QueryLogGenerator(seed=0, start=_dt.date(2002, 1, 1), days=365)
    detector = PeriodDetector(interpolate=True)
    for name in _HEADLINE_PERIOD_QUERIES:
        found = detector.detect(year.series(name).standardize())
        periods = ", ".join(f"{p.period:.2f}d" for p in found.top(3)) or "none"
        print(f"  {name:<14s} -> {periods}", file=out)

    _section("figs 14/19 - bursts and query-by-burst (2000-2002 catalog)", out)
    span = QueryLogGenerator(seed=0, start=_dt.date(2000, 1, 1), days=1096)
    collection = span.catalog_collection()
    halloween = collection["halloween"].standardize()
    annotation = BurstDetector.long_term().detect(halloween)
    spans = ", ".join(
        f"{b.start_date(halloween.start)}..{b.end_date(halloween.start)}"
        for b in compact_bursts(halloween, annotation)
    )
    print(f"  halloween long-term bursts: {spans}", file=out)
    burst_db = BurstDatabase()
    burst_db.add_collection(collection)
    ranked = burst_db.query_many(_QUERY_BY_BURST, top=3)
    for name, matches in zip(_QUERY_BY_BURST, ranked):
        print(
            f"  {name:<20s} -> {', '.join(m.name for m in matches)}",
            file=out,
        )

    if bursts is not None:
        _section(
            f"pluggable burst models - {bursts!r} leaderboard and "
            f"cross-model agreement (2002 catalog)",
            out,
        )
        report = burst_model_experiment(
            year.catalog_collection(), model=bursts, top=10
        )
        print(report.as_table(), file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Run the paper's evaluation experiments once.",
    )
    parser.add_argument("--db-size", type=int, default=1024)
    parser.add_argument("--days", type=int, default=512)
    parser.add_argument("--queries", type=int, default=15)
    parser.add_argument("--pairs", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--budgets",
        type=int,
        nargs="+",
        default=(8, 16, 32),
        metavar="C",
        help="storage budgets as the paper's c in '2*(c)+1 doubles'",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="append the cluster scatter-gather scaling section, "
        "comparing an N-shard router against the unsharded index",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="append the ingest-pipeline section, timing batched "
        "compression and bulk store writes against the per-row "
        "reference (equivalence asserted)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="append the streaming-ingest section: WAL-backed appends, "
        "a timed seal, an injected mid-seal crash with bit-identical "
        "recovery asserted, and a compaction",
    )
    parser.add_argument(
        "--approx",
        action="store_true",
        help="append the approximate-tier quality section: recall@k, "
        "tightness and work saved at the default ApproxPolicy knobs, "
        "per backend and shard count, against exact answers",
    )
    parser.add_argument(
        "--bursts",
        nargs="?",
        const="ma",
        default=None,
        metavar="MODEL",
        help="append the pluggable-burst-model section: the MODEL "
        "leaderboard over the catalog (default 'ma') plus the "
        "cross-model agreement matrix",
    )
    parser.add_argument(
        "--faults",
        nargs="?",
        type=int,
        const=11,
        default=None,
        metavar="SEED",
        help="run the resilience fault drill (optionally seeded) instead "
        "of the evaluation report",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="collect metrics/spans and print the run summary",
    )
    parser.add_argument(
        "--obs-json",
        metavar="PATH",
        default=None,
        help="write the raw metric/span records as JSON lines (implies --obs)",
    )
    args = parser.parse_args(argv)

    if args.faults is not None:
        from repro.evaluation.fault_drill import fault_drill

        _section(f"resilience fault drill (seed {args.faults})", sys.stdout)
        return 0 if fault_drill(seed=args.faults) else 1

    watch = args.obs or args.obs_json is not None
    registry = obs.enable() if watch else None
    try:
        run_report(
            db_size=args.db_size,
            days=args.days,
            queries=args.queries,
            pairs=args.pairs,
            seed=args.seed,
            budgets=tuple(args.budgets),
            shards=args.shards,
            ingest=args.ingest,
            stream=args.stream,
            bursts=args.bursts,
            approx=args.approx,
        )
    finally:
        if watch:
            obs.disable()
    if registry is not None:
        _section("observability", sys.stdout)
        print(obs.render_report(registry))
        if args.obs_json is not None:
            obs.write_json_lines(registry, args.obs_json)
            print(f"observability records written to {args.obs_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
