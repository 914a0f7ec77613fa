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

``--bursts [MODEL]`` appends the pluggable-burst-model section: the
named backend's burstiness leaderboard over the catalog, plus the
cross-model agreement matrix with the worst-agreeing query per pair
(see :func:`repro.evaluation.bursts.burst_model_experiment`).
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
from repro.evaluation.bursts import burst_model_experiment
from repro.evaluation.pruning import pruning_power_experiment
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
    bursts: str | None = None,
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
    for name in _QUERY_BY_BURST:
        matches = burst_db.query(name, top=3)
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
            bursts=args.bursts,
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
