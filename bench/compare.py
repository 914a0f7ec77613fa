"""Compare two sets of benchmark runs: ``python3 bench/compare.py A B``.

``A`` and ``B`` are files written by ``run.py --out`` (one JSON line per
workload run; a set usually holds several seeds).  Per workload and
end-to-end metric this prints each side's median, its spread (distance
between the first and third quartile as a share of the median, over the
set's runs), the ratio B/A with A as the base, and a verdict against the
metric's bound in ``BENCHMARK.json``: ``worse`` when B's median is worse
than A's by more than the bound, ``better`` when it is better by more,
``within-bound`` otherwise.  With one file it prints medians and spreads
only, which is how a bound is checked against run-to-run spread.  Exits 1
when any pairing is ``worse`` or any run of either set had failed
operations.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced run records by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["info"]["trace"] == 0:
                runs.setdefault(record["info"]["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def verdict(base: float, other: float, better: str, bound: float) -> str:
    change = (other - base) / base if base else 0.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    return "better" if change > bound else "within-bound"


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) not in (1, 2):
        print(__doc__)
        return 2
    spec = load_spec()
    sets = [load_runs(path) for path in paths]
    failed = worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in runs for runs in sets):
            continue
        counts = "/".join(str(len(runs[workload])) for runs in sets)
        print(f"== {workload}  runs={counts}")
        failed += sum(r["failed"] for runs in sets for r in runs[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in runs[workload]] for runs in sets
            ]
            medians = [statistics.median(values) for values in sides]
            line = f"  {name:<18} {metric['unit']:<7}" + "".join(
                f" {m:>12.6g} (spread {spread(v):6.3f})" for m, v in zip(medians, sides)
            )
            if len(sets) == 2:
                outcome = verdict(*medians, metric["better"], metric["bound"])
                worse += outcome == "worse"
                ratio = medians[1] / medians[0] if medians[0] else float("nan")
                line += f"  B/A={ratio:6.3f} (base A)  bound {metric['bound']:.2f}  {outcome}"
            else:
                line += f"  bound {metric['bound']:.2f}"
            print(line)
    if failed:
        print(f"{failed} failed operations in the compared runs")
    return 1 if failed or worse else 0


if __name__ == "__main__":
    sys.exit(main())
