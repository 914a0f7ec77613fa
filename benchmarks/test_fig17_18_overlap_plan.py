"""Figures 17 and 18: burst overlap geometry and the DBMS retrieval plan.

Fig. 17 defines overlap() for fully / partially / non-overlapping bursts;
fig. 18 retrieves overlapping bursts with

    SELECT * FROM bursts WHERE startDate < :q_end AND endDate > :q_start

through a B-tree index.  The benchmark loads a thousands-of-rows burst
table into ``BurstDatabase``'s sqlite schema, checks that every form of
the plan returns exactly the overlap-positive sequences, and times three
of them.

As written the plan bounds ``startDate`` on one side only, so the probe
walks every burst that starts before the query ends.  No stored burst is
longer than ``longest`` days (a running maximum in ``BurstDatabase``),
so an overlapping one starts at or after ``q_start - longest + 1``: a
second bound on the same column, and sqlite walks one two-sided range of
the ``start`` index.  The third form reads the whole table
(``NOT INDEXED``), and the indexed probe must beat it.
"""

from time import perf_counter

import numpy as np

from repro.bursts import Burst, BurstDatabase, overlap
from repro.bursts.query import OVERLAP_SQL
from repro.evaluation import format_table

ONE_SIDED_SQL = (
    "SELECT sequence FROM bursts INDEXED BY bursts_start"
    " WHERE start <= ? AND end >= ? AND window = ?"
)
SCAN_SQL = OVERLAP_SQL.replace("FROM bursts", "FROM bursts NOT INDEXED")


def random_bursts(count, horizon=1024, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        start = int(rng.integers(0, horizon - 2))
        end = int(min(start + rng.integers(1, 60), horizon - 1))
        rows.append((f"seq-{i}", start, end))
    return rows


def best_ms(runs, repeats=300):
    """Fastest of ``repeats`` calls of each run, in ms, taken in turn."""
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(repeats):
        for label, run in runs.items():
            began = perf_counter()
            run()
            best[label] = min(best[label], perf_counter() - began)
    return {label: seconds * 1e3 for label, seconds in best.items()}


def test_fig17_overlap_geometry(report, benchmark):
    full = (Burst(10, 20, 1.0), Burst(10, 20, 2.0))
    partial = (Burst(10, 20, 1.0), Burst(15, 30, 2.0))
    disjoint = (Burst(10, 20, 1.0), Burst(40, 50, 2.0))
    rows = [
        ("fully overlapping", overlap(*full)),
        ("partially overlapping", overlap(*partial)),
        ("no overlap", overlap(*disjoint)),
    ]
    report(format_table(("case", "overlap(A,B) days"), rows, title="fig 17"))
    assert overlap(*full) == 11
    assert overlap(*partial) == 6
    assert overlap(*disjoint) == 0

    benchmark(overlap, *partial)


def test_fig18_overlap_plan_correct_and_indexed(report, benchmark):
    rows = random_bursts(4000)
    db = BurstDatabase()
    window = db.windows[0]
    db.sql.executemany(
        "INSERT INTO bursts VALUES (?, ?, ?, ?)",
        [(name, window, start, end) for name, start, end in rows],
    )
    query = Burst(500, 540, 2.0)
    longest = max(end - start + 1 for _, start, end in rows)
    lowest = query.start - longest + 1
    bounded = (lowest, query.end, query.start, window)
    probes = {
        "indexed, two-sided start bound": (OVERLAP_SQL, bounded),
        "indexed, one-sided start bound": (
            ONE_SIDED_SQL,
            (query.end, query.start, window),
        ),
        "full scan (NOT INDEXED)": (SCAN_SQL, bounded),
    }
    truth = {
        name
        for name, start, end in rows
        if overlap(Burst(start, end, 0.0), query) > 0
    }

    def plan(sql, params):
        return [row[-1] for row in db.sql.execute("EXPLAIN QUERY PLAN " + sql, params)]

    def probe(sql, params):
        return {name for (name,) in db.sql.execute(sql, params)}

    for sql, params in probes.values():
        assert probe(sql, params) == truth
    index = "SEARCH bursts USING COVERING INDEX bursts_start"
    assert plan(*probes["indexed, two-sided start bound"]) == [
        f"{index} (start>? AND start<?)"
    ]
    assert plan(*probes["indexed, one-sided start bound"]) == [f"{index} (start<?)"]
    assert plan(*probes["full scan (NOT INDEXED)"]) == ["SCAN bursts"]

    # What each index probe walks: the rows in its ``start`` range.
    one_sided = sum(start <= query.end for _, start, _ in rows)
    two_sided = sum(lowest <= start <= query.end for _, start, _ in rows)
    ms = best_ms(
        {label: lambda form=form: probe(*form) for label, form in probes.items()}
    )
    assert (
        ms["indexed, two-sided start bound"] < ms["full scan (NOT INDEXED)"]
    ), ms

    report(
        format_table(
            ("quantity", "value"),
            [
                ("burst rows", len(rows)),
                ("sequences overlapping the query burst", len(truth)),
                ("longest stored burst (days)", longest),
                ("rows in the start range, one-sided", one_sided),
                ("rows in the start range, two-sided", two_sided),
                *((f"ms per probe, {label}", value) for label, value in ms.items()),
            ],
            digits=4,
        ),
        "fig 18: the sqlite plan returns exactly the overlap-positive rows",
    )

    benchmark(probe, *probes["indexed, two-sided start bound"])
