"""Figures 17 and 18: burst overlap geometry and the DBMS retrieval plan.

Fig. 17 defines overlap() for fully / partially / non-overlapping bursts;
fig. 18 retrieves overlapping bursts with

    SELECT * FROM bursts WHERE startDate < :q_end AND endDate > :q_start

through a B-tree index.  The benchmark checks the plan returns exactly
the overlap-positive rows and times the indexed probe against a full
scan on a thousands-of-rows burst table.

It also counts what each form of the plan walks.  As written the plan
bounds ``startDate`` on one side only, so the probe examines every burst
that starts before the query ends.  No stored burst is longer than
``longest`` days (a check constraint or a column statistic in a DBMS; a
running maximum in ``BurstDatabase``), so an overlapping one starts at
or after ``q_start - longest + 1``: a second bound on the same column,
which ``Table.select`` merges into one B-tree range.
"""

import numpy as np

from repro.bursts import Burst, overlap
from repro.evaluation import format_table
from repro.storage import Table, ge, le


def build_burst_table(rows, index=True):
    table = Table("bursts", ["sequence", "start", "end", "avg"])
    if index:
        table.create_index("start")
        table.create_index("end")
    for row in rows:
        table.insert(*row)
    return table


def random_bursts(count, horizon=1024, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        start = int(rng.integers(0, horizon - 2))
        end = int(min(start + rng.integers(1, 60), horizon - 1))
        rows.append((f"seq-{i}", start, end, float(rng.normal(2, 0.5))))
    return rows


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
    indexed = build_burst_table(rows, index=True)
    scanned = build_burst_table(rows, index=False)
    query = Burst(500, 540, 2.0)

    predicates = [le("start", query.end), ge("end", query.start)]
    via_index = {r.row_id for r in indexed.select(predicates)}
    via_scan = {r.row_id for r in scanned.select(predicates)}
    assert via_index == via_scan
    assert indexed.index_probe_count >= 1
    assert scanned.scan_count >= 1

    # Ground truth from overlap geometry.
    truth = {
        i
        for i, (_, start, end, _) in enumerate(rows)
        if overlap(Burst(start, end, 0.0), query) > 0
    }
    assert via_index == truth

    # The same plan with the second bound on ``start``: same rows, and
    # the probe walks only the bursts that start inside the bounded range.
    one_sided = indexed.rows_examined
    longest = max(end - start + 1 for _, start, end, _ in rows)
    lowest = query.start - longest + 1
    via_bounded = {
        r.row_id for r in indexed.select([ge("start", lowest)] + predicates)
    }
    bounded = indexed.rows_examined - one_sided
    assert via_bounded == truth
    assert one_sided == sum(start <= query.end for _, start, _, _ in rows)
    assert bounded == sum(
        lowest <= start <= query.end for _, start, _, _ in rows
    )
    assert bounded <= one_sided

    report(
        format_table(
            ("quantity", "value"),
            [
                ("burst rows", len(rows)),
                ("rows overlapping the query burst", len(truth)),
                ("selectivity", len(truth) / len(rows)),
                ("longest stored burst (days)", longest),
                ("rows examined, one-sided plan", one_sided),
                ("rows examined, bounded plan", bounded),
                ("examined rows returned, one-sided", len(truth) / one_sided),
                ("examined rows returned, bounded", len(truth) / bounded),
            ],
            digits=4,
        ),
        "fig 18: the B-tree plan returns exactly the overlap-positive rows",
    )

    benchmark(indexed.select, predicates)
