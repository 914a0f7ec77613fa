"""Figure 19: three 'query-by-burst' showcases.

The paper's results over the 2000-2002 logs:

* 'world trade center' -> 'pentagon attack', 'nostradamus prediction'
* 'hurricane'          -> 'www.nhc.noaa.gov', 'tropical storm'
* 'christmas'          -> 'gingerbread men', 'rudolph the red nosed reindeer'

The benchmark loads every catalog series into the relational burst
database and asserts the expected co-bursting queries rank at the top.
"""

import pytest

from repro.bursts import BurstDatabase
from repro.evaluation import format_table

EXPECTED = {
    "world trade center": {"pentagon attack", "nostradamus prediction"},
    "hurricane": {"www.nhc.noaa.gov", "tropical storm"},
    "christmas": {
        "gingerbread men",
        "rudolph the red nosed reindeer",
        "christmas gifts",
    },
}


@pytest.fixture(scope="module")
def burst_db(catalog_2000_2002):
    db = BurstDatabase()
    db.add_collection(catalog_2000_2002)
    return db


def test_fig19_query_by_burst_matches(burst_db, report, benchmark):
    rows = []
    for query, expected in EXPECTED.items():
        matches = burst_db.query(query, top=4)
        names = [m.name for m in matches]
        rows.append((query, ", ".join(names[:3])))
        found = expected & set(names)
        assert len(found) >= 2, (
            f"{query}: expected at least two of {sorted(expected)} in the "
            f"top-4, got {names}"
        )
    report(
        format_table(
            ("query", "top co-bursting queries"),
            rows,
            title="fig 19: query-by-burst over the 2000-2002 catalog",
        ),
        f"burst table: {burst_db.row_count()} triplet rows, "
        "sqlite index on start",
    )

    benchmark(burst_db.query, "christmas", 4)


def test_fig19_ranking_quality(burst_db, benchmark):
    """The single best match for each showcase is the paper's headliner."""
    top_wtc = burst_db.query("world trade center", top=10)
    # 'news' also carries the September 2001 shock by construction; the
    # paper's two headline matches must still rank in the top three.
    top3 = {m.name for m in top_wtc[:3]}
    assert "pentagon attack" in top3

    top_hurricane = [m.name for m in burst_db.query("hurricane", top=2)]
    assert top_hurricane[0] in ("www.nhc.noaa.gov", "tropical storm")

    benchmark(burst_db.query, "hurricane", 4)
