#!/usr/bin/env python
"""Mining seasonal and news bursts across three years of query logs.

The scenario behind figs. 15, 16 and 19: a search-engine analyst loads the
2000-2002 logs and asks

* where are the long-term (seasonal) bursts of the holiday queries, and
  do moving feasts like Easter drift year to year?
* which queries burst *together* — i.e. which events co-occur?
* can short-term bursts isolate the lunar cycle of 'full moon'?

Everything runs on the relational burst store (B-tree indexed burst
triplets + the fig. 18 overlap plan).

Run:  python examples/holiday_burst_mining.py
"""

import datetime as dt

from repro import BurstDatabase, BurstDetector, QueryLogGenerator, compact_bursts
from repro.datagen import easter_date
from repro.tools import burst_chart


def main() -> None:
    print("=== generating 2000-2002 query logs (1096 days) ===\n")
    generator = QueryLogGenerator(seed=7, start=dt.date(2000, 1, 1), days=1096)
    collection = generator.catalog_collection()

    # ------------------------------------------------------------------
    # Easter drifts: the moving feast across three springs (fig. 15)
    # ------------------------------------------------------------------
    print("=== 'easter' bursts across three springs (fig. 15) ===")
    easter = collection["easter"]
    standardized = easter.standardize()
    annotation = BurstDetector.long_term().detect(standardized)
    print(burst_chart(easter, annotation.mask))
    for burst in compact_bursts(standardized, annotation):
        start = burst.start_date(easter.start)
        end = burst.end_date(easter.start)
        actual = easter_date(end.year)
        print(
            f"  burst {start} .. {end}  "
            f"(Easter {end.year} was {actual}; drop follows the feast)"
        )
    print()

    # ------------------------------------------------------------------
    # Compact burst triplets for 'flowers' (fig. 16)
    # ------------------------------------------------------------------
    print("=== compact burst triplets for 'flowers' (fig. 16) ===")
    flowers = collection["flowers"].standardize()
    annotation = BurstDetector.long_term().detect(flowers)
    print("  [sequenceID, startDate, endDate, avg] rows for the DBMS:")
    for burst in compact_bursts(flowers, annotation):
        print(
            f"  ['flowers', {burst.start_date(flowers.start)}, "
            f"{burst.end_date(flowers.start)}, {burst.average:+.2f}]"
        )
    print("  (expected: one burst near Valentine's Day, one near Mother's Day,"
          " per year)\n")

    # ------------------------------------------------------------------
    # Short-term bursts: the lunar cycle (fig. 16, bottom)
    # ------------------------------------------------------------------
    print("=== short-term bursts of 'full moon' (7-day MA) ===")
    moon = collection["full moon"].standardize()
    annotation = BurstDetector.short_term().detect(moon)
    bursts = compact_bursts(moon, annotation)
    print(f"  {len(bursts)} bursts over 36 months "
          f"(one per lunation would be ~37)")
    gaps = [
        later.start - earlier.start for earlier, later in zip(bursts, bursts[1:])
    ]
    if gaps:
        print(f"  median gap between bursts: {sorted(gaps)[len(gaps)//2]} days "
              f"(lunar month = 29.53)\n")

    # ------------------------------------------------------------------
    # Query-by-burst across the whole catalog (fig. 19)
    # ------------------------------------------------------------------
    print("=== query-by-burst over the full catalog (fig. 19) ===")
    burst_db = BurstDatabase()
    burst_db.add_collection(collection)
    print(f"  burst table holds {burst_db.row_count()} triplet rows, "
          f"sqlite-indexed on start\n")
    for query in ("world trade center", "hurricane", "christmas"):
        matches = burst_db.query(query, top=3)
        print(f"  query = {query}")
        for match in matches:
            print(f"    -> {match.name:<32s} BSim {match.similarity:6.2f}")
        print()


if __name__ == "__main__":
    main()
