#!/usr/bin/env python
"""Face-off: the paper's methods against every baseline it cites.

Section 4 justifies the compressed VP-tree against the R*-tree-backed
GEMINI pipeline and the M-tree; section 6 positions the moving-average
burst detector against Kleinberg's automaton and Zhu & Shasha's elastic
bursts.  All of those baselines are implemented in this library, so the
comparisons are one script away:

1. three exact 1-NN indexes answer the same queries; we count how many
   full sequences each must touch;
2. three burst detectors process the same holiday series; we compare
   what they flag, how long they take and what state they keep.

Run:  python examples/baseline_faceoff.py
"""

import time

from repro import QueryLogGenerator, StorageBudget, get_index
from repro.bursts import (
    BurstDetector,
    ElasticModel,
    KleinbergModel,
    compact_bursts,
)
from repro.index import distances_to_query


def index_faceoff() -> None:
    print("=== 1-NN index face-off (1024 sequences, 8 queries) ===")
    generator = QueryLogGenerator(seed=11, days=512)
    matrix = generator.synthetic_database(1024).standardize().as_matrix()
    queries = generator.queries_outside_database(8).standardize().as_matrix()
    budget = StorageBudget(16)

    contenders = {
        "vp-tree over best-coefficient sketches (the paper)": get_index(
            "vptree",
            matrix,
            compressor=budget.compressor("best_min_error"),
            seed=1,
        ),
        "gemini r-tree over first-coefficient features": get_index(
            "rtree", matrix, k=budget.first_k
        ),
        "m-tree over uncompressed sequences": get_index(
            "mtree", matrix, capacity=16
        ),
    }
    for label, index in contenders.items():
        touches = 0
        started = time.perf_counter()
        for query in queries:
            hits, stats = index.search(query, k=1)
            truth = float(distances_to_query(matrix, query).min())
            assert abs(hits[0].distance - truth) < 1e-9  # all exact
            touches += getattr(
                stats, "full_retrievals", getattr(stats, "distance_computations", 0)
            )
        elapsed = time.perf_counter() - started
        print(
            f"  {label}\n"
            f"    full sequences touched per query: {touches / len(queries):7.1f}"
            f"   ({100 * touches / (len(queries) * len(matrix)):.1f}% of DB, "
            f"{elapsed:.2f}s wall)"
        )
    print()


def burst_faceoff() -> None:
    print("=== burst detector face-off ('halloween', 2002) ===")
    series = QueryLogGenerator(seed=0).series("halloween")
    standardized = series.standardize()

    started = time.perf_counter()
    annotation = BurstDetector.long_term().detect(standardized)
    ma_bursts = compact_bursts(standardized, annotation)
    ma_time = time.perf_counter() - started
    print(f"  moving average (paper): {ma_time * 1000:.2f} ms")
    for burst in ma_bursts:
        print(
            f"    burst {burst.start_date(series.start)} .. "
            f"{burst.end_date(series.start)} -> one triplet row"
        )

    started = time.perf_counter()
    kleinberg = KleinbergModel().detect(series.values)
    kb_time = time.perf_counter() - started
    print(f"  kleinberg automaton [11]: {kb_time * 1000:.2f} ms")
    for burst in kleinberg:
        print(
            f"    burst days {burst.start}..{burst.end} "
            f"(state level {burst.level})"
        )

    shifted = standardized.values - standardized.values.min()
    offset = float(standardized.values.min())
    elastic = ElasticModel(
        lambda w: (0.8 - offset) * w, lengths=(4, 8, 16, 32)
    )
    started = time.perf_counter()
    windows = elastic.detect(shifted)
    eb_time = time.perf_counter() - started
    cells = elastic.storage_cells(series.values)
    print(
        f"  elastic bursts (SWT) [17]: {eb_time * 1000:.2f} ms, "
        f"{len(windows)} qualifying windows, {cells} monitoring cells"
    )
    if windows:
        widest = max(windows, key=len)
        print(
            f"    e.g. window days {widest.start}..{widest.end} "
            f"(sum {widest.weight:.1f})"
        )
    print(
        f"\n  the paper's claims in numbers: MA is "
        f"{kb_time / max(ma_time, 1e-9):.0f}x faster than Kleinberg and "
        f"stores {len(ma_bursts)} triplet(s) against {cells} SWT cells"
    )


def main() -> None:
    index_faceoff()
    burst_faceoff()


if __name__ == "__main__":
    main()
