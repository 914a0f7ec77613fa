"""Ablation A8: the paper's burst detector vs its two cited baselines.

Section 6 claims the moving-average detector is (a) "simpler and less
computationally intensive" than Kleinberg's stream model [11] and (b)
needs "significantly less storage space" and "no custom index structure"
compared to Zhu & Shasha's elastic bursts [17].  This bench implements
both baselines and measures those claims on the synthetic query logs.
"""

import time

from repro.bursts import (
    BurstDetector,
    ElasticModel,
    KleinbergModel,
    compact_bursts,
)
from repro.evaluation import format_table


def _days(intervals):
    out = set()
    for start, end in intervals:
        out.update(range(start, end + 1))
    return out


def test_ablation_burst_baselines(catalog_2002, report, benchmark):
    names = ("halloween", "easter", "christmas", "thanksgiving")
    ma_detector = BurstDetector.long_term()
    kleinberg = KleinbergModel(gamma=1.0)
    elastic = ElasticModel(
        lambda w: 0.0 + 3.0 * w, lengths=(4, 8, 16, 32)
    )

    agreement_rows = []
    ma_seconds = kb_seconds = eb_seconds = 0.0
    triplet_rows = swt_cells = 0
    for name in names:
        series = catalog_2002[name]
        standardized = series.standardize()
        counts = series.values

        started = time.perf_counter()
        annotation = ma_detector.detect(standardized)
        ma_bursts = compact_bursts(standardized, annotation)
        ma_seconds += time.perf_counter() - started
        ma_days = _days([(b.start, b.end) for b in ma_bursts])

        started = time.perf_counter()
        kb_bursts = kleinberg.detect(counts)
        kb_seconds += time.perf_counter() - started
        kb_days = _days([(b.start, b.end) for b in kb_bursts])

        # Elastic thresholds in standardised units, shifted non-negative.
        shifted = standardized.values - standardized.values.min()
        offset = float(standardized.values.min())
        threshold = lambda w, off=offset: (0.8 - off) * w  # noqa: E731
        eb = ElasticModel(threshold, lengths=(4, 8, 16, 32))
        started = time.perf_counter()
        eb_bursts = eb.detect(shifted)
        eb_seconds += time.perf_counter() - started
        eb_days = _days([(b.start, b.end) for b in eb_bursts])

        triplet_rows += len(ma_bursts)
        swt_cells += elastic.storage_cells(counts)

        def jaccard(a, b):
            if not a and not b:
                return 1.0
            return len(a & b) / max(len(a | b), 1)

        agreement_rows.append(
            (
                name,
                len(ma_bursts),
                jaccard(ma_days, kb_days),
                jaccard(ma_days, eb_days),
            )
        )

    report(
        format_table(
            ("query", "MA bursts", "Jaccard vs Kleinberg", "Jaccard vs elastic"),
            agreement_rows,
            title="ablation A8a: do the three detectors agree on holiday bursts?",
        ),
        format_table(
            ("cost", "moving average", "Kleinberg", "elastic (SWT)"),
            [
                ("seconds for 4 series", ma_seconds, kb_seconds, eb_seconds),
                (
                    "state kept per series",
                    f"{triplet_rows / len(names):.1f} triplet rows",
                    "k-state DP table",
                    f"{swt_cells / len(names):.0f} SWT cells",
                ),
            ],
            title="ablation A8b: the paper's cost claims",
            digits=4,
        ),
    )

    # Agreement: every method flags the same holiday windows (majority
    # overlap with at least one baseline per series).
    for name, ma_count, vs_kb, vs_eb in agreement_rows:
        assert ma_count >= 1, name
        assert max(vs_kb, vs_eb) > 0.3, (name, vs_kb, vs_eb)
    # The storage claim: compact triplets are orders of magnitude smaller
    # than the SWT monitoring state.
    assert swt_cells > 20 * triplet_rows

    standardized = catalog_2002["halloween"].standardize()
    benchmark(ma_detector.detect, standardized)
