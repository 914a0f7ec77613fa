"""Ablation A11: the VP-tree vs the flat compressed protocol as an index.

Section 7.3's evaluation protocol, promoted to an index, against the
paper's VP-tree on identical sketches.  Both bound the query with one
fused sketch kernel pass; the flat protocol then *examines* every
object, the tree only those its fig. 11 walk reaches, and both hand
their survivors to the engine's row-code stage.  Two questions: how
much of the index's win comes from the bounds and how much from the
tree (objects examined, the paper's cost unit), and what the walk costs
in wall time beside flat.  The sweep answers the second part of ROADMAP
5.3: how much the tree prunes at each leaf size, with and without
guidance, for k = 1 and 10.

The library's :class:`~repro.index.FlatSketchIndex` no longer bounds
sketches: its row codes are the filter.  So the flat protocol runs here
as :class:`SketchFlat`, the same kernel, SUB filter and code stage the
flat index ran before, and the wall gate is held against it.  The
codes-only ``FlatSketchIndex`` is reported beside it, ungated, and so
is the default VP-tree, which walks on those codes: one code pass a
query, then only the nodes its walk reaches.  Its wall over the
codes-only flat's is the number that decides whether a tree serves.
"""

import gc
import time

import numpy as np

from repro.bounds import BatchBounds
from repro.compression import StorageBudget
from repro.engine.core import candidates_from_bound_arrays
from repro.evaluation import format_table
from repro.index import FlatSketchIndex, VPTreeIndex, distances_to_query
from repro.index.base import SketchIndexBase
from repro.spectral import Spectrum


class SketchFlat(SketchIndexBase):
    """Section 7.3's flat protocol: every sketch bounded, the SUB filter."""

    obs_name = "index.flat"

    def __init__(self, matrix, compressor) -> None:
        super().__init__(matrix, compressor)
        self._matrix = None  # the store holds the rows

    def knn_candidates(self, query, k, stats):
        spectrum = Spectrum.from_series(query)
        lower, upper = self._kernel(BatchBounds(spectrum), self._sketch_db)
        stats.bound_computations += len(self)
        return candidates_from_bound_arrays(lower, upper, k)


#: The tree may cost this many times flat's wall on the same queries.
WALL_RATIO_GATE = 2.5


def run_queries(index, queries, k):
    """Each counter summed over ``queries``, answers, and a second pass's wall."""
    fields = ("full_retrievals", "bound_computations", "nodes_visited",
              "subtrees_pruned")
    totals = dict.fromkeys(fields, 0)
    answers = []
    for query in queries:  # untimed: counters, answers, first-call costs
        hits, stats = index.search(query, k=k)
        answers.append([hit.distance for hit in hits])
        for field in fields:
            totals[field] += getattr(stats, field)
    # A full collection (40-60 ms) landing in a ~50 ms loop would swamp
    # the ratio: collect first, and keep the collector off while timing.
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for query in queries:
            index.search(query, k=k)
        wall = time.perf_counter() - started
    finally:
        gc.enable()
    return totals, wall, answers


def test_ablation_flat_vs_tree(database_matrix, query_matrix, report,
                               benchmark):
    matrix = database_matrix[:4096]
    queries = query_matrix[:10]
    compressor = StorageBudget(16).compressor("best_min_error")

    flat = SketchFlat(matrix, compressor)
    codes = FlatSketchIndex(matrix)
    tree = VPTreeIndex(matrix, compressor=compressor, seed=51)
    code_tree = VPTreeIndex(matrix, seed=51)

    work = {}
    for label, index in (("flat (bound everything)", flat),
                         ("vp-tree (prune subtrees)", tree),
                         ("flat over row codes (ungated)", codes),
                         ("vp-tree over row codes (ungated)", code_tree)):
        totals, wall, answers = run_queries(index, queries, 1)
        for query, answer in zip(queries, answers):
            truth = float(distances_to_query(matrix, query).min())
            assert abs(answer[0] - truth) < 1e-9, label
        work[label] = (
            totals["full_retrievals"], totals["bound_computations"],
            totals["nodes_visited"], wall,
        )

    flat_work = work["flat (bound everything)"]
    tree_work = work["vp-tree (prune subtrees)"]
    codes_wall = work["flat over row codes (ungated)"][3]
    report(
        format_table(
            ("index", "full retrievals/query", "objects examined/query",
             "nodes visited/query", "wall s", "wall / flat",
             "wall / codes flat"),
            [
                (label, retrievals / len(queries), bounds / len(queries),
                 nodes / len(queries), wall, wall / flat_work[3],
                 wall / codes_wall)
                for label, (retrievals, bounds, nodes, wall) in work.items()
            ],
            title="ablation A11: flat compressed protocol vs VP-tree (4096 seqs)",
            digits=2,
        ),
        "identical exact answers, one bound pass per query each; the "
        "sketch tree examines fewer objects (the paper's cost unit) than "
        "the sketch flat and pays a Python walk for it.  The last two "
        "rows bound with the row codes: the library's flat index, whose "
        "codes are the filter, and the default tree, which walks on "
        "them; no gate",
    )

    # The flat index bounds every object by construction.
    assert flat_work[1] == len(matrix) * len(queries)
    # The tree must skip a meaningful share of bound computations.
    assert tree_work[1] < flat_work[1]
    # Verification work is comparable (both driven by the same bounds);
    # the tree's SUB estimate is per-traversal so it can differ slightly.
    assert tree_work[0] <= flat_work[0] * 1.5 + 10
    # The walk may cost a small multiple of the flat pass, no more.
    assert tree_work[3] <= WALL_RATIO_GATE * flat_work[3]

    benchmark(flat.search, queries[0], 1)


def test_pruning_record(database_matrix, query_matrix, report):
    """What the tree prunes, by leaf size, visiting order and k, beside flat."""
    matrix = database_matrix[:4096]
    queries = query_matrix[:10]
    compressor = StorageBudget(16).compressor("best_min_error")

    flat = SketchFlat(matrix, compressor)
    flat_runs = {k: run_queries(flat, queries, k) for k in (1, 10)}

    rows = []
    for leaf_size in (4, 16, 64):
        for guided in (True, False):
            tree = VPTreeIndex(
                matrix, compressor=compressor, leaf_size=leaf_size,
                guided=guided, seed=51,
            )
            for k in (1, 10):
                totals, wall, answers = run_queries(tree, queries, k)
                flat_totals, flat_wall, flat_answers = flat_runs[k]
                np.testing.assert_allclose(answers, flat_answers, atol=1e-9)
                means = {f: total / len(queries) for f, total in totals.items()}
                rows.append((
                    leaf_size,
                    "guided" if guided else "fixed",
                    k,
                    means["nodes_visited"],
                    means["subtrees_pruned"],
                    means["bound_computations"],
                    means["bound_computations"] / len(matrix),
                    (len(matrix) - means["bound_computations"])
                    / max(means["subtrees_pruned"], 1e-9),
                    means["full_retrievals"],
                    flat_totals["full_retrievals"] / len(queries),
                    wall / flat_wall,
                ))

    report(
        format_table(
            ("leaf", "order", "k", "nodes visited", "subtrees pruned",
             "objects examined", "share of db", "objects / pruned subtree",
             "retrievals", "flat retrievals", "wall / flat"),
            rows,
            title="ablation A11 sweep: what the VP-tree prunes (4096 seqs, "
                  "10 queries, per query)",
            digits=2,
        )
    )
