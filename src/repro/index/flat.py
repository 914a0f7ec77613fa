"""A flat (tree-less) index: the resident row codes are the filter.

The paper evaluates pruning power with an index-free protocol: bound the
query against *every* compressed object, discard those whose lower bound
exceeds the smallest upper bound, then verify the survivors in
increasing-lower-bound order with early termination.  This structure
runs that protocol on the compressed form that prunes best: the 8-bit
row codes (:class:`~repro.compression.codes.RowCodes`, the VA-file idea
that Hydra-1 treats as the filter an index must beat).  It hands the
engine every member at lower bound 0, and the engine's row-code stage
bounds them all in one exact integer kernel pass, keeps the members
whose code bound beats the k-th code upper bound (or the radius) and
verifies about k + 5 rows.  No sketch is built or bounded.

When to choose which:

* :class:`FlatSketchIndex` — minimal build (one quantisation pass), one
  byte per value resident, perfectly predictable performance: every
  object is bounded (vectorised), so cost is Θ(D·n) per query plus
  verification.
* :class:`~repro.index.VPTreeIndex` — the paper's index over
  best-coefficient sketches: a kernel pass over the sketches, then only
  the objects its walk reaches (the unit of fig. 23's cost model); costs
  a build pass and a Python walk per query.

The ablation benchmark compares them head to head.

Candidate generation here is trivial and verification runs in the shared
engine core (:mod:`repro.engine.core`), like every other structure.

Example
-------
A database member is its own nearest neighbour, and every object is
either pruned by the bounds or verified against the full sequence:

>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> matrix = rng.normal(size=(32, 64))
>>> index = FlatSketchIndex(matrix, names=[f"q{i}" for i in range(32)])
>>> neighbors, stats = index.search(matrix[7], k=1)
>>> neighbors[0].name
'q7'
>>> stats.candidates_pruned + stats.full_retrievals == len(index)
True
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compression.codes import RowCodes
from repro.engine.core import CandidateSet, population_candidates
from repro.index.base import CodedIndexBase, IndexBase
from repro.index.results import SearchStats

__all__ = ["FlatSketchIndex"]


class FlatSketchIndex(CodedIndexBase):
    """k-NN and range search over resident row codes, no tree.

    ``row_codes`` takes prebuilt codes — the shard builder quantises the
    full population once and hands each shard its ``take()`` view
    instead of recomputing.  ``sketch_db`` is accepted for the one
    caller that still passes it (the end-to-end benchmark's flat
    workload) and is unused: no sketch is built.
    """

    obs_name = "index.flat"

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        names: Sequence[str] | None = None,
        store=None,
        row_codes: RowCodes | None = None,
        sketch_db=None,
    ) -> None:
        super().__init__(matrix, names, store, row_codes)
        self._matrix = None  # the store holds the rows

    def insert(self, values, name: str | None = None) -> int:
        """Add a sequence to the store and its code to the filter;
        returns its sequence id."""
        return self._append(values, name)

    # ------------------------------------------------------------------
    # Candidate generation: everyone, bounded by the engine's code stage
    # ------------------------------------------------------------------
    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        stats.bound_computations += len(self)
        return population_candidates(len(self))

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        stats.bound_computations += len(self)
        return population_candidates(len(self))

    # ``bench/trace.py`` wraps only methods in a class's own ``__dict__``,
    # so the engine entry points are bound here by name.
    search = IndexBase.search
    range_search = IndexBase.range_search
