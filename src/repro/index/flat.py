"""A flat (tree-less) compressed index — section 7.3's protocol as an API.

The paper evaluates pruning power with an index-free protocol: bound the
query against *every* compressed object, discard those whose lower bound
exceeds the smallest upper bound, then verify the survivors in
increasing-lower-bound order with early termination.  On modern
vector-friendly hardware that flat protocol is itself an excellent index
— one fused kernel call bounds the whole database — so this module
promotes it to a first-class structure with the same API as the VP-tree.

When to choose which:

* :class:`FlatSketchIndex` — minimal memory, no build cost beyond
  compression, perfectly predictable performance; bounds are computed for
  every object (vectorised), so cost is Θ(D·k) per query plus
  verification.
* :class:`~repro.index.VPTreeIndex` — the paper's index: after the same
  kernel pass it examines only the objects its walk reaches (the unit of
  fig. 23's cost model); costs a build pass and a Python walk per query.

The ablation benchmark compares them head to head.

This module only *generates* candidates (the vectorised bound pass and
SUB filter); exact verification runs in the shared engine core
(:mod:`repro.engine.core`), like every other structure.

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
from repro.compression.database import SketchDatabase
from repro.engine.core import (
    CandidateSet,
    candidates_from_bound_arrays,
    candidates_in_range,
)
from repro.index.base import IndexBase, SketchIndexBase
from repro.index.results import SearchStats

__all__ = ["FlatSketchIndex"]


class FlatSketchIndex(SketchIndexBase):
    """k-NN and range search over a packed sketch database, no tree.

    Parameters mirror :class:`~repro.index.VPTreeIndex` (minus the
    tree-construction knobs).  ``sketch_db`` takes a prebuilt sketch
    database and ``row_codes`` prebuilt row codes — the shard builder
    compresses and quantises the full population once and hands each
    shard its ``take()`` views instead of recomputing.
    """

    obs_name = "index.flat"

    def __init__(
        self,
        matrix: np.ndarray,
        compressor=None,
        names: Sequence[str] | None = None,
        store=None,
        bound_method: str | None = "best_min_error_safe",
        sketch_db: SketchDatabase | None = None,
        row_codes: RowCodes | None = None,
    ) -> None:
        super().__init__(
            matrix, compressor, names, store, bound_method, sketch_db,
            row_codes,
        )
        self._matrix = None  # the store holds the rows

    # ------------------------------------------------------------------
    # Candidate generation (the engine owns verification)
    # ------------------------------------------------------------------
    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        lower, upper = self._bounds(query)
        stats.bound_computations += len(self)
        return candidates_from_bound_arrays(lower, upper, k)

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        lower, _ = self._bounds(query)
        stats.bound_computations += len(self)
        return candidates_in_range(lower, radius)

    # ``bench/trace.py`` wraps only methods in a class's own ``__dict__``,
    # so the engine entry points are bound here by name.
    search = IndexBase.search
    range_search = IndexBase.range_search
