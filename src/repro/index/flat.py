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

from repro.bounds.batch import BatchBounds, get_batch_kernel
from repro.compression.best_k import BestMinErrorCompressor
from repro.compression.database import SketchDatabase
from repro.engine.core import (
    RANGE_SLACK,
    CandidateSet,
    candidates_from_bound_arrays,
    execute_knn,
    execute_range,
)
from repro.exceptions import SeriesMismatchError
from repro.index.results import Neighbor, SearchStats
from repro.spectral.dft import Spectrum
from repro.storage.pagestore import MemorySequenceStore

__all__ = ["FlatSketchIndex"]


class FlatSketchIndex:
    """k-NN and range search over a packed sketch database, no tree.

    Parameters mirror :class:`~repro.index.VPTreeIndex` (minus the
    tree-construction knobs).
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
    ) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise SeriesMismatchError(
                f"expected a 2-D database matrix, got shape {matrix.shape}"
            )
        if names is not None and len(names) != len(matrix):
            raise SeriesMismatchError("names must align with the matrix rows")
        self._names = tuple(names) if names is not None else None
        self._compressor = compressor or BestMinErrorCompressor(14)
        self.bound_method = bound_method or self._compressor.method
        self._kernel = get_batch_kernel(self.bound_method)
        self._store = store if store is not None else MemorySequenceStore(
            matrix.shape[1]
        )
        if len(self._store) == 0:
            self._store.append_matrix(matrix)
        if sketch_db is not None:
            # A prebuilt (possibly row-subset view) sketch database — the
            # shard builder compresses the full population once and hands
            # each shard its `take()` view instead of recompressing.
            if len(sketch_db) != len(matrix):
                raise SeriesMismatchError(
                    "sketch_db rows must align with the matrix rows"
                )
            self._sketch_db = sketch_db
        else:
            self._sketch_db = SketchDatabase.from_matrix(
                matrix, self._compressor
            )
        self._count = int(matrix.shape[0])
        self._n = int(matrix.shape[1])

    def __len__(self) -> int:
        return self._count

    @property
    def sequence_length(self) -> int:
        return self._n

    @property
    def store(self):
        return self._store

    def result_name(self, seq_id: int) -> str | None:
        return self._names[seq_id] if self._names is not None else None

    def fetch(self, seq_id: int) -> np.ndarray:
        return self._store.read(seq_id)

    def _bounds(self, query: np.ndarray):
        spectrum = Spectrum.from_series(query)
        return self._kernel(BatchBounds(spectrum), self._sketch_db)

    # ------------------------------------------------------------------
    # Candidate generation (the engine owns verification)
    # ------------------------------------------------------------------
    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        lower, upper = self._bounds(query)
        stats.bound_computations = len(self)
        return candidates_from_bound_arrays(lower, upper, k)

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        lower, _ = self._bounds(query)
        stats.bound_computations = len(self)
        survivor_ids = np.flatnonzero(lower <= radius + RANGE_SLACK)
        lb_sq = lower[survivor_ids] ** 2
        return CandidateSet(
            entries=list(zip(lb_sq.tolist(), survivor_ids.tolist())),
            generated=len(self),
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self, query, k: int = 1, policy=None
    ) -> tuple[list[Neighbor], SearchStats]:
        """The ``k`` nearest neighbours (exact under sound bounds)."""
        return execute_knn(self, query, k, policy)

    def range_search(
        self, query, radius: float, policy=None
    ) -> tuple[list[Neighbor], SearchStats]:
        """All sequences within ``radius`` of the query."""
        return execute_range(self, query, radius, policy)
