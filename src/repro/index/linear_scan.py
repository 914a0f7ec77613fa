"""Linear-scan nearest-neighbour search — the paper's baseline (fig. 23).

Scans every uncompressed sequence, with the early-abandoning optimisation
both contenders in the paper use.  When constructed over a sequence store,
every comparison first *reads* the sequence, charging the store's I/O
counters — which is how the fig. 23 experiment measures the scan's
dominant cost without 2004-era hardware.

The scan is the degenerate candidate generator of the shared engine
(:mod:`repro.engine.core`): every member is a candidate with a trivial
lower bound of zero, so the engine's verifier — the same loop every
index uses — retrieves and compares all of them.
"""

from __future__ import annotations

import numpy as np

from repro.engine.core import CandidateSet
from repro.index.base import IndexBase
from repro.index.results import SearchStats

__all__ = ["LinearScanIndex"]


class LinearScanIndex(IndexBase):
    """Brute-force k-NN and range search over uncompressed sequences.

    Parameters
    ----------
    matrix:
        The database as a ``(count, n)`` matrix.  Also used to size the
        result metadata when a store is supplied.
    names:
        Optional per-sequence names for the results.
    store:
        Optional sequence store (:class:`repro.storage.SequencePageStore`
        or :class:`repro.storage.MemorySequenceStore`).  When given, every
        comparison fetches the sequence through the store so its I/O is
        accounted; when omitted the matrix rows are used directly.
    """

    obs_name = "index.scan"

    # ------------------------------------------------------------------
    # Candidate generation (the engine owns verification)
    # ------------------------------------------------------------------
    def _all_candidates(self) -> CandidateSet:
        # Every member, trivially bounded from below by zero, in id order:
        # the verifier then scans them all with early abandoning.
        return CandidateSet.from_arrays(
            np.zeros(len(self)),
            np.arange(len(self), dtype=np.intp),
            generated=len(self),
        )

    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        return self._all_candidates()

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        return self._all_candidates()
