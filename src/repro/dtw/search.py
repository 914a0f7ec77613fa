"""Cascaded k-NN search under DTW.

The standard lower-bound cascade the paper's section 8 gestures at:

1. **LB_Kim** (O(1)) filters candidates whose endpoints already put them
   beyond the best-so-far match;
2. **LB_Keogh** (O(n), vectorised over the whole database) filters most
   of the rest;
3. only the survivors pay for a full banded DTW, itself early-abandoned
   against the current k-th best distance.

Candidates are visited in increasing-LB_Keogh order, mirroring the
increasing-LB verification the Euclidean index uses.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dtw.bounds import WarpingEnvelope, lb_kim
from repro.dtw.distance import dtw_distance, resolve_band
from repro.exceptions import SeriesMismatchError
from repro.index.base import as_database
from repro.index.results import Neighbor
from repro.timeseries.preprocessing import as_float_array

__all__ = ["DTWSearchStats", "DTWSearch"]


@dataclass
class DTWSearchStats:
    """How much work one DTW query cost."""

    candidates: int = 0
    pruned_by_kim: int = 0
    pruned_by_keogh: int = 0
    dtw_computations: int = 0
    dtw_abandoned: int = 0

    @property
    def dtw_fraction(self) -> float:
        """Fraction of the database that paid for a full DTW."""
        if self.candidates == 0:
            return 0.0
        return self.dtw_computations / self.candidates


class DTWSearch:
    """k-NN under banded DTW with a lower-bound cascade.

    Parameters
    ----------
    matrix:
        Database as a ``(count, n)`` matrix (standardised, typically).
    band:
        Sakoe-Chiba radius (absolute int or fractional float); the same
        band governs the envelopes and the DTW computations, keeping the
        bounds exact.
    names:
        Optional per-sequence names for the results.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        band: int | float | None = 0.1,
        names: Sequence[str] | None = None,
    ) -> None:
        self._matrix, self._names = as_database(matrix, names)
        self.band = resolve_band(self._matrix.shape[1], band)
        # Precompute every candidate's envelope once (index-build time).
        envelopes = [
            WarpingEnvelope.of(row, self.band) for row in self._matrix
        ]
        self._upper = np.stack([e.upper for e in envelopes])
        self._lower = np.stack([e.lower for e in envelopes])

    def __len__(self) -> int:
        return int(self._matrix.shape[0])

    def _name(self, seq_id: int) -> str | None:
        return self._names[seq_id] if self._names is not None else None

    def _keogh_all(self, query: np.ndarray) -> np.ndarray:
        """Vectorised LB_Keogh against every database row."""
        above = np.maximum(query - self._upper, 0.0)
        below = np.maximum(self._lower - query, 0.0)
        return np.sqrt(
            np.einsum("ij,ij->i", above, above)
            + np.einsum("ij,ij->i", below, below)
        )

    def search(
        self, query, k: int = 1
    ) -> tuple[list[Neighbor], DTWSearchStats]:
        """The ``k`` DTW-nearest neighbours of ``query``."""
        query = as_float_array(query)
        if query.size != self._matrix.shape[1]:
            raise SeriesMismatchError(
                f"query length {query.size} does not match database "
                f"sequences of length {self._matrix.shape[1]}"
            )
        if not 1 <= k <= len(self):
            raise ValueError(f"k must be in [1, {len(self)}], got {k}")

        stats = DTWSearchStats(candidates=len(self))
        keogh = self._keogh_all(query)
        order = np.argsort(keogh, kind="stable")

        best: list[tuple[float, int]] = []  # max-heap of (-distance, id)
        cutoff = math.inf
        for seq_id in order:
            lower = float(keogh[seq_id])
            if len(best) == k and lower > cutoff:
                stats.pruned_by_keogh += 1
                # Everything after this point has an even larger LB.
                remaining = len(self) - stats.pruned_by_kim
                remaining -= stats.pruned_by_keogh + stats.dtw_computations
                stats.pruned_by_keogh += remaining
                break
            candidate = self._matrix[seq_id]
            if len(best) == k and lb_kim(query, candidate) > cutoff:
                stats.pruned_by_kim += 1
                continue
            distance = dtw_distance(query, candidate, self.band, cutoff)
            stats.dtw_computations += 1
            if distance == math.inf:
                stats.dtw_abandoned += 1
                continue
            heapq.heappush(best, (-distance, int(seq_id)))
            if len(best) > k:
                heapq.heappop(best)
            if len(best) == k:
                cutoff = -best[0][0]

        neighbors = sorted(
            Neighbor(-neg, seq_id, self._name(seq_id)) for neg, seq_id in best
        )
        return neighbors, stats
