"""Per-query state of the trees' fig. 11 walk.

A tree query bounds every row with **one** pass of its bound source (a
sketch kernel widened by :meth:`~repro.bounds.batch.BatchBounds.bounds_sq`,
or :meth:`~repro.compression.codes.RowCodes.bounds_sq`) and walks its
nodes reading the bounds by sequence id.  Both sources give sound
squared bounds, on the right side of the verifier's computed ``d_sq``,
and both are row-independent — ``kernel(batch, db.take(rows))`` equals
``kernel(batch, db)[rows]`` bit for bit (``tests/bounds/test_batch.py``,
``tests/compression/test_code_kernel.py``) — so a bound read from the
full pass is the bound a node-local call would return.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.core import CandidateSet, SigmaTracker

__all__ = ["BoundedWalk", "code_margin"]


def code_margin(n: int) -> float:
    """A walk's relative margin on rows of length ``n``: ``4 (n + 16) u``
    covers a median's, a verified distance's and a ``sqrt``'s rounding."""
    return 4 * (n + 16) * 2.0**-53


class BoundedWalk:
    """One query's bounds, and the objects its walk has examined.

    Built from sound squared bounds, ``lower`` / ``upper`` are lists of
    their square roots as Python floats, indexed by sequence id.
    ``examined`` holds the id of every live object met, in visit order,
    and ``sigma`` the k-th smallest upper bound among them (``inf``
    until k are met, and throughout a range walk: ``k=None``).  A
    tombstoned object is counted in ``stats.bound_computations`` like
    any other — a deleted vantage point still routes by its bounds — but
    never enters ``examined`` or ``sigma``.

    Candidates keep their squared lower bounds as ``LB^2``.  The pruning
    rules scale bounds and medians by ``shrink, grow = 1 ∓ margin``
    (:func:`code_margin`), and a range walk keeps an object iff its
    ``sqrt(LB^2)`` is at most the radius: no absolute slack.
    """

    def __init__(
        self, lower_sq, upper_sq, margin, stats, k=None, deleted=frozenset()
    ) -> None:
        # An LB is never above its own UB, as in the flat filter
        # (:func:`~repro.engine.core.candidates_from_bound_arrays`).
        self._lower_sq = np.minimum(lower_sq, upper_sq)
        self._lower = np.sqrt(self._lower_sq)
        self.lower: list[float] = self._lower.tolist()
        self.upper: list[float] = np.sqrt(upper_sq).tolist()
        self.examined: list[int] = []
        self.sigma = math.inf
        self.stats = stats
        self.shrink, self.grow = 1.0 - margin, 1.0 + margin
        self._deleted = deleted
        self._tracker = SigmaTracker(k) if k is not None else None

    def examine(self, seq_ids) -> None:
        """Meet the compressed objects ``seq_ids`` (a list or tuple)."""
        self.stats.bound_computations += len(seq_ids)
        upper, deleted = self.upper, self._deleted
        examined, tracker = self.examined, self._tracker
        for seq_id in seq_ids:
            if seq_id in deleted:
                continue
            examined.append(seq_id)
            # Only an upper bound below sigma changes the k smallest.
            if tracker is not None and upper[seq_id] < self.sigma:
                tracker.offer(upper[seq_id])
                self.sigma = tracker.sigma()

    def knn_result(self) -> CandidateSet:
        """The examined objects that pass the SUB filter, ascending by
        ``(LB^2, seq_id)``."""
        sigma = self.sigma
        ids = np.array(self.examined, dtype=np.intp)
        ids = ids[self._lower[ids] <= sigma]
        return self._candidates(
            ids,
            generated=len(self.examined),
            sigma_sq=sigma * sigma,
            top_ubs=self._tracker.values(),
        )

    def range_result(self, radius: float) -> CandidateSet:
        """The examined objects whose LB is not above ``radius``,
        ascending by ``(LB^2, seq_id)``."""
        ids = np.array(self.examined, dtype=np.intp)
        return self._candidates(
            ids[~(self._lower[ids] > radius)], generated=None
        )

    def _candidates(self, ids, **fields) -> CandidateSet:
        lb_sq = self._lower_sq[ids]
        order = np.lexsort((ids, lb_sq))
        return CandidateSet.from_arrays(lb_sq[order], ids[order], **fields)
