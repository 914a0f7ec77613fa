"""Per-query state of the sketch trees' fig. 11 walk.

A tree query bounds the whole sketch database with **one** kernel call
(:meth:`~repro.index.base.SketchIndexBase._bounds`) and walks its nodes
reading the bounds by sequence id.  Every batch kernel is
row-independent — ``kernel(batch, db.take(rows))`` equals
``kernel(batch, db)[rows]`` bit for bit (``tests/bounds/test_batch.py``)
— so a bound read from the full pass is the bound a node-local call
would return.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.core import CandidateSet, SigmaTracker

__all__ = ["BoundedWalk"]


class BoundedWalk:
    """One query's bounds, and the objects its walk has examined.

    Built from the kernel's two bound arrays, ``lower`` / ``upper`` are
    lists of Python floats indexed by sequence id.  ``examined`` holds
    the id of every live object met, in visit order, and
    ``sigma`` the k-th smallest upper bound among them
    (``inf`` until k are met, and throughout a range walk: ``k=None``).
    A tombstoned object is counted in ``stats.bound_computations`` like
    any other — a deleted vantage point still routes by its bounds — but
    never enters ``examined`` or ``sigma``.
    """

    def __init__(
        self, lower, upper, stats, k=None, deleted=frozenset()
    ) -> None:
        # An LB is never above its own UB, as in the flat filter
        # (:func:`~repro.engine.core.candidates_from_bound_arrays`).
        self._lower = np.minimum(lower, upper)
        self.lower: list[float] = self._lower.tolist()
        self.upper: list[float] = upper.tolist()
        self.examined: list[int] = []
        self.sigma = math.inf
        self.stats = stats
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
        lb = self._lower[ids]
        near = lb <= sigma
        lb, ids = lb[near], ids[near]
        lb_sq = lb * lb
        order = np.lexsort((ids, lb_sq))
        return CandidateSet.from_arrays(
            lb_sq[order],
            ids[order],
            generated=len(self.examined),
            sigma_sq=sigma * sigma,
            top_ubs=self._tracker.values(),
        )

    def range_result(self, bound: float) -> CandidateSet:
        """The examined objects whose LB is not above ``bound`` (the
        radius plus the range slack), ascending by ``(LB^2, seq_id)``."""
        ids = np.array(self.examined, dtype=np.intp)
        lb = self._lower[ids]
        near = ~(lb > bound)
        lb, ids = lb[near], ids[near]
        # libm's pow, the form ``lb ** 2`` takes on a Python float: an
        # array's ``** 2`` is an exact square, which differs from it in
        # the last bit for about one value in a thousand.
        lb_sq = np.float_power(lb, 2)
        order = np.lexsort((ids, lb_sq))
        return CandidateSet.from_arrays(
            lb_sq[order], ids[order], generated=None
        )
