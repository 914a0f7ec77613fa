"""Vectorised bound kernels over a whole :class:`SketchDatabase`.

The pruning-power experiment (fig. 22) computes lower and upper bounds
between each query and *every* object in databases of up to :math:`2^{15}`
sequences.  The scalar algorithms in this package are the readable
reference; these kernels produce bit-identical results (up to floating
point association) for the entire database in a handful of numpy
operations.

The trick for the ``minProperty`` methods: for a threshold ``m`` the sums

.. math::

    \\sum_{|Q_i| > m} w_i (|Q_i| - m)^2, \\quad
    \\sum_{|Q_i| > m} w_i, \\quad
    \\sum_{|Q_i| \\le m} w_i |Q_i|^2

over *all* query coefficients expand into polynomials of ``m`` whose
coefficients are prefix/suffix sums of the query magnitudes sorted once
per query.  Each database row then needs one ``searchsorted`` plus a
correction for its (few) stored positions, turning an
:math:`O(D \\cdot n)` computation into :math:`O(n \\log n + D \\cdot k)`.

The kernels lean on the database's canonical structure-of-arrays layout
(:meth:`SketchDatabase.soa_blocks`): every per-field block is one
contiguous array, so the gathers and einsum reductions below run over
unit-stride memory whether the database was built in-process, attached
from a shared-memory arena, or loaded from disk.  :meth:`_exact_and_stored`
asserts that contract once per evaluation.  Query-side tables live in
:class:`BatchBounds` and are database-independent — build one per query
and reuse it across shards or candidate blocks via :meth:`bounds_for`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.compression.database import SketchDatabase
from repro.exceptions import CompressionError
from repro.spectral.dft import Spectrum

__all__ = ["BatchBounds", "batch_bounds", "get_batch_kernel"]


class BatchBounds:
    """Precomputed query-side tables for batch bound evaluation."""

    def __init__(self, query: Spectrum) -> None:
        self.query = query
        mags = query.magnitudes
        weights = query.weights
        order = np.argsort(mags, kind="stable")
        self._sorted_mags = mags[order]
        w_sorted = weights[order]
        wm = w_sorted * self._sorted_mags
        wm2 = wm * self._sorted_mags
        # prefix[i] = sum over the i smallest magnitudes.
        self._prefix_w = np.concatenate(([0.0], np.cumsum(w_sorted)))
        self._prefix_wm = np.concatenate(([0.0], np.cumsum(wm)))
        self._prefix_wm2 = np.concatenate(([0.0], np.cumsum(wm2)))
        self.total_energy = float(self._prefix_wm2[-1])

    # ------------------------------------------------------------------
    # Shared row-wise pieces
    # ------------------------------------------------------------------
    def _exact_and_stored(self, db: SketchDatabase):
        """Exact-part distances plus stored query magnitudes/weights."""
        db.check_query(self.query)
        # The SoA contract: gathers and reductions below assume the
        # canonical contiguous field blocks (soa_blocks enforces and
        # caches contiguity, so repeat evaluations are free).
        db.soa_blocks()
        q_sel = self.query.coefficients[db.positions]
        exact_sq = np.einsum(
            "ij,ij->i", db.weights, np.abs(q_sel - db.coefficients) ** 2
        )
        q_sel_mags = np.abs(q_sel)
        return exact_sq, q_sel_mags

    def bounds_for(self, db: SketchDatabase, method: str | None = None):
        """Bound arrays for ``db`` using this query's precomputed tables.

        Equivalent to :func:`batch_bounds` but reusing the sort and
        prefix sums already paid for — the cheap entry point when one
        query is evaluated against many databases (shard fan-out,
        per-block bounding).
        """
        method = method or db.method
        try:
            kernel = _KERNELS[method]
        except KeyError:
            raise CompressionError(
                f"unknown bound method {method!r}"
            ) from None
        obs.add("bounds.kernel_calls")
        obs.add("bounds.pairs", len(db))
        return kernel(self, db)

    def _suffix_sums(self, thresholds: np.ndarray):
        """Sums of w, w*mag, w*mag^2 over query coefficients with mag > t."""
        idx = np.searchsorted(self._sorted_mags, thresholds, side="right")
        suffix_w = self._prefix_w[-1] - self._prefix_w[idx]
        suffix_wm = self._prefix_wm[-1] - self._prefix_wm[idx]
        suffix_wm2 = self._prefix_wm2[-1] - self._prefix_wm2[idx]
        prefix_wm2 = self._prefix_wm2[idx]
        return suffix_w, suffix_wm, suffix_wm2, prefix_wm2

    # ------------------------------------------------------------------
    # Method kernels
    # ------------------------------------------------------------------
    def gemini(self, db: SketchDatabase):
        """LB_GEMINI for every row; upper bounds are ``inf``."""
        exact_sq, _ = self._exact_and_stored(db)
        lower = np.sqrt(np.maximum(exact_sq, 0.0))
        return lower, np.full(len(db), np.inf)

    def best_error(self, db: SketchDatabase):
        """LB/UB of BestError (or Wang on first-coefficient sketches)."""
        if np.isnan(db.errors).any():
            raise CompressionError(
                f"method {db.method!r} sketches store no error term"
            )
        exact_sq, q_sel_mags = self._exact_and_stored(db)
        stored_energy = np.einsum("ij,ij->i", db.weights, q_sel_mags**2)
        q_err = np.sqrt(np.maximum(self.total_energy - stored_energy, 0.0))
        t_err = np.sqrt(db.errors)
        lower = np.sqrt(exact_sq + (q_err - t_err) ** 2)
        upper = np.sqrt(exact_sq + (q_err + t_err) ** 2)
        return lower, upper

    wang = best_error

    def _min_property_terms(self, db: SketchDatabase, q_sel_mags: np.ndarray):
        """Per-row case-1/case-2 sums over the omitted coefficients."""
        if np.isnan(db.min_powers).any():
            raise CompressionError(
                f"method {db.method!r} sketches carry no minProperty"
            )
        m = db.min_powers
        suffix_w, suffix_wm, suffix_wm2, prefix_wm2 = self._suffix_sums(m)

        stored_case1 = q_sel_mags > m[:, None]
        w_case1 = db.weights * stored_case1
        # Correction terms for the stored positions, which the full-query
        # sums wrongly include.
        corr_lb = np.einsum(
            "ij,ij->i", w_case1, (q_sel_mags - m[:, None]) ** 2
        )
        corr_w = w_case1.sum(axis=1)
        corr_case2 = np.einsum(
            "ij,ij->i", db.weights * ~stored_case1, q_sel_mags**2
        )

        case1_lb = np.maximum(
            (suffix_wm2 - 2 * m * suffix_wm + m**2 * suffix_w) - corr_lb, 0.0
        )
        case1_w = np.maximum(suffix_w - corr_w, 0.0)
        q_unused = np.maximum(prefix_wm2 - corr_case2, 0.0)
        return case1_lb, case1_w, q_unused

    def best_min(self, db: SketchDatabase):
        """LB/UB of BestMin for every row."""
        exact_sq, q_sel_mags = self._exact_and_stored(db)
        case1_lb, _, _ = self._min_property_terms(db, q_sel_mags)
        m = db.min_powers
        # Upper bound: sum of w*(mag + m)^2 over the omitted coefficients.
        all_ub = (
            self._prefix_wm2[-1]
            + 2 * m * self._prefix_wm[-1]
            + m**2 * self._prefix_w[-1]
        )
        corr_ub = np.einsum(
            "ij,ij->i", db.weights, (q_sel_mags + m[:, None]) ** 2
        )
        upper_sq = np.maximum(all_ub - corr_ub, 0.0)
        lower = np.sqrt(exact_sq + case1_lb)
        upper = np.sqrt(exact_sq + upper_sq)
        return lower, upper

    def best_min_error(self, db: SketchDatabase):
        """LB/UB of the paper's BestMinError (see its soundness note)."""
        if np.isnan(db.errors).any():
            raise CompressionError(
                f"method {db.method!r} sketches store no error term"
            )
        exact_sq, q_sel_mags = self._exact_and_stored(db)
        case1_lb, case1_w, q_unused = self._min_property_terms(db, q_sel_mags)
        t_unused = np.maximum(db.errors - case1_w * db.min_powers**2, 0.0)
        lower = np.sqrt(
            exact_sq
            + case1_lb
            + (np.sqrt(q_unused) - np.sqrt(t_unused)) ** 2
        )
        upper = np.sqrt(
            exact_sq
            + case1_lb
            + (np.sqrt(q_unused) + np.sqrt(db.errors)) ** 2
        )
        return lower, upper

    def best_min_error_safe(self, db: SketchDatabase):
        """Sound envelope: max of BestMin/BestError LBs, min of UBs."""
        lb_min, ub_min = self.best_min(db)
        lb_err, ub_err = self.best_error(db)
        return np.maximum(lb_min, lb_err), np.minimum(ub_min, ub_err)


_KERNELS = {
    "gemini": BatchBounds.gemini,
    "wang": BatchBounds.best_error,
    "best_error": BatchBounds.best_error,
    "best_min": BatchBounds.best_min,
    "best_min_error": BatchBounds.best_min_error,
    "adaptive_best_min_error": BatchBounds.best_min_error,
    "best_min_error_safe": BatchBounds.best_min_error_safe,
}


class _CountedKernel:
    """A kernel wrapper feeding the metrics layer on every invocation.

    Counting happens at the dispatch level, not inside the method
    bodies, so composite kernels (``best_min_error_safe`` runs two inner
    kernels) still count as one call over ``len(db)`` pairs.
    """

    __slots__ = ("method", "__wrapped__")

    def __init__(self, method: str) -> None:
        try:
            self.__wrapped__ = _KERNELS[method]
        except KeyError:
            raise CompressionError(
                f"unknown bound method {method!r}"
            ) from None
        self.method = method

    @property
    def __name__(self) -> str:
        return getattr(self.__wrapped__, "__name__", "kernel")

    def __call__(self, batch: BatchBounds, db: SketchDatabase):
        obs.add("bounds.kernel_calls")
        obs.add("bounds.pairs", len(db))
        return self.__wrapped__(batch, db)


def get_batch_kernel(method: str):
    """The counted batch kernel registered under ``method``."""
    return _CountedKernel(method)


def batch_bounds(
    query: Spectrum, db: SketchDatabase, method: str | None = None
):
    """Lower/upper bound arrays between ``query`` and every row of ``db``.

    ``method`` defaults to the database's own method tag; pass
    ``"best_min_error_safe"`` to evaluate the sound envelope on
    BestMinError-shaped sketches.
    """
    return BatchBounds(query).bounds_for(db, method)
