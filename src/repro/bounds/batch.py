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
unit-stride memory whether the database was built in-process, sliced
for a shard, or loaded from disk.  Query-side tables live
in :class:`BatchBounds`; the terms that depend only on the database are
cached on it by :meth:`SketchDatabase.kernel_terms`, which asserts that
contract.  Every kernel starts from one shared pass (:meth:`BatchBounds._rows`)
and builds each envelope from one helper per term, so the sound default
``best_min_error_safe`` bounds its rows once.
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

    def bounds_sq(self, kernel, db: SketchDatabase):
        """``kernel``'s bounds on ``db``, squared and widened to hold the
        verifier's computed ``d²``, as ``RowCodes.bounds_sq`` does.

        The sums round against ``E``, the query's energy plus the row's
        ``norms_sq`` and ``errors``, with ``γ = (n + 16) u``; a square
        root near 0 turns ``γE`` into ``√(γE)``, so the term is ``8 √γ
        E``, and ``1 ∓ 4γ`` covers the verifier's own ``γₙ``.  Row-local.
        """
        lower, upper = kernel(self, db)
        gamma = (db.n + 16) * 2.0**-53
        energy = self.total_energy + db.norms_sq + np.fmax(db.errors, 0.0)
        err = 8.0 * np.sqrt(gamma) * energy
        lower_sq = np.fmax(lower * lower - err, 0.0) * (1.0 - 4 * gamma)
        return lower_sq, (upper * upper + err) * (1.0 + 4 * gamma)

    # ------------------------------------------------------------------
    # Shared row-wise pieces
    # ------------------------------------------------------------------
    def _rows(self, db: SketchDatabase, *, errors=False, min_powers=False):
        """The per-row pieces every kernel starts from.

        Returns the database's hoisted terms, the exact-part squared
        distances, the stored query magnitudes and the ``(rows, k)``
        scratch buffer that the squared terms of the envelopes reuse.
        """
        terms = db.kernel_terms()
        if errors and terms["errors_nan"]:
            raise CompressionError(
                f"method {db.method!r} sketches store no error term"
            )
        if min_powers and terms["min_powers_nan"]:
            raise CompressionError(
                f"method {db.method!r} sketches carry no minProperty"
            )
        db.check_query(self.query)
        diff = self.query.coefficients[db.positions]
        np.subtract(diff, db.coefficients, out=diff)
        sq = np.abs(diff)
        np.square(sq, out=sq)
        exact_sq = np.einsum("ij,ij->i", db.weights, sq)
        # Bitwise |q_sel|: Spectrum.magnitudes is np.abs(coefficients).
        q_sel_mags = self.query.magnitudes[db.positions]
        return terms, exact_sq, q_sel_mags, sq

    def _suffix_sums(self, terms):
        """Sums of w, w*mag, w*mag^2 over query coefficients with mag > m.

        The rows' minPowers are searched in their cached sorted order.
        """
        idx = np.empty(terms["min_order"].size, dtype=np.intp)
        idx[terms["min_order"]] = np.searchsorted(
            self._sorted_mags, terms["min_sorted"], side="right"
        )
        suffix_w = self._prefix_w[-1] - self._prefix_w[idx]
        suffix_wm = self._prefix_wm[-1] - self._prefix_wm[idx]
        suffix_wm2 = self._prefix_wm2[-1] - self._prefix_wm2[idx]
        prefix_wm2 = self._prefix_wm2[idx]
        return suffix_w, suffix_wm, suffix_wm2, prefix_wm2

    def _error_envelope(self, db, terms, exact_sq, q_sel_mags, sq):
        """BestError's LB/UB from the shared row pieces."""
        np.square(q_sel_mags, out=sq)
        stored_energy = np.einsum("ij,ij->i", db.weights, sq)
        q_err = np.sqrt(np.maximum(self.total_energy - stored_energy, 0.0))
        t_err = terms["sqrt_errors"]
        lower = np.sqrt(exact_sq + (q_err - t_err) ** 2)
        upper = np.sqrt(exact_sq + (q_err + t_err) ** 2)
        return lower, upper

    def _case1(self, db, terms, q_sel_mags, sq, suffix):
        """The minProperty's case-1 LB sum, its stored mask and weights."""
        m = db.min_powers
        m_col = terms["min_col"]
        suffix_w, suffix_wm, suffix_wm2, _ = suffix
        stored_case1 = q_sel_mags > m_col
        w_case1 = db.weights * stored_case1
        # Correction for the stored positions, which the full-query sums
        # wrongly include.
        np.subtract(q_sel_mags, m_col, out=sq)
        np.square(sq, out=sq)
        corr_lb = np.einsum("ij,ij->i", w_case1, sq)
        case1_lb = np.maximum(
            (suffix_wm2 - 2 * m * suffix_wm + terms["min_sq"] * suffix_w)
            - corr_lb,
            0.0,
        )
        return case1_lb, stored_case1, w_case1

    def _min_envelope(self, db, terms, exact_sq, q_sel_mags, sq):
        """BestMin's LB/UB from the shared row pieces."""
        suffix = self._suffix_sums(terms)
        case1_lb, _, _ = self._case1(db, terms, q_sel_mags, sq, suffix)
        # Upper bound: sum of w*(mag + m)^2 over the omitted coefficients.
        all_ub = (
            self._prefix_wm2[-1]
            + 2 * db.min_powers * self._prefix_wm[-1]
            + terms["min_sq"] * self._prefix_w[-1]
        )
        np.add(q_sel_mags, terms["min_col"], out=sq)
        np.square(sq, out=sq)
        corr_ub = np.einsum("ij,ij->i", db.weights, sq)
        upper_sq = np.maximum(all_ub - corr_ub, 0.0)
        return np.sqrt(exact_sq + case1_lb), np.sqrt(exact_sq + upper_sq)

    # ------------------------------------------------------------------
    # Method kernels
    # ------------------------------------------------------------------
    def gemini(self, db: SketchDatabase):
        """LB_GEMINI for every row; upper bounds are ``inf``."""
        _, exact_sq, _, _ = self._rows(db)
        lower = np.sqrt(np.maximum(exact_sq, 0.0))
        return lower, np.full(len(db), np.inf)

    def best_error(self, db: SketchDatabase):
        """LB/UB of BestError (or Wang on first-coefficient sketches)."""
        return self._error_envelope(db, *self._rows(db, errors=True))

    wang = best_error

    def best_min(self, db: SketchDatabase):
        """LB/UB of BestMin for every row."""
        return self._min_envelope(db, *self._rows(db, min_powers=True))

    def best_min_error(self, db: SketchDatabase):
        """LB/UB of the paper's BestMinError (see its soundness note)."""
        terms, exact_sq, q_sel_mags, sq = self._rows(
            db, errors=True, min_powers=True
        )
        suffix = self._suffix_sums(terms)
        case1_lb, stored_case1, w_case1 = self._case1(
            db, terms, q_sel_mags, sq, suffix
        )
        suffix_w, _, _, prefix_wm2 = suffix
        case1_w = np.maximum(suffix_w - w_case1.sum(axis=1), 0.0)
        np.square(q_sel_mags, out=sq)
        corr_case2 = np.einsum("ij,ij->i", db.weights * ~stored_case1, sq)
        q_unused = np.maximum(prefix_wm2 - corr_case2, 0.0)
        t_unused = np.maximum(db.errors - case1_w * terms["min_sq"], 0.0)
        lower = np.sqrt(
            exact_sq
            + case1_lb
            + (np.sqrt(q_unused) - np.sqrt(t_unused)) ** 2
        )
        upper = np.sqrt(
            exact_sq
            + case1_lb
            + (np.sqrt(q_unused) + terms["sqrt_errors"]) ** 2
        )
        return lower, upper

    def best_min_error_safe(self, db: SketchDatabase):
        """Sound envelope: max of BestMin/BestError LBs, min of UBs."""
        rows = self._rows(db, errors=True, min_powers=True)
        lb_min, ub_min = self._min_envelope(db, *rows)
        lb_err, ub_err = self._error_envelope(db, *rows)
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
    bodies, so every kernel counts as one call over ``len(db)`` pairs.
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
    return get_batch_kernel(method or db.method)(BatchBounds(query), db)
