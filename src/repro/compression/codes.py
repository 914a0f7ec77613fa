"""Eight-bit row codes: a resident, coarse copy of every raw row.

The paper's fig. 23 setting keeps the compressed features in memory and
the raw rows on disk.  A few-coefficient sketch cannot bound a query
against a row whose spectrum is flat, so on an aperiodic query most of
the database survives the sketch filter and must be read.  The classic
remedy, the VA-file (Weber et al.; evaluated in Hydra-1), scans a
coarsely quantised *full-dimensional* approximation before any raw row
is read.  :class:`RowCodes` is that approximation, per row:

* ``lo`` — the row's minimum, and ``step = (max - min) / 255``;
* one ``uint8`` code per value, ``x̂_j = lo + step * code_j`` being the
  value rounded to the nearest of 256 levels;
* ``norms_sq = ‖x̂‖²``.

That is ``n`` bytes per row (1/8 of the float64 rows) plus three
doubles.  :meth:`RowCodes.bounds_sq` turns them into rigorous lower and
upper bounds of the squared distance to a query: by the triangle
inequality ``|d(x, q) - ‖x̂ - q‖| <= ‖x - x̂‖``, and every coordinate is
off by at most ``step / 2``, so ``‖x - x̂‖ <= √n · step / 2``.  ``‖x̂ - q‖²`` is
expanded as ``‖x̂‖² - 2(lo·Σq + step·code·q) + ‖q‖²``; the query is
quantised to 15 bits, ``q = s · q_int + r``, so ``code · q_int`` is an
exact integer GEMM (:func:`_integer_dots`) and one query and a block of
queries get the same bounds bit for bit.  A computed slack covers
``|code · r| <= 255 ‖r‖₁`` and the float64 cancellation, so the bound
holds for every finite input.  A row whose range, or ``‖x̂‖²``,
overflows is stored with an infinite ``step``, which the bounds map to 0
and ``inf``; so does any overflow at query time.

Codes are per row and their build is exact-order independent (the code
sums are integers), so :meth:`take` of a built database is bitwise equal
to building over the selected rows — the premise of sharded ≡
monolithic — and :meth:`appended` and :meth:`stacked` equal a rebuild.
"""

from __future__ import annotations

import numpy as np

from repro import obs

__all__ = ["RowCodes"]

#: Quantisation levels above ``lo``: codes run 0..255.
LEVELS = 255

#: Rows quantised per pass of the build (keeps its temporaries in cache).
_BUILD_CHUNK = 256

#: Code rows converted to float32 per GEMM of :meth:`RowCodes.bounds_sq`,
#: into one reused buffer (the codes themselves stay ``uint8``).
_ROW_CHUNK = 512

#: Columns per exact float32 GEMM (see :func:`_integer_dots`).
_COLUMN_CHUNK = 512

#: A query is quantised to ``|q_int| <= 16383``: 15 bits, two 7-bit halves.
_QUERY_LEVELS = 16383
_HALF = 128.0

_U64 = float(np.finfo(np.float64).eps) / 2

#: A step below this is treated as unusable: its own rounding is no
#: longer relative to the row's range (subnormal territory).
_MIN_STEP = 2.0**-1000

#: Per-coordinate quantisation error in units of ``step``: one half,
#: plus the rounding of ``(x - lo) · (1 / step)`` (at most ``4u · 256``).
_HALF_STEP = 0.5 + 2.0**-40


class RowCodes:
    """Per-row 8-bit scalar quantisation of a ``(count, n)`` matrix."""

    def __init__(
        self,
        lo: np.ndarray,
        step: np.ndarray,
        codes: np.ndarray,
        norms_sq: np.ndarray,
    ) -> None:
        self.lo = lo
        self.step = step
        self.codes = codes
        self.norms_sq = norms_sq

    @classmethod
    def from_matrix(cls, matrix) -> "RowCodes":
        """Quantise every row of ``matrix``, a chunk of rows at a time."""
        matrix = np.asarray(matrix, dtype=np.float64)
        count, n = matrix.shape
        lo = np.empty(count)
        step = np.empty(count)
        codes = np.empty((count, n), dtype=np.uint8)
        norms_sq = np.empty(count)
        buffer = np.empty((min(count, _BUILD_CHUNK), n))
        with np.errstate(all="ignore"):
            for start in range(0, count, _BUILD_CHUNK):
                rows = slice(start, start + _BUILD_CHUNK)
                chunk = matrix[rows]
                low = chunk.min(axis=1)
                span = chunk.max(axis=1) - low
                chunk_step = span / LEVELS
                # x - lo >= 0 and (x - lo) · (1 / step) <= 255 (1 + 6u),
                # so the rounded codes need no clipping; a zero step
                # codes 0.
                inverse = np.divide(
                    1.0, chunk_step, out=np.zeros_like(chunk_step),
                    where=chunk_step > 0,
                )
                scaled = np.subtract(
                    chunk, low[:, None], out=buffer[: len(chunk)]
                )
                scaled *= inverse[:, None]
                np.rint(scaled, out=scaled)
                codes[rows] = scaled
                # Integer-valued sums: exact in any order, so every
                # subset of rows reproduces them bit for bit.
                sums = scaled.sum(axis=1)
                squares = np.einsum("ij,ij->i", scaled, scaled)
                chunk_norms = n * low * low + chunk_step * (
                    2.0 * low * sums + chunk_step * squares
                )
                bad = ~(
                    np.isfinite(chunk_norms)
                    & np.isfinite(chunk_step)
                    & ((chunk_step == 0) | (chunk_step >= _MIN_STEP))
                )
                chunk_step[bad] = np.inf
                low[bad] = 0.0
                chunk_norms[bad] = 0.0
                codes[rows][bad] = 0
                lo[rows] = low
                step[rows] = chunk_step
                norms_sq[rows] = chunk_norms
        return cls(lo, step, codes, norms_sq)

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def take(self, rows) -> "RowCodes":
        """The codes of ``rows``, bitwise equal to quantising them anew."""
        rows = np.asarray(rows, dtype=np.intp)
        return RowCodes(
            self.lo[rows], self.step[rows], self.codes[rows],
            self.norms_sq[rows],
        )

    def appended(self, values) -> "RowCodes":
        """A new set with the row ``values`` quantised and appended."""
        row = RowCodes.from_matrix(np.asarray(values, dtype=np.float64)[None])
        return RowCodes.stacked((self, row))

    @staticmethod
    def stacked(parts) -> "RowCodes":
        """The rows of ``parts``, one set after another, as one set."""
        return RowCodes(
            np.concatenate([part.lo for part in parts]),
            np.concatenate([part.step for part in parts]),
            np.concatenate([part.codes for part in parts]),
            np.concatenate([part.norms_sq for part in parts]),
        )

    def bounds_sq(
        self, queries: np.ndarray, ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of ``‖row - query‖²`` for a query block.

        ``queries`` is one query or a ``(q, n)`` block; the bounds are
        ``(q, len(ids))`` arrays, 1-D for one query.  ``ids=None`` bounds
        every row with no gather, counted as one filter pass under
        ``bounds.kernel_calls`` / ``bounds.pairs``.  A bound depends only
        on its query and row, bit for bit, and is sound for every finite
        input, on the right side of the verifier's own computed squared
        distance; where anything overflows the bounds are 0 and ``inf``.
        """
        queries = np.asarray(queries, dtype=np.float64)
        block = np.atleast_2d(queries)
        count, n = len(self) if ids is None else len(ids), block.shape[1]
        if ids is None:
            obs.add("bounds.kernel_calls")
            obs.add("bounds.pairs", len(block) * count)
        lower, upper = np.empty((2, len(block), count))
        # Rows per pass: the float64 temporaries stay near 2**15 values.
        span = _ROW_CHUNK * max(1, 64 // len(block))
        with np.errstate(all="ignore"):
            halves, scale, dot_err, sum_q, l1, q_sq = _quantised(block)
            buffer = np.empty((min(count, _ROW_CHUNK), n), dtype=np.float32)
            for start in range(0, count, span):
                rows = slice(start, min(start + span, count))
                chunk = rows if ids is None else ids[rows]
                source = self.codes[chunk]
                dots = np.empty((len(block), len(source)))
                for first in range(0, len(source), _ROW_CHUNK):
                    codes = buffer[: len(source) - first]
                    np.copyto(codes, source[first : first + _ROW_CHUNK])
                    dots[:, first : first + len(codes)] = _integer_dots(
                        codes, halves
                    )
                dots *= scale  # s · (code · q_int), one rounding
                lo, step = self.lo[chunk], self.step[chunk]
                abs_lo, err = np.abs(lo), step * dot_err
                d_sq = (
                    self.norms_sq[chunk]
                    - 2.0 * (lo * sum_q + step * dots)
                    + q_sq
                )
                # Every magnitude the float64 expression rounds against;
                # n (|lo| + 255 step)² bounds ‖x̂‖² and its build error.
                magnitude = (
                    n * (abs_lo + LEVELS * step) ** 2
                    + 2.0 * (abs_lo * l1 + step * np.abs(dots) + err)
                    + q_sq
                )
                slack = 2.0 * err + 4 * (n + 16) * _U64 * magnitude
                radius = np.sqrt(n) * step * _HALF_STEP
                # fmax maps NaN to 0 for the lower bound; maximum keeps
                # it, and the upper bound turns it into inf below.
                near = np.sqrt(np.fmax(d_sq - slack, 0.0))
                far = np.sqrt(np.maximum(d_sq + slack, 0.0))
                lower[:, rows] = np.fmax(near - radius, 0.0) ** 2
                upper[:, rows] = (far + radius) ** 2
        # The verifier's squared distance is itself off by up to γₙ.
        margin = 4 * (n + 16) * _U64
        upper[np.isnan(upper)] = np.inf
        lower *= 1.0 - margin
        upper *= 1.0 + margin
        return (lower[0], upper[0]) if queries.ndim == 1 else (lower, upper)


def _quantised(block: np.ndarray):
    """Each query of ``block`` as ``s · q_int`` plus a bounded residual.

    ``s = max|q| / 16383`` and ``q_int = rint(q / s) = 128 · hi + lo``,
    ``hi`` in [-128, 127] and ``lo`` in [0, 127] (``q_int = 0`` where
    ``s`` is unusably small).  Returns the ``(n, 2q)`` float32 halves
    (``hi`` columns, then ``lo``) and ``(q, 1)`` columns of ``s``, the
    dot error ``255 · ‖q - s · q_int‖₁``, ``Σq``, ``‖q‖₁`` and ``‖q‖²``.
    Each is reduced along its own row, so no block changes a query's
    bits (``tests/compression/test_code_kernel.py`` holds this).
    """
    magnitude = np.abs(block)
    scale = magnitude.max(axis=1, keepdims=True) / _QUERY_LEVELS
    scale *= scale >= _MIN_STEP
    q_int = np.rint(block / np.where(scale > 0, scale, np.inf))
    high = np.floor(q_int / _HALF)
    halves = np.concatenate(
        (high, q_int - _HALF * high), dtype=np.float32
    ).T
    off = np.abs(block - q_int * scale).sum(axis=1, keepdims=True)
    l1 = magnitude.sum(axis=1, keepdims=True)
    # With p = fl(s·q_int): |q - s·q_int| <= (1 + 2u) |fl(q - p)| + 2u |p|
    # and |p| <= |q| + (1 + 2u) |fl(q - p)|; the float64 sums are off by
    # at most γₙ, and the factor's 4(n + 6)u covers all of it.
    dot_err = (off + 2 * _U64 * l1) * (
        LEVELS * (1.0 + 4 * (block.shape[1] + 6) * _U64)
    )
    sum_q = block.sum(axis=1, keepdims=True)
    q_sq = np.einsum("ij,ij->i", block, block)[:, None]
    return halves, scale, dot_err, sum_q, l1, q_sq


def _integer_dots(codes: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """``code · q_int`` of every query and row, exact, as ``(q, rows)``.

    Over at most 512 columns every partial sum of ``code · half`` is an
    integer below 255 · 128 · 512 < 2²⁴ in magnitude, so the float32
    GEMM is exact in any summation order, block shape or BLAS thread
    count; the chunk sums of longer rows add in float64, exact as
    integers below 2⁵³.
    """
    total = (codes[:, :_COLUMN_CHUNK] @ halves[:_COLUMN_CHUNK]).astype(
        np.float64
    )
    for c in range(_COLUMN_CHUNK, codes.shape[1], _COLUMN_CHUNK):
        total += codes[:, c : c + _COLUMN_CHUNK] @ halves[c : c + _COLUMN_CHUNK]
    queries = halves.shape[1] // 2
    return (_HALF * total[:, :queries] + total[:, queries:]).T
