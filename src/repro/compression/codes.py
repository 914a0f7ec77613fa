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
expanded as ``‖x̂‖² - 2(lo·Σq + step·code·q) + ‖q‖²`` with the dot
product in float32; a computed slack covers the query's rounding to
float32, the float32 dot product (Higham's γₙ, which holds for any
summation order) and the float64 cancellation, so the bound holds for
every finite input.  A row whose range, or ``‖x̂‖²``, overflows is
stored with an infinite ``step``, which the bounds map to 0 and
``inf``; so does any overflow at query time.

Codes are per row and their build is exact-order independent (the code
sums are integers), so :meth:`take` of a built database is bitwise equal
to building over the selected rows — the premise of sharded ≡
monolithic — and :meth:`appended` and :meth:`stacked` equal a rebuild.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RowCodes"]

#: Quantisation levels above ``lo``: codes run 0..255.
LEVELS = 255

#: Rows quantised per pass of the build (keeps its temporaries in cache).
_BUILD_CHUNK = 256

#: Candidates bounded per pass of :meth:`RowCodes.bounds_sq`.
_QUERY_CHUNK = 512

_U64 = float(np.finfo(np.float64).eps) / 2
_U32 = float(np.finfo(np.float32).eps) / 2

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
        self, query: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of ``‖row - query‖²`` for rows ``ids``.

        Sound for every finite query and row, and on the right side of
        the verifier's own computed squared distance: a final relative
        margin covers that computation's rounding.  Where anything
        overflows the bounds are 0 and ``inf``.
        """
        query = np.asarray(query, dtype=np.float64)
        n = query.size
        lower = np.empty(len(ids))
        upper = np.empty(len(ids))
        with np.errstate(all="ignore"):
            q32 = query.astype(np.float32)
            sum_q = float(query.sum())
            l1 = float(np.abs(query).sum())
            q_sq = float(np.einsum("i,i->", query, query))
            # |fl32(code·q32) - code·q| <= 255 (γₙ ‖q32‖₁ + ‖q32 - q‖₁).
            gamma = n * _U32 / (1.0 - n * _U32)
            q32_64 = q32.astype(np.float64)
            dot_err = LEVELS * (
                gamma * float(np.abs(q32_64).sum())
                + float(np.abs(q32_64 - query).sum())
            ) * (1.0 + 4 * n * _U64)
            for start in range(0, len(ids), _QUERY_CHUNK):
                rows = slice(start, start + _QUERY_CHUNK)
                chunk = ids[rows]
                dots = np.einsum(
                    "ij,j->i", self.codes[chunk].astype(np.float32), q32
                ).astype(np.float64)
                lo = self.lo[chunk]
                step = self.step[chunk]
                d_sq = (
                    self.norms_sq[chunk]
                    - 2.0 * (lo * sum_q + step * dots)
                    + q_sq
                )
                # Every magnitude the float64 expression rounds against;
                # n (|lo| + 255 step)² bounds ‖x̂‖² and its build error.
                magnitude = (
                    n * (np.abs(lo) + LEVELS * step) ** 2
                    + 2.0 * (np.abs(lo) * l1 + step * (np.abs(dots) + dot_err))
                    + q_sq
                )
                slack = 2.0 * step * dot_err + 4 * (n + 16) * _U64 * magnitude
                radius = np.sqrt(n) * step * _HALF_STEP
                # fmax maps NaN to 0 for the lower bound; maximum keeps
                # it, and the upper bound turns it into inf below.
                near = np.sqrt(np.fmax(d_sq - slack, 0.0))
                far = np.sqrt(np.maximum(d_sq + slack, 0.0))
                lower[rows] = np.fmax(near - radius, 0.0) ** 2
                upper[rows] = (far + radius) ** 2
        # The verifier's squared distance is itself off by up to γₙ.
        margin = 4 * (n + 16) * _U64
        upper[np.isnan(upper)] = np.inf
        return lower * (1.0 - margin), upper * (1.0 + margin)
