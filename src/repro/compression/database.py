"""A packed, column-oriented database of compressed sketches.

The pruning-power and indexing experiments evaluate bounds between one
query and *every* sketch in databases of up to :math:`2^{15}` sequences.
Doing that through per-object Python calls would bury the measurement in
interpreter overhead, so :class:`SketchDatabase` packs all sketches
produced by one compressor into rectangular numpy arrays:

* ``positions``  — ``(count, width)`` int matrix of half-spectrum indexes,
* ``coefficients`` / ``weights`` — aligned complex / float matrices,
* ``errors`` and ``min_powers`` — per-row side values (NaN when absent).

Sketch widths can differ by one (a method that pads with the middle
coefficient skips the pad when the middle is already among the best), so
shorter rows are padded with a zero-weight entry at the DC position —
which contributes nothing to any distance term.  The pad sits at DC's
position, but DC is zero only on standardised rows, so the pad is not
harmless by being zero: it is sound on any row because its zero weight
drops it from every sum, which leaves DC an omitted coefficient, and
every compressor caps ``minPower`` at ``|X_0|``.

The packing is the system's canonical **structure-of-arrays (SoA)
layout**: every field is one C-contiguous block, named by
:attr:`SketchDatabase.SOA_FIELDS`, plus lazily precomputed per-row
sketch norms (:attr:`SketchDatabase.norms_sq`).  Batch compression and
row-subset views build databases through
:meth:`SketchDatabase.from_soa` and read them through
:meth:`SketchDatabase.soa_blocks`, so there is one layout instead of
per-consumer re-packing.

The batch bound kernels in :mod:`repro.bounds.batch` consume this layout;
:meth:`SketchDatabase.sketch` recovers an individual
:class:`~repro.compression.base.SpectralSketch` for spot checks.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.compression.base import SpectralSketch
from repro.exceptions import CompressionError, SeriesMismatchError
from repro.spectral.dft import Spectrum

__all__ = ["SketchDatabase", "sketch_norms_sq"]


#: Canonical dtype of every SoA field block.
_SOA_DTYPES = {
    "positions": np.dtype(np.intp),
    "coefficients": np.dtype(np.complex128),
    "weights": np.dtype(np.float64),
    "errors": np.dtype(np.float64),
    "min_powers": np.dtype(np.float64),
    "widths": np.dtype(np.intp),
}


def sketch_norms_sq(
    weights: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Per-row stored sketch energy ``sum_i w_i * |c_i|**2``.

    Computed as ``w * (re*re + im*im)`` — exact IEEE products summed
    row-wise — so any two processes holding the same field blocks derive
    the *bitwise* same norms.
    """
    re = np.ascontiguousarray(coefficients.real)
    im = np.ascontiguousarray(coefficients.imag)
    return np.einsum("ij,ij->i", weights, re * re + im * im)


class SketchDatabase:
    """All sketches of one method over one collection, packed by column."""

    #: Field order of the canonical structure-of-arrays layout.  The
    #: ``widths`` entry is stored on the instance as ``_widths`` (it is
    #: packing metadata, not bound-kernel input) but travels with the
    #: other blocks through every serialisation boundary.
    SOA_FIELDS = (
        "positions",
        "coefficients",
        "weights",
        "errors",
        "min_powers",
        "widths",
    )

    def __init__(
        self,
        sketches: Sequence[SpectralSketch],
        names: Sequence[str] | None = None,
    ) -> None:
        if not sketches:
            raise CompressionError("cannot pack an empty sketch list")
        first = sketches[0]
        if any(
            s.n != first.n or s.basis != first.basis or s.method != first.method
            for s in sketches
        ):
            raise CompressionError(
                "all sketches must share n, basis and method"
            )
        if names is not None and len(names) != len(sketches):
            raise CompressionError("names must align with sketches")

        self.n = first.n
        self.basis = first.basis
        self.method = first.method
        self.names = tuple(names) if names is not None else None

        count = len(sketches)
        width = max(len(s) for s in sketches)
        self.positions = np.zeros((count, width), dtype=np.intp)
        self.coefficients = np.zeros((count, width), dtype=np.complex128)
        self.weights = np.zeros((count, width), dtype=np.float64)
        self.errors = np.full(count, np.nan)
        self.min_powers = np.full(count, np.nan)
        for row, sketch in enumerate(sketches):
            k = len(sketch)
            self.positions[row, :k] = sketch.positions
            self.coefficients[row, :k] = sketch.coefficients
            self.weights[row, :k] = sketch.weights
            if sketch.error is not None:
                self.errors[row] = sketch.error
            if sketch.min_power is not None:
                self.min_powers[row] = sketch.min_power
        self._widths = np.array([len(s) for s in sketches], dtype=np.intp)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spectra(
        cls,
        spectra: Iterable[Spectrum],
        compressor,
        names: Sequence[str] | None = None,
    ) -> "SketchDatabase":
        """Compress an iterable of spectra with one compressor."""
        return cls([compressor.compress(s) for s in spectra], names)

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        compressor,
        names: Sequence[str] | None = None,
        basis: str = "fourier",
    ) -> "SketchDatabase":
        """Compress every row of a ``(count, n)`` time-domain matrix.

        Dispatches to the vectorised batch kernels
        (:mod:`repro.compression.batch`) whenever the compressor family
        supports them — bit-identical to the per-row path, an order of
        magnitude faster at database scale — and falls back to
        :meth:`from_matrix_scalar` for a compressor without one.  Call
        :meth:`from_matrix_scalar` directly for the per-row reference.
        """
        from repro.compression.batch import batch_compress, supports_batch

        if supports_batch(compressor):
            return batch_compress(matrix, compressor, names, basis)
        return cls.from_matrix_scalar(matrix, compressor, names, basis)

    @classmethod
    def from_matrix_scalar(
        cls,
        matrix: np.ndarray,
        compressor,
        names: Sequence[str] | None = None,
        basis: str = "fourier",
    ) -> "SketchDatabase":
        """Per-row reference path: one spectrum and sketch per sequence.

        The readable specification the batch kernels are checked
        against; also the fallback for compressors without a batch
        kernel (e.g. the variable-k adaptive compressor).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if basis == "fourier":
            spectra = (Spectrum.from_series(row) for row in matrix)
        elif basis == "haar":
            from repro.wavelets.haar import haar_spectrum

            spectra = (haar_spectrum(row) for row in matrix)
        else:
            raise SeriesMismatchError(
                f"unknown basis {basis!r}; expected 'fourier' or 'haar'"
            )
        return cls.from_spectra(spectra, compressor, names)

    # ------------------------------------------------------------------
    # The canonical structure-of-arrays layout
    # ------------------------------------------------------------------
    @classmethod
    def from_soa(
        cls,
        fields: Mapping[str, np.ndarray],
        *,
        n: int,
        basis: str,
        method: str,
        names: Sequence[str] | None = None,
    ) -> "SketchDatabase":
        """Assemble a database directly from SoA field blocks.

        The single internal constructor every packed-array path funnels
        through (batch compression, row-subset views), so
        dtype normalisation and contiguity live in one place.  Blocks
        already contiguous in their canonical dtype are adopted as-is.
        """
        missing = [f for f in cls.SOA_FIELDS if f not in fields]
        if missing:
            raise CompressionError(
                f"SoA fields missing {missing!r}; expected {cls.SOA_FIELDS}"
            )
        db = object.__new__(cls)
        db.n = int(n)
        db.basis = basis
        db.method = method
        db.names = tuple(names) if names is not None else None
        for field in cls.SOA_FIELDS:
            block = np.ascontiguousarray(fields[field], _SOA_DTYPES[field])
            attr = "_widths" if field == "widths" else field
            setattr(db, attr, block)
        if db.positions.ndim != 2 or db.positions.shape != db.weights.shape:
            raise CompressionError(
                "SoA blocks disagree on (count, width) shape"
            )
        return db

    def soa_blocks(self) -> dict[str, np.ndarray]:
        """The canonical SoA blocks, plus the precomputed ``norms``.

        Each returned array is C-contiguous in its canonical dtype; the
        contiguous version is cached back onto the instance, so callers
        that publish these blocks and callers that compute over them
        (bound kernels, the block verifier) observe the very same
        memory.
        """
        blocks: dict[str, np.ndarray] = {}
        for field in self.SOA_FIELDS:
            attr = "_widths" if field == "widths" else field
            value = getattr(self, attr)
            block = np.ascontiguousarray(value, _SOA_DTYPES[field])
            if block is not value:
                setattr(self, attr, block)
            blocks[field] = block
        blocks["norms"] = self.norms_sq
        return blocks

    @property
    def norms_sq(self) -> np.ndarray:
        """Precomputed per-row sketch energy ``sum_i w_i * |c_i|**2``.

        Computed lazily on first access and cached; row-subset views
        slice the cache (row norms are row-local, so slicing and
        recomputing agree bitwise; see :func:`sketch_norms_sq`).
        """
        cached = getattr(self, "_norms_cache", None)
        if cached is None or cached.shape[0] != len(self):
            cached = sketch_norms_sq(self.weights, self.coefficients)
            self._norms_cache = cached
        return cached

    def kernel_terms(self) -> dict:
        """Per-row terms the batch bound kernels derive from the blocks alone.

        The NaN checks of ``errors`` / ``min_powers``, ``sqrt(errors)``,
        ``min_powers**2``, the ``min_powers[:, None]`` column and a stable
        argsort of ``min_powers`` (with the sorted values), computed once
        per database instead of once per query.  Building them runs
        :meth:`soa_blocks`, so the kernels' unit-stride contract is
        asserted here.  The cache is keyed on the identity of the field
        blocks: replacing a block rebuilds it, and a :meth:`take` view or
        an :meth:`appended` database, a new instance, builds its own.
        """
        cached = getattr(self, "_kernel_terms", None)
        if cached is not None and all(
            a is b for a, b in zip(cached["blocks"], self._kernel_blocks())
        ):
            return cached
        self.soa_blocks()
        m = self.min_powers
        order = np.argsort(m, kind="stable")
        cached = {
            "blocks": self._kernel_blocks(),
            "errors_nan": bool(np.isnan(self.errors).any()),
            "min_powers_nan": bool(np.isnan(m).any()),
            "sqrt_errors": np.sqrt(self.errors),
            "min_sq": m**2,
            "min_col": m[:, None],
            "min_order": order,
            "min_sorted": m[order],
        }
        self._kernel_terms = cached
        return cached

    def _kernel_blocks(self) -> tuple[np.ndarray, ...]:
        return (
            self.positions,
            self.coefficients,
            self.weights,
            self.errors,
            self.min_powers,
        )

    @property
    def widths(self) -> np.ndarray:
        """Per-row sketch widths (the ``widths`` SoA block, read-only alias)."""
        return self._widths

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def width(self) -> int:
        """Packed row width (maximum retained coefficients per sketch)."""
        return int(self.positions.shape[1])

    def sketch(self, row: int) -> SpectralSketch:
        """Materialise row ``row`` back into a :class:`SpectralSketch`."""
        k = int(self._widths[row])
        error = self.errors[row]
        min_power = self.min_powers[row]
        return SpectralSketch(
            n=self.n,
            positions=self.positions[row, :k].copy(),
            coefficients=self.coefficients[row, :k].copy(),
            weights=self.weights[row, :k].copy(),
            error=None if np.isnan(error) else float(error),
            min_power=None if np.isnan(min_power) else float(min_power),
            method=self.method,
            basis=self.basis,
        )

    def appended(self, sketch: SpectralSketch) -> "SketchDatabase":
        """A new database with ``sketch`` appended as the last row.

        Used by the VP-tree's dynamic insertion path.  Amortised cost is
        one row copy of each packed array; if the new sketch is wider than
        the current packing, every row is re-padded.
        """
        if (
            sketch.n != self.n
            or sketch.basis != self.basis
            or sketch.method != self.method
        ):
            raise CompressionError(
                "appended sketch must share n, basis and method"
            )
        count = len(self)
        width = max(self.width, len(sketch))
        positions = np.zeros((count + 1, width), dtype=np.intp)
        coefficients = np.zeros((count + 1, width), dtype=np.complex128)
        weights = np.zeros((count + 1, width), dtype=np.float64)
        positions[:count, : self.width] = self.positions
        coefficients[:count, : self.width] = self.coefficients
        weights[:count, : self.width] = self.weights
        k = len(sketch)
        positions[count, :k] = sketch.positions
        coefficients[count, :k] = sketch.coefficients
        weights[count, :k] = sketch.weights
        return SketchDatabase.from_soa(
            {
                "positions": positions,
                "coefficients": coefficients,
                "weights": weights,
                "errors": np.append(
                    self.errors,
                    np.nan if sketch.error is None else sketch.error,
                ),
                "min_powers": np.append(
                    self.min_powers,
                    np.nan if sketch.min_power is None else sketch.min_power,
                ),
                "widths": np.append(self._widths, k),
            },
            n=self.n,
            basis=self.basis,
            method=self.method,
            names=None if self.names is None else (*self.names, None),
        )

    def __getitem__(self, key):
        """Row access: an ``int`` materialises one sketch, anything else
        (slice, index list/array, boolean mask) is a :meth:`take` view.

        The partitioner uses this to carve shard-local sketch databases
        out of one compression pass; evaluation scripts use it for
        subsampling.
        """
        if isinstance(key, (int, np.integer)):
            row = int(key)
            if row < 0:
                row += len(self)
            if not 0 <= row < len(self):
                raise IndexError(
                    f"row {key} out of range for {len(self)} sketches"
                )
            return self.sketch(row)
        if isinstance(key, slice):
            return self.take(np.arange(len(self))[key])
        rows = np.asarray(key)
        if rows.dtype == bool:
            if rows.shape != (len(self),):
                raise IndexError(
                    f"boolean mask of shape {rows.shape} cannot select "
                    f"from {len(self)} sketches"
                )
            rows = np.flatnonzero(rows)
        return self.take(rows)

    def take(self, rows) -> "SketchDatabase":
        """A lightweight row-subset view (arrays sliced, metadata shared).

        Used by the shard partitioner to split one compression pass into
        shard-local databases.  Kernels are row-independent, so bounding
        a view equals indexing the full database's bounds by ``rows``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        subset = SketchDatabase.from_soa(
            {
                "positions": self.positions[rows],
                "coefficients": self.coefficients[rows],
                "weights": self.weights[rows],
                "errors": self.errors[rows],
                "min_powers": self.min_powers[rows],
                "widths": self._widths[rows],
            },
            n=self.n,
            basis=self.basis,
            method=self.method,
            names=(
                tuple(self.names[int(i)] for i in rows)
                if self.names is not None
                else None
            ),
        )
        cached = getattr(self, "_norms_cache", None)
        if cached is not None and cached.shape[0] == len(self):
            # Row norms are row-local, so slicing the cache is bitwise
            # equal to recomputing over the sliced blocks.
            subset._norms_cache = np.ascontiguousarray(cached[rows])
        return subset

    def check_query(self, query: Spectrum) -> None:
        """Validate that a query spectrum is comparable with this database."""
        if query.n != self.n or query.basis != self.basis:
            raise SeriesMismatchError(
                f"database (n={self.n}, basis={self.basis!r}) is "
                f"incompatible with query (n={query.n}, basis={query.basis!r})"
            )
