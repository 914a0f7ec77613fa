"""Vectorised batch compression — the fast half of the ingest pipeline.

The paper's database is built by transforming and sketching up to
:math:`2^{15}` sequences of length 1024 *before* any query runs, and the
Lernaean Hydra evaluations (Echihabi et al.) show that at this scale the
build cost dominates end-to-end time.  The scalar path —
``compressor.compress(Spectrum.from_series(row))`` per row — buries that
build in Python object construction: one :class:`~repro.spectral.Spectrum`,
one :class:`~repro.compression.base.SpectralSketch` and a handful of small
array allocations per sequence.

This module compresses the whole ``(count, n)`` matrix at once:

* one ``np.fft.rfft(matrix, axis=1)`` (or one batched Haar pyramid) yields
  every row's coefficients,
* top-k coefficient selection, ``minPower`` extraction and omitted-energy
  sums run as row-wise vectorised kernels,
* the packed :class:`~repro.compression.database.SketchDatabase` arrays are
  filled directly, without materialising any per-row object.

**Bit-identity contract.**  Every batch kernel performs the *same*
floating-point operations in the same order as its scalar counterpart
(NumPy applies identical 1-D transforms, stable sorts and pairwise sums
per row of a contiguous matrix), so the produced database compares equal
array-for-array with the per-row reference.  The scalar path stays in
the codebase as the readable specification, and
``tests/compression/test_batch_equivalence.py`` asserts the equivalence
for every compressor family, both bases and several lengths.

Supported compressor families (the four sketch shapes of section 3/7.1):

====================  ======================================  =============
family                compressors                             batch support
====================  ======================================  =============
first + middle        ``GeminiCompressor`` (``FirstK`` with   yes
                      ``store_middle``)
first + error         ``WangCompressor`` (``FirstK`` with     yes
                      ``store_error``)
best + middle         ``BestMinCompressor``                   yes
best + error          ``BestErrorCompressor`` /               yes
                      ``BestMinErrorCompressor``
variable-k            ``AdaptiveEnergyCompressor``            scalar
                                                              fallback
====================  ======================================  =============

:func:`SketchDatabase.from_matrix` dispatches here automatically and
falls back to the scalar path for compressors the batch kernels do not
cover, so callers never need to choose.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.compression.best_k import BestKCompressor
from repro.compression.first_k import FirstKCompressor
from repro.exceptions import CompressionError, SeriesMismatchError
from repro.spectral.dft import half_weights
from repro.timeseries.preprocessing import as_float_matrix

__all__ = ["spectra_matrix", "batch_compress", "supports_batch"]


def spectra_matrix(
    matrix: np.ndarray, basis: str = "fourier"
) -> tuple[np.ndarray, np.ndarray]:
    """Transform every row of ``matrix`` in one vectorised pass.

    Returns ``(coefficients, weights)`` where ``coefficients`` is the
    ``(count, width)`` complex matrix of per-row transform coefficients
    and ``weights`` the shared ``(width,)`` conjugate-pair multiplicity
    vector — exactly the data a stack of per-row
    :class:`~repro.spectral.Spectrum` objects would carry.

    ``basis="fourier"`` produces normalised half spectra
    (:func:`~repro.spectral.dft.half_spectrum` per row);
    ``basis="haar"`` the orthonormal Haar coefficients with unit weights
    (:func:`~repro.wavelets.haar.haar_spectrum` per row).
    """
    return _spectra_validated(as_float_matrix(matrix), basis)


def _spectra_validated(matrix: np.ndarray, basis: str):
    """:func:`spectra_matrix` body for an already-validated float matrix."""
    n = matrix.shape[1]
    if basis == "fourier":
        coefficients = np.fft.rfft(matrix, axis=1) / np.sqrt(n)
        return coefficients, half_weights(n)
    if basis == "haar":
        from repro.wavelets.haar import haar_transform_matrix

        coefficients = haar_transform_matrix(matrix).astype(np.complex128)
        return coefficients, np.ones(n)
    raise SeriesMismatchError(
        f"unknown basis {basis!r}; expected 'fourier' or 'haar'"
    )


def supports_batch(compressor) -> bool:
    """Whether :func:`batch_compress` covers this compressor.

    True for the fixed-k first/best families (any ``store_error`` /
    ``store_middle`` combination); variable-k compressors take the
    scalar fallback.
    """
    return isinstance(compressor, (FirstKCompressor, BestKCompressor))


def batch_compress(
    matrix: np.ndarray,
    compressor,
    names: Sequence[str] | None = None,
    basis: str = "fourier",
):
    """Compress every row of ``matrix`` into one packed database.

    Bit-identical to packing ``compressor.compress(spectrum_of(row))``
    per row, without constructing any per-row object.  Raises
    :class:`~repro.exceptions.CompressionError` for compressors outside
    the supported families (see :func:`supports_batch`).
    """
    from repro.compression.database import SketchDatabase

    if not supports_batch(compressor):
        raise CompressionError(
            f"no batch kernel for {type(compressor).__name__}; "
            f"use the scalar path"
        )
    matrix = as_float_matrix(matrix)
    count, n = matrix.shape
    if count == 0:
        raise CompressionError("cannot pack an empty sketch list")
    if names is not None and len(names) != count:
        raise CompressionError("names must align with sketches")

    coefficients, weights = _spectra_validated(matrix, basis)
    half = coefficients.shape[1]
    k = int(compressor.k)
    store_error = bool(compressor.store_error)
    store_middle = bool(compressor.store_middle)
    # The middle (Nyquist) filler only exists for even-length signals
    # (see first_k._append_middle); for the Haar basis the "middle"
    # index n // 2 is an ordinary detail coefficient, but the scalar
    # path applies the same rule, so the batch path mirrors it.
    middle = n // 2 if n % 2 == 0 else None

    if isinstance(compressor, BestKCompressor):
        if min(k, half - 1) < k:
            raise CompressionError(
                f"cannot keep {k} coefficients of a length-{n} "
                f"signal ({min(k, half - 1)} available)"
            )
        built = _batch_best(
            coefficients, weights, k, store_error, store_middle, middle
        )
    else:
        built = _batch_first(
            coefficients, weights, k, store_error, store_middle, middle, n
        )
    positions, packed_coeffs, packed_weights, errors, min_powers, widths = built

    db = SketchDatabase.from_soa(
        {
            "positions": positions,
            "coefficients": packed_coeffs,
            "weights": packed_weights,
            "errors": errors,
            "min_powers": min_powers,
            "widths": widths,
        },
        n=n,
        basis=basis,
        method=compressor.method,
        names=names,
    )
    obs.add("ingest.batch_sequences", count)
    return db


# ----------------------------------------------------------------------
# Family kernels
# ----------------------------------------------------------------------
def _omitted_sums(
    powers: np.ndarray, retained_mask: np.ndarray
) -> np.ndarray:
    """Per-row sum of the powers *not* retained, in ascending index order.

    Every row retains the same number of coefficients, so the gathered
    complement reshapes to a rectangle and ``sum(axis=1)`` applies the
    same pairwise summation the scalar ``powers[omitted].sum()`` uses.
    """
    count = powers.shape[0]
    return powers[~retained_mask].reshape(count, -1).sum(axis=1)


def _batch_first(
    coefficients: np.ndarray,
    weights: np.ndarray,
    k: int,
    store_error: bool,
    store_middle: bool,
    middle: int | None,
    n: int,
):
    """First-k selection: identical, data-independent positions per row."""
    count, half = coefficients.shape
    indexes = np.arange(1, min(1 + k, half))
    if indexes.size < k:
        raise CompressionError(
            f"cannot keep {k} coefficients of a length-{n} "
            f"signal ({indexes.size} available)"
        )
    errors = np.full(count, np.nan)
    if store_error:
        retained = np.zeros((count, half), dtype=bool)
        retained[:, indexes] = True
        powers = weights * np.abs(coefficients) ** 2
        errors = _omitted_sums(powers, retained)
    if store_middle and middle is not None and middle not in indexes:
        indexes = np.append(indexes, middle)
    width = indexes.size
    positions = np.broadcast_to(indexes, (count, width)).copy()
    packed_coeffs = np.ascontiguousarray(coefficients[:, indexes])
    packed_weights = np.broadcast_to(weights[indexes], (count, width)).copy()
    widths = np.full(count, width, dtype=np.intp)
    return (
        positions,
        packed_coeffs,
        packed_weights,
        errors,
        np.full(count, np.nan),
        widths,
    )


def _batch_best(
    coefficients: np.ndarray,
    weights: np.ndarray,
    k: int,
    store_error: bool,
    store_middle: bool,
    middle: int | None,
):
    """Best-k selection: per-row top-|X| positions with stable tie-breaks."""
    count, half = coefficients.shape
    magnitudes = np.abs(coefficients)
    mags = magnitudes[:, 1:]
    # Equivalent to ``np.argsort(-mags, kind="stable")[:k]`` per row —
    # largest first, low-frequency tie-breaks (best_indexes()) — without
    # the O(half log half) sort.  An O(half) partition finds each row's
    # k-th largest magnitude; everything above that threshold is in, and
    # the remaining slots fill from the coefficients tied *at* the
    # threshold in ascending index order, which is exactly the order a
    # stable descending sort emits equal values.
    kth = mags.shape[1] - k
    part = np.argpartition(mags, kth, axis=1)[:, kth:]
    threshold = np.take_along_axis(mags, part, axis=1).min(
        axis=1, keepdims=True
    )
    above = mags > threshold
    tied = mags == threshold
    need = k - above.sum(axis=1, dtype=np.intp)
    if np.array_equal(need, tied.sum(axis=1, dtype=np.intp)):
        # No row has excess ties at its threshold (the generic case for
        # real-valued data): every tied coefficient is needed, so the
        # rank-fill cumsum is skipped entirely.
        selected = np.logical_or(above, tied, out=above)
    else:
        fill = np.cumsum(tied, axis=1, dtype=np.int32) <= need[:, None]
        np.logical_and(tied, fill, out=fill)
        selected = np.logical_or(above, fill, out=above)
    # Each row selects exactly k columns, so row-major nonzero() gives
    # the frequency-sorted positions as one rectangle.
    best = np.nonzero(selected)[1].reshape(count, k) + 1
    # minPower is defined over the best selection only, before padding,
    # and capped by the always-omitted DC magnitude (as in best_k).
    min_powers = np.maximum(
        np.take_along_axis(magnitudes, best, axis=1).min(axis=1),
        magnitudes[:, 0],
    )

    errors = np.full(count, np.nan)
    if store_error:
        retained = np.zeros((count, half), dtype=bool)
        retained[:, 1:] = selected
        # In-place product of the scalar path's ``weights * magnitudes
        # ** 2`` — IEEE multiplication commutes bitwise and NumPy's
        # integer-2 power is an exact square, so the values match.
        powers = magnitudes * magnitudes
        powers *= weights
        errors = _omitted_sums(powers, retained)

    if store_middle and middle is not None:
        has_middle = selected[:, middle - 1]
        if bool(np.all(has_middle)):
            positions = best
            widths = np.full(count, k, dtype=np.intp)
        else:
            # Rows already holding the middle stay width k and pad with
            # a zero-weight DC entry; the rest gain the filler and are
            # re-sorted (for the Haar basis n // 2 is mid-range, not the
            # last index, mirroring _append_middle's np.sort).
            positions = np.zeros((count, k + 1), dtype=np.intp)
            positions[:, :k] = best
            positions[~has_middle, k] = middle
            positions[~has_middle] = np.sort(positions[~has_middle], axis=1)
            widths = np.where(has_middle, k, k + 1).astype(np.intp)
    else:
        positions = best
        widths = np.full(count, k, dtype=np.intp)

    width = positions.shape[1]
    packed_coeffs = np.take_along_axis(coefficients, positions, axis=1)
    packed_weights = weights[positions]
    pad = np.arange(width) >= widths[:, None]
    packed_coeffs[pad] = 0.0
    packed_weights[pad] = 0.0
    positions = positions.astype(np.intp, copy=False)
    return positions, packed_coeffs, packed_weights, errors, min_powers, widths
