"""Compressed spectral representations ("sketches") of time series.

Section 3 of the paper stores, for every database sequence, a handful of
transform coefficients plus one or two scalar side-values.  The concrete
choices differ per method (first vs best coefficients, middle coefficient
vs approximation error), but every method produces the same kind of object,
modelled here as :class:`SpectralSketch`:

* ``positions`` / ``coefficients`` — the retained half-spectrum entries,
* ``error`` — optionally, the energy of the omitted coefficients
  (``T.err`` in the paper's pseudocode),
* ``min_power`` — for best-coefficient selections, the magnitude of the
  smallest retained *best* coefficient (``minPower``), raised to ``|X_0|``
  when DC is larger (DC is never selected); its existence is the
  ``minProperty``: every omitted coefficient has magnitude ``<= min_power``.

On standardised rows DC is zero, so ``min_power`` is recomputable from the
stored coefficients and costs no extra storage under the paper's budget
accounting; it is materialised on the object for speed and clarity.  When a method pads its selection
with the *middle* (Nyquist) coefficient — which need not be one of the best
— ``min_power`` still describes only the best-coefficient subset, keeping
the ``minProperty`` sound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CompressionError, SeriesMismatchError
from repro.spectral.dft import Spectrum

__all__ = ["SpectralSketch"]


@dataclass(frozen=True)
class SpectralSketch:
    """The compressed representation of one sequence.

    Attributes
    ----------
    n:
        Length of the originating time-domain sequence.
    positions:
        Sorted, unique half-spectrum indexes of the retained coefficients.
    coefficients:
        The retained complex coefficients, aligned with ``positions``.
    weights:
        Conjugate-pair multiplicities of the retained coefficients (2 for a
        proper pair, 1 for DC/Nyquist), so distance terms can be computed
        without consulting the full spectrum.
    error:
        Weighted energy of the omitted coefficients
        (:math:`\\sum_{i \\in p^-} w_i \\lVert T_i \\rVert^2`), or ``None``
        when the method does not store it.
    min_power:
        Magnitude of the smallest retained *best* coefficient, or ``None``
        for first-coefficient methods where the ``minProperty`` does not
        hold.
    method:
        Name of the producing compressor (``"gemini"``, ``"best_min_error"``,
        ...), for reporting.
    basis:
        Identifier of the orthonormal decomposition, matching
        :attr:`repro.spectral.Spectrum.basis`.
    """

    n: int
    positions: np.ndarray
    coefficients: np.ndarray
    weights: np.ndarray
    error: float | None = None
    min_power: float | None = None
    method: str = ""
    basis: str = "fourier"

    def __post_init__(self) -> None:
        positions = np.ascontiguousarray(self.positions, dtype=np.intp)
        coefficients = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if not (positions.shape == coefficients.shape == weights.shape):
            raise CompressionError(
                "positions, coefficients and weights must align"
            )
        if positions.size and np.any(np.diff(positions) <= 0):
            raise CompressionError("positions must be sorted and unique")
        for name, arr in (
            ("positions", positions),
            ("coefficients", coefficients),
            ("weights", weights),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        """Number of retained coefficients."""
        return int(self.positions.size)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def stored_energy(self) -> float:
        """Weighted energy of the retained coefficients."""
        return float(
            np.dot(self.weights, np.abs(self.coefficients) ** 2)
        )

    def storage_doubles(self) -> float:
        """Storage cost in 8-byte doubles under the paper's accounting.

        A first-coefficient entry costs 2 doubles (real + imaginary); a
        best-coefficient entry additionally needs its 2-byte position, i.e.
        18 bytes = 2.25 doubles.  The middle (Nyquist) coefficient is real
        and lives at a fixed position, so it costs a single double — it is
        the one-double filler of the error-free methods, and "if ... the
        middle coefficient happens to be one of the k best ones, then these
        sequences just use 1 less double" (section 7.1).  A stored error
        adds one double.
        """
        per_coeff = 2.25 if self.min_power is not None else 2.0
        middle = self.n // 2
        has_middle = (
            self.n % 2 == 0
            and self.positions.size > 0
            and self.positions[-1] == middle
        )
        count = len(self) - (1 if has_middle else 0)
        extra = 1.0 if self.error is not None else 0.0
        return per_coeff * count + (1.0 if has_middle else 0.0) + extra

    def check_query(self, query: Spectrum) -> None:
        """Validate that ``query`` lives in the same transformed space."""
        if query.n != self.n or query.basis != self.basis:
            raise SeriesMismatchError(
                f"sketch (n={self.n}, basis={self.basis!r}) is incompatible "
                f"with query (n={query.n}, basis={query.basis!r})"
            )
        if self.positions.size and self.positions[-1] >= len(query):
            raise SeriesMismatchError(
                "sketch positions exceed the query's spectrum length"
            )

    def reconstruct(self) -> np.ndarray:
        """Time-domain reconstruction from the retained coefficients.

        Only defined for the Fourier basis; used by fig. 5 and the S2
        tool's approximation preview.
        """
        if self.basis != "fourier":
            raise SeriesMismatchError(
                f"reconstruction requires the Fourier basis, not {self.basis!r}"
            )
        half = self.n // 2 + 1
        full = np.zeros(half, dtype=np.complex128)
        full[self.positions] = self.coefficients
        return np.fft.irfft(full, n=self.n) * np.sqrt(self.n)
