"""Adaptive (variable-k) compression — the paper's future-work extension.

Section 8 suggests: "add the best coefficients until the compressed
representation contains k% of the energy in the signal (or, equivalently,
the error is below some threshold)".  :class:`AdaptiveEnergyCompressor`
implements exactly that.  The produced sketches carry the error and the
``minProperty``, so every bound algorithm and the VP-tree index work on
them unchanged — which is the point the paper makes about this extension
being "easily indexed using our customized VP-tree index".
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import SpectralSketch
from repro.compression.first_k import _sketch_from_indexes
from repro.exceptions import CompressionError
from repro.spectral.dft import Spectrum

__all__ = ["AdaptiveEnergyCompressor"]


class AdaptiveEnergyCompressor:
    """Keep the fewest best coefficients reaching an energy fraction.

    Parameters
    ----------
    energy_fraction:
        Target fraction of the signal energy (excluding DC) that the
        retained coefficients must reach, in ``(0, 1]``.
    max_k:
        Optional hard cap on the number of retained coefficients.
    method:
        Method tag recorded on the produced sketches (the sketches are
        BestMinError-shaped, so that is the natural default).
    """

    def __init__(
        self,
        energy_fraction: float,
        max_k: int | None = None,
        method: str = "adaptive_best_min_error",
    ) -> None:
        if not 0.0 < energy_fraction <= 1.0:
            raise CompressionError(
                f"energy_fraction must be in (0, 1], got {energy_fraction}"
            )
        if max_k is not None and max_k < 1:
            raise CompressionError(f"max_k must be >= 1, got {max_k}")
        self.energy_fraction = energy_fraction
        self.max_k = max_k
        self.method = method

    def compress(self, spectrum: Spectrum) -> SpectralSketch:
        """Compress, growing k until the energy target is met."""
        magnitudes = spectrum.magnitudes.copy()
        if len(magnitudes) > 0:
            magnitudes[0] = 0.0  # DC never competes for a slot
        powers = spectrum.weights * magnitudes**2
        total = float(powers.sum())
        # Rank coefficients best-first with the same deterministic
        # low-frequency tie-breaking as best_indexes().
        order = np.argsort(-magnitudes[1:], kind="stable") + 1
        if total == 0.0:
            chosen = order[:1]
        else:
            cumulative = np.cumsum(powers[order])
            needed = int(
                np.searchsorted(
                    cumulative, self.energy_fraction * total - 1e-12
                )
                + 1
            )
            chosen = order[: min(needed, order.size)]
        if self.max_k is not None:
            chosen = chosen[: self.max_k]
        # The local copy zeroes DC, so the cap reads the spectrum itself:
        # DC is always omitted, and minPower must bound it too.
        min_power = max(
            float(magnitudes[chosen].min()), float(spectrum.magnitudes[0])
        )
        indexes = np.sort(chosen)
        return _sketch_from_indexes(
            spectrum, indexes, True, min_power, self.method
        )

    def compress_series(self, values) -> SpectralSketch:
        """Convenience: transform a raw sequence, then compress it."""
        return self.compress(Spectrum.from_series(values))
