"""Best-coefficient compressors — the paper's contribution (section 3).

Instead of the first k coefficients, keep the k coefficients with the
*largest magnitude* (the tallest periodogram peaks).  Because the data are
highly periodic, most of the energy sits at mid-spectrum frequencies and
the best coefficients reconstruct the sequences far better (fig. 5).

Keeping the best coefficients yields the ``minProperty`` (Fact 1): every
omitted coefficient's magnitude is bounded by the smallest retained one,
``minPower``.  The three bound algorithms consume different side
information:

* **BestMin** — best coefficients + middle-coefficient filler; bounds use
  ``minPower`` only.
* **BestError** — best coefficients + omitted energy ``T.err``.
* **BestMinError** — best coefficients + ``T.err``; bounds use both.

The sketches for BestError and BestMinError are identical on disk; they
differ only in which bound algorithm interprets them, so
:class:`BestKCompressor` tags the sketch with the requested ``method``.
"""

from __future__ import annotations

from repro.compression.base import SpectralSketch
from repro.compression.first_k import _append_middle, _sketch_from_indexes
from repro.exceptions import CompressionError
from repro.spectral.dft import Spectrum
from repro.spectral.reconstruction import best_indexes

__all__ = [
    "BestKCompressor",
    "BestMinCompressor",
    "BestErrorCompressor",
    "BestMinErrorCompressor",
]


class BestKCompressor:
    """Keep the ``k`` largest-magnitude coefficients (skipping DC).

    Parameters
    ----------
    k:
        Number of retained best coefficients.
    store_error:
        Record ``T.err``, the weighted energy of the omitted coefficients.
    store_middle:
        Pad with the middle coefficient (storage-parity filler for the
        methods that do not store the error).  The filler does not take
        part in the ``minProperty``.
    method:
        Method tag recorded on the produced sketches.
    """

    def __init__(
        self,
        k: int,
        store_error: bool = False,
        store_middle: bool = False,
        method: str = "best_k",
    ) -> None:
        if k < 1:
            raise CompressionError(f"k must be >= 1, got {k}")
        if store_error and store_middle:
            raise CompressionError(
                "store_error and store_middle are mutually exclusive "
                "(each fills the same one-double budget slot)"
            )
        self.k = k
        self.store_error = store_error
        self.store_middle = store_middle
        self.method = method

    def compress(self, spectrum: Spectrum) -> SpectralSketch:
        """Compress a full :class:`Spectrum` into a best-coefficient sketch."""
        best = best_indexes(spectrum, self.k)
        if best.size < self.k:
            raise CompressionError(
                f"cannot keep {self.k} coefficients of a length-{spectrum.n} "
                f"signal ({best.size} available)"
            )
        # minPower is defined over the *best* selection only, before any
        # middle-coefficient padding.  DC is never selected, so it is
        # always omitted: the cap keeps every omitted magnitude, DC
        # included, at most minPower on rows with a non-zero mean.
        min_power = max(
            float(spectrum.magnitudes[best].min()),
            float(spectrum.magnitudes[0]),
        )
        indexes = _append_middle(spectrum, best) if self.store_middle else best
        return _sketch_from_indexes(
            spectrum, indexes, self.store_error, min_power, self.method
        )

    def compress_series(self, values) -> SpectralSketch:
        """Convenience: transform a raw sequence, then compress it."""
        return self.compress(Spectrum.from_series(values))


class BestMinCompressor(BestKCompressor):
    """``k`` best coefficients + middle coefficient (algorithm BestMin)."""

    def __init__(self, k: int) -> None:
        super().__init__(k, store_middle=True, method="best_min")


class BestErrorCompressor(BestKCompressor):
    """``k`` best coefficients + error (algorithm BestError)."""

    def __init__(self, k: int) -> None:
        super().__init__(k, store_error=True, method="best_error")


class BestMinErrorCompressor(BestKCompressor):
    """``k`` best coefficients + error (algorithm BestMinError)."""

    def __init__(self, k: int) -> None:
        super().__init__(k, store_error=True, method="best_min_error")
