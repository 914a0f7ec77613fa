"""The periodogram of a sliding window, fed one value per day.

A stream sees one completed day at a time.  :class:`OnlinePeriodogram`
keeps the latest ``window`` values in a ring buffer and, on every push,
takes the exact ``rfft`` of the window as it now stands, so every read
(:attr:`~OnlinePeriodogram.power`, :meth:`~OnlinePeriodogram.periodogram`,
:meth:`~OnlinePeriodogram.spectrum`) is **bit-identical** to the batch
:func:`~repro.spectral.periodogram.periodogram` of the current window
contents, at every prefix (asserted by
``tests/spectral/test_online_periodogram.py``).

Until ``window`` values have arrived the whole prefix is analysed, as a
batch caller would analyse it.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.exceptions import SeriesLengthError
from repro.spectral.dft import Spectrum, half_weights
from repro.spectral.periodogram import Periodogram

__all__ = ["OnlinePeriodogram"]


class OnlinePeriodogram:
    """Sliding-window periodogram fed one value per day.

    Parameters
    ----------
    window:
        Analysis window length ``n``.  Until ``n`` samples arrive the
        whole prefix is analysed (matching what a batch caller would
        do); afterwards the window slides.
    """

    def __init__(self, window: int) -> None:
        window = int(window)
        if window < 4:
            raise ValueError(
                f"window must be >= 4 for spectral analysis, got {window}"
            )
        self.window = window
        # Once full, each value is written twice, at ``slot`` and
        # ``slot + window``, so the window is always one contiguous view.
        self._buffer = np.zeros(2 * window, dtype=np.float64)
        self._pos = 0  # oldest slot once the buffer is full
        self._size = 0  # total values pushed (not capped)
        # The normalised half spectrum of the current window.
        self._coeffs = np.zeros(0, dtype=np.complex128)
        #: Diagnostics: total pushes.
        self.pushes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return min(self._size, self.window)

    @property
    def size(self) -> int:
        """Total values pushed so far (not capped at the window)."""
        return self._size

    @property
    def full(self) -> bool:
        """Whether the window has started to slide."""
        return self._size >= self.window

    @property
    def n(self) -> int:
        """Length of the sequence currently analysed."""
        return len(self)

    def values(self) -> np.ndarray:
        """The current window contents, oldest first (a copy)."""
        return self._window().copy()

    def _window(self) -> np.ndarray:
        if not self.full:
            return self._buffer[: self._size]
        return self._buffer[self._pos : self._pos + self.window]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def push(self, value) -> None:
        """Absorb one completed day: one ``rfft`` of the window."""
        value = float(value)  # scalar validation: the push path is hot
        if not math.isfinite(value):
            raise SeriesLengthError("sequence contains NaN or infinite values")
        if not self.full:
            self._buffer[self._size] = value
        else:
            self._buffer[self._pos] = value
            self._buffer[self._pos + self.window] = value
            self._pos = (self._pos + 1) % self.window
        self._size += 1
        # The batch path's arithmetic (``half_spectrum``), so the reads
        # below are bit-identical to it.
        self._coeffs = np.fft.rfft(self._window()) / math.sqrt(self.n)
        self.pushes += 1
        obs.add("spectral.online_pushes")

    def extend(self, values) -> None:
        """Push a whole block of days in order."""
        for value in np.asarray(values, dtype=np.float64):
            self.push(value)

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    @property
    def power(self) -> np.ndarray:
        """The batch periodogram's powers of the current window."""
        return np.abs(self._coeffs) ** 2

    def periodogram(self) -> Periodogram:
        """The batch-identical :class:`Periodogram` of the current window."""
        if self._size == 0:
            raise ValueError("no values pushed yet")
        return Periodogram(self.power, self.n)

    def spectrum(self) -> Spectrum:
        """The batch-identical complex :class:`Spectrum` of the window."""
        if self._size == 0:
            raise ValueError("no values pushed yet")
        n = self.n
        return Spectrum(self._coeffs, half_weights(n), n)
