"""Zhu & Shasha's elastic burst detection — the paper's baseline [17].

Section 6 claims: "Compared to the work of Zhu & Shasha, our approach is
more flexible since it does not require a custom index structure, but can
easily be integrated in any relational database.  Moreover, our framework
requires significantly less storage space."  To ground that comparison,
this module implements the *Shifted Wavelet Tree* (SWT) from *Efficient
elastic burst detection in data streams* (KDD 2003):

* an **elastic burst** is any window ``[i, i+w-1]`` (for any length ``w``
  in a range) whose aggregate exceeds a length-dependent threshold
  ``f(w)``;
* the SWT is a pyramid of overlapping dyadic windows: level ``l`` holds
  sums over windows of length ``2**l``, shifted by half a window so every
  window of length ``<= 2**(l-1) + 1`` is fully contained in some level-l
  cell — giving a one-sided (no false dismissal) filter;
* detection first finds *alarmed* SWT cells (cell sum ``>= f(shortest
  window the cell guards)``), then verifies the actual windows inside
  alarmed cells only.

The ablation benchmark contrasts its output and costs with the paper's
moving-average detector and quantifies the storage claim (SWT cells vs
compact burst triplets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.timeseries.preprocessing import as_float_array
from repro.timeseries.series import TimeSeries

__all__ = ["ElasticBurst", "ShiftedWaveletTree", "ElasticBurstDetector"]


@dataclass(frozen=True, order=True)
class ElasticBurst:
    """One qualifying window: ``sum(x[start .. end]) >= threshold(len)``."""

    start: int
    end: int
    total: float

    def __len__(self) -> int:
        return self.end - self.start + 1


class ShiftedWaveletTree:
    """The SWT aggregation pyramid over a fixed sequence.

    Level ``l`` (``l >= 1``) stores sums of windows of length ``2**l``
    placed every ``2**(l-1)`` positions (i.e. consecutive windows overlap
    by half).  Any window of length in ``(2**(l-2), 2**(l-1)]`` ... is
    guaranteed to be fully contained in at least one level-``l`` window,
    which is the structure's no-false-dismissal property (verified by the
    tests).
    """

    def __init__(self, values) -> None:
        arr = as_float_array(values)
        self.values = arr
        self.prefix = np.concatenate(([0.0], np.cumsum(arr)))
        self.levels: dict[int, np.ndarray] = {}
        self.level_starts: dict[int, np.ndarray] = {}
        level = 1
        while 2**level <= max(2 * arr.size, 2):
            window = 2**level
            step = window // 2
            starts = np.arange(0, arr.size, step)
            ends = np.minimum(starts + window, arr.size)
            sums = self.prefix[ends] - self.prefix[starts]
            self.levels[level] = sums
            self.level_starts[level] = starts
            if window >= arr.size:
                break
            level += 1
        self.max_level = level

    def window_sum(self, start: int, length: int) -> float:
        """Exact sum of ``values[start : start + length]``."""
        end = min(start + length, self.values.size)
        return float(self.prefix[end] - self.prefix[start])

    def guard_level(self, length: int) -> int:
        """The SWT level whose cells contain every window of ``length``.

        Level-``l`` cells are ``2**l`` long and start every ``2**(l-1)``
        positions, so a window of length ``w <= 2**(l-1) + 1`` lies
        inside one wherever it starts.  Returns the lowest such level,
        capped at ``max_level`` (whose cells span the whole sequence).
        """
        level = 1
        while 2 ** (level - 1) + 1 < length and level < self.max_level:
            level += 1
        return level


class ElasticBurstDetector:
    """Find every window whose aggregate beats a length-based threshold.

    Parameters
    ----------
    threshold:
        ``f(window_length) -> float``; must be non-decreasing in the
        window length for the SWT filter to be admissible.
    lengths:
        The window lengths to monitor (the "elastic" part).
    """

    def __init__(
        self,
        threshold: Callable[[int], float],
        lengths: Sequence[int] = (1, 2, 4, 8, 16, 32),
    ) -> None:
        if not lengths:
            raise ValueError("need at least one window length")
        if any(length < 1 for length in lengths):
            raise ValueError("window lengths must be >= 1")
        self.threshold = threshold
        self.lengths = tuple(sorted(set(int(w) for w in lengths)))

    def detect(self, values) -> list[ElasticBurst]:
        """All qualifying windows, with SWT pruning then exact checks.

        Requires non-negative data (count streams, as in Zhu & Shasha):
        the no-false-dismissal guarantee relies on a containing window's
        sum dominating the contained window's sum.
        """
        return [
            ElasticBurst(*window) for window in zip(*self.windows(values))
        ]

    def windows(self, values) -> tuple[list[int], list[int], list[float]]:
        """:meth:`detect` as parallel ``(starts, ends, totals)`` lists.

        Per length, one vectorised pass: the start positions inside
        alarmed guard-level cells become a coverage mask, and only those
        windows are summed and compared.
        """
        if isinstance(values, TimeSeries):
            values = values.values
        arr = as_float_array(values)
        if arr.min() < 0:
            raise ValueError(
                "elastic burst detection requires non-negative counts"
            )
        tree = ShiftedWaveletTree(arr)
        n = arr.size
        starts, ends, totals = [], [], []
        for length in self.lengths:
            if length > n:
                continue
            cutoff = self.threshold(length)
            level = tree.guard_level(length)
            cells = tree.level_starts[level][tree.levels[level] >= cutoff]
            # A cell holds the windows starting in [cell, last].  A clipped
            # cell shorter than the window has last < cell: it subtracts
            # only past n - length, where no window starts.
            last = np.minimum(cells + 2**level, n) - length
            edges = np.bincount(cells, minlength=n + 1) - np.bincount(
                last + 1, minlength=n + 1
            )
            covered = np.flatnonzero(np.cumsum(edges) > 0)
            sums = tree.prefix[covered + length] - tree.prefix[covered]
            hits = sums >= cutoff
            starts.append(covered[hits])
            ends.append(covered[hits] + (length - 1))
            totals.append(sums[hits])
        if not starts:
            return [], [], []
        starts, ends, totals = map(np.concatenate, (starts, ends, totals))
        order = np.lexsort((totals, ends, starts))
        return (
            starts[order].tolist(), ends[order].tolist(), totals[order].tolist()
        )

    def detect_naive(self, values) -> list[ElasticBurst]:
        """Reference implementation: test every window exhaustively."""
        if isinstance(values, TimeSeries):
            values = values.values
        arr = as_float_array(values)
        prefix = np.concatenate(([0.0], np.cumsum(arr)))
        found = []
        for length in self.lengths:
            if length > arr.size:
                continue
            cutoff = self.threshold(length)
            sums = prefix[length:] - prefix[:-length]
            for start in np.flatnonzero(sums >= cutoff):
                found.append(
                    ElasticBurst(
                        int(start), int(start) + length - 1, float(sums[start])
                    )
                )
        found.sort()
        return found

    def storage_cells(self, values) -> int:
        """SWT cells retained for monitoring (the storage comparison)."""
        if isinstance(values, TimeSeries):
            values = values.values
        tree = ShiftedWaveletTree(values)
        return int(sum(level.size for level in tree.levels.values()))
