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

:class:`ElasticModel` reports every qualifying window as a
:class:`~repro.bursts.protocol.BurstRegion` weighted by its sum; its
online form checks only the windows ending at each new day.  The
ablation benchmark contrasts its output and costs with the paper's
moving-average detector and quantifies the storage claim (SWT cells vs
compact burst triplets).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.bursts.protocol import BurstModel, BurstRegion, OnlineDetector
from repro.timeseries.preprocessing import as_float_array

__all__ = ["ShiftedWaveletTree", "ElasticModel"]


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


class ElasticModel(BurstModel):
    """Find every window whose aggregate beats a length-based threshold.

    Negative inputs are clipped to zero point-by-point before detection
    — the SWT's no-false-dismissal guarantee needs non-negative data,
    and a *pointwise* transform keeps every prefix's inputs stable so
    the incremental form stays bit-identical.  The threshold function
    must be pure (a fixed function of the window length, never of the
    data) for the same reason, and non-decreasing in the window length
    for the SWT filter to be admissible.

    Parameters
    ----------
    threshold:
        ``f(window_length) -> float``.  The default is the affine
        ``f(w) = offset + rate * w``, tuned for z-scored series where a
        sustained burst runs 2+ sigmas above the mean.
    lengths:
        The window lengths to monitor (the "elastic" part).
    """

    name = "elastic"

    def __init__(
        self,
        threshold: Callable[[int], float] | None = None,
        lengths: Sequence[int] = (7, 14, 30),
        offset: float = 4.0,
        rate: float = 1.0,
    ) -> None:
        if not lengths:
            raise ValueError("need at least one window length")
        if any(length < 1 for length in lengths):
            raise ValueError("window lengths must be >= 1")
        self.offset = float(offset)
        self.rate = float(rate)
        if threshold is None:
            threshold = lambda w: self.offset + self.rate * w  # noqa: E731
        self.threshold = threshold
        self.lengths = tuple(sorted(set(int(w) for w in lengths)))

    def detect(self, values) -> list[BurstRegion]:
        """All qualifying windows, with SWT pruning then exact checks."""
        arr = np.maximum(as_float_array(values), 0.0)
        return BurstRegion.trusted(*self.windows(arr))

    def online(self) -> OnlineDetector:
        return _OnlineElastic(self.threshold, self.lengths)

    def windows(self, values) -> tuple[list[int], list[int], list[float]]:
        """Every qualifying window as parallel ``(starts, ends, totals)``
        lists, ordered like :meth:`detect`.

        Requires non-negative data (count streams, as in Zhu & Shasha):
        the no-false-dismissal guarantee relies on a containing window's
        sum dominating the contained window's sum.  Per length, one
        vectorised pass: the start positions inside alarmed guard-level
        cells become a coverage mask, and only those windows are summed
        and compared.
        """
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

    def detect_naive(self, values) -> list[BurstRegion]:
        """Reference implementation: test every window exhaustively."""
        arr = np.maximum(as_float_array(values), 0.0)
        prefix = np.concatenate(([0.0], np.cumsum(arr)))
        found = []
        for length in self.lengths:
            if length > arr.size:
                continue
            cutoff = self.threshold(length)
            sums = prefix[length:] - prefix[:-length]
            for start in np.flatnonzero(sums >= cutoff):
                found.append(
                    BurstRegion(
                        int(start), int(start) + length - 1, float(sums[start])
                    )
                )
        found.sort()
        return found

    def storage_cells(self, values) -> int:
        """SWT cells retained for monitoring (the storage comparison)."""
        tree = ShiftedWaveletTree(values)
        return int(sum(level.size for level in tree.levels.values()))


class _OnlineElastic(OnlineDetector):
    """Incremental elastic form: check the windows ending at each new day.

    A window's sum never changes once its last day has arrived, so the
    qualifying set is append-only: pushing day ``i`` evaluates exactly
    the ``len(lengths)`` windows that end at ``i``, through the same
    prefix-sum arithmetic (``prefix[end] - prefix[start]``, sequential
    accumulation identical to ``np.cumsum``) the batch SWT verifies
    alarmed cells with.
    """

    def __init__(
        self, threshold: Callable[[int], float], lengths: tuple[int, ...]
    ) -> None:
        super().__init__()
        self._threshold = threshold
        self._lengths = lengths
        self._prefix = [0.0]
        self._found: list[BurstRegion] = []

    def _absorb(self, value: float) -> bool:
        clipped = max(float(value), 0.0)
        self._prefix.append(self._prefix[-1] + clipped)
        size = len(self._prefix) - 1
        bursting = False
        for length in self._lengths:
            if length > size:
                continue
            total = self._prefix[size] - self._prefix[size - length]
            if total >= self._threshold(length):
                self._found.append(
                    BurstRegion(size - length, size - 1, float(total))
                )
                bursting = True
        return bursting

    def regions(self) -> list[BurstRegion]:
        return sorted(self._found)

    @property
    def decision_statistic(self) -> float:
        """Best margin (sum − threshold) over the windows ending today."""
        size = len(self._prefix) - 1
        margins = [
            (self._prefix[size] - self._prefix[size - w]) - self._threshold(w)
            for w in self._lengths
            if w <= size
        ]
        return max(margins) if margins else float("-inf")

    @property
    def decision_threshold(self) -> float:
        return 0.0
