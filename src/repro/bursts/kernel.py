"""The one trailing moving-average kernel shared by batch and online paths.

The batch :class:`~repro.bursts.detection.BurstDetector` and the online
form of the ``ma`` model both call here, so the online-equivalence tests
never have to prove that two independent codepaths agree:

* :class:`TrailingMA` is the stateful kernel.  :meth:`TrailingMA.push`
  extends the smoothed series in O(1) through the prefix-sum recurrence;
  :meth:`TrailingMA.extend` is the vectorised formulation: one
  ``np.cumsum`` seeded with the running prefix total, one vectorised
  window division.  The two are bit-identical because ``np.cumsum``
  performs the same sequential left-to-right additions the recurrence
  does, and the window arithmetic
  ``(prefix[i+1] - prefix[lo]) / (i + 1 - lo)`` is the same IEEE
  expression scalar-by-scalar or vectorised.
* :func:`burst_cutoff` is the shared threshold ``mean(MA) + x*std(MA)``
  — one numpy reduction spelling for both sides, so the cutoffs cannot
  drift apart either.
* :func:`prefix_cutoffs` is the bulk form of that threshold: every
  prefix's cutoff, each equal to ``burst_cutoff(smoothed[:i], x)``
  exactly.  It keeps two ``np.add.reduce`` calls per prefix (mean,
  variance) because numpy sums pairwise: the association tree depends
  on the length, so an O(n) running total (cumsum, Welford) lands an
  ulp away from the batch detector.  Those reductions are what
  bit-identity costs; the ``mean``/``std`` dispatch, divisions, square
  roots and comparisons around them run once per block, not per day.

``tests/bursts/test_kernel.py`` asserts push-vs-extend bit-identity on
random data for every window, ``tests/bursts/test_bulk_seed.py`` asserts
``prefix_cutoffs`` against ``burst_cutoff`` prefix by prefix; the
detector-level equivalence suites inherit both instead of re-proving
them.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.preprocessing import as_float_array

__all__ = ["TrailingMA", "burst_cutoff", "prefix_cutoffs"]


def burst_cutoff(smoothed: np.ndarray, threshold_sigmas: float) -> float:
    """The §6.1 threshold ``mean(MA) + x * std(MA)`` over a smoothed series."""
    if threshold_sigmas <= 0:
        raise ValueError(
            f"threshold_sigmas must be positive, got {threshold_sigmas}"
        )
    return float(smoothed.mean() + threshold_sigmas * smoothed.std())


def prefix_cutoffs(
    smoothed: np.ndarray, threshold_sigmas: float, start: int = 0
) -> np.ndarray:
    """:func:`burst_cutoff` of every prefix longer than ``start``, exactly.

    Entry ``j`` is ``burst_cutoff(smoothed[: start + j + 1], x)``: the
    steps numpy's ``mean`` and ``std`` take, with the two ``add.reduce``
    calls kept per prefix and the rest run once over the block.
    """
    lengths = np.arange(start + 1, smoothed.size + 1)
    prefixes = [smoothed[:length] for length in lengths.tolist()]
    sums = np.array([np.add.reduce(prefix) for prefix in prefixes])
    means = sums / lengths
    scratch = np.empty(smoothed.size, dtype=np.float64)
    for j, prefix in enumerate(prefixes):
        deviations = np.subtract(prefix, means[j], out=scratch[: prefix.size])
        np.multiply(deviations, deviations, out=deviations)
        sums[j] = np.add.reduce(deviations)
    return means + threshold_sigmas * np.sqrt(sums / lengths)


class TrailingMA:
    """Append-only trailing moving average over a growing sequence.

    Prefixes shorter than ``window`` average only the points seen so far
    (a growing prefix window), exactly like the batch detector's
    ``min(window, size)`` clamp.  Smoothed values never change once
    computed — only downstream statistics (e.g. the cutoff) move — so
    the internal buffers are append-only with doubling capacity.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._size = 0
        self._prefix = np.zeros(16, dtype=np.float64)  # prefix[0] == 0.0
        self._smoothed = np.empty(15, dtype=np.float64)

    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        return self._size

    @property
    def effective_window(self) -> int:
        """The batch detector's ``min(window, size)`` clamp."""
        return min(self.window, self._size) if self._size else self.window

    @property
    def smoothed(self) -> np.ndarray:
        """Read-only view of the smoothed series over every pushed value."""
        view = self._smoothed[: self._size]
        view.setflags(write=False)
        return view

    def smoothed_copy(self) -> np.ndarray:
        """A writable copy of the smoothed series."""
        return self._smoothed[: self._size].copy()

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._smoothed.size
        if needed <= capacity:
            return
        while capacity < needed:
            capacity = 2 * capacity + 1
        prefix = np.zeros(capacity + 1, dtype=np.float64)
        prefix[: self._size + 1] = self._prefix[: self._size + 1]
        smoothed = np.empty(capacity, dtype=np.float64)
        smoothed[: self._size] = self._smoothed[: self._size]
        self._prefix = prefix
        self._smoothed = smoothed

    def push(self, value: float) -> float:
        """Absorb one value; returns its smoothed (trailing-mean) value.

        O(1): one prefix-sum addition and one window division, the same
        arithmetic ``np.cumsum`` + vectorised division performs in
        :meth:`extend`.  The value is not validated here: the detectors
        that push day by day do that once, at their own boundary.
        """
        self._reserve(1)
        index = self._size
        self._prefix[index + 1] = self._prefix[index] + value
        lo = max(index - self.window + 1, 0)
        smoothed = (self._prefix[index + 1] - self._prefix[lo]) / (
            index + 1 - lo
        )
        self._smoothed[index] = smoothed
        self._size += 1
        return float(smoothed)

    def extend(self, values) -> np.ndarray:
        """Absorb a block of values; returns their smoothed values.

        One ``np.cumsum`` seeded with the running prefix total and one
        vectorised window division: ``np.cumsum`` accumulates
        sequentially, so these are exactly the additions :meth:`push`
        performs, from an empty kernel or a seeded one.  The block is
        validated whole before any of it is absorbed.
        """
        arr = as_float_array(values)
        size, n = self._size, arr.size
        self._reserve(n)
        self._prefix[size : size + n + 1] = np.cumsum(
            np.concatenate((self._prefix[size : size + 1], arr))
        )
        idx = np.arange(size, size + n)
        lo = np.maximum(idx - self.window + 1, 0)
        smoothed = (self._prefix[idx + 1] - self._prefix[lo]) / (idx + 1 - lo)
        self._smoothed[size : size + n] = smoothed
        self._size += n
        return smoothed
