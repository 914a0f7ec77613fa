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
  — one spelling for both sides, so the cutoffs cannot drift apart
  either.  It takes the steps numpy's ``mean`` and ``std`` take (one
  pairwise ``np.add.reduce`` each), bit for bit, without their dispatch.
* :func:`prefix_bursts` decides each prefix's newest day against that
  prefix's cutoff.  Numpy sums pairwise, so no O(n) running total
  reproduces a prefix's ``mean``/``std`` to the bit, but one lands
  within a bound it can compute: only the days that bound leaves
  undecided, the rising edges (their alerts carry the cutoff) and the
  last day pay an exact :func:`burst_cutoff`.

``tests/bursts/test_kernel.py`` asserts push-vs-extend bit-identity on
random data for every window, ``tests/bursts/test_bulk_seed.py`` asserts
``prefix_bursts`` against the literal ``mean() + x * std()`` at every
prefix; the detector-level equivalence suites inherit both instead of
re-proving them.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.preprocessing import as_float_array

__all__ = ["TrailingMA", "burst_cutoff", "prefix_bursts"]


def burst_cutoff(smoothed: np.ndarray, threshold_sigmas: float) -> float:
    """The §6.1 threshold ``mean(MA) + x * std(MA)`` over a smoothed series."""
    if threshold_sigmas <= 0:
        raise ValueError(
            f"threshold_sigmas must be positive, got {threshold_sigmas}"
        )
    mean = np.add.reduce(smoothed) / smoothed.size
    deviations = smoothed - mean
    variance = np.add.reduce(deviations * deviations) / smoothed.size
    return float(mean + threshold_sigmas * np.sqrt(variance))


def prefix_bursts(
    smoothed: np.ndarray,
    threshold_sigmas: float,
    start: int = 0,
    bursting: bool = False,
) -> tuple[np.ndarray, list[int], dict[int, float]]:
    """Whether each day from ``start`` on beats its prefix's cutoff.

    Returns ``(flags, edges, exact)``: ``flags[j]`` is
    ``smoothed[start + j] > burst_cutoff(smoothed[: start + j + 1], x)``,
    ``edges`` the rising edges after ``bursting``, and ``exact`` maps each
    day whose exact cutoff was computed to it: every edge, the last day,
    and each day the estimate cannot decide.

    The estimate shifts by ``c`` (the whole series' mean) and keeps
    running sums ``P1``, ``P2`` of ``d = s - c`` and ``d²``.  With ``m``
    the prefix length, ``r² = P2 / m``, ``u = 2⁻⁵³``, and ``μ``, ``σ``
    the true mean and std (``σ ≤ r``, mean ``|s| ≤ |c| + r``): numpy's
    mean is off by ``γₘ(|c| + r)`` in any summation order, and its std by
    ``γₘ₊₅(|c| + 2r)`` (relative errors of non-negative terms, and
    ``√(σ² + (m̂ − μ)²) − σ ≤ |m̂ − μ|``); the estimate's mean by
    ``γₘ₊₁r``, its variance by ``ε ≤ 6γₘ₊₃r²`` and so its std by
    ``min(√ε, ε / std)``; the four last roundings by ``5u(1 + x)(|c| +
    2r)``.  The band ``g(1 + x)(|c| + 2r) + x·min(√(2gr²), 2gr² / std)``
    with ``g = 4(m + 16)u`` holds each term with room for its own
    rounding.  Underflowing squares move either std by under 10⁻¹⁶¹,
    inside the ``(1 + x)·2⁻⁵⁰⁰`` floor.  Where ``m(1 + x)(|c| + 2r) +
    2mr²`` overflows, some sum or square may too, and the band is inf;
    ``~(gap > band)`` reads a NaN gap or band as undecided.
    """
    x, latest = threshold_sigmas, smoothed[start:]
    m = np.arange(start + 1, smoothed.size + 1, dtype=np.float64)
    with np.errstate(all="ignore"):
        shift = np.add.reduce(smoothed) / smoothed.size
        d = smoothed - shift
        p2 = np.cumsum(d * d)[start:]
        mean = np.cumsum(d)[start:] / m
        std = np.sqrt(np.maximum(p2 / m - mean * mean, 0.0))
        g = 4 * (m + 16) * 2.0**-53
        err = 2 * g * p2 / m
        scale = (1 + x) * (abs(shift) + 2 * np.sqrt(p2 / m))
        band = g * scale + x * np.fmin(np.sqrt(err), err / std)
        band += (1 + x) * 2.0**-500
        band[~(m * scale + 2 * p2 < np.inf)] = np.inf
        estimate = shift + mean + x * std
        flags = latest > estimate
        undecided = ~(np.abs(latest - estimate) > band)
    if start == 0:
        # A one-day prefix's cutoff is its value (NaN if not finite): no burst.
        flags[0] = undecided[0] = False
    exact = {}
    for j in np.flatnonzero(undecided).tolist():
        exact[j] = burst_cutoff(smoothed[: start + j + 1], x)
        flags[j] = latest[j] > exact[j]
    edges = np.flatnonzero(flags & ~np.append(bursting, flags[:-1])).tolist()
    for j in edges + [latest.size - 1]:
        if j not in exact:
            exact[j] = burst_cutoff(smoothed[: start + j + 1], x)
    return flags, edges, exact


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
