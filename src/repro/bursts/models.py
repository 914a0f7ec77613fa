"""The four registered :class:`~repro.bursts.protocol.BurstModel` backends.

===========  ==============================  ==========================
registry     mathematics                     online form
===========  ==============================  ==========================
``ma``       §6.1 trailing moving average    incremental (shared
             over a global cutoff            :class:`~repro.bursts
                                             .kernel.TrailingMA`
                                             kernel, O(n) cutoff)
``kleinberg``  2-(or k-)state Poisson         replay (Viterbi and the
             automaton, Viterbi [11]         base rate are global)
             (``bursts/kleinberg.py``)
``elastic``  Zhu & Shasha SWT windows [17]   incremental (windows
             (``bursts/elastic.py``)         ending at the new day)
``macd``     EMA crossover (fast − slow vs   incremental (the batch
             signal line)                    form *is* a replayed
                                             online state)
===========  ==============================  ==========================

Weight semantics (the ``BurstRegion.weight`` each model reports):

* ``ma`` — the area between the smoothed series and the cutoff over the
  region, ``sum(MA_t - cutoff)``: how far above threshold, for how long;
* ``kleinberg`` — the emission-cost saving of the assigned states vs the
  baseline state summed over the region (Kleinberg's burst weight);
* ``elastic`` — the window's aggregate sum (the quantity the threshold
  function gates);
* ``macd`` — the MACD histogram (momentum above the signal line) summed
  over the region.

Weights are model-specific currencies: the leaderboard ranks queries
*within* one model, never across models.

Every model honours the online-equivalence contract
(``online().regions()`` bit-identical to ``detect`` at every prefix);
the cross-model *agreement* on obvious bursts — and the documented
disagreement cases — live in ``tests/bursts/test_agreement.py``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.bursts.detection import (
    LONG_TERM_WINDOW,
    BurstAnnotation,
    BurstDetector,
)
from repro.bursts.elastic import ElasticModel
from repro.bursts.kernel import TrailingMA, burst_cutoff, prefix_bursts
from repro.bursts.kleinberg import KleinbergModel
from repro.bursts.protocol import (
    BurstModel,
    BurstRegion,
    OnlineDetector,
    RegionAlert,
    mask_regions,
)
from repro.timeseries.preprocessing import as_float_array

__all__ = [
    "MovingAverageModel",
    "KleinbergModel",
    "ElasticModel",
    "MACDModel",
]


# ----------------------------------------------------------------------
# "ma" — the paper's §6.1 detector
# ----------------------------------------------------------------------
def _annotation_regions(annotation: BurstAnnotation) -> list[BurstRegion]:
    """Score each masked run by its area above the cutoff.

    One shared function serves the batch and online paths, so their
    regions agree bit-for-bit whenever (smoothed, cutoff) do — which the
    shared kernel guarantees.
    """
    smoothed, cutoff = annotation.smoothed, annotation.cutoff
    return [
        BurstRegion(s, e, float(np.add.reduce(smoothed[s : e + 1] - cutoff)))
        for s, e in mask_regions(annotation.mask)
    ]


class MovingAverageModel(BurstModel):
    """The paper's trailing moving-average detector as a pluggable model.

    Parameters mirror :class:`~repro.bursts.detection.BurstDetector`
    (trailing mode only — the online form forbids look-ahead).
    """

    name = "ma"

    def __init__(
        self,
        window: int = LONG_TERM_WINDOW,
        threshold_sigmas: float = 1.5,
    ) -> None:
        self.window = int(window)
        self.threshold_sigmas = float(threshold_sigmas)
        self._detector = BurstDetector(
            self.window, self.threshold_sigmas, mode="trailing"
        )

    def detect(self, values) -> list[BurstRegion]:
        return _annotation_regions(self._detector.detect(values))

    def online(self) -> OnlineDetector:
        return _OnlineMovingAverage(self.window, self.threshold_sigmas)


class _OnlineMovingAverage(OnlineDetector):
    """The incremental MA form: §6.1's recipe one day at a time.

    1. the trailing moving average extends in O(1) per pushed value
       through the shared :class:`~repro.bursts.kernel.TrailingMA`
       kernel, the implementation the batch detector runs vectorised,
       so every smoothed value is bit-identical to the batch
       computation on the same prefix by construction;
    2. the cutoff ``mean(MA) + x * std(MA)`` is recomputed over the
       accumulated smoothed array with the shared
       :func:`~repro.bursts.kernel.burst_cutoff` reduction (O(n) per
       push — the honest price of an exactly matching cutoff, since one
       new day moves the global mean and std);
    3. the burst decision for the newest day falls out of the fresh
       cutoff.

    :meth:`annotation` equals ``BurstDetector(window, x).detect`` of
    the prefix field for field (asserted by
    ``tests/stream/test_alerts.py``).  Only the ``"trailing"``
    alignment exists here: a centered window reads days that have not
    happened yet.
    """

    def __init__(self, window: int, threshold_sigmas: float) -> None:
        super().__init__()
        self.threshold_sigmas = threshold_sigmas
        self._kernel = TrailingMA(window)
        self._cutoff = 0.0

    def _absorb(self, value: float) -> bool:
        latest = self._kernel.push(value)
        self._cutoff = burst_cutoff(
            self._kernel.smoothed, self.threshold_sigmas
        )
        obs.add("bursts.online_pushes")
        return latest > self._cutoff

    def _absorb_block(self, arr: np.ndarray) -> list[RegionAlert]:
        """One kernel pass; an exact cutoff only where a decision needs it.

        :func:`~repro.bursts.kernel.prefix_bursts` decides each day of
        the block against the cutoff that stood after it, as pushed
        alone; it computes that cutoff exactly only for the days its
        running estimate cannot decide, the rising edges and the last
        day (counted under ``bursts.ma.exact_cutoffs``).  An alert's
        region is the one :meth:`regions` held at its firing prefix (the
        run ending at the alert day, under *that* prefix's cutoff), cut
        from the arrays, not rebuilt with every region.
        """
        first = self._size
        latest = self._kernel.extend(arr)
        smoothed = self._kernel.smoothed
        flags, edges, exact = prefix_bursts(
            smoothed, self.threshold_sigmas, first, self._bursting
        )
        self._cutoff = exact[arr.size - 1]
        obs.add("bursts.online_pushes", latest.size)
        obs.add("bursts.ma.exact_cutoffs", len(exact))
        alerts = []
        for j in edges:
            day, cutoff = first + j, exact[j]
            quiet = np.flatnonzero(~(smoothed[:day] > cutoff))
            start = int(quiet[-1]) + 1 if quiet.size else 0
            weight = float(np.add.reduce(smoothed[start : day + 1] - cutoff))
            region = BurstRegion(start, day, weight)
            value, statistic = float(arr[j]), float(latest[j])
            alerts.append(RegionAlert(day, value, statistic, cutoff, region))
        self._bursting = bool(flags[-1])
        self._size += arr.size
        return alerts

    def annotation(self) -> BurstAnnotation:
        """The batch-identical :class:`BurstAnnotation` for all days seen."""
        if self._kernel.size == 0:
            raise ValueError("no values pushed yet")
        smoothed = self._kernel.smoothed_copy()
        return BurstAnnotation(
            mask=smoothed > self._cutoff,
            smoothed=smoothed,
            cutoff=self._cutoff,
            window=self._kernel.effective_window,
        )

    def regions(self) -> list[BurstRegion]:
        # The kernel counts the day being absorbed before the base class
        # does, and an alert reads regions in between.
        if self._kernel.size == 0:
            return []
        return _annotation_regions(self.annotation())

    @property
    def decision_statistic(self) -> float:
        return float(self._kernel.smoothed[-1])

    @property
    def decision_threshold(self) -> float:
        return self._cutoff


# ----------------------------------------------------------------------
# "macd" — EMA signal-line crossover
# ----------------------------------------------------------------------
class _MACDState:
    """The one MACD kernel: an EMA triple advanced one day at a time.

    The batch form replays this exact state machine, so batch/online
    bit-identity is by construction — there is no second implementation
    to drift.  Recurrences (``e_t = a*v_t + (1-a)*e_{t-1}``, seeded with
    the first observation) are inherently sequential, which is also why
    the online form is genuinely O(1) per push.
    """

    def __init__(self, fast: float, slow: float, signal: float) -> None:
        self._alpha_fast = 2.0 / (fast + 1.0)
        self._alpha_slow = 2.0 / (slow + 1.0)
        self._alpha_signal = 2.0 / (signal + 1.0)
        self._ema_fast = 0.0
        self._ema_slow = 0.0
        self._ema_signal = 0.0
        self.size = 0
        self.macd: list[float] = []
        self.histogram: list[float] = []

    def push(self, value: float) -> bool:
        value = float(value)
        if self.size == 0:
            self._ema_fast = value
            self._ema_slow = value
        else:
            self._ema_fast += self._alpha_fast * (value - self._ema_fast)
            self._ema_slow += self._alpha_slow * (value - self._ema_slow)
        macd = self._ema_fast - self._ema_slow
        if self.size == 0:
            self._ema_signal = macd
        else:
            self._ema_signal += self._alpha_signal * (macd - self._ema_signal)
        histogram = macd - self._ema_signal
        self.macd.append(macd)
        self.histogram.append(histogram)
        self.size += 1
        return histogram > 0.0 and macd > 0.0

    def regions(self) -> list[BurstRegion]:
        macd = np.asarray(self.macd)
        histogram = np.asarray(self.histogram)
        mask = (histogram > 0.0) & (macd > 0.0)
        return [
            BurstRegion(s, e, float(np.add.reduce(histogram[s : e + 1])))
            for s, e in mask_regions(mask)
        ]


class MACDModel(BurstModel):
    """MACD-style crossover burst detector (the fourth backend).

    A day bursts when demand momentum is positive on both tests: the
    fast EMA is above the slow EMA (``macd > 0`` — demand is above its
    own recent baseline) *and* the MACD line is above its signal EMA
    (``histogram > 0`` — the excess is still accelerating, the
    crossover has fired and not yet decayed).  Region weight is the
    histogram summed over the run.

    Parameters are the classic (fast, slow, signal) EMA spans; the
    defaults are scaled to daily query series (one-week fast horizon
    against a one-month baseline).
    """

    name = "macd"

    def __init__(
        self, fast: float = 7.0, slow: float = 30.0, signal: float = 9.0
    ) -> None:
        if not 0.0 < fast < slow:
            raise ValueError(
                f"need 0 < fast < slow, got fast={fast}, slow={slow}"
            )
        if signal <= 0.0:
            raise ValueError(f"signal span must be positive, got {signal}")
        self.fast = float(fast)
        self.slow = float(slow)
        self.signal = float(signal)

    def _state(self) -> _MACDState:
        return _MACDState(self.fast, self.slow, self.signal)

    def detect(self, values) -> list[BurstRegion]:
        arr = as_float_array(values)
        state = self._state()
        for value in arr:
            state.push(value)
        return state.regions()

    def online(self) -> OnlineDetector:
        return _OnlineMACD(self._state())


class _OnlineMACD(OnlineDetector):
    def __init__(self, state: _MACDState) -> None:
        super().__init__()
        self._state = state

    def _absorb(self, value: float) -> bool:
        return self._state.push(value)

    def regions(self) -> list[BurstRegion]:
        return self._state.regions()

    @property
    def decision_statistic(self) -> float:
        return self._state.histogram[-1] if self._state.histogram else 0.0

    @property
    def decision_threshold(self) -> float:
        return 0.0
