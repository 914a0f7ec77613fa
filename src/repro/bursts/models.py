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
``elastic``  Zhu & Shasha SWT windows [17]   incremental (windows
                                             ending at the new day)
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

from typing import Callable, Sequence

import numpy as np

from repro.bursts.detection import (
    LONG_TERM_WINDOW,
    BurstAnnotation,
    BurstDetector,
)
from repro.bursts.elastic import ElasticBurstDetector
from repro.bursts.kleinberg import KleinbergDetector
from repro.bursts.protocol import (
    BurstModel,
    BurstRegion,
    OnlineDetector,
    RegionAlert,
    mask_regions,
)
from repro.bursts.streaming import OnlineBurstDetector
from repro.timeseries.preprocessing import as_float_array
from repro.timeseries.series import TimeSeries

__all__ = [
    "MovingAverageModel",
    "KleinbergModel",
    "ElasticModel",
    "MACDModel",
]


def _values_of(values) -> np.ndarray:
    if isinstance(values, TimeSeries):
        values = values.values
    return as_float_array(values)


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
        BurstRegion(
            start, end, float(np.sum(smoothed[start : end + 1] - cutoff))
        )
        for start, end in mask_regions(annotation.mask)
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
    """Incremental MA form over the shared kernel."""

    def __init__(self, window: int, threshold_sigmas: float) -> None:
        super().__init__()
        self._detector = OnlineBurstDetector(window, threshold_sigmas)

    def _absorb(self, value: float) -> bool:
        return self._detector._absorb(value)

    def _absorb_block(self, arr: np.ndarray) -> list[RegionAlert]:
        """One kernel pass; rising edges from one array comparison.

        An alert's region is the one :meth:`regions` held at its firing
        prefix (the run ending at the alert day, under *that* prefix's
        cutoff), cut from the arrays, not rebuilt with every region.
        """
        first = self._size
        latest, cutoffs = self._detector.extend(arr)
        flags = latest > cutoffs
        rising = flags & ~np.concatenate(([self._bursting], flags[:-1]))
        smoothed = self._detector.smoothed if rising.any() else None
        alerts = []
        for j in np.flatnonzero(rising).tolist():
            day, cutoff = first + j, float(cutoffs[j])
            quiet = np.flatnonzero(~(smoothed[:day] > cutoff))
            start = int(quiet[-1]) + 1 if quiet.size else 0
            weight = float(np.sum(smoothed[start : day + 1] - cutoff))
            region = BurstRegion(start, day, weight)
            value, statistic = float(arr[j]), float(latest[j])
            alerts.append(RegionAlert(day, value, statistic, cutoff, region))
        self._bursting = bool(flags[-1])
        self._size += arr.size
        return alerts

    def regions(self) -> list[BurstRegion]:
        if len(self._detector) == 0:
            return []
        return _annotation_regions(self._detector.annotation())

    @property
    def decision_statistic(self) -> float:
        return float(self._detector.smoothed[-1])

    @property
    def decision_threshold(self) -> float:
        return self._detector.cutoff


# ----------------------------------------------------------------------
# "kleinberg" — the automaton baseline [11]
# ----------------------------------------------------------------------
class KleinbergModel(BurstModel):
    """Kleinberg's burst automaton as a pluggable model.

    The online form is the replay fallback — honestly so: the Poisson
    base rate is the mean of *all* days seen and the Viterbi path is a
    global optimum, so one new day can legitimately re-label history.
    Regions may therefore retract between prefixes; the equivalence
    contract (online == batch at every prefix) still holds exactly,
    because the online form *is* the batch form.
    """

    name = "kleinberg"

    def __init__(
        self, scaling: float = 2.0, gamma: float = 1.0, states: int = 2
    ) -> None:
        self._detector = KleinbergDetector(
            scaling=scaling, gamma=gamma, states=states
        )
        self.scaling = self._detector.scaling
        self.gamma = self._detector.gamma
        self.states = self._detector.states

    def detect(self, values) -> list[BurstRegion]:
        arr = _values_of(values)
        states, savings = self._detector.weighted_states(arr)
        regions: list[BurstRegion] = []
        for start, end in mask_regions(states >= 1):
            level = int(states[start : end + 1].max())
            weight = float(np.sum(savings[start : end + 1]))
            regions.append(BurstRegion(start, end, weight, level=level))
        return regions


# ----------------------------------------------------------------------
# "elastic" — Zhu & Shasha's SWT windows [17]
# ----------------------------------------------------------------------
class ElasticModel(BurstModel):
    """Elastic (any-window-length) burst detection as a pluggable model.

    Negative inputs are clipped to zero point-by-point before detection
    — the SWT's no-false-dismissal guarantee needs non-negative data,
    and a *pointwise* transform keeps every prefix's inputs stable so
    the incremental form stays bit-identical.  The threshold function
    must be pure (a fixed function of the window length, never of the
    data) for the same reason; the default is the affine
    ``f(w) = offset + rate * w``, tuned for z-scored series where a
    sustained burst runs 2+ sigmas above the mean.
    """

    name = "elastic"

    def __init__(
        self,
        threshold: Callable[[int], float] | None = None,
        lengths: Sequence[int] = (7, 14, 30),
        offset: float = 4.0,
        rate: float = 1.0,
    ) -> None:
        self.offset = float(offset)
        self.rate = float(rate)
        if threshold is None:
            threshold = lambda w: self.offset + self.rate * w  # noqa: E731
        self.threshold = threshold
        self._detector = ElasticBurstDetector(threshold, lengths=lengths)
        self.lengths = self._detector.lengths

    def detect(self, values) -> list[BurstRegion]:
        arr = np.maximum(_values_of(values), 0.0)
        return [
            BurstRegion(*window)
            for window in zip(*self._detector.windows(arr))
        ]

    def online(self) -> OnlineDetector:
        return _OnlineElastic(self.threshold, self.lengths)


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
            BurstRegion(
                start, end, float(np.sum(histogram[start : end + 1]))
            )
            for start, end in mask_regions(mask)
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
        arr = _values_of(values)
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
