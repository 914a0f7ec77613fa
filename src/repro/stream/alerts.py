"""Real-time burst and period-change alerting over the live tier.

The batch pipeline answers "which days of this series were bursty?" and
"what are its significant periods?" after the fact; a streaming store
can do better and say so *as the day completes*.

:class:`LiveBurstMonitor` keeps one online detector per live series —
by default the paper's trailing moving-average model, but any
registered backend via ``model=`` (a
:func:`~repro.bursts.registry.get_burst_model` name or an
already-built :class:`~repro.bursts.protocol.BurstModel`).  Full-series
adds feed their whole history as one block (the detector's bulk
``extend``); each rollover feeds the day it just closed.  A
:class:`BurstAlert` fires on the *rising edge* — the first bursting day
after a quiet one — so a multi-day burst alerts once, not daily.  The
detectors honour the protocol's online-equivalence contract, so an alert
here is bit-for-bit the decision the same model's batch form would have
made on the same prefix.

:class:`LivePeriodMonitor` is the spectral sibling: one
:class:`~repro.periods.online.OnlinePeriodDetector` per series, raising
a :class:`PeriodAlert` whenever a series' *significant period set*
changes — a weekly rhythm appearing, or collapsing the way the paper's
air-travel queries did after 9/11.

Alerts accumulate in drain buffers (``stream.burst_alerts`` /
``stream.period_alerts`` count them); ``drain()`` hands them over and
clears.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.bursts.models import MovingAverageModel
from repro.bursts.protocol import BurstModel, BurstRegion, OnlineDetector
from repro.bursts.registry import get_burst_model
from repro.periods.detector import DetectedPeriod, PeriodDetectionResult
from repro.periods.online import OnlinePeriodDetector

__all__ = [
    "BurstAlert",
    "LiveBurstMonitor",
    "PeriodAlert",
    "LivePeriodMonitor",
]


@dataclass(frozen=True)
class BurstAlert:
    """One rising-edge burst notification."""

    name: str  #: the bursting series
    day: int  #: 0-based index of the day in the series' observed stream
    value: float  #: the raw count of the day that tripped the model
    smoothed: float  #: the model's decision statistic for the day
    cutoff: float  #: the threshold the statistic crossed
    #: the (currently known) burst region containing the day, scored by
    #: the model; ``None`` only on alerts built by legacy callers.
    region: BurstRegion | None = None


class LiveBurstMonitor:
    """Per-series online burst detection with edge-triggered alerts.

    Parameters
    ----------
    window / threshold_sigmas:
        The default moving-average model's parameters (ignored when an
        explicit ``model`` is supplied).
    model:
        A registered burst-model name (``"ma"``, ``"kleinberg"``,
        ``"elastic"``, ``"macd"``), an already-built
        :class:`~repro.bursts.protocol.BurstModel`, or ``None`` for the
        paper's trailing moving-average detector with the given
        ``window`` / ``threshold_sigmas``.
    """

    def __init__(
        self,
        window: int = 7,
        threshold_sigmas: float = 1.5,
        model: BurstModel | str | None = None,
    ) -> None:
        self.window = int(window)
        self.threshold_sigmas = float(threshold_sigmas)
        if model is None:
            model = MovingAverageModel(self.window, self.threshold_sigmas)
        self.model = get_burst_model(model)
        self._detectors: dict[str, OnlineDetector] = {}
        self._alerts: list[BurstAlert] = []

    def __len__(self) -> int:
        return len(self._detectors)

    def __bool__(self) -> bool:
        # A monitor that watches no series yet (say, right after a seal)
        # is still a monitor: ``if store.monitor`` asks whether one is on.
        return True

    def detector(self, name: str) -> OnlineDetector | None:
        """The per-series online detector, or ``None`` if never observed."""
        return self._detectors.get(name)

    def observe(self, name: str, value: float) -> BurstAlert | None:
        """Feed one completed day; returns the alert if one fired."""
        detector = self._detector_for(name)
        raised = self._emit(name, detector.push(detector.size, value))
        return raised[0] if raised else None  # at most one per day

    def observe_series(self, name: str, values) -> list[BurstAlert]:
        """Feed a whole history (e.g. a full-series add) as one block.

        Same alerts and state as :meth:`observe` day by day, through the
        detector's ``extend`` (one vectorised pass for ``ma``, a per-day
        loop elsewhere).  A NaN in the block absorbs none of it.
        """
        return self._emit(name, self._detector_for(name).extend(values))

    def _detector_for(self, name: str) -> OnlineDetector:
        detector = self._detectors.get(name)
        if detector is None:
            detector = self._detectors[name] = self.model.online()
        return detector

    def _emit(self, name: str, events) -> list[BurstAlert]:
        """Buffer and count the detector's rising edges as alerts."""
        alerts = [
            BurstAlert(
                name, e.day, e.value, e.statistic, e.threshold, e.region
            )
            for e in events
        ]
        if alerts:
            self._alerts.extend(alerts)
            obs.add("stream.burst_alerts", len(alerts))
        return alerts

    def forget(self, name: str) -> None:
        """Drop a series' detector (after a tombstone)."""
        self._detectors.pop(name, None)

    def drain(self) -> list[BurstAlert]:
        """All alerts raised since the last drain; clears the buffer."""
        alerts, self._alerts = self._alerts, []
        return alerts


@dataclass(frozen=True)
class PeriodAlert:
    """One confirmed change in a live series' significant period set."""

    name: str  #: the series whose periodicity changed
    day: int  #: 0-based index of the day whose arrival changed the set
    gained: tuple[DetectedPeriod, ...]  #: periods that became significant
    lost: tuple[DetectedPeriod, ...]  #: periods that stopped being so
    result: PeriodDetectionResult  #: the full detection at alert time


class LivePeriodMonitor:
    """Per-series online period detection with change-triggered alerts.

    Parameters
    ----------
    window / confidence / min_samples:
        Forwarded to every per-series
        :class:`~repro.periods.online.OnlinePeriodDetector`.
    """

    def __init__(
        self,
        window: int = 128,
        confidence: float = 0.9999,
        min_samples: int = 8,
    ) -> None:
        self.window = int(window)
        self.confidence = float(confidence)
        self.min_samples = int(min_samples)
        self._detectors: dict[str, OnlinePeriodDetector] = {}
        self._alerts: list[PeriodAlert] = []

    def __len__(self) -> int:
        return len(self._detectors)

    def __bool__(self) -> bool:
        return True  # on, even while it watches no series (see above)

    def detector(self, name: str) -> OnlinePeriodDetector | None:
        """The per-series detector, or ``None`` if never observed."""
        return self._detectors.get(name)

    def observe(self, name: str, value: float) -> list[PeriodAlert]:
        """Feed one completed day; returns the alerts it raised."""
        detector = self._detectors.get(name)
        if detector is None:
            detector = OnlinePeriodDetector(
                window=self.window,
                confidence=self.confidence,
                min_samples=self.min_samples,
            )
            self._detectors[name] = detector
        alerts = []
        for change in detector.push(detector.size, value):
            alert = PeriodAlert(
                name=name,
                day=change.day,
                gained=change.gained,
                lost=change.lost,
                result=change.result,
            )
            self._alerts.append(alert)
            alerts.append(alert)
            obs.add("stream.period_alerts")
        return alerts

    def observe_series(self, name: str, values) -> list[PeriodAlert]:
        """Feed a whole history (e.g. a full-series add), day by day."""
        alerts = []
        for value in values:
            alerts.extend(self.observe(name, float(value)))
        return alerts

    def forget(self, name: str) -> None:
        """Drop a series' detector (after a tombstone)."""
        self._detectors.pop(name, None)

    def drain(self) -> list[PeriodAlert]:
        """All alerts raised since the last drain; clears the buffer."""
        alerts, self._alerts = self._alerts, []
        return alerts
