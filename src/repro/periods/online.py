"""Incremental period detection: period-*change* alerts for streams.

The batch :class:`~repro.periods.detector.PeriodDetector` answers "what
are the significant periods of this sequence?".  A stream wants the
derivative of that question: *when does the answer change?*  A query
acquiring a weekly rhythm (or losing one — the paper's 9/11 case study,
where air-travel queries' weekly periodicity collapses after the event)
is exactly as alert-worthy as a burst.

:class:`OnlinePeriodDetector` maintains a sliding
:class:`~repro.spectral.online.OnlinePeriodogram`, whose powers are the
batch periodogram's of the current window, and per pushed day evaluates
the detector's significance rule on them.  Only a day whose significant
set differs from the confirmed one runs the full batch detection, so
quiet days build no :class:`~repro.periods.detector
.PeriodDetectionResult`, and every alert carries a batch-identical one.
Alerts report both directions (periods gained and periods lost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.periods.detector import (
    DetectedPeriod,
    PeriodDetectionResult,
    PeriodDetector,
)
from repro.spectral.online import OnlinePeriodogram

__all__ = ["PeriodChange", "OnlinePeriodDetector"]

#: Below this many samples the spectrum is all edge effects; the batch
#: detector itself refuses fewer than 4.
_MIN_SAMPLES = 8


@dataclass(frozen=True)
class PeriodChange:
    """One confirmed change in a stream's significant period set.

    Attributes
    ----------
    day:
        0-based index of the day whose arrival changed the set.
    gained / lost:
        The periods that entered / left the significant set, as
        :class:`DetectedPeriod` records (``lost`` entries carry their
        last known power).
    result:
        The full batch-identical detection over the current window —
        the state of the stream's periodicity at alert time.
    """

    day: int
    gained: tuple[DetectedPeriod, ...]
    lost: tuple[DetectedPeriod, ...]
    result: PeriodDetectionResult


class OnlinePeriodDetector:
    """Sliding-window period monitor raising change alerts.

    Parameters
    ----------
    window:
        Spectral analysis window (days).  128 covers the paper's weekly
        and monthly rhythms with a quarter year of memory.
    confidence / min_index / max_period:
        Forwarded to the underlying :class:`PeriodDetector`
        (``interpolate`` stays off: the change test compares bin
        indexes, which interpolation does not move).
    min_samples:
        Days to observe before the first evaluation; damps the churn of
        near-empty spectra.
    """

    def __init__(
        self,
        window: int = 128,
        confidence: float = 0.9999,
        min_index: int = 1,
        max_period: float | None = None,
        min_samples: int = _MIN_SAMPLES,
    ) -> None:
        if min_samples < 4:
            raise ValueError(
                f"min_samples must be >= 4, got {min_samples}"
            )
        self._detector = PeriodDetector(
            confidence=confidence,
            min_index=min_index,
            max_period=max_period,
            interpolate=False,
        )
        self._pgram = OnlinePeriodogram(window)
        self.window = self._pgram.window
        self.min_samples = int(min_samples)
        self._indexes: frozenset[int] = frozenset()
        self._known: dict[int, DetectedPeriod] = {}
        self._result: PeriodDetectionResult | None = None

    def __len__(self) -> int:
        return self._pgram.size

    @property
    def size(self) -> int:
        """Number of days pushed so far."""
        return self._pgram.size

    @property
    def significant_indexes(self) -> frozenset[int]:
        """The currently confirmed significant half-spectrum bins."""
        return self._indexes

    @property
    def current(self) -> PeriodDetectionResult | None:
        """The last confirmed detection (None before ``min_samples``)."""
        return self._result

    def periods(self) -> tuple[DetectedPeriod, ...]:
        """The confirmed significant periods, strongest first."""
        if self._result is None:
            return ()
        return self._result.periods

    def push(self, day: int, value) -> list[PeriodChange]:
        """Absorb day ``day``; returns the change alerts it raised.

        Days must arrive densely in order (``day == size``), mirroring
        the burst protocol's contract.
        """
        day = int(day)
        if day != self._pgram.size:
            raise ValueError(
                f"days must arrive in order: expected day "
                f"{self._pgram.size}, got {day}"
            )
        self._pgram.push(value)
        if self._pgram.size < self.min_samples:
            return []
        current = self._detector.significant_indexes(
            self._pgram.power, self._pgram.n
        )
        if current == self._indexes and self._result is not None:
            return []  # quiet day
        result = self._detector.detect(self._pgram.values())
        by_index = {p.index: p for p in result.periods}
        previous, self._result = self._indexes, result
        if current == previous:
            return []  # the first evaluation found no period
        gained = tuple(
            sorted(
                (by_index[i] for i in current - previous), reverse=True
            )
        )
        lost = tuple(
            sorted(
                (self._known[i] for i in previous - current),
                reverse=True,
            )
        )
        self._indexes = current
        self._known.update(by_index)
        for index in previous - current:
            self._known.pop(index, None)
        obs.add("periods.online_changes")
        return [
            PeriodChange(day=day, gained=gained, lost=lost, result=result)
        ]

    def extend(self, values) -> list[PeriodChange]:
        """Push a whole block of days; returns every alert raised."""
        alerts: list[PeriodChange] = []
        for value in np.asarray(values, dtype=np.float64):
            alerts.extend(self.push(self._pgram.size, value))
        return alerts
