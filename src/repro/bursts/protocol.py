"""The pluggable detector protocol: one batch/online contract, any model.

Every burst detector (the paper's moving average, Kleinberg's
automaton, Zhu & Shasha's elastic windows and the MACD crossover) is one
:class:`BurstModel` with one output type.  This module holds the
protocol:

* :class:`BurstRegion` — the common output currency: an inclusive
  ``[start, end]`` day span with a model-specific ``weight`` (how
  *bursty* the span is, used by the leaderboard and region-scored
  query-by-burst) and a ``level`` (Kleinberg's burst hierarchy; 1
  elsewhere).
* :class:`BurstModel` — the batch half: ``detect(values) ->
  list[BurstRegion]``, regions sorted canonically.
* :class:`OnlineDetector` — the incremental half: ``push(day, value) ->
  alerts``.  The **online-equivalence contract** every registered model
  must honour: after pushing ``values[:i]`` one value at a time,
  :meth:`OnlineDetector.regions` is bit-identical to
  ``model.detect(values[:i])`` — same spans, same float weights, same
  order — for *every* prefix ``i``.  This is the invariant the trailing
  MA detector established in the streaming PR, promoted to a
  protocol-wide law (``tests/bursts/test_models.py`` asserts it for all
  four backends).
* :class:`ReplayDetector` — the honest fallback online form: re-run the
  batch detector on the accumulated prefix each push.  Bit-identity is
  structural (it *is* the batch detector); the cost is O(batch) per
  push.  Models whose mathematics is genuinely incremental (trailing
  MA, MACD crossover, elastic windows) override :meth:`BurstModel
  .online` with O(1)-ish kernels; models that are inherently global
  (Kleinberg's Viterbi re-estimates every day's state when the base
  rate moves) keep the replay form rather than pretend.

Alerts are *rising-edge*: a detector raises one
:class:`RegionAlert` when the newest day is bursting after a quiet day,
so a multi-day burst alerts once, not daily — the same semantics the
live stream monitor has always had.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.timeseries.preprocessing import as_float_array

__all__ = [
    "BurstRegion",
    "RegionAlert",
    "BurstModel",
    "OnlineDetector",
    "ReplayDetector",
    "mask_regions",
]


class _RegionFields(NamedTuple):
    start: int
    end: int
    weight: float
    level: int = 1


class BurstRegion(_RegionFields):
    """One scored burst span (day indexes are inclusive).

    A tuple ``(start, end, weight, level)``, the canonical ordering, so
    region lists sort deterministically and equality is field-exact (the
    online-equivalence suite compares regions with ``==``, no tolerance)
    and runs in C; a region equals the plain 4-tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, weight: float, level: int = 1):
        if end < start:
            raise ValueError(f"region end {end} precedes start {start}")
        return tuple.__new__(cls, (start, end, weight, level))

    @classmethod
    def _make(cls, iterable) -> BurstRegion:
        """Through ``__new__``: namedtuple's own counts fields by ``len``."""
        return cls(*iterable)

    @classmethod
    def trusted(cls, starts, ends, weights) -> list[BurstRegion]:
        """Level-1 regions from parallel lists, unchecked: only for
        kernels whose arrays give ``end >= start`` by construction."""
        rows = zip(starts, ends, weights, repeat(1))
        return list(map(tuple.__new__, repeat(cls), rows))

    def __len__(self) -> int:
        """Region length ``endDate - startDate + 1``."""
        return self.end - self.start + 1

    def overlap_days(self, lo: int, hi: int) -> int:
        """Days this region shares with the inclusive window ``[lo, hi]``."""
        return max(0, min(self.end, hi) - max(self.start, lo) + 1)

    def windowed_weight(self, lo: int, hi: int) -> float:
        """Weight pro-rated to the overlap with ``[lo, hi]``.

        The leaderboard's windowed score: a region contributes its
        weight scaled by the fraction of its days inside the window, so
        a burst straddling the window boundary counts partially, in a
        deterministic way.
        """
        shared = self.overlap_days(lo, hi)
        if shared == 0:
            return 0.0
        return self.weight * (shared / len(self))


@dataclass(frozen=True)
class RegionAlert:
    """One rising-edge alert from an online detector.

    Attributes
    ----------
    day:
        0-based index of the day that tripped the model.
    value:
        The raw value pushed for that day.
    statistic / threshold:
        The model's decision statistic for the day and the threshold it
        crossed (trailing MA: smoothed value vs cutoff; MACD: histogram
        vs zero; replay models: the 1/0 bursting indicator vs 0.5).
    region:
        The (currently known) region containing the day.  Models whose
        regions can retract (Kleinberg) may revise it on later days;
        the alert records the state of knowledge at firing time.
    """

    day: int
    value: float
    statistic: float
    threshold: float
    region: BurstRegion


def mask_regions(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of ``True`` as inclusive ``(start, end)`` spans."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[::2], edges[1::2] - 1
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


class OnlineDetector(abc.ABC):
    """Incremental detector: one value per day, rising-edge alerts.

    Subclasses implement :meth:`_absorb` (absorb one value, return
    whether the newest day is bursting) and :meth:`regions` (the
    batch-identical region list for the prefix seen so far).  The base
    class owns day accounting and edge-triggered alerting so every
    model's alert semantics are identical.
    """

    def __init__(self) -> None:
        self._size = 0
        self._bursting = False

    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        """Number of days pushed so far."""
        return self._size

    @property
    def bursting(self) -> bool:
        """Whether the most recently pushed day is inside a burst."""
        return self._bursting

    @property
    def decision_statistic(self) -> float:
        """The value the model compared for the newest day."""
        return 1.0 if self._bursting else 0.0

    @property
    def decision_threshold(self) -> float:
        """The threshold :attr:`decision_statistic` is compared against."""
        return 0.5

    @abc.abstractmethod
    def _absorb(self, value: float) -> bool:
        """Absorb one value; return whether the newest day bursts."""

    @abc.abstractmethod
    def regions(self) -> list[BurstRegion]:
        """Regions over the prefix seen so far — bit-identical to the
        owning model's ``detect`` on the same values."""

    def push(self, day: int, value) -> list[RegionAlert]:
        """Absorb day ``day``; returns the alerts it raised (0 or 1).

        Days must arrive densely in order (``day == size``): an online
        detector cannot honour the batch-equivalence contract over a
        sequence with holes in it.  This is the one place a pushed value
        is validated; the kernels below take it as given.
        """
        day = int(day)
        if day != self._size:
            raise ValueError(
                f"days must arrive in order: expected day {self._size}, "
                f"got {day}"
            )
        return self._step(float(as_float_array([value])[0]))

    def extend(self, values) -> list[RegionAlert]:
        """Absorb a block of days: the alerts and the state of pushing
        them one at a time, validated once, up front.

        A NaN anywhere in the block therefore raises before *any* day is
        absorbed, where a loop of pushes would have kept the prefix
        before it.  Models with a bulk form override
        :meth:`_absorb_block`; the rest run the per-day step.
        """
        arr = np.asarray(values, dtype=np.float64)
        return self._absorb_block(as_float_array(arr)) if arr.size else []

    def _absorb_block(self, arr: np.ndarray) -> list[RegionAlert]:
        alerts: list[RegionAlert] = []
        for value in arr.tolist():
            alerts.extend(self._step(value))
        return alerts

    def _step(self, value: float) -> list[RegionAlert]:
        """Absorb one validated value as day ``size``; edge-trigger."""
        day = self._size
        bursting = bool(self._absorb(value))
        alerts: list[RegionAlert] = []
        if bursting and not self._bursting:
            alerts.append(
                RegionAlert(
                    day=day,
                    value=value,
                    statistic=float(self.decision_statistic),
                    threshold=float(self.decision_threshold),
                    region=self._region_at(day),
                )
            )
        self._bursting = bursting
        self._size += 1
        return alerts

    def _region_at(self, day: int) -> BurstRegion:
        """The heaviest known region containing ``day``."""
        covering = [r for r in self.regions() if r.start <= day <= r.end]
        if not covering:
            # Defensive: a model reported "bursting" without a covering
            # region; represent the day itself so the alert stays usable.
            return BurstRegion(day, day, 0.0)
        return max(covering, key=lambda r: (r.weight, r.start))


class BurstModel(abc.ABC):
    """The batch half of the protocol, plus the online factory.

    ``name`` is the registry key (see
    :func:`repro.bursts.registry.get_burst_model`).
    """

    name: str = "?"

    @abc.abstractmethod
    def detect(self, values) -> list[BurstRegion]:
        """Scored burst regions of a sequence, canonically sorted."""

    def online(self) -> OnlineDetector:
        """A fresh online counterpart honouring the equivalence contract.

        The default is the :class:`ReplayDetector` fallback; models with
        genuinely incremental mathematics override this.
        """
        return ReplayDetector(self)


class ReplayDetector(OnlineDetector):
    """Online form by replay: re-run the batch detector per push.

    Bit-identity to the batch form at every prefix is structural — the
    region list *is* ``model.detect(prefix)``.  The price is a full
    batch detection per day (O(n·cost)); models keep this form only
    when their mathematics is inherently global (Kleinberg's Viterbi
    path and Poisson base rate both depend on every day seen).
    """

    def __init__(self, model: BurstModel) -> None:
        super().__init__()
        self._model = model
        self._values: list[float] = []
        self._regions: list[BurstRegion] = []

    def _absorb(self, value: float) -> bool:
        self._values.append(value)
        self._regions = self._model.detect(
            np.asarray(self._values, dtype=np.float64)
        )
        day = len(self._values) - 1
        return any(r.start <= day <= r.end for r in self._regions)

    def regions(self) -> list[BurstRegion]:
        return list(self._regions)
