"""Burst detection via moving-average thresholding (section 6.1).

The paper's three-line recipe:

1. compute the moving average :math:`MA_w` of the sequence;
2. set ``cutoff = mean(MA_w) + x * std(MA_w)``;
3. mark as bursts the positions where the moving average exceeds the
   cutoff.

Two window lengths cover the MSN database well: 30 days for *long-term*
(seasonal) bursts and 7 days for *short-term* ones; typical cutoff factors
are 1.5–2 standard deviations.  Both are exposed as named constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.bursts.kernel import TrailingMA, burst_cutoff
from repro.timeseries.preprocessing import as_float_array, moving_average
from repro.timeseries.series import TimeSeries

__all__ = ["BurstAnnotation", "BurstDetector"]

LONG_TERM_WINDOW = 30
SHORT_TERM_WINDOW = 7


@dataclass(frozen=True)
class BurstAnnotation:
    """The full output of one detector run, enough to redraw fig. 14.

    Attributes
    ----------
    mask:
        Boolean array marking burst positions.
    smoothed:
        The moving average the decision was made on.
    cutoff:
        The threshold ``mean + x * std`` of the moving average.
    window:
        The moving-average window length used.
    """

    mask: np.ndarray
    smoothed: np.ndarray
    cutoff: float
    window: int

    def __post_init__(self) -> None:
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        smoothed = np.ascontiguousarray(self.smoothed, dtype=np.float64)
        mask.setflags(write=False)
        smoothed.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "smoothed", smoothed)

    @property
    def burst_positions(self) -> np.ndarray:
        """Integer indexes of the burst points."""
        return np.flatnonzero(self.mask)

    @property
    def burst_fraction(self) -> float:
        """Fraction of the sequence flagged as bursting."""
        return float(self.mask.mean())


class BurstDetector:
    """Moving-average burst detector.

    Parameters
    ----------
    window:
        Moving-average length *w* (30 for long-term, 7 for short-term).
    threshold_sigmas:
        The cutoff factor *x*; "typical values for the cutoff point are
        1.5-2 times the standard deviation of the MA".
    mode:
        Moving-average alignment, forwarded to
        :func:`repro.timeseries.moving_average`.
    """

    def __init__(
        self,
        window: int = LONG_TERM_WINDOW,
        threshold_sigmas: float = 1.5,
        mode: str = "trailing",
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if threshold_sigmas <= 0:
            raise ValueError(
                f"threshold_sigmas must be positive, got {threshold_sigmas}"
            )
        self.window = window
        self.threshold_sigmas = threshold_sigmas
        self.mode = mode

    @classmethod
    def long_term(cls, threshold_sigmas: float = 1.5) -> "BurstDetector":
        """The paper's 30-day configuration for seasonal bursts."""
        return cls(LONG_TERM_WINDOW, threshold_sigmas)

    @classmethod
    def short_term(cls, threshold_sigmas: float = 1.5) -> "BurstDetector":
        """The paper's 7-day configuration for short-lived bursts."""
        return cls(SHORT_TERM_WINDOW, threshold_sigmas)

    def detect(self, values) -> BurstAnnotation:
        """Annotate burst positions of a sequence or :class:`TimeSeries`."""
        if isinstance(values, TimeSeries):
            values = values.values
        arr = as_float_array(values)
        with obs.span("bursts.detect"):
            window = min(self.window, arr.size)
            if self.mode == "trailing" and arr.size:
                # The shared batch/online kernel: the same implementation
                # the ``ma`` model's online form extends one value at a
                # time, so online-equivalence is structural, not
                # coincidental (see bursts/kernel.py).
                smoothed = TrailingMA(window).extend(arr)
            else:
                smoothed = moving_average(arr, window, self.mode)
            cutoff = burst_cutoff(smoothed, self.threshold_sigmas)
            annotation = BurstAnnotation(
                mask=smoothed > cutoff,
                smoothed=smoothed,
                cutoff=cutoff,
                window=window,
            )
        obs.add("bursts.series_analyzed")
        obs.add("bursts.positions_flagged", int(annotation.mask.sum()))
        return annotation
