"""Automatic detection of significant periods (section 5).

The paper's test: model a *non-periodic* series as i.i.d. Gaussian samples,
under which the periodogram powers follow an exponential distribution.
Important periods are then the outliers of that distribution.  For a tail
probability ``p`` (confidence ``1 - p``) the power threshold is

.. math::

    T_p = -\\ln(p) / \\lambda = -\\mu \\cdot \\ln(p)

where :math:`\\mu` is the mean power — by Parseval the average signal
power :math:`\\frac{1}{n} \\sum_i x_i^2` for the paper's normalisation.
Any periodogram bin above :math:`T_p` is reported as a significant period
(period = n / bin index).

The module also exposes :func:`exponential_fit`, the goodness-of-fit
helper behind figure 12's claim that non-periodic spectra look
exponential.

Example
-------
A pure 16-sample cycle is the only significant period found:

>>> import numpy as np
>>> series = np.sin(2 * np.pi * np.arange(128) / 16)
>>> result = PeriodDetector(confidence=0.99).detect(series)
>>> [round(p.period, 1) for p in result]
[16.0]
>>> result.periods[0].power > result.threshold
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from repro import obs
from repro.exceptions import SeriesLengthError
from repro.spectral.dft import Spectrum
from repro.spectral.periodogram import Periodogram, periodogram
from repro.timeseries.preprocessing import as_float_array
from repro.timeseries.series import TimeSeries

__all__ = [
    "DetectedPeriod",
    "PeriodDetector",
    "detect_periods",
    "exponential_fit",
]


@dataclass(frozen=True, order=True)
class DetectedPeriod:
    """One significant period, strongest first when sorted descending.

    Attributes
    ----------
    power:
        Periodogram power of the bin (sort key).
    period:
        Period in samples (days for daily query series), ``n / index``.
    frequency:
        Frequency in cycles per sample, ``index / n``.
    index:
        Half-spectrum bin index.
    """

    power: float
    period: float = 0.0
    frequency: float = 0.0
    index: int = 0


@dataclass(frozen=True)
class PeriodDetectionResult:
    """Everything the S2 tool shows: periods, threshold and the spectrum."""

    periods: tuple[DetectedPeriod, ...]
    threshold: float
    mean_power: float
    periodogram: Periodogram

    def __iter__(self):
        return iter(self.periods)

    def __len__(self) -> int:
        return len(self.periods)

    def top(self, count: int) -> tuple[DetectedPeriod, ...]:
        """The ``count`` strongest significant periods."""
        return self.periods[:count]


class PeriodDetector:
    """Significant-period detector with an exponential-tail threshold.

    Parameters
    ----------
    confidence:
        Desired confidence that a reported period is significant; the tail
        probability is ``p = 1 - confidence``.  The paper's example uses
        99.99% (``p = 1e-4``).
    min_index:
        Smallest half-spectrum bin considered.  Defaults to 1 (skip DC,
        whose "period" is infinite); raise it to ignore very long periods.
    max_period:
        Optional cap on reported periods (in samples).
    interpolate:
        Refine each detected period by parabolic interpolation of the
        periodogram around the peak bin.  The raw bin grid quantises
        periods to ``n/k`` (a 365-day year can only report 30.42 or 28.08
        around the 29.53-day lunar month); interpolation recovers the
        off-grid frequency.  Off by default to match the paper exactly.
    """

    def __init__(
        self,
        confidence: float = 0.9999,
        min_index: int = 1,
        max_period: float | None = None,
        interpolate: bool = False,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if min_index < 1:
            raise ValueError(f"min_index must be >= 1, got {min_index}")
        self.confidence = confidence
        self.min_index = min_index
        self.max_period = max_period
        self.interpolate = interpolate

    @property
    def tail_probability(self) -> float:
        return 1.0 - self.confidence

    def threshold(self, mean_power: float) -> float:
        """The power threshold :math:`T_p = -\\mu \\ln(p)`."""
        return -mean_power * math.log(self.tail_probability)

    def significant_indexes(
        self, power: np.ndarray, n: int
    ) -> frozenset[int]:
        """The significant half-spectrum bins of a power array.

        The same selection rule :meth:`detect` applies (band mean →
        exponential-tail threshold → ``max_period`` filter), factored
        out so the online monitor can evaluate it against the sliding
        periodogram's powers without building the full result object.
        With ``interpolate=False`` (the default) this equals
        ``{p.index for p in detect(values)}`` exactly.
        """
        band = np.asarray(power, dtype=np.float64)[self.min_index :]
        if band.size == 0:
            return frozenset()
        threshold = self.threshold(float(band.mean()))
        indexes = np.flatnonzero(band > threshold) + self.min_index
        if self.max_period is not None:
            indexes = indexes[n / indexes <= self.max_period]
        return frozenset(int(i) for i in indexes)

    @staticmethod
    def _refined_frequency(coefficients: np.ndarray, n: int, index: int) -> float:
        """Jacobsen's estimator of the true (off-grid) peak frequency.

        For a tone between bins, the complex three-point estimator
        ``delta = Re[(X_{k-1} - X_{k+1}) / (2 X_k - X_{k-1} - X_{k+1})]``
        recovers the fractional bin offset almost exactly under a
        rectangular window.  Bins that are not local (magnitude) maxima
        are returned unrefined.
        """
        if not 1 <= index < coefficients.size - 1:
            return index / n
        left, mid, right = coefficients[index - 1 : index + 2]
        if abs(mid) < abs(left) or abs(mid) < abs(right):
            return index / n
        denominator = 2 * mid - left - right
        if denominator == 0:
            return index / n
        shift = float(np.real((left - right) / denominator))
        shift = float(np.clip(shift, -0.5, 0.5))
        return (index + shift) / n

    def detect(self, values) -> PeriodDetectionResult:
        """Significant periods of a sequence (or :class:`TimeSeries`)."""
        if isinstance(values, TimeSeries):
            values = values.values
        arr = as_float_array(values)
        if arr.size < 4:
            raise SeriesLengthError(
                "period detection needs at least 4 samples"
            )
        with obs.span("periods.detect"):
            result = self._detect(arr)
        obs.add("periods.series_analyzed")
        obs.add("periods.detected", len(result))
        return result

    def _detect(self, arr: np.ndarray) -> PeriodDetectionResult:
        complex_spectrum = Spectrum.from_series(arr)
        spectrum = periodogram(complex_spectrum)
        band = spectrum.power[self.min_index :]
        # The exponential's rate parameter comes from the analysed band's
        # mean power; for a z-normalised series this is (essentially) the
        # average signal power of the paper's formula.
        mean_power = float(band.mean())
        threshold = self.threshold(mean_power)

        found = []
        for offset, power in enumerate(band):
            index = offset + self.min_index
            frequency = index / spectrum.n
            period = spectrum.period_of(index)
            if power <= threshold:
                continue
            if self.interpolate:
                frequency = self._refined_frequency(
                    complex_spectrum.coefficients, spectrum.n, index
                )
                period = 1.0 / frequency if frequency > 0 else float("inf")
            if self.max_period is not None and period > self.max_period:
                continue
            found.append(
                DetectedPeriod(
                    power=float(power),
                    period=float(period),
                    frequency=frequency,
                    index=index,
                )
            )
        found.sort(reverse=True)
        return PeriodDetectionResult(
            periods=tuple(found),
            threshold=threshold,
            mean_power=mean_power,
            periodogram=spectrum,
        )


def detect_periods(values, confidence: float = 0.9999):
    """One-shot convenience wrapper around :class:`PeriodDetector`."""
    return PeriodDetector(confidence).detect(values)


def exponential_fit(values) -> tuple[float, float]:
    """Fit an exponential to a sequence's periodogram powers (fig. 12).

    Returns
    -------
    (rate, ks_pvalue):
        The fitted exponential rate :math:`\\lambda = 1/\\mu` and the
        Kolmogorov-Smirnov p-value of the fit.  A comfortably non-tiny
        p-value supports the paper's modelling assumption for non-periodic
        data; strongly periodic data fails the test resoundingly.
    """
    spectrum = periodogram(as_float_array(values))
    band = spectrum.power[1:]
    if band.size < 4:
        raise SeriesLengthError("exponential fit needs at least 4 power bins")
    mean_power = float(band.mean())
    if mean_power == 0.0:
        raise SeriesLengthError("cannot fit an exponential to a zero spectrum")
    result = _scipy_stats.kstest(band, "expon", args=(0.0, mean_power))
    return 1.0 / mean_power, float(result.pvalue)
