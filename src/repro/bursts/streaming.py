"""Online (one-value-at-a-time) moving-average burst detection.

:class:`~repro.bursts.detection.BurstDetector` is a batch device: it
needs the whole sequence before it can smooth, threshold and mask.  A
streaming ingest path (``repro.stream``) sees one completed day at a
time, so this module incrementalises the same three-line recipe:

1. the trailing moving average extends in O(1) per pushed value through
   the *shared* :class:`~repro.bursts.kernel.TrailingMA` kernel — the
   identical implementation the batch detector runs vectorised, so every
   smoothed value is *bit-identical* to the batch computation on the
   same prefix by construction, not by parallel maintenance;
2. the cutoff ``mean(MA) + x * std(MA)`` is recomputed over the
   accumulated smoothed array with the shared
   :func:`~repro.bursts.kernel.burst_cutoff` reduction (O(n) per push —
   the honest price of an exactly matching cutoff, since one new day
   moves the global mean and std);
3. the burst decision for the newest day falls out of the fresh cutoff.

:meth:`OnlineBurstDetector.extend` absorbs a block of days at once (a
full-series add, a WAL replay): one seeded ``np.cumsum`` for step 1,
:func:`~repro.bursts.kernel.prefix_cutoffs` for step 2, one array
comparison for step 3.  Step 2 still reduces every prefix separately —
numpy's pairwise sums leave no O(1) update that matches the batch
cutoff to the bit — but without a ``mean``/``std`` dispatch per day.

Equivalence contract (asserted by ``tests/stream/test_alerts.py``):
after pushing ``values[:i]`` one at a time, :meth:`OnlineBurstDetector
.annotation` equals ``BurstDetector(window, x).detect(values[:i])``
field for field — mask, smoothed array, cutoff and effective window all
bit-identical, for every prefix length ``i``.

Only the ``"trailing"`` alignment is supported: a centered window reads
days that have not happened yet, which is exactly what an online
detector must not do.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.bursts.detection import LONG_TERM_WINDOW, BurstAnnotation
from repro.bursts.kernel import TrailingMA, burst_cutoff, prefix_cutoffs
from repro.timeseries.preprocessing import as_float_array

__all__ = ["OnlineBurstDetector"]


class OnlineBurstDetector:
    """Trailing-window burst detector fed one value per day.

    Parameters
    ----------
    window:
        Moving-average length *w* (30 for long-term, 7 for short-term).
        Prefixes shorter than *w* use a growing prefix window, exactly
        like the batch detector's ``min(window, size)`` clamp.
    threshold_sigmas:
        The cutoff factor *x* over the moving average's std.
    """

    def __init__(
        self, window: int = LONG_TERM_WINDOW, threshold_sigmas: float = 1.5
    ) -> None:
        if threshold_sigmas <= 0:
            raise ValueError(
                f"threshold_sigmas must be positive, got {threshold_sigmas}"
            )
        self.threshold_sigmas = float(threshold_sigmas)
        self._kernel = TrailingMA(window)  # validates the window
        self.window = self._kernel.window
        self._cutoff = 0.0

    def __len__(self) -> int:
        return self._kernel.size

    @property
    def cutoff(self) -> float:
        """The current threshold ``mean(MA) + x * std(MA)``."""
        return self._cutoff

    @property
    def smoothed(self) -> np.ndarray:
        """The moving-average series over every pushed value (a copy)."""
        return self._kernel.smoothed_copy()

    def push(self, value) -> bool:
        """Absorb one completed day; returns whether it is bursting.

        The smoothed extension is O(1) through the shared kernel; the
        cutoff recomputation is a numpy ``mean``/``std`` pass over the
        accumulated moving average, so a push costs O(days seen) — the
        price of a cutoff that is bit-identical to the batch detector's
        at every prefix.
        """
        return self._absorb(float(as_float_array([value])[0]))

    def _absorb(self, value: float) -> bool:
        """:meth:`push` for a value the caller has already validated."""
        latest = self._kernel.push(value)
        smoothed = self._kernel.smoothed
        self._cutoff = burst_cutoff(smoothed, self.threshold_sigmas)
        obs.add("bursts.online_pushes")
        return bool(latest > self._cutoff)

    def extend(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Absorb a block of days; same state as pushing them one by one.

        Returns the block's smoothed values and the cutoff that stood
        after each day: day ``j`` bursts iff ``smoothed[j] > cutoffs[j]``.
        The block is validated whole; a NaN in it absorbs nothing.
        """
        start = self._kernel.size
        latest = self._kernel.extend(values)
        cutoffs = prefix_cutoffs(
            self._kernel.smoothed, self.threshold_sigmas, start
        )
        self._cutoff = float(cutoffs[-1])
        obs.add("bursts.online_pushes", latest.size)
        return latest, cutoffs

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
