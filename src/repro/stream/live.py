"""The mutable live tier: raw day counts for the current window.

Sealed segments store *z-scored* rows, frozen at seal time.  The live
tier keeps its series as **raw counts** instead, because the window
slides under them: every :meth:`LiveTier.rollover` shifts each buffer
one day left and opens a fresh "today" slot, and standardisation is
recomputed over the shifted raw window at query time
(:meth:`LiveTier.matrix`) — the sliding-window re-normalisation that
makes a live series comparable to sealed ones no matter how many days
it has rolled through.

The tier itself is volatile by design: it holds no files and performs
no I/O.  Durability belongs to the WAL one layer up
(:class:`~repro.stream.wal.WriteAheadLog`); recovery rebuilds a tier by
replaying the log's records through the same four mutators below.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import IngestionError, KeyNotFoundError, StorageError

__all__ = ["LiveTier"]


class LiveTier:
    """Insertion-ordered mutable series over a shared sliding window."""

    def __init__(self, sequence_length: int) -> None:
        if sequence_length < 1:
            raise StorageError(
                f"sequence_length must be >= 1, got {sequence_length}"
            )
        self.sequence_length = int(sequence_length)
        self._raw: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._raw)

    def __contains__(self, name: str) -> bool:
        return name in self._raw

    @property
    def names(self) -> tuple[str, ...]:
        """Live series names, in insertion order."""
        return tuple(self._raw)

    # ------------------------------------------------------------------
    # Mutators (mirrored 1:1 by WAL record kinds)
    # ------------------------------------------------------------------
    def add(self, name: str, values) -> None:
        """Install a full-window raw series under ``name``.

        The caller validates the counts (the store does so before the
        WAL write); here only the geometry and name uniqueness are
        checked, so WAL replay cannot diverge from the original apply.
        """
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.sequence_length:
            raise IngestionError(
                f"live series {name!r} must hold {self.sequence_length} "
                f"days, got shape {arr.shape}"
            )
        if name in self._raw:
            raise IngestionError(f"series {name!r} is already live")
        self._raw[name] = arr.copy()

    def record(self, name: str, day: int, count: float) -> None:
        """Accumulate ``count`` into ``name``'s window at index ``day``.

        An unknown name starts a fresh all-zero window first — a series
        enters the stream the moment its first event lands; its unknown
        history is zero counts.
        """
        if not 0 <= day < self.sequence_length:
            raise IngestionError(
                f"day index {day} outside the {self.sequence_length}-day "
                f"window"
            )
        buffer = self._raw.get(name)
        if buffer is None:
            buffer = np.zeros(self.sequence_length, dtype=np.float64)
            self._raw[name] = buffer
        buffer[day] += float(count)

    def rollover(self) -> list[tuple[str, float]]:
        """Slide every window one day: drop the oldest, open a new today.

        Returns ``(name, value)`` for the day each series just
        *completed* (the old final slot) — the feed for real-time burst
        alerting, emitted exactly once per series per rollover.
        """
        completed: list[tuple[str, float]] = []
        last = self.sequence_length - 1
        for name, buffer in self._raw.items():
            completed.append((name, float(buffer[last])))
            buffer[:last] = buffer[1:]
            buffer[last] = 0.0
        return completed

    def delete(self, name: str) -> None:
        """Remove a live series."""
        if name not in self._raw:
            raise KeyNotFoundError(name)
        del self._raw[name]

    def clear(self) -> None:
        """Drop every series (after a seal moved them into a segment)."""
        self._raw.clear()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def raw(self, name: str) -> np.ndarray:
        """A copy of ``name``'s raw count window."""
        buffer = self._raw.get(name)
        if buffer is None:
            raise KeyNotFoundError(name)
        return buffer.copy()

    def raw_matrix(self) -> np.ndarray:
        """``(len, n)`` raw counts, rows in insertion order."""
        if not self._raw:
            return np.empty((0, self.sequence_length), dtype=np.float64)
        return np.stack(list(self._raw.values()))

    def matrix(self) -> np.ndarray:
        """``(len, n)`` z-scored rows — the query-comparable view.

        Standardisation runs over the *current* raw window, so the same
        series re-normalises after every rollover; a constant (e.g.
        all-zero) window z-scores to zeros, exactly like the batch
        pipeline's :func:`~repro.timeseries.preprocessing.zscore`.
        """
        raw = self.raw_matrix()
        # zscore() of every row at once: reductions along the contiguous
        # axis sum each row as the 1-D form does, so the bits match.
        centred = raw - raw.mean(axis=1, keepdims=True)
        std = raw.std(axis=1, keepdims=True)
        return np.divide(centred, std, out=centred, where=std > 0.0)
