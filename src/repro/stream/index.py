"""Live + sealed query union: one coded ``flat`` over both tiers.

:class:`StreamIndex` serves the sealed segments' visible rows and the
live tier's snapshot as one :class:`~repro.engine.core.EngineIndex`
that works like ``flat``: every member enters at lower bound 0, and the
engine's row-code stage bounds them all in one exact kernel pass over
the union's :class:`~repro.compression.codes.RowCodes`, so a query
reads about k + 10 rows whichever tier they sit in.  The shared
verifier — every statistic, quarantine path and the ``pruned +
retrievals + quarantined == db`` invariant — applies unchanged.

The sealed rows are adopted without a copy and quantised once, at
construction; :meth:`StreamIndex.with_live` keeps both and quantises
only the new live snapshot.  Rows are read through one
:class:`~repro.storage.union.RowUnion` over the two tiers' in-memory
stores: sealed rows are ids ``0..S-1``, live rows ``S..S+L-1`` in
insertion order.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.compression.codes import RowCodes
from repro.index.base import IndexBase
from repro.index.flat import FlatSketchIndex
from repro.storage.pagestore import MemorySequenceStore
from repro.storage.union import RowUnion

__all__ = ["StreamIndex"]


class StreamIndex:
    """One engine-protocol index over sealed segments plus the live tier.

    ``sealed_matrix`` / ``live_matrix`` are the z-scored visible sealed
    rows and live snapshot, ``(rows, n)`` with the same ``n`` even when
    empty, adopted, not copied; the names align with their rows.
    """

    obs_name = "index.stream"

    def __init__(
        self,
        sealed_matrix: np.ndarray,
        sealed_names: tuple[str, ...],
        live_matrix: np.ndarray,
        live_names: tuple[str, ...],
    ) -> None:
        self._sealed = MemorySequenceStore.over(sealed_matrix)
        self._sealed_names = tuple(sealed_names)
        self._sealed_codes = RowCodes.from_matrix(sealed_matrix)
        self._set_live(live_matrix, live_names)

    def _set_live(self, live_matrix: np.ndarray, live_names) -> None:
        live = MemorySequenceStore.over(live_matrix)
        sealed = len(self._sealed)
        self._names = self._sealed_names + tuple(live_names)
        self.store = RowUnion(
            [
                (self._sealed, np.arange(sealed)),
                (live, np.arange(sealed, sealed + len(live))),
            ],
            self._sealed.sequence_length,
        )
        self.row_codes = RowCodes.stacked(
            (self._sealed_codes, RowCodes.from_matrix(live_matrix))
        )

    def with_live(
        self, live_matrix: np.ndarray, live_names: tuple[str, ...]
    ) -> "StreamIndex":
        """A new union of the same sealed rows and codes and a new live
        tier: nothing sealed is re-read or re-quantised."""
        union = copy.copy(self)
        union._set_live(live_matrix, live_names)
        return union

    # ------------------------------------------------------------------
    # EngineIndex protocol
    # ------------------------------------------------------------------
    @property
    def sequence_length(self) -> int:
        return self.store.sequence_length

    def __len__(self) -> int:
        return len(self.store)

    def result_name(self, seq_id: int) -> str | None:
        return self._names[seq_id]

    def fetch(self, seq_id: int) -> np.ndarray:
        return self.store.read(seq_id)

    # Candidates and entry points are flat's.  ``bench/trace.py`` wraps
    # only methods in a class's own ``__dict__``, so they are bound here.
    knn_candidates = FlatSketchIndex.knn_candidates
    range_candidates = FlatSketchIndex.range_candidates
    search = IndexBase.search
    range_search = IndexBase.range_search
