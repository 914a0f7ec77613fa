"""Live + sealed query union: one EngineIndex over both tiers.

A streaming store answers queries from two populations at once: the
sealed segments (immutable, checksummed, served through any of the six
registry backends or the sharded router) and the mutable live tier.
:class:`StreamIndex` glues them into a single
:class:`~repro.engine.core.EngineIndex`, so the shared verifier — and
therefore every statistic, every quarantine path and the
``pruned + retrievals + quarantined == db`` invariant — applies to the
union unchanged.

Soundness of the union: the inner backend's :math:`\\sigma_{UB}` filter
is computed over sealed members only, which can only make it *weaker*
(larger) than the true union filter — a weaker filter admits more
candidates, never misses one.  Live members bypass the filter entirely:
they are injected with a lower bound of ``0.0`` (trivially sound and
trivially sorted first), so each one is exactly verified rather than
pruned.  The live tier is small by construction — it is sealed into a
segment long before exact-verifying it would dominate — so the engine's
accounting stays honest: injected live candidates count as *generated*
and are then retrieved or abandoned like any other candidate.

Identifier layout: sealed rows keep their inner ids ``0..S-1``
unchanged (identity translation — the inner index *is* the sealed
population), live rows follow as ``S..S+L-1`` in insertion order.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np

from repro.engine.core import (
    CandidateSet,
    execute_knn,
    execute_range,
    fetch_block,
)
from repro.engine.registry import get_index

__all__ = ["StreamIndex"]


class _UnionStore:
    """Batched-read adapter so the blocked verifier covers both tiers."""

    def __init__(self, index: "StreamIndex") -> None:
        self._index = index

    def read_many(self, seq_ids) -> np.ndarray:
        return self._index._read_many(seq_ids)


class StreamIndex:
    """One engine-protocol index over sealed segments plus the live tier.

    Parameters
    ----------
    backend:
        Registry name for the sealed tier ("flat", "vptree", "mvptree",
        "mtree", "rtree", "scan" or "sharded").
    sealed_matrix / sealed_names:
        The visible sealed rows (z-scored) and their names.
    live_matrix / live_names:
        The live tier's z-scored snapshot and its names.
    kwargs:
        Forwarded to the registry builder (compressor, shards, …).
    """

    def __init__(
        self,
        backend: str,
        sealed_matrix: np.ndarray,
        sealed_names: tuple[str, ...],
        live_matrix: np.ndarray,
        live_names: tuple[str, ...],
        **kwargs,
    ) -> None:
        self.backend = backend
        self._sealed_count = int(sealed_matrix.shape[0])
        self._sealed_names = tuple(sealed_names)
        # Both snapshots are (rows, n) with the same window length n,
        # even when empty — the store builds them that way.
        self._length = int(sealed_matrix.shape[1] or live_matrix.shape[1])
        self._inner = (
            get_index(backend, sealed_matrix, names=list(sealed_names), **kwargs)
            if self._sealed_count
            else None
        )
        self._set_live(live_matrix, live_names)

    def _set_live(self, live_matrix: np.ndarray, live_names) -> None:
        self._live = np.ascontiguousarray(live_matrix, dtype=np.float64)
        self._names = self._sealed_names + tuple(live_names)
        self.store = _UnionStore(self)

    def with_live(
        self, live_matrix: np.ndarray, live_names: tuple[str, ...]
    ) -> "StreamIndex":
        """A new union of the same inner (sealed) index and a new live tier.

        Nothing sealed is re-read or rebuilt.  The inner index is shared,
        not copied, so it must be closed once, through one of the unions.
        """
        union = copy.copy(self)
        union._set_live(live_matrix, live_names)
        return union

    # ------------------------------------------------------------------
    # EngineIndex protocol
    # ------------------------------------------------------------------
    @property
    def obs_name(self) -> str:
        """Prefix for engine spans and counters."""
        return "index.stream"

    @property
    def sequence_length(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._sealed_count + self._live.shape[0]

    def result_name(self, seq_id: int) -> str | None:
        return self._names[seq_id]

    def fetch(self, seq_id: int) -> np.ndarray:
        seq_id = int(seq_id)
        if seq_id < self._sealed_count:
            return self._inner.fetch(seq_id)
        return self._live[seq_id - self._sealed_count]

    def _read_many(self, seq_ids) -> np.ndarray:
        ids = np.asarray(seq_ids, dtype=np.intp)
        live = ids >= self._sealed_count
        # LB order puts the live tier first, so most blocks sit wholly
        # in one tier and need no second copy.
        if live.all():
            return self._live[ids - self._sealed_count]
        if not live.any():
            return fetch_block(self._inner, ids.tolist())
        out = np.empty((ids.size, self._length), dtype=np.float64)
        out[~live] = fetch_block(self._inner, ids[~live].tolist())
        out[live] = self._live[ids[live] - self._sealed_count]
        return out

    def _live_entries(self) -> list[tuple[float, int]]:
        base = self._sealed_count
        return [(0.0, base + i) for i in range(self._live.shape[0])]

    def knn_candidates(self, query, k, stats) -> CandidateSet:
        live = self._live_entries()
        if self._inner is None:
            return CandidateSet(
                entries=live, generated=len(live), sigma_sq=math.inf
            )
        inner = self._inner.knn_candidates(query, k, stats)
        return self._union(inner, live)

    def range_candidates(self, query, radius, stats) -> CandidateSet:
        # Every live member's lower bound of 0 is <= any radius, so the
        # whole live tier survives the range filter — by construction.
        live = self._live_entries()
        if self._inner is None:
            return CandidateSet(
                entries=live, generated=len(live), sigma_sq=math.inf
            )
        inner = self._inner.range_candidates(query, radius, stats)
        return self._union(inner, live)

    def _union(
        self, inner: CandidateSet, live: list[tuple[float, int]]
    ) -> CandidateSet:
        """Prepend the live tier to an inner (sealed-only) candidate set.

        Sealed ids pass through untouched (identity translation).  Live
        entries sort first (lower bound 0.0), so an entry list stays
        ascending and a chained stream stays non-decreasing — the order
        contract both refinement paths rely on.
        """
        if inner.stream is not None:
            return CandidateSet(
                entries=[],
                generated=None,
                sigma_sq=inner.sigma_sq,
                paid=inner.paid,
                stream=itertools.chain(iter(live), inner.stream),
                top_ubs=inner.top_ubs,
            )
        return CandidateSet(
            entries=live + inner.entries,
            generated=(inner.generated or 0) + len(live),
            sigma_sq=inner.sigma_sq,
            paid=inner.paid,
            top_ubs=inner.top_ubs,
        )

    # ------------------------------------------------------------------
    # Convenience entry points (same engine as every other index)
    # ------------------------------------------------------------------
    def search(
        self, query, k: int = 1, policy=None
    ):
        """k-NN over the union through the shared engine."""
        return execute_knn(self, query, k, policy)

    def range_search(self, query, radius: float, policy=None):
        """Range search over the union through the shared engine."""
        return execute_range(self, query, radius, policy)

    def close(self) -> None:
        """Release the inner backend (routers hold files/processes).

        Unions made by :meth:`with_live` share it: close one of them.
        """
        closer = getattr(self._inner, "close", None)
        if closer is not None:
            closer()
