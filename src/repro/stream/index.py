"""Live + sealed query union: one EngineIndex over both tiers.

A streaming store answers queries from two populations at once: the
sealed segments (immutable, checksummed, served through any of the six
registry backends or the sharded router) and the mutable live tier.
:class:`StreamIndex` glues them into a single
:class:`~repro.engine.core.EngineIndex`, so the shared verifier — and
therefore every statistic, every quarantine path and the
``pruned + retrievals + quarantined == db`` invariant — applies to the
union unchanged.

Soundness of the union: the inner backend's filter is computed over
sealed members only, which can only make it *weaker* than the true
union filter — a weaker filter admits more candidates, never misses
one.  Live members bypass it: they enter the candidate set with a lower
bound of ``0.0`` (trivially sound) and count as *generated*.  The
engine's row-code stage then bounds live and sealed entries alike: the
union's :attr:`StreamIndex.row_codes` are the inner backend's codes for
the sealed ids followed by codes of the z-scored live snapshot,
quantised once per live tier.  A live entry whose code bound proves it
out of the answer is pruned like a sealed one, so a query reads about
k + 10 rows of the union instead of every live row.  Over ``flat`` the
whole union arrives at lower bound 0 and the codes are its only filter:
no sketch is built at seal time or bounded at query time.  An inner
backend without codes (``scan``, ``mtree``, ``rtree``) leaves the union
without them, and every live member is then exactly verified.

Identifier layout: sealed rows keep their inner ids ``0..S-1``
unchanged (identity translation — the inner index *is* the sealed
population), live rows follow as ``S..S+L-1`` in insertion order.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np

from repro.compression.codes import RowCodes
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
        Forwarded to the registry builder: tree knobs such as
        ``compressor``, or for ``"sharded"`` the split (``shards``,
        ``policy``) and the shard backend (``"flat"`` or ``"scan"``).
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
        self._codes = None  # this live tier's union codes, on first use

    def with_live(
        self, live_matrix: np.ndarray, live_names: tuple[str, ...]
    ) -> "StreamIndex":
        """A new union of the same inner (sealed) index and a new live tier.

        Nothing sealed is re-read or rebuilt, and the new union quantises
        its own live rows.  The inner index is shared, not copied, so it
        must be closed once, through one of the unions.
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

    @property
    def row_codes(self) -> RowCodes | None:
        """Codes of every union member, in union id order.

        The inner backend's codes for the sealed ids, then the live
        snapshot's, quantised on first use; ``None`` when the inner
        backend holds no codes or there is no sealed tier.
        """
        if self._codes is None:
            sealed = getattr(self._inner, "row_codes", None)
            if sealed is None:
                return None
            self._codes = RowCodes.stacked(
                (sealed, RowCodes.from_matrix(self._live))
            )
        return self._codes

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
        # A block wholly in one tier needs no second copy.
        if live.all():
            return self._live[ids - self._sealed_count]
        if not live.any():
            return fetch_block(self._inner, ids.tolist())
        out = np.empty((ids.size, self._length), dtype=np.float64)
        out[~live] = fetch_block(self._inner, ids[~live].tolist())
        out[live] = self._live[ids[live] - self._sealed_count]
        return out

    def _live_set(self) -> CandidateSet:
        count = self._live.shape[0]
        return CandidateSet.from_arrays(
            np.zeros(count),
            np.arange(count, dtype=np.intp) + self._sealed_count,
            generated=count,
        )

    def knn_candidates(self, query, k, stats) -> CandidateSet:
        if self._inner is None:
            return self._live_set()
        return self._union(self._inner.knn_candidates(query, k, stats))

    def range_candidates(self, query, radius, stats) -> CandidateSet:
        # Every live member's sketch bound of 0 is <= any radius, so the
        # whole live tier enters the range set — by construction.
        if self._inner is None:
            return self._live_set()
        return self._union(self._inner.range_candidates(query, radius, stats))

    def _union(self, inner: CandidateSet) -> CandidateSet:
        """Merge the live tier into an inner (sealed-only) candidate set.

        Sealed ids pass through untouched (identity translation).  Live
        entries carry a lower bound of 0.0 and ids above every sealed
        id, so they go right after the inner zeros: the arrays stay
        ascending by ``(LB^2, seq_id)``, and a chained stream stays
        non-decreasing — the order contract refinement relies on.
        """
        live = self._live_set()
        if inner.stream is not None:
            return CandidateSet(
                generated=None,
                sigma_sq=inner.sigma_sq,
                paid=inner.paid,
                stream=itertools.chain(live.entries, inner.stream),
                top_ubs=inner.top_ubs,
            )
        zeros = int(np.searchsorted(inner.lb_sq, 0.0, side="right"))
        lb_sq, ids = inner.lb_sq, inner.ids
        return inner.survivors(
            np.concatenate((lb_sq[:zeros], live.lb_sq, lb_sq[zeros:])),
            np.concatenate((ids[:zeros], live.ids, ids[zeros:])),
            generated=(inner.generated or 0) + live.generated,
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
