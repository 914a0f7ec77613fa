"""One engine index over N shards: one filter, partitioned rows.

:class:`ShardRouter` implements the engine's
:class:`~repro.engine.core.EngineIndex` protocol, so everything built on
that seam — the shared verifier, the batched ``search_many``, the obs
accounting, the resilience guards, :class:`~repro.resilience.FaultyIndex`
— works against a sharded population unchanged.  It splits the paper's
two resident halves (fig. 23) the way the paper keeps them:

* **the filter** — the whole population's
  :class:`~repro.compression.codes.RowCodes`, in global-id order, held
  by the router.  A single k-NN or range query hands the engine every
  member at lower bound 0, exactly as the ``flat`` index does, and the
  engine's row-code stage bounds them all in one kernel pass, so
  answers and every :class:`SearchStats` field equal
  ``get_index("flat", matrix)``;
* **the rows** — partitioned across the shards' stores, read by the
  verifier through one :class:`~repro.storage.union.RowUnion` (one
  ``read_many`` per shard per verification block).

The shard sub-indexes (in process, or in the persistent
:class:`~repro.cluster.ShardWorkerPool`) serve exact ``search_many``
batches, one full sub-search per shard.  Quarantine, degradation and
obs stay keyed to the router: a failing filter falls back to the
engine's global exhaustive scan, and a member that cannot be read is
quarantined under its global id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.compression.codes import RowCodes
from repro.engine.core import (
    CandidateSet,
    SigmaTracker,
    execute_knn,
    execute_range,
    population_candidates,
)
from repro.exceptions import ReproError
from repro.index.results import Neighbor, SearchStats
from repro.resilience.quarantine import quarantine_of
from repro.resilience.retry import active_policy
from repro.storage.union import RowUnion

__all__ = ["ShardRouter"]


class ShardRouter:
    """One :class:`EngineIndex` over N shard sub-indexes.

    Parameters
    ----------
    shards:
        ``(index, global_ids)`` pairs — a sub-index with a ``store``
        plus the ascending global sequence ids its local slots map to.
        An empty shard may be represented as ``(None, empty_array)``.
    partitioner:
        The :class:`~repro.cluster.Partitioner` that produced the split;
        required for routing dynamic inserts.
    pool:
        A started :class:`~repro.cluster.ShardWorkerPool`.  When given,
        exact ``search_many`` batches run on the persistent workers (one
        warm process per populated shard); single queries never leave
        the parent.  The router owns the pool and shuts it down in
        :meth:`close`.
    row_codes:
        The filter: the whole population's row codes in global-id order.
        ``None`` keeps no filter: every query's candidates are the whole
        population at a lower bound of zero, in id order — the ``scan``
        backend's, so a sharded scan stays the paper's baseline.
    """

    obs_name = "index.sharded"

    def __init__(
        self,
        shards: Sequence[tuple[object, np.ndarray]],
        partitioner=None,
        sequence_length: int | None = None,
        pool=None,
        *,
        row_codes: RowCodes | None = None,
    ) -> None:
        if not shards:
            raise ReproError("a ShardRouter needs at least one shard")
        self._shards = [sub for sub, _ in shards]
        if sequence_length is None:
            populated = [sub for sub in self._shards if sub is not None]
            if not populated:
                raise ReproError(
                    "sequence_length is required for an all-empty router"
                )
            sequence_length = populated[0].sequence_length
        self._rows = RowUnion(
            [(getattr(sub, "store", None), ids) for sub, ids in shards],
            sequence_length,
        )
        self._partitioner = partitioner
        self._pool = pool
        if row_codes is not None and len(row_codes) != len(self._rows):
            raise ReproError(
                f"the filter holds {len(row_codes)} rows but the "
                f"shards hold {len(self._rows)} members"
            )
        self._row_codes = row_codes

    # ------------------------------------------------------------------
    # EngineIndex surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def sequence_length(self) -> int:
        return self._rows.sequence_length

    @property
    def store(self) -> RowUnion:
        return self._rows

    @property
    def row_codes(self) -> RowCodes | None:
        """The filter's resident row codes (``None`` without a filter)."""
        return self._row_codes

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def worker_pool(self):
        """The persistent shard worker pool, or ``None`` (serial)."""
        return self._pool

    def populated_shards(self) -> list[int]:
        """Indexes of shards that hold at least one member."""
        return [
            shard
            for shard, ids in enumerate(self._rows.global_ids)
            if ids.size > 0
        ]

    def shard_views(self) -> list[tuple[object, np.ndarray]]:
        """The populated shards as ``(index, global_ids)`` pairs.

        The pooled batch in :func:`repro.engine.batch.search_many`
        merges one full sub-search per shard in this order.
        """
        return [
            (sub, ids)
            for sub, ids in zip(self._shards, self._rows.global_ids)
            if ids.size
        ]

    def shard_of(self, seq_id: int) -> int:
        """Which shard a global sequence id lives on."""
        return self._rows.locate(seq_id)[0]

    def fetch(self, seq_id: int) -> np.ndarray:
        return self._rows.read(seq_id)

    def result_name(self, seq_id: int) -> str | None:
        shard, local = self._rows.locate(seq_id)
        return self._shards[shard].result_name(local)

    # ------------------------------------------------------------------
    # Candidate generation: everyone, for the engine's code stage
    # ------------------------------------------------------------------
    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        if self._row_codes is not None:
            stats.bound_computations += len(self)
        return population_candidates(len(self))

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        if self._row_codes is not None:
            stats.bound_computations += len(self)
        return population_candidates(len(self))

    # ------------------------------------------------------------------
    # Gather: the pool's per-shard candidate triples (request API only)
    # ------------------------------------------------------------------
    def _absorb_triples(self, triples, stats: SearchStats):
        """Fold the worker pool's ``(candidates, stats, error)`` triples in.

        A shard's error (a generator failure in its worker, or the
        worker's death) is recorded on the router's quarantine and the
        shard's exhaustive fallback candidates stand in — unless
        degradation is disabled, in which case the error propagates.
        """
        shard_sets = []
        for cands, sub_stats, error in triples:
            if error is not None:
                if not active_policy().degrade:
                    raise error
                quarantine_of(self).note_generator_failure(error)
                obs.add("resilience.fallback_scans")
            stats.merge(sub_stats)
            shard_sets.append(cands)
        return shard_sets

    def _merge_knn(self, shard_sets, k: int) -> CandidateSet:
        """Per-shard candidate sets under one global σ_UB, in global ids.

        The global σ_UB is rebuilt from the shards' ``top_ubs``: each of
        the global k smallest upper bounds lies inside its own shard's
        top-k, so the merged k-th smallest is the exact global value.
        Paid candidates always survive (their retrieval is booked).
        Flat and scan shards never stream.
        """
        tracker = SigmaTracker(k)
        for cands in shard_sets:
            for upper in cands.top_ubs:
                tracker.offer(upper)
        sigma_sq = tracker.sigma_sq()
        paid: dict[int, float] = {}
        generated = 0
        for global_ids, cands in zip(self._rows.global_ids, shard_sets):
            for local, d_sq in cands.paid.items():
                paid[int(global_ids[local])] = d_sq
            generated += cands.generated
        lb_sq = np.concatenate([cands.lb_sq for cands in shard_sets])
        ids = np.concatenate([
            global_ids[cands.ids]
            for global_ids, cands in zip(self._rows.global_ids, shard_sets)
        ])
        keep = lb_sq <= sigma_sq
        if paid:
            keep |= np.isin(ids, list(paid))
        lb_sq, ids = lb_sq[keep], ids[keep]
        order = np.lexsort((ids, lb_sq))
        return CandidateSet.from_arrays(
            lb_sq[order],
            ids[order],
            generated=generated,
            sigma_sq=sigma_sq,
            paid=paid,
            top_ubs=tracker.values(),
        )

    def gather_knn(
        self, triples, k: int, stats: SearchStats
    ) -> CandidateSet:
        """Absorb pre-scattered per-shard triples into one candidate set.

        ``triples`` is one ``(CandidateSet, SearchStats, error)`` per
        shard, aligned to the full shard range exactly as the pool's
        ``scatter_knn`` / ``batch_candidates`` return them.  No serving
        path calls this: single queries use the router's own filter.
        It stays as the pool's candidate API, one gather per request.
        """
        with obs.span("cluster.gather"):
            return self._merge_knn(self._absorb_triples(triples, stats), k)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self, query, k: int = 1, policy=None
    ) -> tuple[list[Neighbor], SearchStats]:
        """The ``k`` nearest neighbours across all shards (exact)."""
        return execute_knn(self, query, k, policy)

    def range_search(
        self, query, radius: float, policy=None
    ) -> tuple[list[Neighbor], SearchStats]:
        """All sequences within ``radius``, across all shards."""
        return execute_range(self, query, radius, policy)

    # ------------------------------------------------------------------
    # Dynamic ingestion
    # ------------------------------------------------------------------
    @property
    def supports_insert(self) -> bool:
        """Whether every shard can accept routed dynamic inserts: a
        serial router over ``flat`` shards, empty ones included."""
        return self._partitioner is not None and all(
            hasattr(sub, "insert") for sub in self._shards
        )

    def insert(self, values, name: str | None = None) -> int:
        """Insert one sequence, routed to its shard; returns the global id.

        The shard stores the row; the router's filter appends its row
        code.
        """
        if not self.supports_insert:
            raise ReproError(
                "this router cannot insert: it needs a partitioner and "
                "insert-capable shard indexes"
            )
        shard = self._partitioner.shard_of(len(self)) % len(self._shards)
        self._shards[shard].insert(values, name)
        if self._row_codes is not None:
            self._row_codes = self._row_codes.appended(values)
        return self._rows.append(shard)

    # ------------------------------------------------------------------
    # Health / lifecycle
    # ------------------------------------------------------------------
    def quarantined_by_shard(self) -> dict[int, tuple[int, ...]]:
        """Quarantined global ids grouped by the shard they live on."""
        grouped: dict[int, tuple[int, ...]] = {}
        quarantine = getattr(self, "_resilience_quarantine", None)
        if quarantine is None:
            return grouped
        for gid in quarantine.ids():
            shard = self.shard_of(gid)
            grouped[shard] = grouped.get(shard, ()) + (gid,)
        return grouped

    def close(self) -> None:
        """Close shard stores, then shut the worker pool down (if any).

        Store handles first (parent-side reads stop), pool last.
        """
        for store in self._rows.stores:
            if store is not None:
                store.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
