"""Scatter-gather candidate generation over N shards, one engine index.

:class:`ShardRouter` implements the engine's
:class:`~repro.engine.core.EngineIndex` protocol, so everything built on
that seam — the shared verifier, the blocked batched verifier, the obs
accounting, the resilience guards, :class:`~repro.resilience.FaultyIndex`
— works against a sharded population unchanged.  The router owns only
*routing*:

* **scatter** — each shard's own generator runs over the query (serially
  in process, or on the persistent
  :class:`~repro.cluster.ShardWorkerPool`), producing a per-shard
  :class:`~repro.engine.core.CandidateSet`;
* **gather** — per-shard candidates are translated to global ids and
  merged under one *global* :math:`\\sigma_{UB}`, rebuilt from the
  shards' ``top_ubs``: each of the global k smallest upper bounds lies
  inside its own shard's top-k, so the merged k-th smallest equals the
  exact global value and cross-shard pruning is no weaker than a
  monolithic traversal;
* **degradation** — a shard whose generator fails is served by an
  exhaustive scan of *that shard only* (mirroring the engine's global
  fallback), so one poisoned shard cannot take down the others'
  answers; member-level faults flow through the engine's usual
  quarantine path with global ids.

The extended accounting invariant ``pruned + retrievals + quarantined ==
database_size`` holds globally because every shard's generator accounts
for exactly its own members and shards partition the population.
"""

from __future__ import annotations

import heapq
from dataclasses import fields as dataclass_fields
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.engine.core import (
    CandidateSet,
    SigmaTracker,
    _fallback_candidates,
    execute_knn,
    execute_range,
    fetch_block,
)
from repro.exceptions import KeyNotFoundError, ReproError
from repro.index.results import Neighbor, SearchStats
from repro.resilience.quarantine import quarantine_of
from repro.resilience.retry import active_policy

__all__ = ["ShardRouter"]


def _snapshot(stats: SearchStats) -> dict:
    return {
        spec.name: getattr(stats, spec.name)
        for spec in dataclass_fields(stats)
    }


def _restore(stats: SearchStats, snapshot: dict) -> None:
    for name, value in snapshot.items():
        setattr(stats, name, value)


class _RouterStore:
    """Batched reads over the per-shard stores, keyed by global id.

    Exists so the engine's block fetcher (``fetch_block``) can keep
    using one ``read_many`` call per verification block: one gather of
    the ids' shards and local ids, then one ``fetch_block`` per shard
    (shards in order of first appearance, ids in request order within
    each), scattered back into request order.
    """

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def __len__(self) -> int:
        return len(self._router)

    def read(self, seq_id: int) -> np.ndarray:
        return self._router.fetch(int(seq_id))

    def read_many(self, seq_ids) -> np.ndarray:
        router = self._router
        ids = np.asarray(seq_ids, dtype=np.intp).reshape(-1)
        outside = (ids < 0) | (ids >= router._shard_of.size)
        if outside.any():
            router._locate(int(ids[outside][0]))  # raises KeyNotFoundError
        shard_of = router._shard_of[ids]
        local_of = router._local_of[ids]
        rows = np.empty((ids.size, router.sequence_length))
        _, first = np.unique(shard_of, return_index=True)
        for shard in shard_of[np.sort(first)]:
            mask = shard_of == shard
            rows[mask] = fetch_block(
                router._shards[shard], local_of[mask].tolist()
            )
        return rows


class ShardRouter:
    """One :class:`EngineIndex` over N shard sub-indexes.

    Parameters
    ----------
    shards:
        ``(index, global_ids)`` pairs — a sub-index plus the ascending
        global sequence ids its local slots map to.  An empty shard may
        be represented as ``(None, empty_array)``.
    partitioner:
        The :class:`~repro.cluster.Partitioner` that produced the split;
        required for routing dynamic inserts.
    pool:
        A started :class:`~repro.cluster.ShardWorkerPool`.  When given,
        candidate generation is delegated to the persistent workers
        (one warm process per populated shard) instead of running in
        process; the router owns the pool and shuts it down in
        :meth:`close`.  Gather, verification and accounting are
        unchanged, so answers are bit-identical to the serial scatter
        (see ``docs/CONCURRENCY.md``).
    """

    obs_name = "index.sharded"

    def __init__(
        self,
        shards: Sequence[tuple[object, np.ndarray]],
        partitioner=None,
        sequence_length: int | None = None,
        pool=None,
    ) -> None:
        if not shards:
            raise ReproError("a ShardRouter needs at least one shard")
        self._shards = [sub for sub, _ in shards]
        self._global_ids = [
            np.asarray(ids, dtype=np.intp) for _, ids in shards
        ]
        self._partitioner = partitioner
        for sub, ids in zip(self._shards, self._global_ids):
            if sub is None and ids.size:
                raise ReproError("a populated shard needs an index")
            if sub is not None and len(sub) != ids.size:
                raise ReproError(
                    f"shard index holds {len(sub)} members but "
                    f"{ids.size} global ids were supplied"
                )
        total = int(sum(ids.size for ids in self._global_ids))
        if total:
            all_ids = np.concatenate(self._global_ids)
            if not np.array_equal(np.sort(all_ids), np.arange(total)):
                raise ReproError(
                    "shard global ids must partition range(total) — "
                    "every id on exactly one shard"
                )
        self._shard_of = np.empty(total, dtype=np.intp)
        self._local_of = np.empty(total, dtype=np.intp)
        for shard, ids in enumerate(self._global_ids):
            self._shard_of[ids] = shard
            self._local_of[ids] = np.arange(ids.size)
        if sequence_length is None:
            populated = next(
                (sub for sub in self._shards if sub is not None), None
            )
            if populated is None:
                raise ReproError(
                    "sequence_length is required for an all-empty router"
                )
            sequence_length = populated.sequence_length
        self._n = int(sequence_length)
        self._store = _RouterStore(self)
        self._pool = pool

    # ------------------------------------------------------------------
    # EngineIndex surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(
            sum(len(sub) for sub in self._shards if sub is not None)
        )

    @property
    def sequence_length(self) -> int:
        return self._n

    @property
    def store(self) -> _RouterStore:
        return self._store

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
            for shard, ids in enumerate(self._global_ids)
            if ids.size > 0
        ]

    def shard_views(self) -> list[tuple[object, np.ndarray]]:
        """The populated shards as ``(index, global_ids)`` pairs.

        The batched fan-out in :func:`repro.engine.batch.search_many`
        uses this to run one full sub-search per shard and merge.
        """
        return [
            (sub, ids)
            for sub, ids in zip(self._shards, self._global_ids)
            if sub is not None and len(sub) > 0
        ]

    def _locate(self, seq_id: int) -> tuple[int, int]:
        if not 0 <= seq_id < self._shard_of.size:
            raise KeyNotFoundError(
                f"sequence id {seq_id} out of range for "
                f"{self._shard_of.size} sharded members"
            )
        return int(self._shard_of[seq_id]), int(self._local_of[seq_id])

    def shard_of(self, seq_id: int) -> int:
        """Which shard a global sequence id lives on."""
        return self._locate(seq_id)[0]

    def fetch(self, seq_id: int) -> np.ndarray:
        shard, local = self._locate(int(seq_id))
        return self._shards[shard].fetch(local)

    def result_name(self, seq_id: int) -> str | None:
        shard, local = self._locate(int(seq_id))
        return self._shards[shard].result_name(local)

    # ------------------------------------------------------------------
    # Scatter
    # ------------------------------------------------------------------
    def _scatter(self, generate, stats: SearchStats):
        """One candidate set per shard (``None`` subs yield empty sets).

        Serial scatter passes the caller's ``stats`` straight through to
        the shard generators (streaming generators keep mutating it
        lazily, exactly as monolithically); a generator failure restores
        the pre-shard snapshot and swaps in that shard's exhaustive
        fallback, so one poisoned shard degrades only itself.
        """
        shard_sets = []
        for sub in self._shards:
            if sub is None or len(sub) == 0:
                shard_sets.append(CandidateSet(entries=[], generated=0))
                continue
            snapshot = _snapshot(stats)
            try:
                with obs.span(f"{sub.obs_name}.generate"):
                    shard_sets.append(generate(sub, stats))
            except (ReproError, OSError) as exc:
                if not active_policy().degrade:
                    raise
                _restore(stats, snapshot)
                quarantine_of(self).note_generator_failure(exc)
                obs.add("resilience.fallback_scans")
                stats.degraded = True
                shard_sets.append(_fallback_candidates(len(sub)))
        return shard_sets

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

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _translate_stream(
        self, shard: int, stream: Iterator[tuple[float, int]]
    ) -> Iterator[tuple[float, int]]:
        global_ids = self._global_ids[shard]
        for lb_sq, local in stream:
            yield lb_sq, int(global_ids[local])

    def _merge_paid(self, shard_sets) -> dict[int, float]:
        paid: dict[int, float] = {}
        for shard, cands in enumerate(shard_sets):
            if cands.paid:
                global_ids = self._global_ids[shard]
                for local, d_sq in cands.paid.items():
                    paid[int(global_ids[local])] = d_sq
        return paid

    def _merge_knn(self, shard_sets, k: int) -> CandidateSet:
        tracker = SigmaTracker(k)
        for cands in shard_sets:
            for upper in cands.top_ubs:
                tracker.offer(upper)
        sigma_sq = tracker.sigma_sq()
        paid = self._merge_paid(shard_sets)

        streaming = [
            (shard, cands)
            for shard, cands in enumerate(shard_sets)
            if cands.stream is not None
        ]
        if streaming and all(
            cands.stream is not None or not cands.entries
            for cands in shard_sets
        ):
            # Pure streaming population (the GEMINI R-tree): every shard
            # stream is increasing in LB, so the heap-merge is too, and
            # the verifier keeps consuming lazily — unvisited members
            # are never bounded, exactly as in the monolithic index.
            merged = heapq.merge(
                *(
                    self._translate_stream(shard, cands.stream)
                    for shard, cands in streaming
                )
            )
            return CandidateSet(
                generated=None,
                stream=merged,
                paid=paid,
                top_ubs=tracker.values(),
            )

        entries: list[tuple[float, int]] = []
        generated = 0
        for shard, cands in enumerate(shard_sets):
            global_ids = self._global_ids[shard]
            if cands.stream is not None:
                # Mixed population (defensive): laziness is lost, so
                # materialise — every streamed member was bounded.
                materialised = [
                    (lb_sq, int(global_ids[local]))
                    for lb_sq, local in cands.stream
                ]
                generated += len(materialised)
                entries.extend(
                    entry
                    for entry in materialised
                    if entry[0] <= sigma_sq or entry[1] in paid
                )
                continue
            generated += (
                cands.generated
                if cands.generated is not None
                else len(cands.entries)
            )
            for lb_sq, local in cands.entries:
                gid = int(global_ids[local])
                # Re-filter under the *global* sigma: a shard's own
                # k-th-smallest UB can only be looser.  Paid candidates
                # always survive (their retrieval is already booked).
                if lb_sq <= sigma_sq or gid in paid:
                    entries.append((lb_sq, gid))
        entries.sort()
        obs.add("cluster.merged_candidates", len(entries))
        return CandidateSet(
            entries=entries,
            generated=generated,
            sigma_sq=sigma_sq,
            paid=paid,
            top_ubs=tracker.values(),
        )

    def _merge_range(self, shard_sets) -> CandidateSet:
        paid = self._merge_paid(shard_sets)
        entries: list[tuple[float, int]] = []
        generated = 0
        generated_known = True
        for shard, cands in enumerate(shard_sets):
            global_ids = self._global_ids[shard]
            if cands.stream is not None:
                # Range streams are already radius-bounded; materialise.
                entries.extend(
                    (lb_sq, int(global_ids[local]))
                    for lb_sq, local in cands.stream
                )
                generated_known = False
                continue
            if cands.generated is None:
                generated_known = False
            else:
                generated += cands.generated
            entries.extend(
                (lb_sq, int(global_ids[local]))
                for lb_sq, local in cands.entries
            )
        entries.sort()
        obs.add("cluster.merged_candidates", len(entries))
        return CandidateSet(
            entries=entries,
            generated=generated if generated_known else None,
            paid=paid,
        )

    # ------------------------------------------------------------------
    # Candidate generation (the engine owns verification)
    # ------------------------------------------------------------------
    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        # Each shard generator receives k *unchanged*: a per-shard cap
        # (say min(k, shard_size)) would tighten that shard's sigma
        # below what k global answers require and could prune true
        # neighbours.  Generators handle k > shard_size gracefully (the
        # tracker simply never fills and sigma stays infinite).
        with obs.span("cluster.scatter"):
            if self._pool is not None:
                shard_sets = self._absorb_triples(
                    self._pool.scatter_knn(query, int(k)), stats
                )
            else:
                shard_sets = self._scatter(
                    lambda sub, sub_stats: sub.knn_candidates(
                        query, k, sub_stats
                    ),
                    stats,
                )
        with obs.span("cluster.gather"):
            return self._merge_knn(shard_sets, k)

    def gather_knn(
        self, triples, k: int, stats: SearchStats
    ) -> CandidateSet:
        """Absorb pre-scattered per-shard triples into one candidate set.

        The gather half of :meth:`knn_candidates` for candidates the
        worker pool already produced in a batched ``cands`` request
        (see ``engine/batch.py``): ``triples`` is one
        ``(CandidateSet, SearchStats, error)`` per shard, aligned to
        the full shard range exactly as ``scatter_knn`` returns them,
        so the merged result — quarantine notes, fallback scans and
        the rebuilt global σ_UB included — is bit-identical to a
        per-query scatter.
        """
        with obs.span("cluster.gather"):
            return self._merge_knn(self._absorb_triples(triples, stats), k)

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        with obs.span("cluster.scatter"):
            if self._pool is not None:
                shard_sets = self._absorb_triples(
                    self._pool.scatter_range(query, float(radius)), stats
                )
            else:
                shard_sets = self._scatter(
                    lambda sub, sub_stats: sub.range_candidates(
                        query, radius, sub_stats
                    ),
                    stats,
                )
        with obs.span("cluster.gather"):
            return self._merge_range(shard_sets)

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
        """Whether every shard can accept routed dynamic inserts."""
        return self._partitioner is not None and all(
            sub is not None and hasattr(sub, "insert")
            for sub in self._shards
        )

    def insert(self, values, name: str | None = None) -> int:
        """Insert one sequence, routed to its shard; returns the global id."""
        if not self.supports_insert:
            raise ReproError(
                "this router cannot insert: it needs a partitioner and "
                "insert-capable, populated shard indexes"
            )
        gid = int(self._shard_of.size)
        shard = self._partitioner.shard_of(gid) % len(self._shards)
        local = int(self._global_ids[shard].size)
        self._shards[shard].insert(values, name)
        self._global_ids[shard] = np.append(self._global_ids[shard], gid)
        self._shard_of = np.append(self._shard_of, shard)
        self._local_of = np.append(self._local_of, local)
        return gid

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
            shard = int(self._shard_of[gid])
            grouped[shard] = grouped.get(shard, ()) + (gid,)
        return grouped

    def close(self) -> None:
        """Close shard stores, then shut the worker pool down (if any).

        Store handles first (parent-side reads stop), pool last — its
        shutdown unlinks the shared-memory arena the stores may view.
        """
        for sub in self._shards:
            store = getattr(sub, "store", None)
            if store is not None and hasattr(store, "close"):
                store.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
