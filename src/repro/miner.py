"""The application façade: a live query-log mining service.

The paper's introduction sketches how a search service would *use* all of
this: ingest the daily logs, keep compressed representations and burst
features up to date, and answer three kinds of questions — "what looks
like this query?", "when does it recur?", "what bursts with it?".
:class:`QueryLogMiner` packages the whole library behind that interface:

* **ingestion** — accept raw log records (via the
  :class:`~repro.datagen.LogAggregator` pipeline) or ready-made daily
  count series; new series are inserted into the live VP-tree (the
  dynamic-maintenance extension) and their burst features land in the
  sqlite burst table;
* **similarity** — exact k-NN over the compressed index, plus DTW search
  (built lazily, since its envelopes cost a pass over the data);
* **periods** — per-query significant periods and shared periods across
  a similarity result set;
* **bursts** — per-query burst spans and query-by-burst rankings.

Everything is deterministic given the inputs, and every answer comes
from the same code paths the benchmarks exercise.
"""

from __future__ import annotations

import datetime as _dt
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.bursts.compaction import Burst
from repro.bursts.detection import BurstDetector
from repro.bursts.leaderboard import BurstinessLeaderboard, LeaderboardEntry
from repro.bursts.protocol import BurstModel, BurstRegion
from repro.bursts.query import BurstDatabase, BurstMatch, BurstRegionDatabase
from repro.bursts.registry import get_burst_model
from repro.datagen.components import DayGrid
from repro.datagen.events import LogAggregator, LogRecord
from repro.cluster import Partitioner, build_sharded
from repro.dtw.search import DTWSearch
from repro.engine import (
    ApproxPolicy,
    available_indexes,
    get_index,
    search_many,
)
from repro.exceptions import (
    IngestionError,
    SeriesMismatchError,
    UnknownQueryError,
)
from repro.index.results import Neighbor
from repro.resilience import DeadLetter, validate_counts
from repro.periods.aggregate import SharedPeriod, shared_periods
from repro.periods.detector import PeriodDetector
from repro.timeseries.preprocessing import zscore
from repro.timeseries.series import TimeSeries

__all__ = ["QueryLogMiner"]

#: Rebuild the VP-tree from scratch once insertions outnumber the
#: originally indexed population by this factor (leaf rebuilds keep the
#: tree exact either way; a full rebuild restores balance).
_REBUILD_GROWTH = 2.0

#: Registry spellings of the shard router itself — ``shards=N`` builds
#: the router, so these are not valid values beside it.
_ROUTER_BACKENDS = frozenset({"sharded", "shard", "cluster"})


class QueryLogMiner:
    """A live mining service over daily query-count series.

    Parameters
    ----------
    start / days:
        The covered date window; every ingested series must match it.
    detectors:
        Burst detectors for the burst table (defaults to the paper's
        long/short-term pair at 2 sigma).
    burst_model:
        The pluggable region backend behind the burstiness leaderboard
        and region-scored query-by-burst — a
        :func:`~repro.bursts.registry.get_burst_model` name
        (``"ma"``, ``"kleinberg"``, ``"elastic"``, ``"macd"``) or a
        built :class:`~repro.bursts.protocol.BurstModel`.  Region
        detection runs on the **raw counts** (Kleinberg's Poisson model
        needs them); the classic ``detectors`` table keeps the paper's
        z-scored pipeline.
    seed:
        Seed for the index-construction randomness.
    index_backend:
        Engine registry name of the monolithic similarity structure
        (see :func:`repro.engine.get_index`); defaults to the paper's
        ``"vptree"``, which, like ``"mvptree"``, walks on its row codes
        and takes the miner's ``seed``.  Backends without dynamic
        insertion are rebuilt lazily after ingestion instead of updated
        in place.
    shards / shard_policy:
        ``shards=N`` partitions the live index into N ``flat`` shards
        behind a :class:`~repro.cluster.ShardRouter` filtered by the
        population's row codes — or N ``scan`` shards, unfiltered, when
        ``index_backend="scan"``.  New series are routed to their shard
        by the deterministic :class:`~repro.cluster.Partitioner`
        (``shard_policy`` is ``"hash"`` or ``"round_robin"``) and
        inserted in place; a router that cannot insert (``scan`` shards,
        an empty shard) is rebuilt lazily instead.  ``shards=None`` (the
        default) keeps the monolithic index.
    dead_letter_capacity:
        Upper bound on the dead-letter buffer.  Sustained bad input must
        not grow memory without limit, so once the buffer is full the
        *oldest* rejection is dropped for each new one (newest
        rejections are the ones an operator re-ingests), counted on
        ``ingest.dead_letter.dropped``.
    approx_policy:
        An :class:`~repro.engine.ApproxPolicy` opting every
        :meth:`similar` / :meth:`similar_many` call into the
        approximate tier (``None``, the default, means exact).
        Only the sketch-index similarity path is affected; DTW,
        periods and bursts always run exact (see ``docs/APPROX.md``).
    """

    def __init__(
        self,
        start: _dt.date = _dt.date(2002, 1, 1),
        days: int = 365,
        detectors: Sequence[BurstDetector] | None = None,
        burst_model: BurstModel | str = "ma",
        seed: int = 0,
        index_backend: str = "vptree",
        shards: int | None = None,
        shard_policy: str = "hash",
        dead_letter_capacity: int = 1024,
        approx_policy: ApproxPolicy | None = None,
    ) -> None:
        if days < 4:
            raise SeriesMismatchError(f"need at least 4 days, got {days}")
        if dead_letter_capacity < 1:
            raise IngestionError(
                f"dead_letter_capacity must be >= 1, "
                f"got {dead_letter_capacity}"
            )
        # Router spellings first: aliases like "shard" are not canonical
        # registry names, but deserve the specific error under shards=N.
        if shards is not None and index_backend in _ROUTER_BACKENDS:
            raise SeriesMismatchError(
                "shards=N builds the router itself, over flat shards "
                "(scan shards with index_backend='scan'); 'sharded' is "
                "not a per-shard backend"
            )
        if index_backend not in available_indexes():
            raise SeriesMismatchError(
                f"unknown index backend {index_backend!r}; "
                f"available: {', '.join(available_indexes())}"
            )
        # Partitioner construction also validates shards/shard_policy.
        self._partitioner = (
            Partitioner(shards, policy=shard_policy, seed=seed)
            if shards is not None
            else None
        )
        self.grid = DayGrid(start, days)
        self._seed = seed
        self._backend = index_backend
        self._period_detector = PeriodDetector(interpolate=True)
        self._burst_db = BurstDatabase(detectors=detectors)
        # Resolved eagerly so a bad name fails at construction, not on
        # the first leaderboard call; the structures themselves build
        # lazily (one detect per series) and refresh after ingestion.
        self._burst_model = get_burst_model(burst_model)
        self._leaderboard: BurstinessLeaderboard | None = None
        self._region_db: BurstRegionDatabase | None = None
        self._series: dict[str, TimeSeries] = {}
        self._order: list[str] = []
        self._index = None
        self._indexed_count = 0
        self._dtw: DTWSearch | None = None
        if approx_policy is not None and not isinstance(
            approx_policy, ApproxPolicy
        ):
            raise SeriesMismatchError(
                f"approx_policy must be an ApproxPolicy or None, "
                f"got {approx_policy!r}"
            )
        self._approx_policy = approx_policy
        self._dead_letter_capacity = int(dead_letter_capacity)
        self._dead_letters: list[DeadLetter] = []
        self._dead_letters_dropped = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._order)

    def series(self, name: str) -> TimeSeries:
        """The raw ingested series for a query name."""
        try:
            return self._series[name]
        except KeyError:
            raise UnknownQueryError(name) from None

    @property
    def dead_letters(self) -> tuple[DeadLetter, ...]:
        """Rejected ingestion records, oldest first (audit/re-ingest)."""
        return tuple(self._dead_letters)

    @property
    def dead_letter_capacity(self) -> int:
        """Upper bound on retained rejections (oldest drop beyond it)."""
        return self._dead_letter_capacity

    @property
    def dead_letters_dropped(self) -> int:
        """Rejections evicted from the full buffer since construction."""
        return self._dead_letters_dropped

    def _reject(self, name: str, error: Exception):
        """Dead-letter a rejected series and re-raise the typed error."""
        self._dead_letters.append(
            DeadLetter(
                name=name or "<unnamed>",
                reason=str(error),
                error=type(error).__name__,
            )
        )
        if len(self._dead_letters) > self._dead_letter_capacity:
            overflow = len(self._dead_letters) - self._dead_letter_capacity
            del self._dead_letters[:overflow]
            self._dead_letters_dropped += overflow
            obs.add("ingest.dead_letter.dropped", overflow)
        obs.add("miner.dead_letters")
        raise error

    def add_series(self, series: TimeSeries, *, counts: bool = False) -> None:
        """Ingest one fully aggregated daily-count series.

        Validation happens *before* any state mutates: NaN/infinite
        values, a mismatched window, a missing or duplicate name are
        rejected with a typed error
        (:class:`~repro.exceptions.IngestionError`,
        :class:`~repro.exceptions.SeriesMismatchError`, ...) and
        recorded in :attr:`dead_letters` — the live VP-tree, the burst
        table and the ingestion order never see the bad record.
        ``counts=True`` additionally rejects negative values (always on
        for the raw-log :meth:`add_records` path, where a negative
        daily count is impossible; off here because callers also ingest
        already-transformed, legitimately negative series).
        """
        if not series.name:
            self._reject("", UnknownQueryError("ingested series must be named"))
        if series.name in self._series:
            self._reject(
                series.name,
                UnknownQueryError(
                    f"query {series.name!r} is already ingested; "
                    f"build a new miner for a new window"
                ),
            )
        if len(series) != len(self.grid) or series.start != self.grid.start:
            self._reject(
                series.name,
                SeriesMismatchError(
                    f"series {series.name!r} covers "
                    f"{series.start.isoformat()}+{len(series)}d, the miner "
                    f"covers {self.grid.start.isoformat()}+{len(self.grid)}d"
                ),
            )
        try:
            validate_counts(series.values, name=series.name, counts=counts)
        except IngestionError as exc:
            self._reject(series.name, exc)
        with obs.span("miner.add_series"):
            self._series[series.name] = series
            self._order.append(series.name)
            self._burst_db.add(series)
            self._dtw = None  # envelopes are stale
            if self._leaderboard is not None:
                self._leaderboard.add(series.name, series.values)
            if self._region_db is not None:
                self._region_db.add(series)
            if self._index is not None:
                can_insert = getattr(
                    self._index,
                    "supports_insert",
                    hasattr(self._index, "insert"),
                )
                if not can_insert:
                    # Static backend: rebuild lazily on next search.
                    self._index = None
                else:
                    self._index.insert(zscore(series.values), name=series.name)
                    if len(self._order) > _REBUILD_GROWTH * self._indexed_count:
                        self._index = None  # force a balanced rebuild on next use
        obs.add("miner.series_ingested")

    def add_records(self, records: Iterable[LogRecord]) -> tuple[str, ...]:
        """Ingest raw log records; returns the new query names seen.

        Aggregates the stream into daily counts over the miner's window
        (the storage-efficient, privacy-preserving reduction the paper
        advocates) and ingests each aggregated series.  Raw logs arrive
        dirty, so this batch path is resilient: a series that fails
        validation (or duplicates an ingested name) lands in
        :attr:`dead_letters` and the rest of the batch proceeds — one
        malformed query never sinks the ingest.
        """
        aggregator = LogAggregator(self.grid)
        aggregator.consume(records)
        added = []
        for name in aggregator.queries:
            try:
                self.add_series(aggregator.series(name), counts=True)
            except (IngestionError, SeriesMismatchError, UnknownQueryError):
                continue  # dead-lettered by add_series; keep the batch going
            added.append(name)
        return tuple(added)

    # ------------------------------------------------------------------
    # Search structures (built/refreshed lazily)
    # ------------------------------------------------------------------
    def _matrix(self) -> np.ndarray:
        if not self._order:
            raise SeriesMismatchError("no series ingested yet")
        return np.stack(
            [zscore(self._series[name].values) for name in self._order]
        )

    def _live_index(self):
        if self._index is None:
            names = list(self._order)
            with obs.span("miner.index_build"):
                if self._partitioner is not None:
                    # The live index absorbs dynamic inserts between
                    # rebuilds; pooled routers are read-only, so the
                    # miner always builds in-process regardless of
                    # REPRO_SHARD_WORKERS.
                    self._index = build_sharded(
                        self._matrix(),
                        partitioner=self._partitioner,
                        backend="scan" if self._backend == "scan" else "flat",
                        names=names,
                        worker_pool=False,
                    )
                else:
                    kwargs: dict = {"names": names}
                    if self._backend in ("vptree", "mvptree"):
                        kwargs["seed"] = self._seed
                    self._index = get_index(
                        self._backend, self._matrix(), **kwargs
                    )
            self._indexed_count = len(self._order)
        return self._index

    def _live_dtw(self) -> DTWSearch:
        if self._dtw is None:
            self._dtw = DTWSearch(
                self._matrix(), band=0.05, names=list(self._order)
            )
        return self._dtw

    def _live_leaderboard(self) -> BurstinessLeaderboard:
        if self._leaderboard is None:
            board = BurstinessLeaderboard(self._burst_model)
            for name in self._order:
                board.add(name, self._series[name].values)
            self._leaderboard = board
        return self._leaderboard

    def _live_region_db(self) -> BurstRegionDatabase:
        if self._region_db is None:
            db = BurstRegionDatabase(self._burst_model)
            db.add_collection(self._series[name] for name in self._order)
            self._region_db = db
        return self._region_db

    def _standardized_query(self, query) -> np.ndarray:
        if isinstance(query, str):
            return zscore(self.series(query).values)
        if isinstance(query, TimeSeries):
            return zscore(query.values)
        return zscore(np.asarray(query, dtype=np.float64))

    # ------------------------------------------------------------------
    # Questions
    # ------------------------------------------------------------------
    @property
    def approx_policy(self) -> ApproxPolicy | None:
        """The configured similarity policy (``None``: exact)."""
        return self._approx_policy

    def similar(self, query, k: int = 5) -> list[Neighbor]:
        """Queries with the most similar demand shape (k-NN).

        Exact unless the miner was built with a non-exact
        ``approx_policy``.
        ``query`` may be an ingested name, a :class:`TimeSeries` or a raw
        sequence; an ingested name excludes itself from the results.
        """
        with obs.span("miner.similar"):
            exclude = query if isinstance(query, str) else None
            values = self._standardized_query(query)
            extra = 1 if exclude is not None else 0
            hits, _ = self._live_index().search(
                values,
                k=min(k + extra, len(self)),
                policy=self._approx_policy,
            )
            return [hit for hit in hits if hit.name != exclude][:k]

    def similar_many(
        self, queries: Sequence, k: int = 5
    ) -> list[list[Neighbor]]:
        """:meth:`similar` for a whole batch of queries at once.

        Runs through the engine's batched
        :func:`~repro.engine.search_many` path, which amortises
        validation and verifies candidates in vectorised blocks;
        per-query results and exclusion semantics are identical to
        calling :meth:`similar` in a loop.
        """
        with obs.span("miner.similar_many"):
            excludes = [
                query if isinstance(query, str) else None for query in queries
            ]
            matrix = np.stack(
                [self._standardized_query(query) for query in queries]
            )
            depth = min(k + 1 if any(excludes) else k, len(self))
            batched = search_many(
                self._live_index(),
                matrix,
                k=depth,
                policy=self._approx_policy,
            )
            return [
                [hit for hit in hits if hit.name != exclude][:k]
                for (hits, _), exclude in zip(batched, excludes)
            ]

    def dtw_similar(self, query, k: int = 5) -> list[Neighbor]:
        """Like :meth:`similar`, under banded dynamic time warping."""
        with obs.span("miner.dtw_similar"):
            exclude = query if isinstance(query, str) else None
            values = self._standardized_query(query)
            extra = 1 if exclude is not None else 0
            hits, _ = self._live_dtw().search(
                values, k=min(k + extra, len(self))
            )
            return [hit for hit in hits if hit.name != exclude][:k]

    def periods(self, name: str):
        """Significant periods of an ingested query (interpolated)."""
        with obs.span("miner.periods"):
            return self._period_detector.detect(
                self.series(name).standardize()
            )

    def shared_periods_of_similar(
        self, name: str, k: int = 5
    ) -> list[SharedPeriod]:
        """Periods common to a query and its nearest neighbours."""
        members = [self.series(name)]
        members.extend(
            self.series(hit.name) for hit in self.similar(name, k=k)
        )
        return shared_periods(members, self._period_detector)

    def bursts(self, name: str, window: int | None = None) -> list[Burst]:
        """Compacted burst triplets of an ingested query."""
        return self._burst_db.bursts_of(name, window=window)

    def burst_spans(
        self, name: str, window: int | None = None
    ) -> list[tuple[_dt.date, _dt.date]]:
        """Burst spans as calendar dates, for human consumption."""
        series = self.series(name)
        return [
            (burst.start_date(series.start), burst.end_date(series.start))
            for burst in self.bursts(name, window=window)
        ]

    def co_bursting(self, query, top: int = 5) -> list[BurstMatch]:
        """Queries that burst together with ``query`` (query-by-burst)."""
        with obs.span("miner.co_bursting"):
            return self._burst_db.query(query, top=top)

    @property
    def burst_model(self) -> BurstModel:
        """The configured pluggable burst backend."""
        return self._burst_model

    def burst_regions(self, name: str) -> tuple[BurstRegion, ...]:
        """Scored burst regions of an ingested query, under the
        configured :attr:`burst_model`, detected on the raw counts."""
        if name not in self._series:
            raise UnknownQueryError(name)
        return self._live_leaderboard().regions_of(name)

    def burstiness_leaderboard(
        self,
        count: int = 10,
        lo: int | None = None,
        hi: int | None = None,
    ) -> list[LeaderboardEntry]:
        """The ``count`` burstiest ingested queries, optionally windowed.

        Scores are total region weight under :attr:`burst_model`
        (pro-rated to the inclusive day window ``[lo, hi]`` when
        given); ties break on query name, so the board is deterministic
        for a given log.
        """
        with obs.span("miner.leaderboard"):
            return self._live_leaderboard().top(count, lo=lo, hi=hi)

    def co_bursting_regions(self, query, top: int = 5) -> list[BurstMatch]:
        """Region-scored query-by-burst under :attr:`burst_model`.

        Like :meth:`co_bursting` but over the scored regions of the
        configured model — so "what bursts with this query" can be
        answered under Kleinberg or MACD semantics, weighted by how
        hard both sides burst where they overlap.
        """
        with obs.span("miner.co_bursting_regions"):
            if isinstance(query, str) and query not in self._series:
                raise UnknownQueryError(query)
            return self._live_region_db().query(query, top=top)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryLogMiner({len(self)} queries, "
            f"{self.grid.start.isoformat()}+{len(self.grid)}d)"
        )
