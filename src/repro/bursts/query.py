"""Query-by-burst over a relational burst database (sections 6.2–6.3).

The pipeline the paper describes:

1. every sequence is standardised, burst-detected (long- and/or short-term
   windows) and compacted to triplets;
2. the triplets land in a DBMS table
   ``[sequenceID, startDate, endDate, averageValue]`` with B-tree indexes
   on ``startDate`` and ``endDate``;
3. a query's bursts retrieve candidate rows through the fig. 18 plan
   (``B.startDate <= Q.endDate AND B.endDate >= Q.startDate``), and the
   qualifying *sequences* are ranked by ``BSim``.

This realises "a fast alternative of weighted Euclidean matching, where
the focus is given on the bursty portion of a sequence" with no custom
index structure — just the relational substrate in :mod:`repro.storage`.

Example
-------
Two spring spikes overlap each other; the autumn spike matches neither:

>>> import numpy as np
>>> from repro.timeseries import TimeSeries
>>> def spiky(name, center):
...     values = np.zeros(120)
...     values[center - 6 : center + 6] = 5.0
...     return TimeSeries(values, name=name)
>>> db = BurstDatabase(detectors=[BurstDetector(window=7)])
>>> for series in (spiky("march", 40), spiky("april", 44),
...                spiky("october", 100)):
...     _ = db.add(series)
>>> [match.name for match in db.query("march")]
['april']
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.bursts.compaction import Burst, compact_bursts
from repro.bursts.detection import BurstDetector
from repro.bursts.protocol import BurstModel, BurstRegion
from repro.bursts.registry import get_burst_model
from repro.bursts.similarity import burst_similarity
from repro.exceptions import IngestionError, UnknownQueryError
from repro.storage.table import Predicate, Table, eq, ge, le
from repro.timeseries.preprocessing import zscore
from repro.timeseries.series import TimeSeries

__all__ = [
    "BurstMatch",
    "BurstDatabase",
    "BurstRegionDatabase",
    "region_overlap_score",
]


@dataclass(frozen=True, order=True)
class BurstMatch:
    """One ranked query-by-burst answer (higher similarity first)."""

    similarity: float
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BurstMatch({self.name!r}, BSim={self.similarity:.3f})"


def _overlapping_sequences(
    table: Table,
    spans: Sequence[Burst | BurstRegion],
    longest: int,
    extra: Sequence[Predicate] = (),
) -> set[str]:
    """Sequence names with a stored row overlapping any of ``spans``.

    Runs the fig. 18 plan once per span, as a bounded probe: a stored
    row overlapping ``[start, end]`` ends on or after ``start`` and is at
    most ``longest`` days long, so it starts no earlier than ``start -
    longest + 1``.  Both bounds on ``start`` merge into one B-tree
    range; ``end`` and the ``extra`` predicates filter what it yields.
    """
    names: set[str] = set()
    for span in spans:
        rows = table.select(
            [
                ge("start", span.start - longest + 1),
                le("start", span.end),
                ge("end", span.start),
                *extra,
            ]
        )
        names.update(row["sequence"] for row in rows)
    return names


class BurstDatabase:
    """Burst features of many sequences inside a relational table.

    Parameters
    ----------
    detectors:
        The detectors whose bursts are stored; defaults to the paper's
        long-term (30-day) and short-term (7-day) moving averages at a
        2.0-sigma cutoff — the upper end of the paper's "typical 1.5-2"
        range, which suppresses the spurious micro-bursts that strongly
        weekly sequences otherwise produce.  Each detector's bursts live
        in the same table, tagged by window length, and query-by-burst
        compares like with like.
    standardize:
        Standardise sequences before feature extraction, "to compensate
        for the variation of counts for different queries" (section 6.3).
        On by default, as in the paper.
    """

    def __init__(
        self,
        detectors: Sequence[BurstDetector] | None = None,
        standardize: bool = True,
    ) -> None:
        self.detectors = tuple(
            detectors
            if detectors is not None
            else (BurstDetector.long_term(2.0), BurstDetector.short_term(2.0))
        )
        if not self.detectors:
            raise ValueError("at least one burst detector is required")
        self.standardize = standardize
        self.table = Table(
            "bursts", ["sequence", "window", "start", "end", "average"]
        )
        self.table.create_index("start")
        self.table.create_index("end")
        # Longest span ever stored, in days.  Never lowered on removal:
        # a stale bound makes the probe looser, never unsound.
        self.longest = 0
        self._known: dict[str, dict[int, list[Burst]]] = {}
        self._row_ids: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._known)

    def __contains__(self, name: str) -> bool:
        return name in self._known

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._known)

    def _features(
        self, values, window: int | None = None
    ) -> dict[int, list[Burst]]:
        """Burst triplets per detector window for one sequence.

        A query compares under one ``window`` and runs only that
        detector.  Rejects non-finite input with a typed
        :class:`~repro.exceptions.IngestionError` before anything lands
        in the relational table — a NaN would otherwise corrupt the
        standardisation, the detector thresholds and every stored row.
        """
        if isinstance(values, TimeSeries):
            values = values.values
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise IngestionError(
                f"burst features need finite values; got "
                f"{values[bad]!r} at position {bad}"
            )
        prepared = zscore(values) if self.standardize else values
        features: dict[int, list[Burst]] = {}
        for detector in self.detectors:
            if window is None or detector.window == window:
                annotation = detector.detect(prepared)
                features[detector.window] = compact_bursts(
                    prepared, annotation
                )
        return features

    def add(self, series: TimeSeries) -> int:
        """Extract and store a named series' burst features.

        Returns the number of burst rows inserted.
        """
        if not series.name:
            raise UnknownQueryError("burst database members must be named")
        if series.name in self._known:
            raise UnknownQueryError(
                f"series {series.name!r} is already in the burst database"
            )
        with obs.span("bursts.add"):
            features = self._features(series)
            row_ids: list[int] = []
            for window, bursts in features.items():
                for burst in bursts:
                    self.longest = max(self.longest, len(burst))
                    row_ids.append(
                        self.table.insert(
                            sequence=series.name,
                            window=window,
                            start=burst.start,
                            end=burst.end,
                            average=burst.average,
                        )
                    )
        self._known[series.name] = features
        self._row_ids[series.name] = row_ids
        obs.add("bursts.rows_stored", len(row_ids))
        return len(row_ids)

    def add_collection(self, collection) -> int:
        """Add every series of a :class:`TimeSeriesCollection`."""
        return sum(self.add(series) for series in collection)

    def remove(self, name: str) -> int:
        """Delete a sequence's burst features (table rows included).

        Returns the number of burst rows removed.  The B-tree indexes are
        maintained by the table's own delete path.
        """
        if name not in self._known:
            raise UnknownQueryError(name)
        row_ids = self._row_ids.pop(name)
        for row_id in row_ids:
            self.table.delete(row_id)
        del self._known[name]
        return len(row_ids)

    def replace(self, series: TimeSeries) -> int:
        """Re-extract a sequence's features (e.g. after new log days)."""
        if series.name in self._known:
            self.remove(series.name)
        return self.add(series)

    def bursts_of(self, name: str, window: int | None = None) -> list[Burst]:
        """Stored burst triplets of a sequence (optionally one window)."""
        try:
            features = self._known[name]
        except KeyError:
            raise UnknownQueryError(name) from None
        if window is not None:
            return list(features.get(window, []))
        return [burst for bursts in features.values() for burst in bursts]

    # ------------------------------------------------------------------
    # Query-by-burst
    # ------------------------------------------------------------------
    def query(
        self,
        values,
        top: int = 10,
        window: int | None = None,
        exclude: str | None = None,
    ) -> list[BurstMatch]:
        """Rank stored sequences by burst similarity to ``values``.

        Parameters
        ----------
        values:
            A raw sequence, a :class:`TimeSeries`, or the *name* of a
            stored sequence.
        top:
            Maximum number of matches returned.
        window:
            Detector window to compare under; defaults to the first
            (long-term) detector.
        exclude:
            Sequence name to omit from the results (typically the query
            itself when it is part of the database).
        """
        window = window if window is not None else self.detectors[0].window
        if window not in {d.window for d in self.detectors}:
            raise ValueError(
                f"window {window} is not covered by this database"
            )
        with obs.span("bursts.query"):
            if isinstance(values, str):
                exclude = exclude if exclude is not None else values
                query_bursts = self.bursts_of(values, window)
            else:
                query_bursts = self._features(values, window)[window]
            if not query_bursts:
                obs.add("bursts.queries")
                return []

            candidates = _overlapping_sequences(
                self.table, query_bursts, self.longest, [eq("window", window)]
            )
            # Plain tuples order as BurstMatch does, without a Python
            # ``__lt__`` per comparison; only the survivors become matches.
            scored = []
            for name in candidates:
                if name == exclude:
                    continue
                score = burst_similarity(
                    query_bursts, self._known[name].get(window, [])
                )
                if score > 0.0:
                    scored.append((score, name))
            scored.sort(reverse=True)
        obs.add("bursts.queries")
        obs.add("bursts.candidate_sequences", len(candidates))
        return [BurstMatch(*pair) for pair in scored[:top]]

    def query_many(
        self,
        queries: Sequence,
        top: int = 10,
        window: int | None = None,
    ) -> list[list[BurstMatch]]:
        """:meth:`query` for a batch of queries, one result list each.

        The batched companion to the engine's ``search_many``: one span
        covers the whole batch, and named queries exclude themselves
        exactly as in :meth:`query`.
        """
        with obs.span("bursts.query_many"):
            return [
                self.query(values, top=top, window=window)
                for values in queries
            ]


# ----------------------------------------------------------------------
# Region-scored query-by-burst (any registered model)
# ----------------------------------------------------------------------
def region_overlap_score(
    lhs: Sequence[BurstRegion], rhs: Sequence[BurstRegion]
) -> float:
    """Weighted-overlap similarity between two region lists.

    Every overlapping region pair contributes its shared day count
    scaled by the *lighter* side's weight density (``weight / len``):

    .. math:: \\sum_{q, b} |q \\cap b| \\cdot
              \\min\\!\\big(w_q / |q|,\\; w_b / |b|\\big)

    Overlapping on somebody's heavy burst scores high only when the
    query bursts comparably hard there — the region-scored analogue of
    ``BSim``'s "similar in *where* and *how much* they burst".
    Symmetric and deterministic; 0.0 when nothing overlaps.
    """
    score = 0.0
    for q in lhs:
        q_density = q.weight / len(q)
        for b in rhs:
            shared = q.overlap_days(b.start, b.end)
            if shared:
                score += shared * min(q_density, b.weight / len(b))
    return float(score)


class BurstRegionDatabase:
    """Query-by-burst over scored regions from any registered model.

    The classic :class:`BurstDatabase` stores the paper's compacted
    triplets from moving-average detectors and ranks by ``BSim``.  This
    sibling generalises both halves: regions come from *any*
    :class:`~repro.bursts.protocol.BurstModel` (so Kleinberg or MACD
    bursts are queryable the same way) and ranking uses
    :func:`region_overlap_score`, which reads the model's region
    weights instead of flattening every burst to its average value.

    The relational shape is preserved deliberately: one table
    ``[sequence, start, end, weight, level]`` with B-tree indexes on
    ``start`` and ``end``, probed by the same fig. 18 overlap plan.

    Parameters
    ----------
    model:
        A registered model name or built model (keyword arguments
        configure a model named by string).
    standardize:
        Z-score sequences before detection.  Off by default: region
        models are typically run on raw counts (Kleinberg's Poisson
        model *requires* them); switch on for MA-style models when
        queries of very different volumes share one database.
    """

    def __init__(
        self,
        model: BurstModel | str = "ma",
        standardize: bool = False,
        **model_kwargs,
    ) -> None:
        self.model = get_burst_model(model, **model_kwargs)
        self.standardize = bool(standardize)
        self.table = Table(
            "burst_regions",
            ["sequence", "start", "end", "weight", "level"],
        )
        self.table.create_index("start")
        self.table.create_index("end")
        self.longest = 0  # as in BurstDatabase: a running maximum
        self._known: dict[str, tuple[BurstRegion, ...]] = {}
        self._row_ids: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._known)

    def __contains__(self, name: str) -> bool:
        return name in self._known

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._known)

    def _features(self, values) -> tuple[BurstRegion, ...]:
        if isinstance(values, TimeSeries):
            values = values.values
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise IngestionError(
                f"burst features need finite values; got "
                f"{values[bad]!r} at position {bad}"
            )
        prepared = zscore(values) if self.standardize else values
        return tuple(self.model.detect(prepared))

    def add(self, series: TimeSeries) -> int:
        """Extract and store a named series' regions; returns the count."""
        if not series.name:
            raise UnknownQueryError("burst database members must be named")
        if series.name in self._known:
            raise UnknownQueryError(
                f"series {series.name!r} is already in the burst database"
            )
        with obs.span("bursts.region_add"):
            regions = self._features(series)
            self.longest = max(
                self.longest, max(map(len, regions), default=0)
            )
            row_ids = [
                self.table.insert(
                    sequence=series.name,
                    start=region.start,
                    end=region.end,
                    weight=region.weight,
                    level=region.level,
                )
                for region in regions
            ]
        self._known[series.name] = regions
        self._row_ids[series.name] = row_ids
        obs.add("bursts.region_rows_stored", len(row_ids))
        return len(row_ids)

    def add_collection(self, collection) -> int:
        """Add every series of a :class:`TimeSeriesCollection`."""
        return sum(self.add(series) for series in collection)

    def remove(self, name: str) -> int:
        """Delete a sequence's regions (table rows included)."""
        if name not in self._known:
            raise UnknownQueryError(name)
        row_ids = self._row_ids.pop(name)
        for row_id in row_ids:
            self.table.delete(row_id)
        del self._known[name]
        return len(row_ids)

    def regions_of(self, name: str) -> tuple[BurstRegion, ...]:
        """Stored regions of a sequence."""
        try:
            return self._known[name]
        except KeyError:
            raise UnknownQueryError(name) from None

    def query(
        self,
        values,
        top: int = 10,
        exclude: str | None = None,
    ) -> list[BurstMatch]:
        """Rank stored sequences by weighted region overlap with ``values``.

        ``values`` may be a raw sequence, a :class:`TimeSeries`, or the
        name of a stored sequence (which then excludes itself, as in
        :meth:`BurstDatabase.query`).  Results order by
        ``(-score, name)`` — deterministic under ties.
        """
        with obs.span("bursts.region_query"):
            if isinstance(values, str):
                exclude = exclude if exclude is not None else values
                query_regions = self.regions_of(values)
            else:
                query_regions = self._features(values)
            if not query_regions:
                obs.add("bursts.region_queries")
                return []
            candidates = _overlapping_sequences(
                self.table, query_regions, self.longest
            )
            scored = []
            for name in candidates:
                if name == exclude:
                    continue
                score = region_overlap_score(
                    query_regions, self._known[name]
                )
                if score > 0.0:
                    scored.append((-score, name))
            scored.sort()
        obs.add("bursts.region_queries")
        obs.add("bursts.region_candidates", len(candidates))
        return [BurstMatch(-loss, name) for loss, name in scored[:top]]
