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

The DBMS is an off-the-shelf one, as in the paper: an in-memory table of
the standard library's :mod:`sqlite3`.  Its B-tree index on ``start``
also carries ``end``, ``window`` and ``sequence``, so a probe reads the
index alone (a covering index); the paper's second index, on ``end``,
serves no plan once ``start`` is bounded on both sides, and is left out.
One :class:`BurstDatabase` holds the table, the running ``longest`` span
and the ranking; a flavour supplies only its feature extractor and its
scorer.  The paper's flavour stores moving-average triplets per detector
window and ranks by ``BSim``; :class:`BurstRegionDatabase` stores the
regions of any :class:`~repro.bursts.protocol.BurstModel` and ranks by
:func:`region_overlap_score`.

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

import sqlite3
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
from repro.timeseries.preprocessing import zscore
from repro.timeseries.series import TimeSeries

__all__ = [
    "BurstMatch",
    "BurstDatabase",
    "BurstRegionDatabase",
    "region_overlap_score",
]

_SCHEMA = """
CREATE TABLE bursts (
    sequence TEXT NOT NULL,
    window INTEGER NOT NULL,
    start INTEGER NOT NULL,
    end INTEGER NOT NULL
);
CREATE INDEX bursts_start ON bursts (start, end, window, sequence);
CREATE INDEX bursts_sequence ON bursts (sequence);
"""

#: The fig. 18 plan with both bounds on ``start``: a stored row
#: overlapping ``[q.start, q.end]`` ends on or after ``q.start`` and is at
#: most ``longest`` days long, so it starts no earlier than
#: ``q.start - longest + 1``.  The planner walks that one range of the
#: ``start`` index; ``end`` and ``window`` filter what it yields.
OVERLAP_SQL = (
    "SELECT sequence FROM bursts"
    " WHERE start BETWEEN ? AND ? AND end >= ? AND window = ?"
)


@dataclass(frozen=True, order=True)
class BurstMatch:
    """One ranked query-by-burst answer (higher similarity first)."""

    similarity: float
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BurstMatch({self.name!r}, BSim={self.similarity:.3f})"


def _overlapping_sequences(
    sql: sqlite3.Connection,
    spans: Sequence[Burst | BurstRegion],
    longest: int,
    window: int,
) -> set[str]:
    """Sequence names with a stored ``window`` row overlapping any span.

    Runs :data:`OVERLAP_SQL` once per span.
    """
    names: set[str] = set()
    for span in spans:
        rows = sql.execute(
            OVERLAP_SQL, (span.start - longest + 1, span.end, span.start, window)
        )
        names.update(name for (name,) in rows)
    obs.add("bursts.probes", len(spans))
    return names


class BurstDatabase:
    """Burst features of many sequences inside one relational table.

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

    #: Scores a candidate's stored spans against the query's; 0.0 is no
    #: match.  A flavour replaces it together with :meth:`_extract`.
    _score = staticmethod(burst_similarity)

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
        self._open(standardize, tuple(d.window for d in self.detectors))

    def _open(self, standardize: bool, windows: tuple[int, ...]) -> None:
        """The state every flavour shares: one table, keyed by window."""
        self.standardize = standardize
        self.windows = windows
        self.sql = sqlite3.connect(":memory:")
        self.sql.executescript(_SCHEMA)
        # Longest span ever stored, in days.  Never lowered on removal:
        # a stale bound makes the probe looser, never unsound.
        self.longest = 0
        self._known: dict[str, dict[int, Sequence]] = {}

    def _extract(self, prepared: np.ndarray, window: int | None) -> dict:
        """Burst triplets per detector window (only ``window``'s if given)."""
        return {
            detector.window: compact_bursts(prepared, detector.detect(prepared))
            for detector in self.detectors
            if window is None or detector.window == window
        }

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

    def row_count(self) -> int:
        """Rows in the relational table, over every stored sequence."""
        return self.sql.execute("SELECT COUNT(*) FROM bursts").fetchone()[0]

    def _features(self, values, window: int | None = None) -> dict:
        """Spans per window for one sequence.

        Rejects non-finite input with a typed
        :class:`~repro.exceptions.IngestionError` before anything lands
        in the table — a NaN would otherwise corrupt the
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
        return self._extract(prepared, window)

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
            rows = [
                (series.name, window, span.start, span.end)
                for window, spans in features.items()
                for span in spans
            ]
            self.sql.executemany("INSERT INTO bursts VALUES (?, ?, ?, ?)", rows)
            self.longest = max(
                [self.longest] + [end - start + 1 for *_, start, end in rows]
            )
        self._known[series.name] = features
        obs.add("bursts.rows_stored", len(rows))
        return len(rows)

    def add_collection(self, collection) -> int:
        """Add every series of a :class:`TimeSeriesCollection`."""
        return sum(self.add(series) for series in collection)

    def remove(self, name: str) -> int:
        """Delete a sequence's burst features; returns the rows removed."""
        if name not in self._known:
            raise UnknownQueryError(name)
        del self._known[name]
        return self.sql.execute(
            "DELETE FROM bursts WHERE sequence = ?", (name,)
        ).rowcount

    def replace(self, series: TimeSeries) -> int:
        """Re-extract a sequence's features (e.g. after new log days)."""
        if series.name in self._known:
            self.remove(series.name)
        return self.add(series)

    def bursts_of(self, name: str, window: int | None = None) -> list:
        """Stored spans of a sequence (optionally one window's)."""
        try:
            features = self._known[name]
        except KeyError:
            raise UnknownQueryError(name) from None
        if window is not None:
            return list(features.get(window, []))
        return [span for spans in features.values() for span in spans]

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

        Matches order by similarity, then name, both descending.

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
        window = window if window is not None else self.windows[0]
        if window not in self.windows:
            raise ValueError(
                f"window {window} is not covered by this database"
            )
        with obs.span("bursts.query"):
            if isinstance(values, str):
                exclude = exclude if exclude is not None else values
                spans = self.bursts_of(values, window)
            else:
                spans = self._features(values, window)[window]
            if not spans:
                obs.add("bursts.queries")
                return []

            candidates = _overlapping_sequences(
                self.sql, spans, self.longest, window
            )
            # Plain tuples order as BurstMatch does, without a Python
            # ``__lt__`` per comparison; only the survivors become matches.
            scored = []
            for name in candidates:
                if name == exclude:
                    continue
                score = self._score(spans, self._known[name].get(window, []))
                if score > 0.0:
                    scored.append((score, name))
            scored.sort(reverse=True)
        obs.add("bursts.queries")
        obs.add("bursts.candidate_sequences", len(candidates))
        return [BurstMatch(*pair) for pair in scored[:top]]


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


class BurstRegionDatabase(BurstDatabase):
    """Query-by-burst over scored regions from any registered model.

    Regions come from *any* :class:`~repro.bursts.protocol.BurstModel`
    (so Kleinberg or MACD bursts are queryable the same way) and ranking
    uses :func:`region_overlap_score`, which reads the model's region
    weights instead of flattening every burst to its average value.
    Everything else — the table, the fig. 18 probe, ``remove`` and the
    ranking — is :class:`BurstDatabase`'s.  A model yields one region
    list per sequence, stored under the single window key ``0``.

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

    _score = staticmethod(region_overlap_score)

    def __init__(
        self,
        model: BurstModel | str = "ma",
        standardize: bool = False,
        **model_kwargs,
    ) -> None:
        self.model = get_burst_model(model, **model_kwargs)
        self._open(bool(standardize), (0,))

    def _extract(self, prepared: np.ndarray, window: int | None) -> dict:
        return {0: tuple(self.model.detect(prepared))}
