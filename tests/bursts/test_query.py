"""Tests for the DBMS-backed query-by-burst engine."""

import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bursts import (
    Burst,
    BurstDatabase,
    BurstDetector,
    burst_similarity,
    overlap,
)
from repro.bursts.query import (
    BurstMatch,
    BurstRegionDatabase,
    _overlapping_sequences,
    region_overlap_score,
)
from repro.exceptions import UnknownQueryError
from repro.timeseries import TimeSeries, TimeSeriesCollection


def bursty_series(name, centers, n=365, height=8.0, width=12, seed=0):
    rng = np.random.default_rng(seed + sum(centers))
    values = rng.normal(scale=0.4, size=n) + 10.0
    for center in centers:
        lo = max(center - width // 2, 0)
        values[lo : center + width // 2] += height
    return TimeSeries(values, name=name, start=dt.date(2002, 1, 1))


@pytest.fixture
def database():
    db = BurstDatabase(detectors=[BurstDetector(window=14)])
    db.add(bursty_series("spring-a", [100], seed=1))
    db.add(bursty_series("spring-b", [104], seed=2))
    db.add(bursty_series("autumn", [280], seed=3))
    db.add(bursty_series("double", [100, 280], seed=4))
    return db


class TestLoading:
    def test_add_returns_row_count(self):
        db = BurstDatabase(detectors=[BurstDetector(window=14)])
        inserted = db.add(bursty_series("x", [100]))
        assert inserted >= 1
        assert db.row_count() == inserted

    def test_names_and_contains(self, database):
        assert set(database.names) == {"spring-a", "spring-b", "autumn", "double"}
        assert "spring-a" in database
        assert "nope" not in database

    def test_duplicate_rejected(self, database):
        with pytest.raises(UnknownQueryError):
            database.add(bursty_series("spring-a", [100]))

    def test_unnamed_rejected(self, database):
        with pytest.raises(UnknownQueryError):
            database.add(TimeSeries(np.ones(365)))

    def test_add_collection(self):
        db = BurstDatabase(detectors=[BurstDetector(window=14)])
        coll = TimeSeriesCollection(
            [bursty_series("a", [50]), bursty_series("b", [300])]
        )
        db.add_collection(coll)
        assert len(db) == 2

    def test_bursts_of(self, database):
        bursts = database.bursts_of("spring-a", window=14)
        assert bursts
        assert all(isinstance(b, Burst) for b in bursts)
        with pytest.raises(UnknownQueryError):
            database.bursts_of("nope")


class TestQuery:
    def test_by_name_excludes_self(self, database):
        matches = database.query("spring-a")
        names = [m.name for m in matches]
        assert "spring-a" not in names
        assert names[0] in ("spring-b", "double")

    def test_by_series(self, database):
        query = bursty_series("fresh", [102], seed=9)
        matches = database.query(query)
        assert matches
        assert matches[0].name in ("spring-a", "spring-b", "double")

    def test_disjoint_burst_not_matched(self, database):
        query = bursty_series("fresh", [180], seed=10)
        names = [m.name for m in database.query(query)]
        assert "autumn" not in names or not names

    def test_ranking_is_descending(self, database):
        matches = database.query(bursty_series("fresh", [100, 280], seed=11))
        scores = [m.similarity for m in matches]
        assert scores == sorted(scores, reverse=True)

    def test_top_limits_results(self, database):
        matches = database.query(bursty_series("fresh", [100, 280], seed=12), top=1)
        assert len(matches) == 1

    def test_matches_naive_all_pairs(self, database):
        """The indexed plan must agree with brute-force BSim ranking."""
        query = bursty_series("fresh", [102, 285], seed=13)
        via_index = {m.name: m.similarity for m in database.query(query, top=10)}
        query_bursts = database._features(query)[14]
        naive = {}
        for name in database.names:
            score = burst_similarity(query_bursts, database.bursts_of(name, 14))
            if score > 0:
                naive[name] = score
        assert set(via_index) == set(naive)
        for name, score in naive.items():
            assert via_index[name] == pytest.approx(score)

    def test_burstless_query_returns_nothing(self, database):
        rng = np.random.default_rng(5)
        flat = TimeSeries(
            rng.normal(scale=0.01, size=365) + 10.0,
            name="flat",
            start=dt.date(2002, 1, 1),
        )
        detector = BurstDetector(window=14, threshold_sigmas=2.0)
        strict_db = BurstDatabase(detectors=[detector])
        strict_db.add(bursty_series("x", [100]))
        # A flat query may produce zero bursts -> empty result, not an error.
        assert isinstance(strict_db.query(flat), list)

    def test_unknown_window_rejected(self, database):
        with pytest.raises(ValueError):
            database.query("spring-a", window=99)

    def test_multi_window_database(self):
        db = BurstDatabase()  # default long- + short-term detectors
        db.add(bursty_series("wide", [180], width=40, height=6.0))
        db.add(bursty_series("narrow", [182], width=6, height=10.0))
        long_matches = db.query("wide", window=30)
        short_matches = db.query("wide", window=7)
        assert isinstance(long_matches, list)
        assert isinstance(short_matches, list)

    def test_standardize_flag(self):
        db = BurstDatabase(
            detectors=[BurstDetector(window=14)], standardize=False
        )
        db.add(bursty_series("raw", [100]))
        bursts = db.bursts_of("raw")
        # Without standardisation the averages stay on the raw scale (~18).
        assert max(b.average for b in bursts) > 5.0

    def test_requires_detectors(self):
        with pytest.raises(ValueError):
            BurstDatabase(detectors=[])


class TestRemoveAndReplace:
    def test_remove_clears_rows_and_results(self, database):
        before_rows = database.row_count()
        removed = database.remove("spring-b")
        assert removed >= 1
        assert database.row_count() == before_rows - removed
        assert "spring-b" not in database
        names = [m.name for m in database.query("spring-a")]
        assert "spring-b" not in names

    def test_remove_unknown_raises(self, database):
        with pytest.raises(UnknownQueryError):
            database.remove("nope")

    def test_removed_name_can_be_readded(self, database):
        database.remove("autumn")
        database.add(bursty_series("autumn", [280], seed=3))
        assert "autumn" in database

    def test_replace_updates_features(self, database):
        original = database.bursts_of("double")
        database.replace(bursty_series("double", [50], seed=20))
        updated = database.bursts_of("double")
        assert updated != original
        # Query near the old second burst no longer matches 'double'.
        probe = bursty_series("probe", [280], seed=21)
        names = [m.name for m in database.query(probe)]
        assert "double" not in names

    def test_replace_unknown_is_add(self):
        db = BurstDatabase(detectors=[BurstDetector(window=14)])
        assert db.replace(bursty_series("fresh", [100])) >= 1
        assert "fresh" in db


# ----------------------------------------------------------------------
# query == brute force, under mutation, for both database classes
# ----------------------------------------------------------------------
DAYS = 96
#: How sqlite plans ``start BETWEEN ? AND ?``: one two-sided range.
TWO_SIDED = "SEARCH bursts USING COVERING INDEX bursts_start (start>? AND start<?)"
START_RANGE = re.compile(r"start BETWEEN (-?\d+) AND (-?\d+)")


def probed(db, run):
    """``run()``, and the rows in the ``start`` range of each probe it ran.

    The statements come from sqlite's trace hook with their bound values
    inlined, so each is the probe exactly as executed: it must plan as
    one two-sided range on the ``start`` index, and ``COUNT(*)`` over
    that range is the number of rows the probe examines.
    """
    statements = []
    db.sql.set_trace_callback(statements.append)
    try:
        result = run()
    finally:
        db.sql.set_trace_callback(None)
    ranges = []
    for statement in statements:
        plan = [row[-1] for row in db.sql.execute("EXPLAIN QUERY PLAN " + statement)]
        assert TWO_SIDED in plan, plan
        lo, hi = map(int, START_RANGE.search(statement).groups())
        ranges.append(
            db.sql.execute(
                "SELECT COUNT(*) FROM bursts WHERE start BETWEEN ? AND ?", (lo, hi)
            ).fetchone()[0]
        )
    return result, ranges


@st.composite
def spiky_values(draw):
    """Rippled low counts with up to three drawn plateaus."""
    values = 5.0 + np.arange(DAYS) % 3
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.integers(min_value=0, max_value=DAYS - 1))
        width = draw(st.integers(min_value=1, max_value=30))
        values[start : start + width] += draw(st.integers(min_value=5, max_value=60))
    return values


class Triplets:
    """The paper's database: MA triplets per window, ranked by ``BSim``."""

    windows = (9, 4)

    def __init__(self):
        self.db = BurstDatabase(
            detectors=[BurstDetector(window=w) for w in self.windows]
        )

    def stored(self, name, window=None):
        return self.db.bursts_of(name, window)

    def extracted(self, values, window):
        return self.db._features(values)[window]

    def replace(self, series):
        self.db.replace(series)

    def ranked(self, spans, window, exclude):
        scored = [
            (burst_similarity(spans, self.stored(name, window)), name)
            for name in self.db.names
            if name != exclude
        ]
        return sorted((pair for pair in scored if pair[0] > 0.0), reverse=True)


class Regions:
    """Any model's regions, ranked by ``region_overlap_score``."""

    windows = (None,)

    def __init__(self, model, **kwargs):
        self.db = BurstRegionDatabase(model, **kwargs)

    def stored(self, name, window=None):
        return self.db.bursts_of(name)

    def extracted(self, values, window):
        return self.db._features(values)[0]

    def replace(self, series):
        if series.name in self.db:
            self.db.remove(series.name)
        self.db.add(series)

    def ranked(self, spans, window, exclude):
        scored = [
            (region_overlap_score(spans, self.stored(name)), name)
            for name in self.db.names
            if name != exclude
        ]
        return sorted((pair for pair in scored if pair[0] > 0.0), reverse=True)


@pytest.mark.parametrize(
    "build",
    [
        Triplets,
        lambda: Regions("ma", window=5),
        lambda: Regions("kleinberg"),
    ],
    ids=["triplets", "regions-ma", "regions-kleinberg"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_query_equals_brute_force_under_mutation(build, data):
    """The bounded probe never drops an answer and examines no spare row.

    ``longest`` here is the test's own running maximum over everything
    ever stored, so a database that lowers its bound on ``remove``, or
    probes one day further back than ``start - longest + 1``, examines a
    different number of rows even where its answers survive.
    """
    side = build()
    db = side.db
    longest = 0

    def store(name, values):
        nonlocal longest
        side.replace(TimeSeries(values, name=name))
        longest = max([longest, *map(len, side.stored(name))])

    for i in range(data.draw(st.integers(min_value=3, max_value=7))):
        store(f"s{i}", data.draw(spiky_values()))
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        name = data.draw(st.sampled_from(db.names + ("fresh",)))
        if name in db and data.draw(st.booleans()):
            db.remove(name)
        else:
            store(name, data.draw(spiky_values()))
    # The owner of the longest stored span goes, by remove or by replace.
    if db.names:
        owner = max(
            db.names,
            key=lambda name: max(map(len, side.stored(name)), default=0),
        )
        if data.draw(st.booleans()):
            db.remove(owner)
        else:
            store(owner, 5.0 + np.arange(DAYS) % 3)
    assert db.longest == longest

    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        window = data.draw(st.sampled_from(side.windows))
        kwargs = {} if window is None else {"window": window}
        top = data.draw(st.integers(min_value=1, max_value=5))
        exclude = data.draw(st.sampled_from((None,) + db.names))
        if db.names and data.draw(st.booleans()):
            query = data.draw(st.sampled_from(db.names))
            spans = side.stored(query, window)
            excluded = exclude if exclude is not None else query
        else:
            query = data.draw(spiky_values())
            spans = side.extracted(query, window)
            excluded = exclude
        examined = sum(
            span.start - longest + 1 <= row.start <= span.end
            for span in spans
            for name in db.names
            for row in side.stored(name)
        )
        answer, ranges = probed(
            db, lambda: db.query(query, top=top, exclude=exclude, **kwargs)
        )
        assert answer == [
            BurstMatch(score, name)
            for score, name in side.ranked(spans, window, excluded)[:top]
        ]
        assert len(ranges) == len(spans)
        assert sum(ranges) == examined


def test_a_probe_examines_exactly_the_bounded_start_range():
    """Fig. 18 benchmark table: 4,000 random bursts, counted not timed."""
    rng = np.random.default_rng(0)
    db = BurstDatabase()
    window = db.windows[0]
    rows, longest = [], 0
    for i in range(4000):
        start = int(rng.integers(0, 1022))
        end = int(min(start + rng.integers(1, 60), 1023))
        rows.append((f"seq-{i}", window, start, end))
        longest = max(longest, end - start + 1)
    db.sql.executemany("INSERT INTO bursts VALUES (?, ?, ?, ?)", rows)
    query = Burst(500, 540, 2.0)
    with obs.observed() as registry:
        names, ranges = probed(
            db, lambda: _overlapping_sequences(db.sql, [query], longest, window)
        )
        assert registry.counter("bursts.probes").value == 1
    bounded = sum(query.start - longest + 1 <= row[2] <= query.end for row in rows)
    assert ranges == [bounded]
    assert bounded < sum(row[2] <= query.end for row in rows) / 3  # the one-sided walk
    assert names == {
        row[0] for row in rows if overlap(Burst(row[2], row[3], 0.0), query)
    }
