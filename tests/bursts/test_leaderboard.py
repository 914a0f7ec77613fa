"""The burstiness leaderboard and the region-scored query-by-burst DB."""

import numpy as np
import pytest

from repro.bursts.leaderboard import BurstinessLeaderboard, LeaderboardEntry
from repro.bursts.models import MACDModel
from repro.bursts.protocol import BurstRegion
from repro.bursts.query import BurstRegionDatabase, region_overlap_score
from repro.exceptions import IngestionError, UnknownQueryError
from repro.timeseries.series import TimeSeries


def _spiky(days=120, center=40, height=60.0, width=6, base=10.0, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.poisson(base, size=days).astype(np.float64)
    values[center - width : center + width] += height
    return values


class TestBurstinessLeaderboard:
    def test_accepts_a_model_name_or_instance(self):
        assert BurstinessLeaderboard("macd").model.name == "macd"
        model = MACDModel(fast=5.0, slow=20.0)
        assert BurstinessLeaderboard(model).model is model
        assert BurstinessLeaderboard("ma", window=7).model.window == 7

    def test_add_returns_and_stores_the_regions(self):
        board = BurstinessLeaderboard("ma", window=7)
        regions = board.add("spring", _spiky())
        assert regions
        assert board.regions_of("spring") == regions
        assert "spring" in board
        assert len(board) == 1

    def test_readd_replaces(self):
        board = BurstinessLeaderboard("ma", window=7)
        board.add("q", _spiky(center=40))
        first = board.score("q")
        board.add("q", _spiky(center=40, height=200.0))
        assert board.score("q") > first
        assert len(board) == 1

    def test_unnamed_members_are_rejected(self):
        with pytest.raises(UnknownQueryError):
            BurstinessLeaderboard().add("", _spiky())

    def test_remove_and_unknown_lookups(self):
        board = BurstinessLeaderboard("ma", window=7)
        board.add("q", _spiky())
        board.remove("q")
        assert "q" not in board
        with pytest.raises(UnknownQueryError):
            board.remove("q")
        with pytest.raises(UnknownQueryError):
            board.score("q")
        with pytest.raises(UnknownQueryError):
            board.regions_of("q")

    def test_timeseries_input(self):
        board = BurstinessLeaderboard("ma", window=7)
        series = TimeSeries(_spiky(), name="spring")
        assert board.add("spring", series) == board.regions_of("spring")

    def test_score_is_the_total_region_weight(self):
        board = BurstinessLeaderboard("ma", window=7)
        board.add("q", _spiky())
        assert board.score("q") == sum(
            r.weight for r in board.regions_of("q")
        )

    def test_windowed_score_isolates_the_burst(self):
        board = BurstinessLeaderboard("ma", window=7)
        board.add("q", _spiky(center=40, width=6))
        # The burst sits around day 40: a window far away scores ~0.
        assert board.score("q", lo=80, hi=119) < board.score("q")
        assert board.score("q", lo=20, hi=60) > 0.0

    def test_top_orders_by_score_then_name(self):
        board = BurstinessLeaderboard("ma", window=7)
        board.add("loud", _spiky(height=200.0, seed=1))
        board.add("quiet", _spiky(height=40.0, seed=2))
        board.add("flat", np.full(120, 10.0))
        entries = board.top()
        assert [e.name for e in entries] == ["loud", "quiet"]  # flat dropped
        assert all(isinstance(e, LeaderboardEntry) for e in entries)

    def test_ties_break_by_name(self):
        board = BurstinessLeaderboard("ma", window=7)
        values = _spiky(seed=3)
        board.add("zebra", values)
        board.add("aardvark", values)  # identical data, identical score
        names = [e.name for e in board.top()]
        assert names == ["aardvark", "zebra"]

    def test_count_and_min_score_bound_the_board(self):
        board = BurstinessLeaderboard("ma", window=7)
        board.add("loud", _spiky(height=200.0, seed=1))
        board.add("quiet", _spiky(height=40.0, seed=2))
        assert len(board.top(count=1)) == 1
        high_bar = board.score("quiet") + 1.0
        survivors = board.top(min_score=high_bar)
        assert all(e.score > high_bar for e in survivors)

    def test_board_is_deterministic(self):
        def build():
            board = BurstinessLeaderboard("macd")
            for name, seed in (("a", 1), ("b", 2), ("c", 3)):
                board.add(name, _spiky(seed=seed))
            return board.top()

        assert build() == build()


class TestRegionOverlapScore:
    def test_disjoint_regions_score_zero(self):
        assert (
            region_overlap_score(
                [BurstRegion(0, 9, 10.0)], [BurstRegion(20, 29, 10.0)]
            )
            == 0.0
        )

    def test_symmetric(self):
        lhs = [BurstRegion(0, 9, 30.0), BurstRegion(50, 59, 5.0)]
        rhs = [BurstRegion(5, 14, 12.0)]
        assert region_overlap_score(lhs, rhs) == region_overlap_score(rhs, lhs)

    def test_shared_days_times_lighter_density(self):
        # lhs density 3.0/day, rhs density 1.2/day, 5 shared days.
        lhs = [BurstRegion(0, 9, 30.0)]
        rhs = [BurstRegion(5, 14, 12.0)]
        assert region_overlap_score(lhs, rhs) == 5 * 1.2

    def test_empty_lists(self):
        assert region_overlap_score([], [BurstRegion(0, 1, 1.0)]) == 0.0
        assert region_overlap_score([], []) == 0.0


class TestBurstRegionDatabase:
    def _db(self, **kwargs):
        db = BurstRegionDatabase("ma", window=7, **kwargs)
        db.add(TimeSeries(_spiky(center=40, seed=1), name="march"))
        db.add(TimeSeries(_spiky(center=44, seed=2), name="april"))
        db.add(TimeSeries(_spiky(center=100, seed=3), name="october"))
        return db

    def test_overlapping_bursts_match_disjoint_ones_do_not(self):
        db = self._db()
        matches = db.query("march")
        assert [m.name for m in matches] == ["april"]

    def test_query_by_name_excludes_itself(self):
        db = self._db()
        assert all(m.name != "april" for m in db.query("april"))

    def test_query_by_values_matches_the_neighbourhood(self):
        db = self._db()
        matches = db.query(_spiky(center=42, seed=9))
        assert {m.name for m in matches} == {"march", "april"}
        keys = [(m.similarity, m.name) for m in matches]
        assert keys == sorted(keys, reverse=True)

    def test_rows_live_in_the_relational_table(self):
        db = self._db()
        rows = [name for (name,) in db.sql.execute("SELECT sequence FROM bursts")]
        assert len(rows) == sum(len(db.bursts_of(n)) for n in db.names)
        assert set(rows) == set(db.names)

    def test_remove_deletes_the_rows(self):
        db = self._db()
        removed = db.remove("march")
        assert removed > 0
        assert "march" not in db
        assert db.sql.execute(
            "SELECT COUNT(*) FROM bursts WHERE sequence = 'march'"
        ).fetchone() == (0,)
        assert all(m.name != "march" for m in db.query("april"))

    def test_duplicate_and_unnamed_adds_are_rejected(self):
        db = self._db()
        with pytest.raises(UnknownQueryError):
            db.add(TimeSeries(_spiky(), name="march"))
        with pytest.raises(UnknownQueryError):
            db.add(TimeSeries(_spiky()))

    def test_nonfinite_query_values_are_rejected(self):
        # TimeSeries refuses NaN at construction, so the typed guard in
        # the database only fires for raw query arrays.
        db = self._db()
        values = _spiky()
        values[3] = np.nan
        with pytest.raises(IngestionError, match="position 3"):
            db.query(values)

    def test_unknown_query_name_raises(self):
        with pytest.raises(UnknownQueryError):
            self._db().query("nope")

    def test_standardize_flag_zscores_before_detection(self):
        raw = BurstRegionDatabase("ma", window=7)
        scaled = BurstRegionDatabase("ma", window=7, standardize=True)
        values = _spiky(seed=4)
        raw.add(TimeSeries(values, name="q"))
        scaled.add(TimeSeries(values, name="q"))
        # Same spans either way for this clean spike, different weights
        # (area over the cutoff in z-units vs raw counts).
        assert raw.bursts_of("q") != scaled.bursts_of("q")

    def test_any_registered_model_backs_the_database(self):
        db = BurstRegionDatabase("kleinberg")
        db.add(TimeSeries(_spiky(center=40, seed=1), name="march"))
        db.add(TimeSeries(_spiky(center=44, seed=2), name="april"))
        assert [m.name for m in db.query("march")] == ["april"]
