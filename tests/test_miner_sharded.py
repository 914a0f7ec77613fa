"""The miner's sharded index mode (``QueryLogMiner(shards=N)``).

Sharding is a routing concern, not a semantics concern: a sharded miner
must answer every question bit-identically to the monolithic miner over
the same ingested series.
"""

import datetime as dt

import numpy as np
import pytest

from repro.cluster import ShardRouter
from repro.exceptions import ReproError, SeriesMismatchError
from repro.miner import QueryLogMiner
from repro.timeseries import TimeSeries

START = dt.date(2002, 1, 1)
DAYS = 128

#: One fixed dataset for every miner — drawn once, so the monolithic and
#: sharded miners index the very same series.
_RNG = np.random.default_rng(11)
DATA = {
    f"query {i:02d}": np.abs(np.cumsum(_RNG.normal(size=DAYS))) + 1.0
    for i in range(18)
}


def make_miner(**kwargs):
    miner = QueryLogMiner(start=START, days=DAYS, seed=3, **kwargs)
    for name, values in DATA.items():
        miner.add_series(TimeSeries(values, name=name, start=START))
    return miner


def as_pairs(hits):
    return [(h.distance, h.seq_id, h.name) for h in hits]


class TestAgreement:
    def test_sharded_miner_matches_monolithic(self):
        mono = make_miner()
        for policy in ("hash", "round_robin"):
            sharded = make_miner(shards=3, shard_policy=policy)
            for name in ("query 00", "query 07", "query 17"):
                assert as_pairs(sharded.similar(name, k=4)) == as_pairs(
                    mono.similar(name, k=4)
                ), (policy, name)

    def test_sharded_index_is_a_router(self):
        sharded = make_miner(shards=4)
        assert isinstance(sharded._live_index(), ShardRouter)
        assert sharded._live_index().shard_count == 4
        # Flat shards whatever the monolithic structure is.
        for sub, _ in sharded._live_index().shard_views():
            assert sub.row_codes is not None

    def test_similar_many_matches_similar(self):
        sharded = make_miner(shards=3)
        names = ["query 02", "query 09", "query 15"]
        batched = sharded.similar_many(names, k=3)
        for name, hits in zip(names, batched):
            assert as_pairs(hits) == as_pairs(sharded.similar(name, k=3))


class TestIngestionKeepsRouting:
    def test_insert_keeps_the_router_live(self):
        mono = make_miner()
        sharded = make_miner(shards=3)
        router = sharded._live_index()
        late = np.abs(np.cumsum(np.random.default_rng(77).normal(size=DAYS))) + 1.0
        for miner in (mono, sharded):
            miner.add_series(
                TimeSeries(late, name="latecomer", start=START)
            )
        # Flat shards accept routed inserts in place.
        assert sharded._live_index() is router
        assert as_pairs(sharded.similar("latecomer", k=4)) == as_pairs(
            mono.similar("latecomer", k=4)
        )

    def test_empty_shards_keep_the_router_live(self):
        """Two series leave two of four round-robin shards empty; a third
        lands on one of them in place."""
        miner = QueryLogMiner(
            start=START, days=DAYS, shards=4, shard_policy="round_robin"
        )
        series = [TimeSeries(DATA[n], name=n, start=START) for n in DATA][:3]
        miner.add_series(series[0])
        miner.add_series(series[1])
        router = miner._live_index()
        miner.add_series(series[2])
        assert miner._live_index() is router and len(router) == 3

    def test_static_backend_rebuilds_the_router(self):
        # Scan shards keep no codes and take no inserts.
        sharded = make_miner(shards=2, index_backend="scan")
        first = sharded._live_index()
        late = np.abs(np.cumsum(np.random.default_rng(78).normal(size=DAYS))) + 1.0
        sharded.add_series(TimeSeries(late, name="rebuilt", start=START))
        rebuilt = sharded._live_index()
        assert rebuilt is not first
        assert isinstance(rebuilt, ShardRouter)
        hits = sharded.similar("rebuilt", k=2)
        assert hits and all(h.name != "rebuilt" for h in hits)


class TestValidation:
    @pytest.mark.parametrize("backend", ["sharded", "shard", "cluster"])
    def test_router_backend_with_shards_is_rejected(self, backend):
        with pytest.raises(SeriesMismatchError, match="per-shard backend"):
            QueryLogMiner(start=START, days=DAYS, shards=2,
                          index_backend=backend)

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ReproError):
            QueryLogMiner(start=START, days=DAYS, shards=2,
                          shard_policy="alphabetical")

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ReproError):
            QueryLogMiner(start=START, days=DAYS, shards=0)
