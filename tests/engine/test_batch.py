"""``search_many``: blocked verification, shard fan-out, miner batching."""

import numpy as np
import pytest

from repro import obs
from repro.engine import get_index, search_many
from repro.exceptions import SeriesMismatchError

# flat exercises the blocked verifier; mtree the paid-candidate fallback;
# rtree the streaming fallback; sharded the per-shard scatter fan-out.
BATCH_NAMES = ("flat", "vptree", "mtree", "rtree", "sharded")


def as_pairs(results):
    return [[(h.distance, h.seq_id) for h in hits] for hits, _ in results]


class TestSerialBatch:
    @pytest.mark.parametrize("name", BATCH_NAMES)
    def test_matches_looped_single_search(self, matrix, queries, name):
        index = get_index(name, matrix)
        batch = np.stack(queries)
        batched = search_many(index, batch, k=4)
        singles = [index.search(query, k=4) for query in batch]
        assert as_pairs(batched) == as_pairs(singles), name

    def test_invariant_holds_per_query(self, matrix, queries):
        index = get_index("flat", matrix)
        for _, stats in search_many(index, np.stack(queries), k=3):
            assert (
                stats.candidates_pruned + stats.full_retrievals
                == len(matrix)
            )

    def test_names_attached(self, matrix):
        names = [f"q{i}" for i in range(len(matrix))]
        index = get_index("flat", matrix, names=names)
        (hits, _), = search_many(index, matrix[:1], k=1)
        assert hits[0].name == "q0"


class TestValidation:
    def test_one_dimensional_batch_rejected(self, matrix):
        index = get_index("flat", matrix)
        with pytest.raises(SeriesMismatchError, match="2-D"):
            search_many(index, matrix[0], k=1)

    def test_wrong_width_rejected(self, matrix):
        index = get_index("flat", matrix)
        with pytest.raises(SeriesMismatchError):
            search_many(index, np.zeros((2, 5)), k=1)

    def test_k_out_of_range(self, matrix):
        index = get_index("flat", matrix)
        with pytest.raises(ValueError):
            search_many(index, matrix[:2], k=0)


class TestObservability:
    def test_batch_span_and_per_query_counters(self, matrix, queries):
        index = get_index("flat", matrix)
        registry = obs.enable()
        try:
            search_many(index, np.stack(queries), k=2)
        finally:
            obs.disable()
        snapshot = registry.snapshot()
        assert "span.engine.search_many" in snapshot["histograms"]
        counters = snapshot["counters"]
        assert counters["index.flat.search.queries"] == len(queries)


class TestMinerBatch:
    def test_similar_many_matches_similar(self, matrix):
        import datetime as dt

        from repro.miner import QueryLogMiner
        from repro.timeseries import TimeSeries

        miner = QueryLogMiner(
            start=dt.date(2002, 1, 1), days=matrix.shape[1]
        )
        for i, row in enumerate(matrix[:40]):
            miner.add_series(
                TimeSeries(row, name=f"q{i}", start=dt.date(2002, 1, 1))
            )
        probes = ["q3", matrix[7]]
        batched = miner.similar_many(probes, k=4)
        singles = [miner.similar(probe, k=4) for probe in probes]
        assert [
            [(h.seq_id, h.name) for h in hits] for hits in batched
        ] == [[(h.seq_id, h.name) for h in hits] for hits in singles]
        # The named probe excludes itself.
        assert all(h.name != "q3" for h in batched[0])
