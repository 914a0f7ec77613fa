"""The shard-scaling experiment and its runner section."""

import io

import numpy as np
import pytest

from repro.evaluation import shard_scaling_experiment
from repro.evaluation.runner import run_report
from repro.exceptions import ReproError
from repro.timeseries import zscore


def make_workload(seed=5, count=60, n=64, queries=4):
    rng = np.random.default_rng(seed)
    matrix = np.array(
        [zscore(np.cumsum(rng.normal(size=n))) for _ in range(count)]
    )
    probes = np.array(
        [zscore(np.cumsum(rng.normal(size=n))) for _ in range(queries)]
    )
    return matrix, probes


class TestShardScalingExperiment:
    def test_measures_each_count_and_agrees(self):
        matrix, probes = make_workload()
        result = shard_scaling_experiment(
            matrix, probes, shard_counts=(1, 3), k=4
        )
        assert result.agreement
        assert [row.shards for row in result.rows] == [1, 3]
        assert result.database_size == len(matrix)
        assert result.queries == len(probes)
        for row in result.rows:
            assert row.wall_seconds > 0
            assert row.queries_per_second > 0
        assert result.row_for(1).speedup == 1.0

    def test_row_for_missing_count_raises(self):
        matrix, probes = make_workload()
        result = shard_scaling_experiment(
            matrix, probes, shard_counts=(2,), k=2
        )
        with pytest.raises(ReproError, match="no row measured"):
            result.row_for(8)

    def test_needs_at_least_one_count(self):
        matrix, probes = make_workload()
        with pytest.raises(ReproError, match="at least one"):
            shard_scaling_experiment(matrix, probes, shard_counts=())

    def test_table_renders(self):
        matrix, probes = make_workload()
        result = shard_scaling_experiment(
            matrix, probes, shard_counts=(1, 2), k=3, backend="scan"
        )
        table = result.as_table()
        assert "shard scaling" in table
        assert "1 shard" in table and "2 shards" in table


class TestRunnerSection:
    def test_report_includes_scaling_section_when_sharded(self):
        out = io.StringIO()
        run_report(
            db_size=96,
            days=128,
            queries=3,
            pairs=10,
            seed=2,
            budgets=(8,),
            shards=2,
            out=out,
        )
        text = out.getvalue()
        assert "cluster - scatter-gather scaling" in text
        assert "bit-identical" in text
        assert "MISMATCH" not in text

    def test_report_omits_section_by_default(self):
        out = io.StringIO()
        run_report(
            db_size=64,
            days=128,
            queries=2,
            pairs=5,
            seed=2,
            budgets=(8,),
            out=out,
        )
        assert "scatter-gather scaling" not in out.getvalue()
