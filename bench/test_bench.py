"""Checks on the benchmark itself, at ``--smoke`` scale.

Run as ``python -m pytest bench -q`` (``bench/`` is outside tier-1's
``testpaths``).  Every workload runs once untraced and once traced at
sizes of a few hundred rows; the whole file takes well under a minute.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os

import numpy as np
import pytest

import compare
import run

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_records: dict = {}


def smoke_run(name: str, trace: int, scratch, repeat: int = 0) -> dict:
    """One cached smoke run of a workload (``repeat`` forces a fresh one)."""
    key = (name, trace, repeat)
    if key not in _records:
        args = argparse.Namespace(
            seed=3, seconds=0.3, trace=trace, smoke=True,
            scratch=str(scratch), spans=None,
        )
        _records[key] = run.run_one(name, args, SPEC)
    return _records[key]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-scratch")


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name, scratch):
    record = smoke_run(name, 0, scratch)
    assert record["correct"], record["info"]["failures"] or record["missing"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in record["metrics"].items()} == declared
    for metric_name, metric in record["metrics"].items():
        assert metric["value"] > 0, metric_name  # the contract: never 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, scratch):
    record = smoke_run(name, 1, scratch)
    assert record["correct"], record["info"]["failures"] or record["missing"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in record["metrics"].items()} == declared


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_self_times_plus_unattributed_sum_to_wall(name, scratch):
    record = smoke_run(name, 1, scratch)
    info = record["info"]
    assert sum(info["layer_self_s"].values()) == pytest.approx(
        info["traced_wall_s"], rel=1e-9
    )
    shares = [
        m["value"] for n, m in record["metrics"].items()
        if n.startswith("budget.") or n == "bench.unattributed_share"
    ]
    assert sum(shares) == pytest.approx(1.0, rel=1e-9)


def test_workloads_touch_the_layers_they_claim(scratch):
    def layers_with_spans(name):
        info = smoke_run(name, 1, scratch)["info"]
        return {layer for layer, s in info["layer_self_s"].items() if s > 0}

    for monolithic in ("knn-flat-disk", "knn-vptree-cached"):
        assert "cluster" not in layers_with_spans(monolithic)
    assert "cluster" in layers_with_spans("knn-sharded-pool")
    assert not {"engine", "storage", "cluster"} & layers_with_spans("mine-detect")
    assert {"stream", "bursts", "storage", "engine"} <= layers_with_spans("stream-rw")


def test_exact_repeat_metrics_repeat_exactly(scratch):
    exact = ("retrievals_per_query", "store_bytes_per_user_byte",
             "bounds.pairs_per_query", "engine.skipped_approx_per_query")
    first = smoke_run("knn-sharded-pool", 1, scratch)["metrics"]
    again = smoke_run("knn-sharded-pool", 1, scratch, repeat=1)["metrics"]
    for name in exact:
        assert first[name]["value"] == again[name]["value"], name
    first = smoke_run("knn-sharded-pool", 0, scratch)["metrics"]
    again = smoke_run("knn-sharded-pool", 0, scratch, repeat=1)["metrics"]
    assert first["recall_at_10"]["value"] == again["recall_at_10"]["value"]


def test_a_wrong_answer_is_a_failed_operation():
    run.workload_classes()  # puts src/ and bench/ on the path
    from harness import Recorder
    from oracle import KnnOracle
    from repro import get_index

    rng = np.random.default_rng(0)
    matrix, queries = rng.normal(size=(64, 32)), rng.normal(size=(2, 32))
    oracle = KnnOracle(matrix, queries, 5)
    index = get_index("flat", matrix)
    recorder = Recorder(None)
    neighbors, _ = recorder.op("knn", lambda: index.search(queries[0], k=5))
    assert recorder.check(oracle.check_knn(0, neighbors, 5))
    assert (recorder.attempted, recorder.failed) == (1, 0)
    # The same answer offered for another query is a wrong answer.
    assert not recorder.check(oracle.check_knn(1, neighbors, 5))
    assert recorder.failed == 1
    # An operation that raises is failed too, and has no latency.
    assert recorder.op("knn", lambda: index.search(queries[0], k=0)) is None
    assert (recorder.attempted, recorder.failed) == (2, 2)
    assert len(recorder.seconds("knn")) == 1


def child_pids() -> list[int]:
    """Live processes whose parent is this one, from ``/proc``."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
                state, parent = handle.read().rpartition(")")[2].split()[:2]
        except OSError:
            continue  # ended while we were looking
        if int(parent) == os.getpid() and state != "Z":
            found.append(int(entry))
    return found


def test_runs_leave_nothing_behind(scratch):
    import trace as spans

    shared_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    for name in ("knn-sharded-pool", "stream-rw"):
        smoke_run(name, 1, scratch)
    assert os.listdir(scratch) == []
    assert multiprocessing.active_children() == []
    assert child_pids() == []  # multiprocessing's resource tracker too
    assert not spans.active()
    if os.path.isdir("/dev/shm"):
        assert set(os.listdir("/dev/shm")) <= shared_before


def test_compare_verdicts():
    assert compare.verdict(100.0, 80.0, "higher", 0.1) == "worse"
    assert compare.verdict(100.0, 95.0, "higher", 0.1) == "within-bound"
    assert compare.verdict(100.0, 80.0, "lower", 0.1) == "better"
    assert compare.verdict(100.0, 111.0, "lower", 0.1) == "worse"
    assert compare.spread([1.0]) == 0.0
