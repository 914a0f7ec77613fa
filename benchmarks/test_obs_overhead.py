"""Micro-benchmark: disabled observability must cost (nearly) nothing.

Kept beside ``bench/``: ``bench/`` cannot switch ``repro.obs`` off, so
only this gate prices a disabled call site.

The instrumentation threaded through the hot paths (bound kernels, index
searches, the page store) reduces to one ``None`` check per call site
when no registry is active.  This benchmark makes that claim a number:
it measures the flat index's per-query latency with observability off,
counts how many instrumentation points one query actually crosses, prices
a disabled call site directly, and asserts the product stays under 3% of
the query budget.
"""

import time

import pytest

from repro import obs
from repro.compression import StorageBudget
from repro.index import FlatSketchIndex
from repro.obs import MetricsRegistry


class CountingRegistry(MetricsRegistry):
    """Counts every instrument fetch — one per crossed call site."""

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0

    def counter(self, name):
        self.hits += 1
        return super().counter(name)

    def gauge(self, name):
        self.hits += 1
        return super().gauge(name)

    def histogram(self, name, buckets=None):
        self.hits += 1
        return super().histogram(name, buckets)

    def record_event(self, event):
        self.hits += 1
        super().record_event(event)


@pytest.fixture(autouse=True)
def _observability_off():
    obs.disable()
    yield
    obs.disable()


def test_obs_overhead_disabled(database_matrix, query_matrix, report):
    matrix = database_matrix[:1024]
    queries = query_matrix[:10]
    index = FlatSketchIndex(
        matrix, compressor=StorageBudget(16).compressor("best_min_error")
    )

    # Baseline: per-query latency with observability disabled (the
    # default state every non-observed run is in).
    for query in queries:  # warm-up
        index.search(query, k=1)
    rounds = 5
    started = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            index.search(query, k=1)
    per_query = (time.perf_counter() - started) / (rounds * len(queries))

    # How many instrumentation points does one query cross?
    registry = CountingRegistry()
    with obs.observed(registry):
        for query in queries:
            index.search(query, k=1)
    sites_per_query = registry.hits / len(queries)

    # Price one disabled call site (a None check inside obs.add).
    probes = 200_000
    started = time.perf_counter()
    for _ in range(probes):
        obs.add("overhead.probe")
    per_site = (time.perf_counter() - started) / probes

    overhead = sites_per_query * per_site / per_query
    report(
        "observability overhead (flat index, 1024 x %d, k=1):" % (
            matrix.shape[1],
        ),
        f"  per-query latency (obs off):  {per_query * 1e3:8.3f} ms",
        f"  instrumentation sites/query:  {sites_per_query:8.1f}",
        f"  disabled call-site cost:      {per_site * 1e9:8.1f} ns",
        f"  estimated disabled overhead:  {overhead * 100:8.4f} %",
    )
    assert per_site < 1e-6, "a disabled call site must stay sub-microsecond"
    assert overhead < 0.03, (
        f"disabled instrumentation costs {overhead:.2%} of a query, "
        f"over the 3% budget"
    )
