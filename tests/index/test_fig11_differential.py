"""The sketch trees' walk against the per-node fig. 11 reference.

Both trees bound a query once and walk by lookup; the reference in
``fig11_reference.py`` bounds every visited node with its own kernel
call.  They must agree bit for bit: every :class:`CandidateSet` field,
every traversal counter, and — through the engine — every answer and
the full :class:`SearchStats`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.compression import BestMinErrorCompressor
from repro.index import MVPTreeIndex, VPTreeIndex, distances_to_query
from repro.timeseries import zscore
from tests.index.fig11_reference import (
    assert_same_answers,
    assert_same_candidates,
    vantage_ids,
)
from tests.index.test_vptree_stateful import N, make_rows


def make_matrix(count, seed):
    return np.stack(make_rows(count, seed))


def assert_walks_agree(index, live_rows, query) -> None:
    """k in {1, 10, n} and radii around the k-NN distance, one tree, one query."""
    truth = np.sort(distances_to_query(live_rows, query))
    ks = sorted({1, min(10, len(index)), len(index)})
    for k in ks:
        assert_same_candidates(index, "knn", query, k)
        assert_same_answers(index, "knn", query, k)
    kth = float(truth[ks[1] - 1] if len(ks) > 1 else truth[0])
    for radius in (0.0, 0.5 * kth, kth * (1 - 1e-9), kth * (1 + 1e-9),
                   1.5 * kth, 10.0 * float(truth[-1]) + 1.0):
        assert_same_candidates(index, "range", query, radius)
        assert_same_answers(index, "range", query, radius)


class TestFig11Differential:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        count=st.integers(8, 90),
        leaf_size=st.sampled_from([1, 3, 16]),
        guided=st.booleans(),
        bound_method=st.sampled_from(
            ["best_min_error_safe", "best_min_error", "best_error"]
        ),
        data=st.data(),
    )
    def test_vptree(self, seed, count, leaf_size, guided, bound_method, data):
        matrix = make_matrix(count, seed)
        index = VPTreeIndex(
            matrix,
            compressor=BestMinErrorCompressor(6),
            names=[f"q{i}" for i in range(count)],
            bound_method=bound_method,
            leaf_size=leaf_size,
            guided=guided,
            seed=seed,
        )
        # Tombstones: drawn members, vantage points first among them.
        vantages = vantage_ids(index)
        drawn = data.draw(
            st.lists(st.integers(0, count - 1), unique=True, max_size=count // 3)
        )
        removed = set(vantages[: len(drawn) // 2]) | set(drawn)
        removed = sorted(removed)[: count - 2]
        for seq_id in removed:
            index.remove(seq_id)
        live = np.delete(matrix, removed, axis=0)
        rng = np.random.default_rng(seed + 1)
        for query in (zscore(rng.normal(size=N)), matrix[seed % count]):
            assert_walks_agree(index, live, query)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        count=st.integers(8, 90),
        leaf_size=st.sampled_from([1, 3, 16]),
        bound_method=st.sampled_from(
            ["best_min_error_safe", "best_min_error", "best_error"]
        ),
    )
    def test_mvptree(self, seed, count, leaf_size, bound_method):
        matrix = make_matrix(count, seed)
        index = MVPTreeIndex(
            matrix,
            compressor=BestMinErrorCompressor(6),
            names=[f"q{i}" for i in range(count)],
            bound_method=bound_method,
            leaf_size=leaf_size,
            seed=seed,
        )
        rng = np.random.default_rng(seed + 1)
        for query in (zscore(rng.normal(size=N)), matrix[seed % count]):
            assert_walks_agree(index, matrix, query)


class TestOneKernelCallPerQuery:
    @pytest.mark.parametrize("cls", [VPTreeIndex, MVPTreeIndex])
    def test_counters(self, cls):
        matrix = make_matrix(70, seed=3)
        index = cls(matrix, compressor=BestMinErrorCompressor(6), leaf_size=3)
        rng = np.random.default_rng(4)
        queries = [zscore(rng.normal(size=N)) for _ in range(5)]
        examined = 0
        with obs.observed() as registry:
            for query in queries:
                examined += index.search(query, k=3)[1].bound_computations
                index.range_search(query, 5.0)
        asked = 2 * len(queries)
        assert registry.counter("bounds.kernel_calls").value == asked
        assert registry.counter("bounds.pairs").value == asked * len(matrix)
        # The walk's own count is the objects it examined, not the pass.
        assert 0 < examined <= len(queries) * len(matrix)
