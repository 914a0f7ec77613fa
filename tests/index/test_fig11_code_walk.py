"""The default VP-tree's code walk against the per-node fig. 11 reference.

A tree built with no sketch arguments bounds a query once with its row
codes and walks by lookup; the reference's code branch bounds every
visited node with its own ``row_codes.bounds_sq(query, rows)`` call,
which is row-independent by that kernel's contract.  They must agree bit
for bit — every :class:`CandidateSet` field, every traversal counter
and, through the engine, every answer and the full
:class:`SearchStats` — after inserts and removals, and the engine's
code stage must leave the walk's candidates as they are.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.engine import search_many
from repro.index import VPTreeIndex
from repro.timeseries import zscore
from tests.index.fig11_reference import vantage_ids
from tests.index.test_fig11_differential import assert_walks_agree, make_matrix
from tests.index.test_vptree_stateful import N


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(8, 90),
    leaf_size=st.sampled_from([1, 3, 16]),
    guided=st.booleans(),
    inserts=st.integers(0, 20),
    data=st.data(),
)
def test_code_walk_matches_the_reference(
    seed, count, leaf_size, guided, inserts, data
):
    matrix = make_matrix(count, seed)
    index = VPTreeIndex(
        matrix,
        names=[f"q{i}" for i in range(count)],
        leaf_size=leaf_size,
        guided=guided,
        seed=seed,
    )
    assert index.code_walked and index.bound_method is None
    # Inserts: near-copies of one member crowd a leaf past its rebuild.
    rng = np.random.default_rng(seed + 1)
    grown = [matrix[seed % count] + 1e-3 * rng.normal(size=N)
             for _ in range(inserts)]
    for row in grown:
        index.insert(row)
    rows = np.vstack([matrix, *grown]) if grown else matrix
    # Tombstones: drawn members, vantage points first among them.
    vantages = vantage_ids(index)
    drawn = data.draw(
        st.lists(st.integers(0, len(rows) - 1), unique=True,
                 max_size=len(rows) // 3)
    )
    removed = set(vantages[: len(drawn) // 2]) | set(drawn)
    removed = sorted(removed)[: len(rows) - 2]
    for seq_id in removed:
        index.remove(seq_id)
    live = np.delete(rows, removed, axis=0)
    for query in (zscore(rng.normal(size=N)), rows[seed % len(rows)]):
        assert_walks_agree(index, live, query)


def test_one_code_pass_per_query():
    """The walk's pass is the query's only code kernel call: the engine's
    code stage adds none, for one query and for a batch."""
    matrix = make_matrix(70, seed=3)
    index = VPTreeIndex(matrix, leaf_size=3)
    rng = np.random.default_rng(4)
    queries = np.stack([zscore(rng.normal(size=N)) for _ in range(5)])
    with obs.observed() as registry:
        for query in queries:
            _, stats = index.search(query, k=3)
            assert stats.candidates_after_sub_filter < len(matrix)
            index.range_search(query, 5.0)
        search_many(index, queries, k=3)
    asked = 3 * len(queries)
    assert registry.counter("bounds.kernel_calls").value == asked
    assert registry.counter("bounds.pairs").value == asked * len(matrix)
    assert registry.counter("engine.codes.pruned").value == 0
