"""Scaling the database and the query by 2^e leaves every tree's ids.

A power of two scales every float exactly, so a tree built on ``2^e ·
rows`` has the same vantage points, pivots, boxes and splits, and a
query ``2^e · q`` meets the same bounds times ``2^e``.  Every rule of
the walks — on row codes or on sound sketch bounds, in the VP-tree and
the MVP-tree — of the M-tree's and R-tree's margined bounds and of the
verifier is relative, so the answers' ids stay and their distances
scale exactly; an absolute constant anywhere on the path would show at
one end of e in [−40, 40].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import BestMinErrorCompressor
from repro.index import GeminiRTreeIndex, MTreeIndex, MVPTreeIndex, VPTreeIndex
from tests.engine.test_duplicate_rows import KINDS, database, draw_row

#: ``(name, class, compressor)``: both walked trees on both bound
#: sources, then the exact-distance M-tree and the feature-space R-tree.
TREES = (
    ("vptree", VPTreeIndex, None),
    ("vptree+sketch", VPTreeIndex, BestMinErrorCompressor(14)),
    ("mvptree", MVPTreeIndex, None),
    ("mvptree+sketch", MVPTreeIndex, BestMinErrorCompressor(14)),
    ("mtree", MTreeIndex, None),
    ("rtree", GeminiRTreeIndex, None),
)


def build(tree, matrix, leaf_size, seed):
    _, cls, compressor = tree
    if cls in (MTreeIndex, GeminiRTreeIndex):
        return cls(matrix, capacity=max(leaf_size, 4))
    return cls(matrix, compressor, leaf_size=leaf_size, seed=seed)
BLOCK_SIZES = (0, 3, 256)


def answers(index, query, k, radius):
    """``(ids, distances)`` of the k-NN answer and of the range answer."""
    knn, _ = index.search(query, k=k)
    hits, _ = index.range_search(query, radius)
    return [
        ([h.seq_id for h in found], [h.distance for h in found])
        for found in (knn, hits)
    ]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    unique=st.integers(6, 40),
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((32, 256)),
    exponent=st.integers(-40, 40),
    leaf_size=st.sampled_from((1, 4, 16)),
    block=st.sampled_from(BLOCK_SIZES),
    tree=st.sampled_from(TREES),
)
def test_scaled_tree_keeps_its_ids(
    seed, unique, kind, n, exponent, leaf_size, block, tree
):
    matrix = database(seed, unique, 2, kind, n)
    scale = 2.0**exponent
    base = build(tree, matrix, leaf_size, seed)
    scaled = build(tree, matrix * scale, leaf_size, seed)
    rng = np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_VERIFY_BLOCK", str(block))
        for query in (draw_row(rng, kind, n), matrix[seed % len(matrix)]):
            for k in (1, 5):
                # The range radius is the k-th distance the k-NN reported.
                radius = base.search(query, k=k)[0][-1].distance
                expected = answers(base, query, k, radius)
                got = answers(scaled, query * scale, k, radius * scale)
                for (ids, distances), (got_ids, got_distances) in zip(
                    expected, got
                ):
                    assert got_ids == ids
                    assert got_distances == [d * scale for d in distances]
