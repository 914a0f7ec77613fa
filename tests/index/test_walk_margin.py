"""The walks' margin keeps a row whose two distances straddle a median.

The build measures a row's distance from a vantage point with one
reduction and the verifier with another, so the two can differ in the
last bits.  A median between them sends the row to the right of the
median while the verifier reports it inside it.  The query here is the
vantage point itself, the constant row, whose bounds against itself are
exact from the row codes and from sketches alike; so only the walk's
margin (:func:`~repro.index.walk.code_margin`) keeps the right-hand
subtree.  Each example takes the row whose build distance most exceeds
its reported one, grafts a root whose median is drawn from the floats
around those two — the row sits on the vantage point's median sphere —
and splits the other rows by their build distances, as the build does.
The range answer at the row's reported distance must hold it, on both
trees and both bound sources.  With ``shrink = grow = 1`` it does not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import distances_to_query
from repro.index.mvptree import _Leaf, _Node, _Quadrant
from repro.index.vptree import _InternalNode, _LeafNode
from tests.engine.test_duplicate_rows import BLOCK_SIZES, KINDS, database
from tests.index.test_vptree_scale import TREES, build


def graft(index, vantage, median, built) -> None:
    """Give ``index`` one root at ``vantage`` splitting at ``median``."""
    rest = np.flatnonzero(np.arange(len(built)) != vantage)
    if isinstance(index._root, (_InternalNode, _LeafNode)):
        near = built[rest] <= median
        index._root = _InternalNode(
            vantage_id=vantage, median=median,
            left=_LeafNode(rows=rest[near]), right=_LeafNode(rows=rest[~near]),
        )
        return
    # The MVP-tree's second vantage point splits nothing: an infinite
    # median keeps every row on its low side.
    second, rest = int(rest[0]), rest[1:]
    near = built[rest] <= median
    index._root = _Node(
        first_id=vantage, second_id=second, first_median=median,
        quadrants=[
            _Quadrant(True, np.inf, True, _Leaf(rows=rest[near])),
            _Quadrant(False, np.inf, True, _Leaf(rows=rest[~near])),
        ],
    )


def floats_between(low: float, high: float) -> list[float]:
    """Every float from one ulp below ``low`` to one ulp above ``high``."""
    found = [float(np.nextafter(low, -np.inf))]
    while found[-1] <= high:
        found.append(float(np.nextafter(found[-1], np.inf)))
    return found


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    unique=st.integers(3, 14),
    kind=st.sampled_from(KINDS),
    n=st.sampled_from((256, 1000)),
    tree=st.sampled_from(TREES[:4]),
    block=st.sampled_from(BLOCK_SIZES),
    data=st.data(),
)
def test_a_row_on_the_median_sphere_is_kept(
    seed, unique, kind, n, tree, block, data
):
    matrix = database(seed, unique, 1, kind, n)
    vantage = int(np.flatnonzero(~matrix.any(axis=1))[0])  # the zero row
    query = matrix[vantage]
    built = distances_to_query(matrix, query)
    index = build(tree, matrix, 1, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_VERIFY_BLOCK", str(block))
        reported, _ = index.search(query, k=len(matrix))
        # The row whose build distance most exceeds its reported one,
        # and a median anywhere from just below the one to just above
        # the other.
        row = max(
            (h for h in reported if h.seq_id != vantage),
            key=lambda h: built[h.seq_id] - h.distance,
        )
        median = data.draw(st.sampled_from(
            floats_between(row.distance, built[row.seq_id])
        ))
        graft(index, vantage, median, built)
        hits, _ = index.range_search(query, row.distance)
    assert row.seq_id in {h.seq_id for h in hits}, (tree[0], median)
