"""The fig. 11 traversal, one kernel call per visited node.

The executable reference the trees' walk is compared against
(``test_fig11_differential.py``, ``test_fig11_code_walk.py`` and the
stateful machine): at every node it bounds the node's rows with their
own kernel call — ``row_codes.bounds_sq(query, rows)`` on a tree walked
on its row codes, or the public ``get_batch_kernel`` kernel over the
rows taken out of the sketch database, widened by ``BatchBounds.bounds_sq`` —
and nothing is computed ahead or cached.  It works on a built
:class:`~repro.index.VPTreeIndex` / :class:`~repro.index.MVPTreeIndex`
through their node objects, so both walks see the same tree.

Either source gives sound squared bounds, and one rule follows: each
candidate keeps its ``LB^2``, the pruning rules compare ``lower * (1 -
m)`` and ``upper * (1 + m)`` against ``median * (1 ± m)``, and a range
walk keeps a row iff ``sqrt(LB^2) <= radius``, with no slack.
"""

import dataclasses

import numpy as np

from repro.bounds.batch import BatchBounds, get_batch_kernel
from repro.engine.core import (
    CandidateSet,
    SigmaTracker,
    execute_knn,
    execute_range,
)
from repro.index import MVPTreeIndex, SearchStats
from repro.index.walk import code_margin
from repro.spectral import Spectrum


def _is_leaf(node) -> bool:
    return hasattr(node, "rows")


def node_bounds(index, query):
    """``bound(rows)``: LB, UB and the ``LB^2`` a candidate keeps, from
    one kernel call over ``rows``, and the walk's ``(shrink, grow)``."""
    if index.code_walked:
        def bounds_sq(rows):
            return index.row_codes.bounds_sq(query, rows)
    else:
        kernel = get_batch_kernel(index.bound_method)
        batch = BatchBounds(Spectrum.from_series(query))

        def bounds_sq(rows):
            return batch.bounds_sq(kernel, index._sketch_db.take(rows))

    def bound(rows):
        lower_sq, upper_sq = bounds_sq(rows)
        lower_sq = np.minimum(lower_sq, upper_sq)
        return np.sqrt(lower_sq), np.sqrt(upper_sq), lower_sq

    margin = code_margin(index.sequence_length)
    return bound, (1 - margin, 1 + margin)


def _vptree_walk(index, query, stats, note, limit):
    """Visit the children no vantage point proves beyond ``limit()``."""
    bound, (shrink, grow) = node_bounds(index, query)

    def traverse(node) -> None:
        stats.nodes_visited += 1
        if _is_leaf(node):
            note(node.rows, *bound(node.rows))
            return
        rows = np.array([node.vantage_id])
        lower_arr, upper_arr, _ = note(rows, *bound(rows))
        lower, upper = float(lower_arr[0]), float(upper_arr[0])
        order = []
        if lower * shrink - node.median * grow <= limit():
            order.append(node.left)
        if node.median * shrink - upper * grow <= limit():
            order.append(node.right)
        stats.subtrees_pruned += 2 - len(order)
        if len(order) == 2 and index._guided:
            left_overlap = min(upper, node.median) - lower
            right_overlap = upper - max(lower, node.median)
            if right_overlap > left_overlap:
                order.reverse()
        for child in order:
            traverse(child)

    traverse(index._root)


def walk_knn(walk, index, query, k, stats) -> CandidateSet:
    """A k-NN walk: every live row met is a candidate ``(lb, lb^2, id)``
    and offers its upper bound to sigma; then the SUB filter."""
    tracker = SigmaTracker(k)
    candidates: list[tuple[float, float, int]] = []

    def note(rows, lower, upper, lower_sq):
        stats.bound_computations += int(rows.size)
        for seq_id, lb, lb_sq, ub in zip(rows, lower, lower_sq, upper):
            if int(seq_id) not in getattr(index, "_deleted", ()):
                candidates.append((float(lb), float(lb_sq), int(seq_id)))
                tracker.offer(float(ub))
        return lower, upper, lower_sq

    walk(index, query, stats, note, tracker.sigma)
    sigma = tracker.sigma()
    survivors = sorted(
        (lb_sq, seq_id) for lb, lb_sq, seq_id in candidates if lb <= sigma
    )
    return CandidateSet(
        entries=survivors,
        generated=len(candidates),
        sigma_sq=sigma * sigma,
        top_ubs=tracker.values(),
    )


def walk_range(walk, index, query, radius, stats) -> CandidateSet:
    """A range walk: every live row met whose LB is not above ``radius``."""
    to_verify: list[tuple[float, int]] = []

    def note(rows, lower, upper, lower_sq):
        stats.bound_computations += int(rows.size)
        for seq_id, lb, lb_sq in zip(rows, lower, lower_sq):
            live = int(seq_id) not in getattr(index, "_deleted", ())
            if live and not float(lb) > radius:
                to_verify.append((float(lb_sq), int(seq_id)))
        return lower, upper, lower_sq

    walk(index, query, stats, note, lambda: radius)
    return CandidateSet(entries=sorted(to_verify), generated=None)


def _side_min_distance(lower, upper, median, side_low, shrink, grow):
    if side_low:
        return lower * shrink - median * grow
    return median * shrink - upper * grow


def _mvptree_walk(index, query, stats, note, limit):
    """Visit the quadrants no vantage point proves beyond ``limit()``."""
    bound, margins = node_bounds(index, query)

    def traverse(node) -> None:
        stats.nodes_visited += 1
        if _is_leaf(node):
            note(node.rows, *bound(node.rows))
            return
        rows = np.array([node.first_id, node.second_id])
        lowers, uppers, _ = note(rows, *bound(rows))
        lb1, ub1 = float(lowers[0]), float(uppers[0])
        lb2, ub2 = float(lowers[1]), float(uppers[1])
        for quadrant in node.quadrants:
            by_first = _side_min_distance(
                lb1, ub1, node.first_median, quadrant.first_side_low, *margins
            )
            by_second = _side_min_distance(
                lb2, ub2, quadrant.second_median, quadrant.second_side_low,
                *margins,
            )
            if max(by_first, by_second) > limit():
                stats.subtrees_pruned += 1
                continue
            traverse(quadrant.child)

    traverse(index._root)


class PerNodeTree:
    """A built tree served through the per-node traversal above.

    Shares the tree's nodes, sketches, tombstones and store, so the
    engine verifies the reference's candidates exactly as it verifies
    the tree's own.
    """

    def __init__(self, index) -> None:
        self._index = index
        mvp = isinstance(index, MVPTreeIndex)
        self._walk = _mvptree_walk if mvp else _vptree_walk

    def __getattr__(self, name):
        return getattr(self._index, name)

    def __len__(self) -> int:
        return len(self._index)

    def knn_candidates(self, query, k, stats) -> CandidateSet:
        return walk_knn(self._walk, self._index, query, k, stats)

    def range_candidates(self, query, radius, stats) -> CandidateSet:
        return walk_range(self._walk, self._index, query, radius, stats)

    def search(self, query, k=1, policy=None):
        return execute_knn(self, query, k, policy)

    def range_search(self, query, radius, policy=None):
        return execute_range(self, query, radius, policy)


def vantage_ids(index) -> list[int]:
    """Sequence ids of a VP-tree's vantage points (one per internal node)."""
    found, stack = [], [index._root]
    while stack:
        node = stack.pop()
        if hasattr(node, "vantage_id"):
            found.append(node.vantage_id)
            stack += [node.left, node.right]
    return found


def assert_same_candidates(index, kind, query, argument) -> None:
    """One query's candidates and counters, tree walk against reference."""
    generate = f"{kind}_candidates"
    ours_stats, ref_stats = SearchStats(), SearchStats()
    ours = getattr(index, generate)(query, argument, ours_stats)
    ref = getattr(PerNodeTree(index), generate)(query, argument, ref_stats)
    assert dataclasses.asdict(ours) == dataclasses.asdict(ref)
    assert ours_stats == ref_stats


def assert_same_answers(index, kind, query, argument) -> None:
    """The same query through the engine: answers and full SearchStats."""
    search = "search" if kind == "knn" else "range_search"
    ours, ours_stats = getattr(index, search)(query, argument)
    ref, ref_stats = getattr(PerNodeTree(index), search)(query, argument)
    assert ours == ref
    assert [h.name for h in ours] == [h.name for h in ref]
    assert ours_stats == ref_stats
