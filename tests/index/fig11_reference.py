"""The fig. 11 traversal, one kernel call per visited node.

The executable reference the sketch trees' walk is compared against
(``test_fig11_differential.py`` and the stateful machine): at every
node it takes the node's rows out of the sketch database and bounds
them with their own call of the public ``get_batch_kernel`` kernel —
nothing is computed ahead and nothing is cached.  It works on a built
:class:`~repro.index.VPTreeIndex` / :class:`~repro.index.MVPTreeIndex`
through their node objects, so both walks see the same tree.
"""

import dataclasses

import numpy as np

from repro.bounds.batch import BatchBounds, get_batch_kernel
from repro.engine.core import (
    RANGE_SLACK,
    CandidateSet,
    SigmaTracker,
    execute_knn,
    execute_range,
)
from repro.index import MVPTreeIndex, SearchStats
from repro.spectral import Spectrum


def _is_leaf(node) -> bool:
    return hasattr(node, "rows")


def vptree_knn(index, query, k, stats) -> CandidateSet:
    kernel = get_batch_kernel(index.bound_method)
    batch = BatchBounds(Spectrum.from_series(query))
    tracker = SigmaTracker(k)
    candidates: list[tuple[float, int]] = []  # (lb, seq_id)

    def note(rows):
        lower, upper = kernel(batch, index._sketch_db.take(rows))
        stats.bound_computations += int(rows.size)
        for seq_id, lb, ub in zip(rows, lower, upper):
            if int(seq_id) in index._deleted:
                continue
            candidates.append((float(lb), int(seq_id)))
            tracker.offer(float(ub))
        return lower, upper

    def traverse(node) -> None:
        stats.nodes_visited += 1
        if _is_leaf(node):
            note(node.rows)
            return
        lower_arr, upper_arr = note(np.array([node.vantage_id]))
        lower, upper = float(lower_arr[0]), float(upper_arr[0])

        sigma = tracker.sigma()
        visit_left = lower <= node.median + sigma
        visit_right = upper >= node.median - sigma
        if not visit_left and not visit_right:
            visit_left = True
        order = []
        if visit_left:
            order.append(node.left)
        if visit_right:
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
    sigma = tracker.sigma()
    survivors = sorted(
        (lb * lb, seq_id) for lb, seq_id in candidates if lb <= sigma
    )
    return CandidateSet(
        entries=survivors,
        generated=len(candidates),
        sigma_sq=sigma * sigma,
        top_ubs=tracker.values(),
    )


def vptree_range(index, query, radius, stats) -> CandidateSet:
    kernel = get_batch_kernel(index.bound_method)
    batch = BatchBounds(Spectrum.from_series(query))
    to_verify: list[tuple[float, int]] = []

    def consider(rows):
        lower, upper = kernel(batch, index._sketch_db.take(rows))
        stats.bound_computations += int(rows.size)
        for seq_id, lb in zip(rows, lower):
            seq_id = int(seq_id)
            if seq_id in index._deleted or lb > radius + RANGE_SLACK:
                continue
            to_verify.append((float(lb) ** 2, seq_id))
        return lower, upper

    def traverse(node) -> None:
        stats.nodes_visited += 1
        if _is_leaf(node):
            consider(node.rows)
            return
        lower_arr, upper_arr = consider(np.array([node.vantage_id]))
        lower, upper = float(lower_arr[0]), float(upper_arr[0])
        if lower - node.median <= radius + RANGE_SLACK:
            traverse(node.left)
        else:
            stats.subtrees_pruned += 1
        if node.median - upper <= radius + RANGE_SLACK:
            traverse(node.right)
        else:
            stats.subtrees_pruned += 1

    traverse(index._root)
    return CandidateSet(entries=sorted(to_verify), generated=None)


def _side_min_distance(lower, upper, median, side_low) -> float:
    if side_low:
        return lower - median
    return median - upper


def mvptree_knn(index, query, k, stats) -> CandidateSet:
    kernel = get_batch_kernel(index.bound_method)
    batch = BatchBounds(Spectrum.from_series(query))
    tracker = SigmaTracker(k)
    candidates: list[tuple[float, int]] = []

    def note(rows):
        lower, upper = kernel(batch, index._sketch_db.take(rows))
        stats.bound_computations += int(rows.size)
        for seq_id, lb, ub in zip(rows, lower, upper):
            candidates.append((float(lb), int(seq_id)))
            tracker.offer(float(ub))
        return lower, upper

    def traverse(node) -> None:
        stats.nodes_visited += 1
        if _is_leaf(node):
            note(node.rows)
            return
        lowers, uppers = note(np.array([node.first_id, node.second_id]))
        lb1, ub1 = float(lowers[0]), float(uppers[0])
        lb2, ub2 = float(lowers[1]), float(uppers[1])
        for quadrant in node.quadrants:
            sigma = tracker.sigma()
            by_first = _side_min_distance(
                lb1, ub1, node.first_median, quadrant.first_side_low
            )
            by_second = _side_min_distance(
                lb2, ub2, quadrant.second_median, quadrant.second_side_low
            )
            if max(by_first, by_second) > sigma:
                stats.subtrees_pruned += 1
                continue
            traverse(quadrant.child)

    traverse(index._root)
    sigma = tracker.sigma()
    survivors = sorted(
        (lb * lb, seq_id) for lb, seq_id in candidates if lb <= sigma
    )
    return CandidateSet(
        entries=survivors,
        generated=len(candidates),
        sigma_sq=sigma * sigma,
        top_ubs=tracker.values(),
    )


def mvptree_range(index, query, radius, stats) -> CandidateSet:
    kernel = get_batch_kernel(index.bound_method)
    batch = BatchBounds(Spectrum.from_series(query))
    bound = radius + RANGE_SLACK
    to_verify: list[tuple[float, int]] = []

    def consider(rows):
        lower, upper = kernel(batch, index._sketch_db.take(rows))
        stats.bound_computations += int(rows.size)
        for seq_id, lb in zip(rows, lower):
            lb = float(lb)
            if lb > bound:
                continue
            to_verify.append((lb ** 2, int(seq_id)))
        return lower, upper

    def traverse(node) -> None:
        stats.nodes_visited += 1
        if _is_leaf(node):
            consider(node.rows)
            return
        lowers, uppers = consider(np.array([node.first_id, node.second_id]))
        lb1, ub1 = float(lowers[0]), float(uppers[0])
        lb2, ub2 = float(lowers[1]), float(uppers[1])
        for quadrant in node.quadrants:
            by_first = _side_min_distance(
                lb1, ub1, node.first_median, quadrant.first_side_low
            )
            by_second = _side_min_distance(
                lb2, ub2, quadrant.second_median, quadrant.second_side_low
            )
            if max(by_first, by_second) > bound:
                stats.subtrees_pruned += 1
                continue
            traverse(quadrant.child)

    traverse(index._root)
    return CandidateSet(entries=sorted(to_verify), generated=None)


class PerNodeTree:
    """A built tree served through the per-node traversal above.

    Shares the tree's nodes, sketches, tombstones and store, so the
    engine verifies the reference's candidates exactly as it verifies
    the tree's own.
    """

    def __init__(self, index) -> None:
        self._index = index
        mvp = isinstance(index, MVPTreeIndex)
        self._knn = mvptree_knn if mvp else vptree_knn
        self._range = mvptree_range if mvp else vptree_range

    def __getattr__(self, name):
        return getattr(self._index, name)

    def __len__(self) -> int:
        return len(self._index)

    def knn_candidates(self, query, k, stats) -> CandidateSet:
        return self._knn(self._index, query, k, stats)

    def range_candidates(self, query, radius, stats) -> CandidateSet:
        return self._range(self._index, query, radius, stats)

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
