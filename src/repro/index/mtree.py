"""An M-tree — the metric-index baseline the paper compares against.

Section 4 of the paper picks the VP-tree because "the superiority of the
VP-tree against the R*-tree and the M-tree, in terms of pruning power and
disk accesses, was clearly demonstrated in [5]".  To make that comparison
reproducible, this module implements the M-tree of Ciaccia, Patella &
Zezula (VLDB 1997) in its classic exact-distance form:

* a balanced, insertion-built tree whose internal *routing entries* carry
  a pivot object, a covering radius and the distance to their parent
  pivot;
* inserts descend into the child needing the least radius enlargement
  (ties: closest pivot), and overflowing nodes split by promoting the two
  most distant entries (the ``mM_RAD``-style heuristic on the node's own
  entries) and partitioning by the generalized hyperplane;
* k-NN search runs best-first on ``d_min = max(0, d(q, pivot) - radius)``
  with the standard parent-distance prefilter
  ``|d(q, parent) - d(entry, parent)| - radius > cutoff``, which skips
  whole subtrees without computing their pivot distance.

Unlike the paper's customised VP-tree, the M-tree here stores
*uncompressed* objects and computes exact distances — the setting of the
cited comparison.  Searches return the shared
:class:`~repro.index.results.SearchStats`, mapped onto the M-tree's
work: every exact pivot distance is a ``full_retrieval``, every
triangle-inequality parent filter evaluated is a ``bound_computation``,
and a filter that fires prunes either a subtree or a single candidate.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.engine.core import CandidateSet, SigmaTracker
from repro.index.base import IndexBase
from repro.index.distance import euclidean_early_abandon_sq
from repro.index.results import SearchStats
from repro.index.walk import code_margin

__all__ = ["MTreeStats", "MTreeIndex"]

#: Backward-compatible alias: the M-tree used to return its own stats
#: type; all indexes now share one container with uniform field names.
MTreeStats = SearchStats


@dataclass
class _Entry:
    """A routing (internal) or object (leaf) entry."""

    pivot_id: int
    radius: float = 0.0
    parent_distance: float = 0.0
    child: "_Node | None" = None


@dataclass
class _Node:
    is_leaf: bool
    entries: list[_Entry] = field(default_factory=list)
    parent_entry: _Entry | None = None


class MTreeIndex(IndexBase):
    """Exact-distance M-tree over a matrix of sequences.

    Parameters
    ----------
    matrix:
        Database as a ``(count, n)`` matrix; rows are inserted one by one
        (the M-tree is an insertion-built structure).
    capacity:
        Maximum entries per node before a split.
    names:
        Optional per-sequence names attached to results.
    """

    obs_name = "index.mtree"

    def __init__(
        self,
        matrix: np.ndarray,
        capacity: int = 16,
        names: Sequence[str] | None = None,
    ) -> None:
        if capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        super().__init__(matrix, names)
        self._capacity = capacity
        self._root = _Node(is_leaf=True)
        self.build_distance_computations = 0
        for seq_id in range(self._count):
            self._insert(seq_id)

    def _distance(self, a_id: int, b_id: int) -> float:
        # Build and query must share ONE distance routine: the parent
        # filter compares a stored build-time distance against a
        # query-time one, and mixed summation orders leave ulp-level
        # noise that turns an exact duplicate's zero bound into a
        # spuriously positive "lower" bound above the true distance.
        self.build_distance_computations += 1
        return math.sqrt(
            euclidean_early_abandon_sq(
                self._matrix[a_id], self._matrix[b_id], math.inf
            )
        )

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert(self, seq_id: int) -> None:
        path: list[tuple[_Node, _Entry]] = []
        node = self._root
        while not node.is_leaf:
            best_entry, best_distance = None, float("inf")
            best_enlargement = float("inf")
            for entry in node.entries:
                distance = self._distance(seq_id, entry.pivot_id)
                enlargement = max(0.0, distance - entry.radius)
                if enlargement < best_enlargement or (
                    enlargement == best_enlargement
                    and distance < best_distance
                ):
                    best_entry = entry
                    best_distance = distance
                    best_enlargement = enlargement
            best_entry.radius = max(best_entry.radius, best_distance)
            path.append((node, best_entry))
            node = best_entry.child

        parent_pivot = path[-1][1].pivot_id if path else None
        parent_distance = (
            self._distance(seq_id, parent_pivot)
            if parent_pivot is not None
            else 0.0
        )
        node.entries.append(
            _Entry(pivot_id=seq_id, parent_distance=parent_distance)
        )
        self._split_upward(node, path)

    def _split_upward(
        self, node: _Node, path: list[tuple[_Node, _Entry]]
    ) -> None:
        while len(node.entries) > self._capacity:
            left_entry, right_entry = self._split(node)
            if path:
                parent, through = path.pop()
                parent.entries.remove(through)
                parent.entries.extend([left_entry, right_entry])
                self._reparent(parent, left_entry, path)
                self._reparent(parent, right_entry, path)
                node = parent
            else:
                root = _Node(is_leaf=False)
                root.entries = [left_entry, right_entry]
                left_entry.parent_distance = 0.0
                right_entry.parent_distance = 0.0
                self._root = root
                return

    def _reparent(
        self,
        parent: _Node,
        entry: _Entry,
        path: list[tuple[_Node, _Entry]] | None = None,
    ) -> None:
        """Refresh an entry's distance to the grandparent pivot."""
        if path is None:
            path = []
        grandparent_pivot = path[-1][1].pivot_id if path else None
        entry.parent_distance = (
            self._distance(entry.pivot_id, grandparent_pivot)
            if grandparent_pivot is not None
            else 0.0
        )

    def _split(self, node: _Node) -> tuple[_Entry, _Entry]:
        """Split an overflowing node; returns the two new routing entries."""
        entries = node.entries
        # Promote the two most distant entries (exact mM_RAD on the node).
        best_pair, best_distance = (0, 1), -1.0
        distances: dict[tuple[int, int], float] = {}
        for i, j in itertools.combinations(range(len(entries)), 2):
            distance = self._distance(entries[i].pivot_id, entries[j].pivot_id)
            distances[(i, j)] = distance
            if distance > best_distance:
                best_pair, best_distance = (i, j), distance

        a, b = best_pair
        left = _Node(is_leaf=node.is_leaf)
        right = _Node(is_leaf=node.is_leaf)
        left_radius = right_radius = 0.0
        for position, entry in enumerate(entries):
            to_a = (
                distances.get((min(position, a), max(position, a)), 0.0)
                if position != a
                else 0.0
            )
            to_b = (
                distances.get((min(position, b), max(position, b)), 0.0)
                if position != b
                else 0.0
            )
            if to_a <= to_b:
                entry.parent_distance = to_a
                left.entries.append(entry)
                left_radius = max(left_radius, to_a + entry.radius)
            else:
                entry.parent_distance = to_b
                right.entries.append(entry)
                right_radius = max(right_radius, to_b + entry.radius)

        left_entry = _Entry(
            pivot_id=entries[a].pivot_id, radius=left_radius, child=left
        )
        right_entry = _Entry(
            pivot_id=entries[b].pivot_id, radius=right_radius, child=right
        )
        left.parent_entry = left_entry
        right.parent_entry = right_entry
        return left_entry, right_entry

    # ------------------------------------------------------------------
    # Candidate generation (the engine owns verification)
    # ------------------------------------------------------------------
    def _traverse(
        self, query: np.ndarray, prune_bound, offer, stats: SearchStats
    ) -> tuple[list[tuple[float, int]], dict[int, float]]:
        """Best-first traversal shared by the k-NN and range generators.

        ``prune_bound()`` is the current pruning threshold — the k-th
        smallest upper bound for k-NN, the (fixed) radius for range
        search — and ``offer(upper)`` feeds upper bounds back into it.
        Returns the emitted ``(lb^2, seq_id)`` candidates and the
        exact squared distances already paid for routing pivots (each
        pivot is also emitted as a candidate, so the verifier's accounting
        stays whole: paid candidates never re-fetch, never re-count).
        """
        exact_sq: dict[int, float] = {}
        candidates: list[tuple[float, int]] = []
        # The rules read computed distances, so each takes the walks'
        # relative margin (:func:`~repro.index.walk.code_margin`).
        margin = code_margin(self._n)

        def query_distance(seq_id: int) -> float:
            # Exact distance on the uncompressed object: the M-tree's
            # analogue of a full retrieval.  Cached, so a pivot reused at
            # several levels is fetched and counted exactly once.
            if seq_id not in exact_sq:
                stats.full_retrievals += 1
                d_sq = euclidean_early_abandon_sq(
                    query, self._matrix[seq_id], math.inf
                )
                exact_sq[seq_id] = d_sq
                candidates.append((d_sq, seq_id))
            return math.sqrt(exact_sq[seq_id])

        counter = itertools.count()
        frontier: list[tuple[float, int, _Node, float]] = []
        heapq.heappush(frontier, (0.0, next(counter), self._root, 0.0))
        while frontier:
            d_min, _, node, parent_q_distance = heapq.heappop(frontier)
            if d_min > prune_bound():
                # Min-heap order: every other frontier entry is at
                # least as far, so all of them are pruned at once.
                stats.subtrees_pruned += 1 + len(frontier)
                break
            stats.nodes_visited += 1
            for entry in node.entries:
                # Parent-distance prefilter (triangle inequality through
                # the shared parent pivot): cheap, no new distance needed.
                gap = 0.0
                if node.parent_entry is not None:
                    stats.bound_computations += 1
                    span = parent_q_distance + entry.parent_distance
                    gap = abs(parent_q_distance - entry.parent_distance)
                    gap = max(gap - margin * span, 0.0)
                    if gap - entry.radius * (1 + margin) > prune_bound():
                        if node.is_leaf:
                            if entry.pivot_id in exact_sq:
                                continue  # already a (paid) candidate
                            # Implicitly pruned: never emitted, so the
                            # engine's complement accounting covers it.
                        else:
                            stats.subtrees_pruned += 1
                        continue
                if node.is_leaf:
                    if entry.pivot_id in exact_sq:
                        continue  # its routing occurrence already paid
                    # Emit with the triangle bounds; the exact comparison
                    # is the engine's job.
                    if node.parent_entry is not None:
                        candidates.append((gap * gap, entry.pivot_id))
                        offer(span * (1 + margin))
                    else:
                        candidates.append((0.0, entry.pivot_id))
                else:
                    distance = query_distance(entry.pivot_id)
                    # The pivot is a database object (it reappears in a
                    # descendant leaf); its exact distance is an upper
                    # bound for the subtree.
                    offer(distance)
                    child_d_min = max(0.0, distance - entry.radius
                                      - margin * (distance + entry.radius))
                    if child_d_min <= prune_bound():
                        heapq.heappush(
                            frontier,
                            (child_d_min, next(counter), entry.child,
                             distance),
                        )
                    else:
                        stats.subtrees_pruned += 1
        return candidates, exact_sq

    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        tracker = SigmaTracker(k)
        candidates, exact_sq = self._traverse(
            query, tracker.sigma, tracker.offer, stats
        )
        sigma_sq = tracker.sigma_sq()
        # SUB filter — but paid candidates always survive: their exact
        # distance is already on the books, so dropping them would break
        # the pruned+retrieved accounting (and costs nothing to keep).
        survivors = sorted(
            (lb_sq, seq_id)
            for lb_sq, seq_id in candidates
            if lb_sq <= sigma_sq or seq_id in exact_sq
        )
        return CandidateSet(
            entries=survivors,
            generated=len(candidates),
            sigma_sq=sigma_sq,
            paid=exact_sq,
            top_ubs=tracker.values(),
        )

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        candidates, exact_sq = self._traverse(
            query, lambda: radius, lambda upper: None, stats
        )
        survivors = sorted(
            (lb_sq, seq_id)
            for lb_sq, seq_id in candidates
            if lb_sq <= radius * radius or seq_id in exact_sq
        )
        return CandidateSet(
            entries=survivors,
            generated=len(candidates),
            paid=exact_sq,
        )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Covering-radius and parent-distance invariants, for the tests."""

        def visit(node: _Node, pivot_id: int | None):
            for entry in node.entries:
                if pivot_id is not None:
                    actual = float(
                        np.linalg.norm(
                            self._matrix[entry.pivot_id] - self._matrix[pivot_id]
                        )
                    )
                    assert actual <= entry.parent_distance + 1e-6
                    assert entry.parent_distance <= actual + 1e-6
                if not node.is_leaf:
                    assert entry.child is not None
                    for leaf_id in _collect_ids(entry.child):
                        reach = float(
                            np.linalg.norm(
                                self._matrix[leaf_id]
                                - self._matrix[entry.pivot_id]
                            )
                        )
                        assert reach <= entry.radius + 1e-6, (
                            f"object {leaf_id} outside covering radius"
                        )
                    visit(entry.child, entry.pivot_id)

        def _collect_ids(node: _Node) -> list[int]:
            if node.is_leaf:
                return [entry.pivot_id for entry in node.entries]
            out = []
            for entry in node.entries:
                out.append(entry.pivot_id)
                out.extend(_collect_ids(entry.child))
            return out

        visit(self._root, None)
        # Every database object appears exactly once in the leaves.
        leaf_ids = sorted(_leaf_ids(self._root))
        assert leaf_ids == list(range(len(self)))


def _leaf_ids(node: _Node) -> list[int]:
    if node.is_leaf:
        return [entry.pivot_id for entry in node.entries]
    out: list[int] = []
    for entry in node.entries:
        out.extend(_leaf_ids(entry.child))
    return out
