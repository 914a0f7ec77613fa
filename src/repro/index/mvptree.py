"""A multi-vantage-point (MVP) tree over compressed representations.

Section 4.1 notes that "all possible extensions to the VP-tree, such as
the usage of multiple vantage points [3] ... can be implemented on top of
the proposed search mechanisms".  This module does exactly that,
following Bozkaya & Ozsoyoglu: every internal node holds *two* vantage
points; the first partitions the points by its median distance, and each
half is partitioned again by its own median distance to the second
vantage point, yielding four children per node.

The payoff: one extra object examined per node (the second vantage
point) buys two independent pruning tests per quadrant — each quadrant
can be discarded by *either* vantage point's annulus condition.  The same
bound sources, one-pass bounds and margin (:mod:`repro.index.walk`) and
two-phase (traverse + SUB-filter + verify) search of the VP-tree are
reused verbatim, which is precisely the paper's point.

The ablation benchmark compares its search work against the binary
VP-tree at identical storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.core import CandidateSet
from repro.index.base import SketchIndexBase
from repro.index.distance import distances_to_query
from repro.index.results import SearchStats
from repro.index.walk import BoundedWalk

__all__ = ["MVPTreeIndex"]


@dataclass
class _Leaf:
    rows: np.ndarray


@dataclass
class _Quadrant:
    """One of the four children with its defining split bounds."""

    first_side_low: bool  # d(x, vp1) <= median1 ?
    second_median: float
    second_side_low: bool  # d(x, vp2) <= second_median ?
    child: "_Node | _Leaf"


@dataclass
class _Node:
    first_id: int
    second_id: int
    first_median: float
    quadrants: list[_Quadrant]


class MVPTreeIndex(SketchIndexBase):
    """Four-way MVP-tree with compressed vantage points.

    The constructor arguments mirror :class:`repro.index.VPTreeIndex`.
    Like every structure here, it only *generates* candidates; exact
    verification runs in the shared engine core
    (:mod:`repro.engine.core`).
    """

    obs_name = "index.mvptree"

    def __init__(
        self,
        matrix: np.ndarray,
        compressor=None,
        names: Sequence[str] | None = None,
        store=None,
        bound_method: str | None = None,
        leaf_size: int = 16,
        seed: int = 0,
    ) -> None:
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        super().__init__(matrix, compressor, names, store, bound_method)
        self._leaf_size = leaf_size
        self._rng = np.random.default_rng(seed)
        self._root = self._build(np.arange(self._count), self._matrix)
        self._matrix = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, ids: np.ndarray, rows: np.ndarray):
        # Four-way splits need enough points for two vantage points and
        # four non-trivial quadrants.
        if ids.size <= max(self._leaf_size, 4):
            return _Leaf(rows=ids.copy())
        # First vantage point: random (the classic mvp-tree choice);
        # second: the point farthest from the first.
        first_pos = int(self._rng.integers(ids.size))
        first_distances = distances_to_query(rows, rows[first_pos])
        first_distances[first_pos] = -1.0  # exclude self from the argmax
        second_pos = int(np.argmax(first_distances))

        keep = np.ones(ids.size, dtype=bool)
        keep[[first_pos, second_pos]] = False
        rest_ids = ids[keep]
        rest_rows = rows[keep]
        to_first = distances_to_query(rest_rows, rows[first_pos])
        to_second = distances_to_query(rest_rows, rows[second_pos])

        first_median = float(np.median(to_first))
        low = to_first <= first_median
        if low.all() or not low.any():
            order = np.argsort(to_first, kind="stable")
            low = np.zeros(rest_ids.size, dtype=bool)
            low[order[: rest_ids.size // 2]] = True

        quadrants = []
        for first_side_low, half in ((True, low), (False, ~low)):
            half_second = to_second[half]
            if half_second.size == 0:
                continue
            second_median = float(np.median(half_second))
            inner_low = half_second <= second_median
            if inner_low.all() or not inner_low.any():
                order = np.argsort(half_second, kind="stable")
                inner_low = np.zeros(half_second.size, dtype=bool)
                inner_low[order[: half_second.size // 2]] = True
            half_ids = rest_ids[half]
            half_rows = rest_rows[half]
            for second_side_low, quarter in (
                (True, inner_low),
                (False, ~inner_low),
            ):
                if not quarter.any():
                    continue
                quadrants.append(
                    _Quadrant(
                        first_side_low=first_side_low,
                        second_median=second_median,
                        second_side_low=second_side_low,
                        child=self._build(
                            half_ids[quarter], half_rows[quarter]
                        ),
                    )
                )
        return _Node(
            first_id=int(ids[first_pos]),
            second_id=int(ids[second_pos]),
            first_median=first_median,
            quadrants=quadrants,
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @staticmethod
    def _side_min_distance(
        walk: BoundedWalk, vantage: int, median: float, side_low: bool
    ) -> float:
        """Lower bound on D(Q, x) for x on one side of a vantage median,
        each term scaled by the walk's margin."""
        if side_low:  # d(x, vp) <= median  =>  D >= LB(Q,vp) - median
            return walk.lower[vantage] * walk.shrink - median * walk.grow
        # d(x, vp) > median  =>  D >= median - UB(Q,vp)
        return median * walk.shrink - walk.upper[vantage] * walk.grow

    def _walk(self, node, walk: BoundedWalk, limit=None) -> None:
        """Visit the quadrants whose members may be within ``limit``, or,
        with ``limit=None`` (k-NN), within the walk's current ``sigma``,
        which earlier quadrants tighten."""
        walk.stats.nodes_visited += 1
        if isinstance(node, _Leaf):
            walk.examine(node.rows.tolist())
            return
        walk.examine((node.first_id, node.second_id))
        side = self._side_min_distance
        for quadrant in node.quadrants:
            by_first = side(walk, node.first_id, node.first_median,
                            quadrant.first_side_low)
            by_second = side(walk, node.second_id, quadrant.second_median,
                             quadrant.second_side_low)
            if max(by_first, by_second) > (
                walk.sigma if limit is None else limit
            ):
                walk.stats.subtrees_pruned += 1
                continue
            self._walk(quadrant.child, walk, limit)

    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        walk = self._begin_walk(query, stats, k)
        self._walk(self._root, walk)
        return walk.knn_result()

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        """Fixed-radius traversal: a quadrant is skipped when *either*
        vantage point's annulus condition proves every member farther
        than ``radius``."""
        walk = self._begin_walk(query, stats)
        self._walk(self._root, walk, radius)
        return walk.range_result(radius)
