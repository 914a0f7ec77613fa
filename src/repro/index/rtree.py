"""An R-tree and the classic GEMINI feature-space pipeline.

Section 4 opens by noting that the paper's best-coefficient sketches
"make difficult the use of traditional multidimensional indices such as
the R*-tree" — every object keeps a *different* coefficient subset, so
there is no common low-dimensional feature space to index.  The classic
GEMINI pipeline (Agrawal et al. [1]) has no such problem: every sequence
maps to the same ``2k`` real features (its first ``k`` complex
coefficients), those points go into an R-tree, and the feature-space
Euclidean distance lower-bounds the true distance, so incremental
nearest-neighbour search in feature space plus verification is exact.

This module implements both pieces from scratch:

* :class:`RTree` — a Guttman R-tree (quadratic split) over points, with
  an incremental best-first nearest-neighbour iterator (Hjaltason &
  Samet) driven by MINDIST;
* :class:`GeminiRTreeIndex` — the end-to-end baseline: feature
  extraction, R-tree, and the verify-until-MINDIST-exceeds-best loop.

The ablation benchmark compares it against the paper's compressed
VP-tree, reproducing the motivation for going metric.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.engine.core import CandidateSet
from repro.exceptions import SeriesMismatchError
from repro.index.base import IndexBase
from repro.index.results import SearchStats
from repro.index.walk import code_margin
from repro.spectral.dft import Spectrum
from repro.timeseries.preprocessing import as_float_array

__all__ = [
    "RTree",
    "GeminiRTreeIndex",
    "gemini_features",
    "gemini_features_matrix",
]


@dataclass
class _RNode:
    is_leaf: bool
    # For leaves: (point, row_id); for internal nodes: (child_node,).
    entries: list = field(default_factory=list)
    lower: np.ndarray | None = None  # MBR lower corner
    upper: np.ndarray | None = None  # MBR upper corner


def _mbr_of_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return points.min(axis=0), points.max(axis=0)


def _enlargement(lower, upper, point) -> float:
    """Margin-sum growth needed for an MBR to absorb ``point``.

    Plain area degenerates to zero in high dimensions (every box has some
    flat extent), so the classic margin (perimeter) metric is used.
    """
    new_lower = np.minimum(lower, point)
    new_upper = np.maximum(upper, point)
    return float((new_upper - new_lower).sum() - (upper - lower).sum())


class RTree:
    """A dynamic R-tree over points with incremental NN search.

    Parameters
    ----------
    dimensions:
        Dimensionality of the indexed points.
    capacity:
        Maximum entries per node (minimum fill is ``capacity // 3``).
    """

    def __init__(self, dimensions: int, capacity: int = 16) -> None:
        if dimensions < 1:
            raise ValueError(f"dimensions must be >= 1, got {dimensions}")
        if capacity < 4:
            raise ValueError(f"capacity must be >= 4, got {capacity}")
        self.dimensions = dimensions
        self.capacity = capacity
        self._min_fill = max(capacity // 3, 1)
        self._root = _RNode(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, point, row_id: int) -> None:
        """Insert a point tagged with an integer id."""
        point = as_float_array(point)
        if point.size != self.dimensions:
            raise SeriesMismatchError(
                f"point of dimension {point.size}, tree holds {self.dimensions}"
            )
        path: list[_RNode] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            best, best_growth, best_extent = None, float("inf"), float("inf")
            for (child,) in node.entries:
                growth = _enlargement(child.lower, child.upper, point)
                extent = float((child.upper - child.lower).sum())
                if growth < best_growth or (
                    growth == best_growth and extent < best_extent
                ):
                    best, best_growth, best_extent = child, growth, extent
            node = best
        node.entries.append((point, row_id))
        self._size += 1
        self._refit(node)
        for ancestor in reversed(path):
            self._refit_internal(ancestor)
        self._split_upward(node, path)

    @staticmethod
    def _refit(leaf: _RNode) -> None:
        points = np.stack([point for point, _ in leaf.entries])
        leaf.lower, leaf.upper = _mbr_of_points(points)

    @staticmethod
    def _refit_internal(node: _RNode) -> None:
        lowers = np.stack([child.lower for (child,) in node.entries])
        uppers = np.stack([child.upper for (child,) in node.entries])
        node.lower = lowers.min(axis=0)
        node.upper = uppers.max(axis=0)

    def _split_upward(self, node: _RNode, path: list[_RNode]) -> None:
        while len(node.entries) > self.capacity:
            sibling = self._split(node)
            if path:
                parent = path.pop()
                parent.entries.append((sibling,))
                self._refit_internal(parent)
                node = parent
            else:
                root = _RNode(is_leaf=False)
                root.entries = [(node,), (sibling,)]
                self._refit_internal(root)
                self._root = root
                return

    def _entry_box(self, node: _RNode, position: int):
        if node.is_leaf:
            point = node.entries[position][0]
            return point, point
        child = node.entries[position][0]
        return child.lower, child.upper

    def _split(self, node: _RNode) -> _RNode:
        """Guttman quadratic split; mutates ``node``, returns the sibling."""
        boxes = [self._entry_box(node, i) for i in range(len(node.entries))]
        # Seeds: the pair wasting the most margin when joined.
        best_pair, worst_waste = (0, 1), -float("inf")
        for i, j in itertools.combinations(range(len(boxes)), 2):
            joined = (
                np.maximum(boxes[i][1], boxes[j][1])
                - np.minimum(boxes[i][0], boxes[j][0])
            ).sum()
            waste = float(
                joined
                - (boxes[i][1] - boxes[i][0]).sum()
                - (boxes[j][1] - boxes[j][0]).sum()
            )
            if waste > worst_waste:
                best_pair, worst_waste = (i, j), waste

        seed_a, seed_b = best_pair
        group_a = [node.entries[seed_a]]
        group_b = [node.entries[seed_b]]
        box_a = [np.array(boxes[seed_a][0]), np.array(boxes[seed_a][1])]
        box_b = [np.array(boxes[seed_b][0]), np.array(boxes[seed_b][1])]
        remaining = [
            i for i in range(len(node.entries)) if i not in (seed_a, seed_b)
        ]
        total = len(node.entries)
        for position in remaining:
            lower, upper = boxes[position]
            # Force-assign when a group must take everything left to
            # reach the minimum fill.
            left_needed = self._min_fill - len(group_a)
            right_needed = self._min_fill - len(group_b)
            slots_left = total - len(group_a) - len(group_b)
            if left_needed >= slots_left:
                target, box = group_a, box_a
            elif right_needed >= slots_left:
                target, box = group_b, box_b
            else:
                grow_a = float(
                    (np.maximum(box_a[1], upper) - np.minimum(box_a[0], lower)).sum()
                    - (box_a[1] - box_a[0]).sum()
                )
                grow_b = float(
                    (np.maximum(box_b[1], upper) - np.minimum(box_b[0], lower)).sum()
                    - (box_b[1] - box_b[0]).sum()
                )
                if grow_a <= grow_b:
                    target, box = group_a, box_a
                else:
                    target, box = group_b, box_b
            target.append(node.entries[position])
            box[0] = np.minimum(box[0], lower)
            box[1] = np.maximum(box[1], upper)
            slots_left -= 1

        sibling = _RNode(is_leaf=node.is_leaf)
        node.entries = group_a
        sibling.entries = group_b
        node.lower, node.upper = box_a
        sibling.lower, sibling.upper = box_b
        return sibling

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @staticmethod
    def _mindist(lower, upper, query) -> float:
        below = np.maximum(lower - query, 0.0)
        above = np.maximum(query - upper, 0.0)
        gap = np.maximum(below, above)
        return float(np.sqrt(np.dot(gap, gap)))

    def nearest_iter(self, query, stats: SearchStats | None = None):
        """Yield ``(feature_distance, row_id)`` in increasing order."""
        query = as_float_array(query)
        if query.size != self.dimensions:
            raise SeriesMismatchError(
                f"query of dimension {query.size}, tree holds {self.dimensions}"
            )
        if self._size == 0:
            return
        counter = itertools.count()
        frontier: list[tuple[float, int, bool, object]] = []
        heapq.heappush(frontier, (0.0, next(counter), False, self._root))
        while frontier:
            distance, _, is_point, payload = heapq.heappop(frontier)
            if is_point:
                yield distance, payload
                continue
            node: _RNode = payload
            if stats is not None:
                stats.nodes_visited += 1
            if node.is_leaf:
                for point, row_id in node.entries:
                    gap = query - point
                    point_distance = float(np.sqrt(np.dot(gap, gap)))
                    heapq.heappush(
                        frontier,
                        (point_distance, next(counter), True, row_id),
                    )
            else:
                for (child,) in node.entries:
                    heapq.heappush(
                        frontier,
                        (
                            self._mindist(child.lower, child.upper, query),
                            next(counter),
                            False,
                            child,
                        ),
                    )

    def check_invariants(self) -> None:
        """MBR containment and fill invariants, for the tests."""

        def visit(node: _RNode, depth: int) -> tuple[int, set[int]]:
            assert len(node.entries) <= self.capacity
            ids: set[int] = set()
            if node.is_leaf:
                for point, row_id in node.entries:
                    assert np.all(node.lower - 1e-12 <= point)
                    assert np.all(point <= node.upper + 1e-12)
                    ids.add(row_id)
                return depth, ids
            depths = set()
            for (child,) in node.entries:
                assert np.all(node.lower - 1e-12 <= child.lower)
                assert np.all(child.upper <= node.upper + 1e-12)
                child_depth, child_ids = visit(child, depth + 1)
                depths.add(child_depth)
                ids |= child_ids
            assert len(depths) == 1, "leaves at different depths"
            return depths.pop(), ids

        if self._size:
            _, ids = visit(self._root, 0)
            assert len(ids) == self._size


def gemini_features(values_or_spectrum, k: int) -> np.ndarray:
    """GEMINI feature vector: the first ``k`` coefficients as 2k reals.

    Features are scaled by ``sqrt(weight)`` so the feature-space Euclidean
    distance equals the weighted coefficient-space distance — the quantity
    that provably lower-bounds the true Euclidean distance.
    """
    if isinstance(values_or_spectrum, Spectrum):
        spectrum = values_or_spectrum
    else:
        spectrum = Spectrum.from_series(values_or_spectrum)
    stop = min(1 + k, len(spectrum))
    coeffs = spectrum.coefficients[1:stop]
    scale = np.sqrt(spectrum.weights[1:stop])
    return np.concatenate([scale * coeffs.real, scale * coeffs.imag])


def gemini_features_matrix(matrix: np.ndarray, k: int) -> np.ndarray:
    """Row-wise :func:`gemini_features` of a ``(count, n)`` matrix.

    One ``np.fft.rfft(matrix, axis=1)`` replaces the per-row spectrum
    construction of the scalar helper — the same 1-D transform applied
    to each contiguous row, so the stacked result is bit-identical to
    ``np.stack([gemini_features(row, k) for row in matrix])`` (asserted
    by the index test suite).  The R-tree build uses this to featurise
    the whole database in one pass.
    """
    from repro.spectral.dft import half_weights
    from repro.timeseries.preprocessing import as_float_matrix

    matrix = as_float_matrix(matrix)
    count, n = matrix.shape
    coefficients = np.fft.rfft(matrix, axis=1) / np.sqrt(n)
    stop = min(1 + k, coefficients.shape[1])
    coeffs = coefficients[:, 1:stop]
    scale = np.sqrt(half_weights(n)[1:stop])
    return np.concatenate([scale * coeffs.real, scale * coeffs.imag], axis=1)


class GeminiRTreeIndex(IndexBase):
    """The classic GEMINI pipeline: R-tree over first-k features + verify.

    Exactness follows from the lower-bounding lemma: feature distances
    never exceed true distances, so walking candidates in increasing
    feature distance and stopping when it exceeds the best-so-far true
    distance cannot miss the true neighbours.

    This is the engine's one *streaming* candidate generator: the
    incremental iterator hands ``(LB^2, seq_id)`` pairs to the shared
    verifier (:mod:`repro.engine.core`) lazily, so unvisited members are
    never even bounded.
    """

    obs_name = "index.rtree"

    def __init__(
        self,
        matrix: np.ndarray,
        k: int = 8,
        capacity: int = 16,
        names: Sequence[str] | None = None,
    ) -> None:
        super().__init__(matrix, names)
        self.k = k
        # Featurise the whole database with one batched FFT; the tree
        # inserts stay per-row (insertion order shapes the node splits).
        features = gemini_features_matrix(self._matrix, k)
        self._tree = RTree(dimensions=features.shape[1], capacity=capacity)
        for row_id in range(features.shape[0]):
            self._tree.insert(features[row_id], row_id)
        norms_sq = np.einsum("ij,ij->i", self._matrix, self._matrix)
        self._norm = float(np.sqrt(norms_sq.max(initial=0.0)))

    def _feature_stream(
        self, query: np.ndarray, stats: SearchStats
    ) -> Iterator[tuple[float, int]]:
        """``(feature_distance^2, seq_id)`` in increasing order, lazily,
        each shrunk by the walks' margin ``m``, relative and times the
        norms ``|q| + max |x|`` that a feature's rounding scales with."""
        features = gemini_features(query, self.k)
        margin = code_margin(self._n)
        slack = margin * (float(np.sqrt(np.dot(query, query))) + self._norm)
        for lower, row_id in self._tree.nearest_iter(features, stats):
            stats.bound_computations += 1
            lower = max(lower * (1.0 - margin) - slack, 0.0)
            yield lower * lower, row_id

    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        # Incremental NN yields in increasing feature distance, so the
        # verifier stops (and prunes every unvisited member) as soon as a
        # feature distance exceeds the best k-th true distance.
        return CandidateSet(
            generated=None, stream=self._feature_stream(query, stats)
        )

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        bound_sq = radius * radius
        return CandidateSet(
            generated=None,
            stream=itertools.takewhile(
                lambda pair: pair[0] <= bound_sq,
                self._feature_stream(query, stats),
            ),
        )
