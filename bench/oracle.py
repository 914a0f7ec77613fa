"""Brute-force oracles and the checks every answer goes through.

Each ``check_*`` returns ``None`` when the answer is right and a one-line
reason when it is wrong; the caller counts a reason as a failed
operation.  Nothing here calls the system under test: the oracle is
numpy over the raw matrix.
"""

from __future__ import annotations

import numpy as np

#: Distances must agree with the oracle to this absolute tolerance.
TOL = 1e-9
#: A member this close to a range radius may fall on either side.
EDGE = 1e-7


class KnnOracle:
    """Exact Euclidean neighbours of each query, by scanning every row."""

    def __init__(self, matrix: np.ndarray, queries: np.ndarray, k: int) -> None:
        self.matrix = matrix
        self.queries = queries
        self.k = k
        # The expansion |q|^2 + |x|^2 - 2qx ranks every row cheaply; the
        # head of that ranking is then recomputed as sum((x - q)^2), the
        # form the engine's own kernel uses, so distances match to TOL.
        approx = (
            np.einsum("ij,ij->i", queries, queries)[:, None]
            + np.einsum("ij,ij->i", matrix, matrix)[None, :]
            - 2.0 * queries @ matrix.T
        )
        np.maximum(approx, 0.0, out=approx)
        self.all_distances = np.sqrt(approx)
        head = min(len(matrix), 4 * k + 16)
        nearest = np.argpartition(approx, head - 1, axis=1)[:, :head]
        self.top_distances = np.empty((len(queries), k))
        for i, (query, ids) in enumerate(zip(queries, nearest)):
            exact = np.sqrt(((matrix[ids] - query) ** 2).sum(axis=1))
            self.top_distances[i] = np.sort(exact)[:k]

    def distance(self, query_index: int, seq_id: int) -> float:
        diff = self.matrix[seq_id] - self.queries[query_index]
        return float(np.sqrt(diff @ diff))

    def kth(self, query_index: int, k: int) -> float:
        return float(self.top_distances[query_index, k - 1])

    def _check_reported(self, query_index: int, neighbors) -> str | None:
        ids = [n.seq_id for n in neighbors]
        if len(set(ids)) != len(ids):
            return "duplicate ids in answer"
        for n in neighbors:
            true = self.distance(query_index, n.seq_id)
            if abs(true - n.distance) > TOL:
                return (
                    f"id {n.seq_id}: reported {n.distance!r}, "
                    f"true distance {true!r}"
                )
        return None

    def check_knn(self, query_index: int, neighbors, k: int) -> str | None:
        """Exact k-NN: same distances as the oracle, ids up to ties."""
        if len(neighbors) != k:
            return f"expected {k} neighbours, got {len(neighbors)}"
        wrong = self._check_reported(query_index, neighbors)
        if wrong:
            return wrong
        got = np.array([n.distance for n in neighbors])
        if np.any(np.diff(got) < 0):
            return "answer is not sorted by distance"
        want = self.top_distances[query_index, :k]
        if np.max(np.abs(got - want)) > TOL:
            return f"distances {got.tolist()} differ from oracle {want.tolist()}"
        return None

    def check_range(self, query_index: int, neighbors, radius: float) -> str | None:
        """Exact range: every member inside, none outside, edge tolerant."""
        wrong = self._check_reported(query_index, neighbors)
        if wrong:
            return wrong
        distances = self.all_distances[query_index]
        got = {n.seq_id for n in neighbors}
        must = set(np.flatnonzero(distances < radius - EDGE).tolist())
        may = set(np.flatnonzero(distances <= radius + EDGE).tolist())
        if not must <= got:
            return f"range answer misses ids {sorted(must - got)[:5]}"
        if not got <= may:
            return f"range answer holds outsiders {sorted(got - may)[:5]}"
        return None

    def check_approx(
        self, query_index: int, neighbors, k: int, epsilon: float, stats
    ) -> str | None:
        """Approximate k-NN: true reported distances, (1+eps) bound.

        A patience stop carries no distance guarantee (docs/APPROX.md),
        so the bound is checked only when refinement ran to its
        eps-relaxed end; recall measures the rest.
        """
        wrong = self._check_reported(query_index, neighbors)
        if wrong:
            return wrong
        if stats.stopped_early:
            return None
        if len(neighbors) != k:
            return f"expected {k} neighbours, got {len(neighbors)}"
        worst = max(n.distance for n in neighbors)
        limit = (1.0 + epsilon) * self.kth(query_index, k) + TOL
        if worst > limit:
            return f"reported {worst!r} exceeds (1+eps)*k-th = {limit!r}"
        return None

    def recall(self, query_index: int, neighbors, k: int) -> float:
        """Share of the true k nearest (ties counted) that were returned."""
        cutoff = self.kth(query_index, k) + TOL
        hits = sum(
            1 for n in neighbors
            if self.distance(query_index, n.seq_id) <= cutoff
        )
        return min(hits, k) / k


def check_invariant(stats, size: int) -> str | None:
    """Every member is pruned, retrieved, quarantined or approx-skipped."""
    total = (
        stats.candidates_pruned
        + stats.full_retrievals
        + stats.quarantined
        + stats.skipped_approx
    )
    if total != size:
        return f"pruning invariant: {total} accounted for, {size} members"
    if stats.degraded:
        return "answer is flagged degraded"
    return None


def check_named_knn(matrix, names, query, neighbors, k: int) -> str | None:
    """k-NN over a named population (the stream store's answers).

    ``matrix`` holds the z-scored rows the store should be serving and
    ``names`` their names; the answer is right when its names map to
    rows at the reported distances and those are the k smallest.
    """
    if len(neighbors) != min(k, len(matrix)):
        return f"expected {min(k, len(matrix))} neighbours, got {len(neighbors)}"
    row_of = {name: i for i, name in enumerate(names)}
    distances = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    for n in neighbors:
        row = row_of.get(n.name)
        if row is None:
            return f"answer names unknown series {n.name!r}"
        if abs(distances[row] - n.distance) > TOL:
            return (
                f"{n.name!r}: reported {n.distance!r}, "
                f"true distance {float(distances[row])!r}"
            )
    want = np.sort(distances)[: len(neighbors)]
    got = np.array([n.distance for n in neighbors])
    if np.max(np.abs(got - want)) > TOL:
        return f"distances {got.tolist()} differ from scan {want.tolist()}"
    return None
