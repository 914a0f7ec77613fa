"""Cross-index agreement: every registry entry answers byte-identically.

The engine verifies every candidate through the same squared-distance
arithmetic, so against any database — including one with bit-identical
duplicated rows — every registry entry must return *the same* neighbour
list as brute force: same ids, same order, same distance floats.  Ties
break by sequence id everywhere.
"""

import math

import pytest

from repro.engine import available_indexes, get_index
from repro.index.distance import euclidean_early_abandon_sq

ALL_NAMES = ("flat", "vptree", "mvptree", "mtree", "rtree", "scan", "sharded")


def brute_force_knn(matrix, query, k):
    """Canonical ``(distance, seq_id)`` truth under engine arithmetic."""
    exact = sorted(
        (euclidean_early_abandon_sq(query, row, math.inf), seq_id)
        for seq_id, row in enumerate(matrix)
    )
    return [(math.sqrt(d_sq), seq_id) for d_sq, seq_id in exact[:k]]


def brute_force_range(matrix, query, radius):
    """Every row whose reported distance is at most ``radius``."""
    return sorted(
        (distance, seq_id)
        for seq_id, row in enumerate(matrix)
        for distance in [
            math.sqrt(euclidean_early_abandon_sq(query, row, math.inf))
        ]
        if distance <= radius
    )


def test_fixture_actually_has_ties(matrix):
    twin = len(matrix) - 6
    assert matrix[0].tobytes() == matrix[twin].tobytes()


def test_registry_covers_every_backend():
    assert set(ALL_NAMES) == set(available_indexes())


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_knn_byte_identical_to_brute_force(matrix, queries, name, k):
    index = get_index(name, matrix)
    for query in queries:
        truth = brute_force_knn(matrix, query, k)
        hits, _ = index.search(query, k=k)
        got = [(h.distance, h.seq_id) for h in hits]
        # Byte-identical: ids AND exact float distances, no tolerance.
        assert got == truth, f"{name}, k={k}"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_range_identical_to_brute_force(matrix, queries, name):
    index = get_index(name, matrix)
    for query in queries:
        # A radius placed to capture a non-trivial, non-total subset.
        distances = [d for d, _ in brute_force_knn(matrix, query, len(matrix))]
        for radius in (distances[4], distances[len(matrix) // 2], 0.0):
            truth = brute_force_range(matrix, query, radius)
            hits, stats = index.range_search(query, radius=radius)
            got = [(h.distance, h.seq_id) for h in hits]
            assert got == truth, f"{name}, radius={radius}"
            assert (
                stats.candidates_pruned + stats.full_retrievals
                == len(matrix)
            )


@pytest.mark.parametrize("k", [1, 3])
def test_tied_duplicates_rank_by_id_in_every_index(matrix, k):
    twin = len(matrix) - 6
    expected = brute_force_knn(matrix, matrix[0], k)
    assert expected[0][1] == 0
    if k > 1:
        assert expected[1] == (0.0, twin)
    for name in ALL_NAMES:
        hits, _ = get_index(name, matrix).search(matrix[0], k=k)
        assert [(h.distance, h.seq_id) for h in hits] == expected, name
