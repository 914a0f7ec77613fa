"""Burst similarity measures (section 6.3).

Between two burst sets :math:`B^{(X)}` and :math:`B^{(Y)}`:

.. math::

    BSim = \\sum_i \\sum_j intersect(B^{(X)}_i, B^{(Y)}_j)
                     \\cdot similarity(B^{(X)}_i, B^{(Y)}_j)

where ``similarity`` compares average burst values,

.. math:: similarity(A, B) = \\frac{1}{1 + |avg(A) - avg(B)|},

(the paper omits the absolute value, but a *similarity* must not exceed 1
nor blow up when the difference approaches -1, so the distance in the
denominator is read as :math:`|\\cdot|`), and ``intersect`` is the
symmetric degree of temporal overlap,

.. math:: intersect(A, B) = \\tfrac{1}{2}
          \\left( \\frac{overlap(A,B)}{|A|} + \\frac{overlap(A,B)}{|B|}
          \\right).

``overlap`` counts the days two (inclusive) bursts share — fig. 17.
"""

from __future__ import annotations

from typing import Sequence

from repro.bursts.compaction import Burst

__all__ = ["overlap", "intersect", "value_similarity", "burst_similarity"]


def overlap(a: Burst, b: Burst) -> int:
    """Days shared by two bursts (0 when disjoint) — fig. 17."""
    shared = min(a.end, b.end) - max(a.start, b.start) + 1
    return max(shared, 0)


def intersect(a: Burst, b: Burst) -> float:
    """Symmetric overlap degree in ``[0, 1]``."""
    shared = overlap(a, b)
    if shared == 0:
        return 0.0
    return 0.5 * (shared / len(a) + shared / len(b))


def value_similarity(a: Burst, b: Burst) -> float:
    """Closeness of the average burst values, in ``(0, 1]``."""
    return 1.0 / (1.0 + abs(a.average - b.average))


def burst_similarity(
    bursts_x: Sequence[Burst], bursts_y: Sequence[Burst]
) -> float:
    """``BSim`` between two burst feature sets.

    Zero when either set is empty or no bursts overlap; symmetric in its
    arguments.  Only overlapping pairs contribute, so sequences that burst
    at the same time with similar (standardised) intensity score highest.
    """
    # ``intersect * value_similarity`` of the single-pair forms, inlined:
    # same operations in the same pair order, so the float sum is theirs.
    total = 0.0
    for a in bursts_x:
        a_start, a_end, a_average = a.start, a.end, a.average
        a_length = a_end - a_start + 1
        for b in bursts_y:
            b_start, b_end = b.start, b.end
            if b_end < a_start or a_end < b_start:
                continue
            shared = (
                (a_end if a_end < b_end else b_end)
                - (a_start if a_start > b_start else b_start)
                + 1
            )
            weight = 0.5 * (shared / a_length + shared / (b_end - b_start + 1))
            total += weight * (1.0 / (1.0 + abs(a_average - b.average)))
    return total
