"""A range search at the k-th distance a k-NN search reported returns
every member of that k-NN answer.

Range answers admit a row on the distance they report, ``sqrt(d_sq) <=
radius``.  Admitting on ``d_sq <= radius * radius`` instead drops the
k-th neighbour whenever ``sqrt(d_sq) ** 2`` rounds below ``d_sq``, which
on these walks is about one query in four.
"""

import numpy as np
import pytest

from repro.engine import available_indexes, get_index
from repro.timeseries import zscore

BLOCK_SIZES = (0, 3, 256)


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(7)

    def walk():
        return zscore(np.cumsum(rng.normal(size=256)))

    database = np.array([walk() for _ in range(50)])
    queries = [walk() for _ in range(200)]
    return database, queries


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize("name", available_indexes())
def test_range_at_the_kth_distance_holds_the_knn_answer(
    walks, name, block, monkeypatch
):
    monkeypatch.setenv("REPRO_VERIFY_BLOCK", str(block))
    database, queries = walks
    index = get_index(name, database)
    dropped = []
    for number, query in enumerate(queries):
        hits, _ = index.search(query, k=5)
        answer, _ = index.range_search(query, hits[-1].distance)
        if not {h.seq_id for h in hits} <= {h.seq_id for h in answer}:
            dropped.append(number)
    assert dropped == [], f"{len(dropped)} of {len(queries)} queries"
