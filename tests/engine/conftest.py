"""Shared workloads for the engine tests.

The agreement suite needs databases with *exact* distance ties, so the
generator duplicates a handful of rows bit-for-bit: every index verifies
through the same squared-distance arithmetic, so tied members must come
back in the same (id-ordered) sequence everywhere.
"""

import numpy as np
import pytest

from repro.engine import available_indexes
from repro.timeseries import zscore


def make_db(count=96, n=64, seed=0, duplicates=6):
    """A mixed random/walk/seasonal database with duplicated rows.

    The last ``duplicates`` rows are bit-identical copies of the first
    ones, forcing distance ties for every query.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = []
    for i in range(count - duplicates):
        kind = i % 4
        if kind == 0:
            row = rng.normal(size=n)
        elif kind == 1:
            row = np.cumsum(rng.normal(size=n))
        else:
            period = [7, 30][kind - 2]
            row = np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) + (
                0.4 * rng.normal(size=n)
            )
        rows.append(zscore(row))
    for i in range(duplicates):
        rows.append(rows[i].copy())
    return np.array(rows)


#: Every structure but the router itself: what a sharded population's
#: exact answers must equal.
STRUCTURES = tuple(name for name in available_indexes() if name != "sharded")


def shard_backend(structure: str) -> str:
    """The shard backend of a router compared with ``structure``.

    A shard is its rows and its slice of the row codes (``flat``) or its
    rows alone (``scan``, the unfiltered baseline).  Sharded-vs-
    monolithic suites keep a structure dimension — a router's exact
    answers must equal every structure's, which checks the router
    against implementations that share none of its filter — and build
    the router over ``scan`` shards for the scan baseline and ``flat``
    shards for every filtered structure.
    """
    return "scan" if structure == "scan" else "flat"


def answers(hits):
    """A result list as ``(distance, seq_id)`` pairs."""
    return [(h.distance, h.seq_id) for h in hits]


@pytest.fixture(scope="package")
def matrix():
    return make_db()


@pytest.fixture(scope="package")
def queries(matrix):
    rng = np.random.default_rng(7)
    out_of_db = [zscore(rng.normal(size=matrix.shape[1])) for _ in range(3)]
    # In-database queries hit the duplicated rows, so ties are guaranteed.
    return out_of_db + [matrix[0].copy(), matrix[1].copy()]
