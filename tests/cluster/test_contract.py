"""The router's contract: a sharded population answers as one index does.

A shard is its rows and its slice of the population's row codes
(``flat``) or its rows alone (``scan``).  A
:class:`~repro.cluster.ShardRouter` over flat shards bounds every single
query with one filter over the whole population's codes, in global-id
order, and verifies through the shards' stores, so its k-NN and range
answers, names and every :class:`SearchStats` field equal
``get_index("flat", matrix)``.  A scan router keeps no filter (it is the
paper's baseline) and equals ``get_index("scan", matrix)``.  That holds
whatever the shard count (empty shards included), ``k`` (up to and past
a shard's size), the radius or the policy; built or reopened, serial or
pooled, and grown by routed inserts.  The parametrised suites below also
hold the router's answers to every monolithic structure's.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_sharded, open_sharded
from repro.compression.codes import RowCodes
from repro.engine import ApproxPolicy, get_index, search_many
from repro.exceptions import ReproError
from repro.timeseries import zscore
from tests.engine.conftest import STRUCTURES, answers, make_db, shard_backend

POLICIES = (None, ApproxPolicy(epsilon=0.5))


def snap(result):
    hits, stats = result
    return (
        [(h.distance, h.seq_id, h.name) for h in hits],
        dataclasses.asdict(stats),
    )


def assert_answers_alike(router, mono, query, k, radius, policy=None):
    assert snap(router.search(query, k=k, policy=policy)) == snap(
        mono.search(query, k=k, policy=policy)
    )
    assert snap(router.range_search(query, radius, policy=policy)) == snap(
        mono.range_search(query, radius, policy=policy)
    )


def assert_answers_like_structure(router, structure, query):
    """Exact answers equal the monolithic ``structure`` index's."""
    assert answers(router.search(query, k=5)[0]) == answers(
        structure.search(query, k=5)[0]
    )
    assert answers(router.range_search(query, 8.0)[0]) == answers(
        structure.range_search(query, 8.0)[0]
    )


@settings(max_examples=60, deadline=None)
@given(
    backend=st.sampled_from(("flat", "scan")),
    count=st.integers(3, 40),
    shards=st.integers(1, 7),
    partition=st.sampled_from(("hash", "round_robin")),
    pooled=st.booleans(),
    reopened=st.booleans(),
    inserts=st.integers(0, 6),
    policy=st.sampled_from(POLICIES),
    data=st.data(),
)
def test_router_answers_like_flat(
    tmp_path_factory, backend, count, shards, partition, pooled, reopened,
    inserts, policy, data,
):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    full = make_db(count=count + inserts, n=32, seed=seed, duplicates=2)
    matrix = full[:count]
    # Names are not persisted: a reopened router answers without them.
    names = None if reopened else [f"q{i}" for i in range(len(full))]
    directory = tmp_path_factory.mktemp("shards") if reopened else None
    router = build_sharded(
        matrix, shards=shards, policy=partition, backend=backend,
        names=names[:count] if names else None, directory=directory,
        worker_pool=pooled and not reopened,
    )
    if reopened:
        router.close()
        router = open_sharded(directory, worker_pool=pooled)
    with router:
        # Only a serial router over flat shards can insert.
        assert router.supports_insert == (backend == "flat" and not pooled)
        if router.supports_insert:
            for gid in range(count, len(full)):
                name = names[gid] if names else None
                assert router.insert(full[gid], name) == gid
        else:
            with pytest.raises(ReproError, match="cannot insert"):
                router.insert(full[0])
            full = matrix
        mono = get_index(
            backend, full, names=names[: len(full)] if names else None
        )
        in_db = data.draw(st.booleans(), label="query is a member")
        query = (
            full[data.draw(st.integers(0, len(full) - 1), label="member")]
            if in_db
            else zscore(np.random.default_rng(seed + 1).normal(size=32))
        )
        k = data.draw(st.integers(1, len(full)), label="k")
        radius = data.draw(st.floats(0.0, 12.0), label="radius")
        assert_answers_alike(router, mono, query, k, radius, policy)


@pytest.mark.parametrize("backend", STRUCTURES)
def test_pooled_router_answers_like_flat(matrix, queries, backend):
    names = [f"q{i}" for i in range(len(matrix))]
    shard = shard_backend(backend)
    mono = get_index(shard, matrix, names=names)
    structure = get_index(backend, matrix)
    with build_sharded(
        matrix, shards=3, backend=shard, names=names, worker_pool=True
    ) as router:
        for query in queries:
            for k in (1, 5, 40):  # 40 exceeds every shard's size
                for policy in POLICIES:
                    assert_answers_alike(router, mono, query, k, 8.0, policy)
            assert_answers_like_structure(router, structure, query)
        # The exact batch runs on the pool: same answers.
        batch = search_many(router, np.stack(queries), k=5)
        assert [snap(result)[0] for result in batch] == [
            snap(mono.search(query, k=5))[0] for query in queries
        ]


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("backend", STRUCTURES)
def test_reopened_router_answers_like_flat(
    matrix, queries, backend, pooled, tmp_path
):
    """``open_sharded`` rebuilds the filter from the shard stores."""
    shard = shard_backend(backend)
    build_sharded(
        matrix, shards=4, backend=shard, directory=tmp_path,
        names=[f"q{i}" for i in range(len(matrix))], worker_pool=False,
    ).close()
    mono = get_index(shard, matrix)
    structure = get_index(backend, matrix)
    with open_sharded(tmp_path, worker_pool=pooled) as router:
        for query in queries:
            for policy in POLICIES:
                assert_answers_alike(router, mono, query, 5, 8.0, policy)
            assert_answers_like_structure(router, structure, query)


def test_router_after_inserts_answers_like_flat(matrix, queries):
    """A routed insert stores the row on its shard and appends its code
    to the filter."""
    grown = make_db(count=len(matrix) + 7, n=matrix.shape[1], seed=11)
    extra = grown[len(matrix):]
    names = [f"q{i}" for i in range(len(matrix) + len(extra))]
    router = build_sharded(
        matrix, shards=3, backend="flat", names=names[: len(matrix)],
        worker_pool=False,
    )
    for row, name in zip(extra, names[len(matrix):]):
        router.insert(row, name)
    full = np.vstack([matrix, extra])
    mono = get_index("flat", full, names=names)
    for query in list(queries) + [extra[3]]:
        assert_answers_alike(router, mono, query, 5, 8.0)


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
def test_reopen_quantises_each_row_once(matrix, tmp_path, pooled, monkeypatch):
    """A reopen reads the shard files and quantises the population once:
    the router's filter and every flat shard's codes are that one pass.

    The count lives in shared memory, so a forked worker that quantised
    its shard again would be caught too.
    """
    build_sharded(
        matrix, shards=3, directory=tmp_path, worker_pool=False
    ).close()
    rows_quantised = multiprocessing.Value("q", 0)
    from_matrix = RowCodes.from_matrix.__func__

    def counting(cls, rows):
        with rows_quantised.get_lock():
            rows_quantised.value += len(rows)
        return from_matrix(cls, rows)

    monkeypatch.setattr(RowCodes, "from_matrix", classmethod(counting))
    with open_sharded(tmp_path, worker_pool=pooled) as router:
        assert rows_quantised.value == len(matrix)
        if not pooled:
            for sub, ids in router.shard_views():
                assert np.array_equal(
                    sub.row_codes.codes, router.row_codes.codes[ids]
                )
