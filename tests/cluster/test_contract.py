"""The router's contract: a sharded population answers as ``flat`` does.

A :class:`~repro.cluster.ShardRouter` bounds every single query with one
filter over the whole population's sketches, in global-id order, and
verifies through the shards' stores.  So its k-NN and range answers,
names and every :class:`SearchStats` field equal
``get_index("flat", matrix)`` with the same compressor — whatever the
shard backend, the shard count (empty shards included), ``k`` (up to
and past a shard's size), the radius or the policy; built, reopened,
pooled or grown by inserts.  The ``scan`` backend keeps no filter (it is
the paper's baseline), so a scan router equals ``get_index("scan")``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_sharded, open_sharded
from repro.compression.best_k import BestMinErrorCompressor
from repro.engine import ApproxPolicy, get_index, search_many
from repro.timeseries import zscore
from tests.engine.conftest import make_db

BACKENDS = ("flat", "vptree", "mvptree", "mtree", "rtree", "scan")
#: Shard backends that take the caller's ``compressor``.
SKETCH_BACKENDS = ("flat", "vptree", "mvptree")
POLICIES = (
    None,
    ApproxPolicy(epsilon=0.5),
    ApproxPolicy(patience=3),
    ApproxPolicy(epsilon=0.25, patience=5),
)
COMPRESSORS = (None, BestMinErrorCompressor(6))


def reference(backend, matrix, names, compressor=None):
    """The monolithic index a router over ``backend`` must equal."""
    if backend == "scan":
        return get_index("scan", matrix, names=names)
    return get_index("flat", matrix, names=names, compressor=compressor)


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


@settings(max_examples=60, deadline=None)
@given(
    backend=st.sampled_from(BACKENDS),
    count=st.integers(3, 40),
    shards=st.integers(1, 7),
    partition=st.sampled_from(("hash", "round_robin")),
    compressor=st.sampled_from(COMPRESSORS),
    policy=st.sampled_from(POLICIES),
    data=st.data(),
)
def test_router_answers_like_flat(
    backend, count, shards, partition, compressor, policy, data
):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    matrix = make_db(count=count, n=32, seed=seed, duplicates=2)
    names = [f"q{i}" for i in range(count)]
    kwargs = {}
    if compressor is not None and backend in SKETCH_BACKENDS:
        kwargs["compressor"] = compressor
    router = build_sharded(
        matrix, shards=shards, policy=partition, backend=backend,
        names=names, worker_pool=False, **kwargs,
    )
    mono = reference(backend, matrix, names, kwargs.get("compressor"))
    in_db = data.draw(st.booleans(), label="query is a member")
    query = (
        matrix[data.draw(st.integers(0, count - 1), label="member")]
        if in_db
        else zscore(np.random.default_rng(seed + 1).normal(size=32))
    )
    k = data.draw(st.integers(1, count), label="k")
    radius = data.draw(st.floats(0.0, 12.0), label="radius")
    with router:
        assert_answers_alike(router, mono, query, k, radius, policy)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pooled_router_answers_like_flat(matrix, queries, backend):
    names = [f"q{i}" for i in range(len(matrix))]
    mono = reference(backend, matrix, names)
    with build_sharded(
        matrix, shards=3, backend=backend, names=names, worker_pool=True
    ) as router:
        for query in queries:
            for k in (1, 5, 40):  # 40 exceeds every shard's size
                for policy in POLICIES:
                    assert_answers_alike(router, mono, query, k, 8.0, policy)
        # The exact batch runs on the pool: same answers.
        batch = search_many(router, np.stack(queries), k=5)
        assert [snap(result)[0] for result in batch] == [
            snap(mono.search(query, k=5))[0] for query in queries
        ]


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pool"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_reopened_router_answers_like_flat(
    matrix, queries, backend, pooled, tmp_path
):
    """``open_sharded`` rebuilds the filter from the shard stores."""
    names = [f"q{i}" for i in range(len(matrix))]
    build_sharded(
        matrix, shards=4, backend=backend, names=names, directory=tmp_path,
        worker_pool=False,
    ).close()
    # Names are not persisted: a reopened router answers without them.
    mono = reference(backend, matrix, None)
    with open_sharded(tmp_path, worker_pool=pooled) as router:
        for query in queries:
            for policy in (None, ApproxPolicy(epsilon=0.5)):
                assert_answers_alike(router, mono, query, 5, 8.0, policy)


def test_router_after_inserts_answers_like_flat(matrix, queries):
    """A routed insert appends the new row's sketch to the filter."""
    grown = make_db(count=len(matrix) + 7, n=matrix.shape[1], seed=11)
    extra = grown[len(matrix):]
    names = [f"q{i}" for i in range(len(matrix) + len(extra))]
    router = build_sharded(
        matrix, shards=3, backend="vptree", names=names[: len(matrix)],
        worker_pool=False,
    )
    for row, name in zip(extra, names[len(matrix):]):
        router.insert(row, name)
    full = np.vstack([matrix, extra])
    mono = reference("vptree", full, names)
    for query in list(queries) + [extra[3]]:
        for policy in (None, ApproxPolicy(patience=3)):
            assert_answers_alike(router, mono, query, 5, 8.0, policy)
