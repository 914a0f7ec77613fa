"""Building to disk and reopening: per-shard page files + manifest."""

import dataclasses
import os

import numpy as np
import pytest

from repro.cluster import Partitioner, build_sharded, open_sharded
from repro.cluster.manifest import MANIFEST_NAME
from repro.engine import available_indexes
from repro.exceptions import CorruptionError, ReproError
from repro.storage.pagestore import SequencePageStore
from tests.index.fig11_reference import vantage_ids

SHARD_BACKENDS = tuple(
    name for name in available_indexes() if name != "sharded"
)


def test_build_writes_one_file_per_shard_plus_manifest(matrix, tmp_path):
    with build_sharded(
        matrix, shards=3, backend="flat", directory=tmp_path
    ) as router:
        assert len(router) == len(matrix)
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "shard-00.pages",
        "shard-01.pages",
        "shard-02.pages",
        MANIFEST_NAME,
    ]


@pytest.mark.parametrize("backend", ["flat", "vptree", "scan"])
def test_round_trip_is_bit_identical(matrix, queries, backend, tmp_path):
    with build_sharded(
        matrix, shards=3, backend=backend, directory=tmp_path, seed=4
    ) as router:
        expected = [router.search(query, k=5) for query in queries]
    with open_sharded(tmp_path) as reopened:
        assert len(reopened) == len(matrix)
        for query, (hits, _) in zip(queries, expected):
            got, _ = reopened.search(query, k=5)
            assert [(h.distance, h.seq_id) for h in got] == [
                (h.distance, h.seq_id) for h in hits
            ]


#: Counters of how much of a candidate *stream* was bounded.  The R-tree
#: streams lazily in process (members the verifier never reaches are
#: never bounded), and a worker must materialise the stream to ship it.
STREAM_COUNTERS = (
    "bound_computations",
    "candidates_after_traversal",
    "candidates_after_sub_filter",
)


def _answers(router, queries, radii):
    """k-NN and range answers, names and every SearchStats field."""
    with router:
        return [
            (
                [(h.distance, h.seq_id, h.name) for h in hits],
                dataclasses.asdict(stats),
            )
            for query, radius in zip(queries, radii)
            for hits, stats in (
                router.search(query, k=5),
                router.range_search(query, radius),
            )
        ]


def _without(answers, fields):
    return [
        (hits, {k: v for k, v in stats.items() if k not in fields})
        for hits, stats in answers
    ]


@pytest.mark.parametrize("backend", SHARD_BACKENDS)
def test_every_router_over_one_directory_agrees(
    matrix, queries, backend, tmp_path
):
    """Serial or pooled, built or reopened: one directory, one answer.

    A reopen equals its transport's build on every field; the two
    transports equal each other on every field but a streaming
    backend's stream counters.
    """

    def build(worker_pool):
        return build_sharded(
            matrix, shards=3, backend=backend, seed=3,
            directory=tmp_path, worker_pool=worker_pool,
        )

    with build(False) as router:
        radii = [router.search(q, k=5)[0][-1].distance * 1.1 for q in queries]
    serial_build = _answers(build(False), queries, radii)
    pooled_build = _answers(build(True), queries, radii)
    serial_open = _answers(
        open_sharded(tmp_path, worker_pool=False), queries, radii
    )
    pooled_open = _answers(
        open_sharded(tmp_path, worker_pool=True), queries, radii
    )
    assert serial_open == serial_build
    assert pooled_open == pooled_build
    skip = STREAM_COUNTERS if backend == "rtree" else ()
    assert _without(pooled_build, skip) == _without(serial_build, skip)


def test_reopen_reseeds_the_trees_from_the_manifest(matrix, tmp_path):
    with build_sharded(
        matrix, shards=2, backend="vptree", seed=3, leaf_size=2,
        directory=tmp_path, worker_pool=False,
    ) as built:
        expected = [vantage_ids(sub) for sub, _ in built.shard_views()]
    with open_sharded(tmp_path, worker_pool=False, leaf_size=2) as reopened:
        assert [
            vantage_ids(sub) for sub, _ in reopened.shard_views()
        ] == expected


def test_reopen_with_a_different_backend(matrix, queries, tmp_path):
    with build_sharded(
        matrix, shards=2, backend="flat", directory=tmp_path
    ) as router:
        expected, _ = router.search(queries[0], k=3)
    with open_sharded(tmp_path, backend="scan") as reopened:
        got, _ = reopened.search(queries[0], k=3)
    assert [(h.distance, h.seq_id) for h in got] == [
        (h.distance, h.seq_id) for h in expected
    ]


def test_matrix_backed_backend_round_trips(matrix, queries, tmp_path):
    """Backends without a ``store=`` hook still persist via shard files."""
    build_sharded(
        matrix, shards=2, backend="mtree", directory=tmp_path
    ).close()
    with open_sharded(tmp_path) as reopened:
        got, _ = reopened.search(queries[0], k=3)
    assert got[0].distance >= 0.0
    assert len(got) == 3


def test_empty_shards_round_trip(tmp_path):
    tiny = np.eye(3, 32)
    build_sharded(
        tiny, shards=5, policy="round_robin", backend="flat",
        directory=tmp_path,
    ).close()
    with open_sharded(tmp_path) as reopened:
        assert len(reopened) == 3
        assert reopened.shard_count == 5
        hits, _ = reopened.search(tiny[1], k=1)
        assert hits[0].seq_id == 1


def test_tampered_manifest_is_refused(matrix, tmp_path):
    build_sharded(
        matrix, shards=2, backend="flat", directory=tmp_path
    ).close()
    path = tmp_path / MANIFEST_NAME
    raw = path.read_bytes()
    flipped = raw.replace(b'"policy"', b'"Policy"', 1)
    assert flipped != raw
    path.write_bytes(flipped)
    with pytest.raises(CorruptionError):
        open_sharded(tmp_path)


@pytest.mark.parametrize("worker_pool", [False, True])
def test_shard_file_count_mismatch_is_refused(matrix, tmp_path, worker_pool):
    build_sharded(
        matrix, shards=2, backend="flat", directory=tmp_path
    ).close()
    # Rewrite shard 0's file with too few sequences (valid pagestore,
    # wrong population) — the manifest cross-check must catch it.
    with SequencePageStore(
        str(tmp_path / "shard-00.pages"), matrix.shape[1]
    ) as store:
        store.append_matrix(matrix[:1])
    with pytest.raises(CorruptionError, match="manifest says") as refused:
        open_sharded(tmp_path, worker_pool=worker_pool)
    expected = Partitioner(2).members(len(matrix))[0].size
    assert type(refused.value) is CorruptionError
    assert str(refused.value) == (
        f"shard file shard-00.pages holds 1 sequences, "
        f"manifest says {expected}"
    )


def test_sharded_backend_is_rejected_as_shard_backend(matrix, tmp_path):
    with pytest.raises(ReproError, match="cannot themselves"):
        build_sharded(matrix, shards=2, backend="sharded")
