"""Building to disk and reopening: per-shard page files + manifest."""

import dataclasses
import os

import numpy as np
import pytest

from repro.cluster import Partitioner, ShardManifest, build_sharded, open_sharded
from repro.cluster.manifest import MANIFEST_NAME
from repro.engine import get_index
from repro.exceptions import CorruptionError, ReproError
from repro.storage.pagestore import SequencePageStore
from tests.engine.conftest import STRUCTURES, answers, shard_backend


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
        matrix, shards=3, backend=shard_backend(backend), directory=tmp_path,
        seed=4,
    ) as router:
        expected = [router.search(query, k=5) for query in queries]
    mono = get_index(backend, matrix)
    with open_sharded(tmp_path) as reopened:
        assert len(reopened) == len(matrix)
        for query, (hits, _) in zip(queries, expected):
            got, _ = reopened.search(query, k=5)
            assert answers(got) == answers(hits)
            assert answers(got) == answers(mono.search(query, k=5)[0])


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


@pytest.mark.parametrize("backend", STRUCTURES)
def test_every_router_over_one_directory_agrees(
    matrix, queries, backend, tmp_path
):
    """Serial or pooled, built or reopened: one directory, one answer.

    The four routers equal each other on every field, and their exact
    answers equal the monolithic structure's.
    """

    def build(worker_pool):
        return build_sharded(
            matrix, shards=3, backend=shard_backend(backend), seed=3,
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
    assert pooled_build == serial_build
    mono = get_index(backend, matrix)
    assert [
        [(d, i) for d, i, _ in hits] for hits, _ in serial_build
    ] == [
        answers(hits)
        for query, radius in zip(queries, radii)
        for hits, _ in (
            mono.search(query, k=5), mono.range_search(query, radius)
        )
    ]


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


@pytest.mark.parametrize("backend", ["vptree", "mtree", "sharded"])
def test_manifest_with_another_backend_is_refused(matrix, tmp_path, backend):
    """A shard is flat or scan: a manifest recording any other backend
    (one written before the shard backend narrowed) is refused by name."""
    build_sharded(
        matrix, shards=2, backend="flat", directory=tmp_path
    ).close()
    manifest = ShardManifest.load(tmp_path)
    dataclasses.replace(manifest, backend=backend).save(tmp_path)
    with pytest.raises(ReproError, match="flat or scan|cannot themselves"):
        open_sharded(tmp_path)
    with pytest.raises(ReproError, match="flat or scan"):
        build_sharded(matrix, shards=2, backend="vptree")


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
