"""Tests for saving and loading a VP-tree index."""

import numpy as np
import pytest

from repro.compression import BestMinErrorCompressor
from repro.exceptions import SeriesMismatchError
from repro.index import SearchStats, VPTreeIndex, distances_to_query
from repro.storage import SequencePageStore
from repro.timeseries import zscore


def make_db(count=80, n=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return np.array(
        [
            zscore(
                np.sin(2 * np.pi * t / [7, 12, 30][i % 3] + rng.uniform(0, 6))
                + 0.4 * rng.normal(size=n)
            )
            for i in range(count)
        ]
    )


@pytest.fixture(scope="module")
def matrix():
    return make_db()


class TestSaveLoad:
    def test_roundtrip_answers_identical(self, matrix, tmp_path):
        names = [f"q{i}" for i in range(len(matrix))]
        index = VPTreeIndex(
            matrix,
            compressor=BestMinErrorCompressor(10),
            names=names,
            leaf_size=5,
            seed=1,
        )
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = VPTreeIndex.load(path)

        assert len(loaded) == len(index)
        assert loaded.bound_method == index.bound_method
        rng = np.random.default_rng(2)
        for _ in range(5):
            query = zscore(rng.normal(size=64))
            a, _ = index.search(query, k=3)
            b, _ = loaded.search(query, k=3)
            assert [h.seq_id for h in a] == [h.seq_id for h in b]
            assert [h.name for h in a] == [h.name for h in b]
            np.testing.assert_allclose(
                [h.distance for h in a], [h.distance for h in b], atol=1e-12
            )

    def test_loaded_index_is_exact(self, matrix, tmp_path):
        index = VPTreeIndex(matrix, leaf_size=4, seed=3)
        path = tmp_path / "exact.npz"
        index.save(path)
        loaded = VPTreeIndex.load(path)
        rng = np.random.default_rng(4)
        query = zscore(rng.normal(size=64))
        hits, _ = loaded.search(query, k=1)
        truth = float(distances_to_query(matrix, query).min())
        assert hits[0].distance == pytest.approx(truth, abs=1e-9)

    def test_tombstones_survive(self, matrix, tmp_path):
        index = VPTreeIndex(matrix, seed=5)
        index.remove(7)
        path = tmp_path / "tomb.npz"
        index.save(path)
        loaded = VPTreeIndex.load(path)
        assert len(loaded) == len(matrix) - 1
        hits, _ = loaded.search(matrix[7], k=3)
        assert all(h.seq_id != 7 for h in hits)

    def test_disk_store_reopened(self, matrix, tmp_path, monkeypatch):
        # Scalar verify mode: the strict read-count equality below is a
        # property of the scalar reference loop (blocked verification
        # may prefetch rows past the termination point).
        monkeypatch.setenv("REPRO_VERIFY_BLOCK", "0")
        store = SequencePageStore(tmp_path / "rows.dat", matrix.shape[1])
        index = VPTreeIndex(matrix, store=store, seed=6)
        path = tmp_path / "disk.npz"
        index.save(path)
        store.close()
        loaded = VPTreeIndex.load(path)
        hits, stats = loaded.search(matrix[11], k=1)
        assert hits[0].seq_id == 11
        assert loaded.store.stats.read_calls == stats.full_retrievals

    def test_range_search_after_load(self, matrix, tmp_path):
        index = VPTreeIndex(matrix, seed=7)
        path = tmp_path / "range.npz"
        index.save(path)
        loaded = VPTreeIndex.load(path)
        query = matrix[0]
        truth = distances_to_query(matrix, query)
        radius = float(np.median(truth))
        hits, _ = loaded.range_search(query, radius)
        assert {h.seq_id for h in hits} == set(
            np.flatnonzero(truth <= radius).tolist()
        )

    def test_loaded_index_rejects_inserts(self, matrix, tmp_path):
        index = VPTreeIndex(
            matrix, compressor=BestMinErrorCompressor(10), seed=8
        )
        path = tmp_path / "ro.npz"
        index.save(path)
        loaded = VPTreeIndex.load(path)
        with pytest.raises(SeriesMismatchError):
            loaded.insert(matrix[0])

    def test_code_tree_saves_no_sketch_and_inserts_after_load(
        self, matrix, tmp_path
    ):
        index = VPTreeIndex(matrix, leaf_size=4, seed=15)
        index.insert(matrix[0] + 0.01)
        index.save(tmp_path / "codes.npz")
        with np.load(tmp_path / "codes.npz") as payload:
            assert "sketch_meta" not in payload.files
        loaded = VPTreeIndex.load(tmp_path / "codes.npz")
        assert loaded.code_walked and loaded.bound_method is None
        row = matrix[1] + 0.01
        seq_id = loaded.insert(row)
        assert loaded.search(row, k=1)[0][0].seq_id == seq_id == len(matrix) + 1

    def test_save_after_inserts(self, matrix, tmp_path):
        index = VPTreeIndex(
            matrix, compressor=BestMinErrorCompressor(10), leaf_size=4, seed=9
        )
        rng = np.random.default_rng(10)
        extra = [zscore(rng.normal(size=64)) for _ in range(10)]
        for row in extra:
            index.insert(row)
        path = tmp_path / "grown.npz"
        index.save(path)
        loaded = VPTreeIndex.load(path)
        full = np.vstack([matrix, extra])
        query = zscore(rng.normal(size=64))
        hits, _ = loaded.search(query, k=2)
        truth = np.sort(distances_to_query(full, query))[:2]
        np.testing.assert_allclose([h.distance for h in hits], truth, atol=1e-9)

    def test_guided_flag_survives(self, tmp_path):
        matrix = make_db(count=300, n=64, seed=11)
        config = dict(compressor=BestMinErrorCompressor(16), leaf_size=4, seed=12)
        index = VPTreeIndex(matrix, guided=False, **config)
        guided_twin = VPTreeIndex(matrix, guided=True, **config)
        index.save(tmp_path / "unguided.npz")
        loaded = VPTreeIndex.load(tmp_path / "unguided.npz")

        def walk(tree, query):
            stats = SearchStats()
            candidates = tree.knn_candidates(query, 1, stats)
            return candidates, (
                stats.bound_computations,
                stats.nodes_visited,
                stats.subtrees_pruned,
            )

        queries = make_db(count=20, n=64, seed=13)
        for query in queries:
            assert walk(loaded, query) == walk(index, query)
        # The flag matters on this data: a load that forgot it would show.
        assert any(
            walk(guided_twin, query) != walk(index, query) for query in queries
        )

    def test_file_without_guided_loads_guided(self, matrix, tmp_path):
        VPTreeIndex(matrix, guided=False, seed=14).save(tmp_path / "new.npz")
        with np.load(tmp_path / "new.npz") as payload:
            fields = dict(payload)
        fields["config"] = fields["config"][:3]  # count, n, bound_method
        np.savez_compressed(tmp_path / "old.npz", **fields)
        assert VPTreeIndex.load(tmp_path / "old.npz")._guided is True
