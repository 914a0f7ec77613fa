"""Generational manifest edge cases: CRC fallback, genesis, readers.

The satellite checklist pins three scenarios: a CRC-mismatched newest
generation must fall back (and quarantine), an empty / zero-generation
directory must open sanely, and a concurrent reader holding the old
generation must survive a compaction deleting its files.
"""

import json
import os

import numpy as np
import pytest

from repro.engine.registry import get_index
from repro.exceptions import CorruptionError, StorageError
from repro.timeseries.preprocessing import zscore
from repro.stream import (
    ManifestLog,
    SegmentInfo,
    StreamManifest,
    StreamStore,
)
from repro.stream.manifest import manifest_filename


def _manifest(generation: int = 1, **overrides) -> StreamManifest:
    fields = dict(
        generation=generation,
        sequence_length=16,
        wal=f"wal-{generation:06d}.log",
        next_segment=0,
        segments=(),
        tombstones=(),
        retired=(),
    )
    fields.update(overrides)
    return StreamManifest(**fields)


@pytest.fixture
def log(tmp_path):
    return ManifestLog(tmp_path, fsync=False)


class TestManifestLog:
    def test_commit_load_roundtrip(self, log):
        manifest = _manifest(
            segments=(
                SegmentInfo(
                    file="segment-000000.pages",
                    count=2,
                    names=("a", "b"),
                ),
            ),
            tombstones=("dead",),
        )
        path = log.commit(manifest)
        assert log.load(path) == manifest

    def test_commit_refuses_overwrite(self, log):
        log.commit(_manifest())
        with pytest.raises(CorruptionError):
            log.commit(_manifest())

    def test_candidates_newest_first(self, log):
        for generation in (1, 2, 3):
            log.commit(_manifest(generation))
        assert [gen for gen, _ in log.candidates()] == [3, 2, 1]

    def test_tampered_body_fails_crc(self, log, tmp_path):
        path = log.commit(_manifest())
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["next_segment"] = 99  # valid JSON, wrong checksum
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CorruptionError, match="checksum"):
            log.load(path)

    def test_generation_must_match_filename(self, log, tmp_path):
        path = log.commit(_manifest(2))
        renamed = os.path.join(tmp_path, manifest_filename(7))
        os.rename(path, renamed)
        with pytest.raises(CorruptionError, match="generation"):
            log.load(renamed)

    def test_unparseable_file_is_corruption(self, log, tmp_path):
        path = tmp_path / manifest_filename(1)
        path.write_text("{ not json")
        with pytest.raises(CorruptionError):
            log.load(path)

    def test_missing_file_is_corruption(self, log, tmp_path):
        with pytest.raises(CorruptionError):
            log.load(os.path.join(tmp_path, manifest_filename(4)))

    def test_quarantine_moves_aside_without_clobbering(self, log):
        path_1 = log.commit(_manifest(1))
        first = log.quarantine(path_1)
        path_2 = log.commit(_manifest(1))  # slot free again
        second = log.quarantine(path_2)
        assert first.endswith(".quarantined")
        assert second != first and os.path.exists(second)

    def test_zero_padded_names_sort_numerically(self, log):
        # The reverse sort is on the parsed integer, not the string, so
        # generation 10 beats generation 9.
        for generation in (9, 10):
            log.commit(_manifest(generation))
        assert log.candidates()[0][0] == 10

    def test_segment_info_cross_checks_names(self):
        with pytest.raises(CorruptionError):
            SegmentInfo(file="s.pages", count=3, names=("only-one",))

    def test_generation_zero_rejected(self):
        with pytest.raises(CorruptionError):
            _manifest(0)


class TestStoreAdoption:
    """Store-level manifest scenarios from the satellite checklist."""

    def _seed(self, directory, rows: int = 6, days: int = 32):
        rng = np.random.default_rng(7)
        store = StreamStore(directory, days, fsync=False)
        series = {
            f"q{i}": rng.integers(0, 100, size=days).astype(float)
            for i in range(rows)
        }
        for name, values in series.items():
            store.append(name, values)
        return store, series

    def test_empty_directory_needs_sequence_length(self, tmp_path):
        with pytest.raises(CorruptionError):
            StreamStore(tmp_path / "empty")

    def test_empty_directory_creates_genesis(self, tmp_path):
        with StreamStore(tmp_path / "fresh", 16, fsync=False) as store:
            assert store.recovery.created
            assert store.generation == 1
            assert len(store) == 0 and store.names() == ()

    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        directory = tmp_path / "stream"
        store, _ = self._seed(directory)
        store.seal()
        newest = store.manifest_path()
        store.close()
        with open(newest, "r+b") as handle:
            handle.seek(200)
            handle.write(b"XX")
        with StreamStore(directory, fsync=False) as reopened:
            # Generation 2 is quarantined; generation 1 (empty, genesis)
            # is adopted, and the WAL it references was rotated away by
            # the seal — the sealed batch is the price of hand-corrupted
            # metadata, but the store opens and keeps working.
            assert reopened.recovery.manifests_quarantined == 1
            assert reopened.generation == 1
            reopened.append("after", np.arange(32, dtype=float) + 1)
            assert "after" in reopened.names()
        assert any(
            entry.endswith(".quarantined")
            for entry in os.listdir(directory)
        )

    def test_corrupt_newest_falls_back_to_data_bearing_generation(
        self, tmp_path
    ):
        directory = tmp_path / "stream"
        store, series = self._seed(directory)
        store.seal()  # generation 2: segment with all rows
        store.append("late", np.arange(32, dtype=float))
        store.seal()  # generation 3: second segment
        query = np.zeros(32)
        newest = store.manifest_path()
        store.close()
        with open(newest, "r+b") as handle:
            handle.seek(120)
            handle.write(b"??")
        with StreamStore(directory, fsync=False) as reopened:
            # Fallback lands on generation 2: every row it sealed, and
            # nothing of the generation whose metadata was destroyed.
            assert reopened.generation == 2
            assert set(reopened.names()) == set(series)
            got = {
                (n.name, round(n.distance, 12))
                for n in reopened.search(query, 3)[0]
            }
        # Bit-identical to an index built outside the stream stack over
        # the generation-2 population.
        reference = get_index(
            "scan",
            np.stack([zscore(row) for row in series.values()]),
            names=list(series),
        )
        expected = {
            (n.name, round(n.distance, 12))
            for n in reference.search(query, 3)[0]
        }
        assert got == expected

    def test_missing_segment_file_invalidates_generation(self, tmp_path):
        directory = tmp_path / "stream"
        store, _ = self._seed(directory)
        store.seal()
        segment = store.segment_files()[0]
        store.close()
        os.remove(os.path.join(directory, segment))
        with StreamStore(directory, fsync=False) as reopened:
            assert reopened.recovery.manifests_quarantined == 1
            assert reopened.generation == 1

    def test_sequence_length_mismatch_on_reopen(self, tmp_path):
        directory = tmp_path / "stream"
        store, _ = self._seed(directory)
        store.close()
        with pytest.raises(StorageError, match="32-day"):
            StreamStore(directory, 64)

    def test_concurrent_reader_survives_compaction(self, tmp_path):
        directory = tmp_path / "stream"
        writer, series = self._seed(directory)
        writer.seal()
        writer.append("extra", np.arange(32, dtype=float) + 3)
        writer.seal()
        writer.delete(next(iter(series)))
        query = np.arange(32, dtype=float) % 5

        reader = StreamStore(directory, fsync=False)
        try:
            # The reader adopted the pre-delete generation (tombstones
            # ride the WAL until a seal, so its WAL replay does see the
            # delete): both stores answer from the same logical state.
            before = {
                (n.name, round(n.distance, 12))
                for n in reader.search(query, 4)[0]
            }
            old_segments = [
                os.path.join(directory, f) for f in reader.segment_files()
            ]
            writer.compact()
            for path in old_segments:
                assert not os.path.exists(path)  # physically retired
            # The reader's generation is gone from disk, but its open
            # page-store handles keep serving (unlinked-but-open), and
            # a fresh union built over them still answers identically.
            reader._union = None
            after = {
                (n.name, round(n.distance, 12))
                for n in reader.search(query, 4)[0]
            }
            writer_view = {
                (n.name, round(n.distance, 12))
                for n in writer.search(query, 4)[0]
            }
            assert after == before == writer_view
        finally:
            reader.close()
            writer.close()
