"""Tests for the disk-backed sequence store and its I/O accounting."""

import os
import struct
import zlib

import numpy as np
import pytest

import repro.obs as obs
from repro.exceptions import (
    CorruptionError,
    KeyNotFoundError,
    SeriesLengthError,
    StorageError,
    TornWriteError,
)
from repro.storage import MemorySequenceStore, SequencePageStore
from tests.storage.format2 import write_format2


@pytest.fixture
def store(tmp_path):
    with SequencePageStore(tmp_path / "seq.dat", sequence_length=512) as s:
        yield s


class TestSequencePageStore:
    def test_roundtrip(self, store):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 512))
        ids = store.append_matrix(rows)
        assert ids == [0, 1, 2, 3, 4]
        for seq_id, row in zip(ids, rows):
            np.testing.assert_array_equal(store.read(seq_id), row)

    def test_read_out_of_range(self, store):
        store.append(np.zeros(512))
        with pytest.raises(KeyNotFoundError):
            store.read(1)
        with pytest.raises(KeyNotFoundError):
            store.read(-1)

    def test_length_mismatch_rejected(self, store):
        with pytest.raises(StorageError):
            store.append(np.zeros(100))

    def test_pages_per_sequence(self, tmp_path):
        # A record is the row and its CRC32: 511 float64 + 4 = 4092
        # bytes fit one 4096-byte page.
        with SequencePageStore(tmp_path / "a.dat", 511) as s:
            assert s.pages_per_sequence == 1
        # 512 floats + 4 = 4100 bytes spill into a second page, and the
        # records follow each other at that stride, after the header page.
        with SequencePageStore(tmp_path / "b.dat", 512) as s:
            assert s.pages_per_sequence == 2
            s.append_matrix(np.zeros((3, 512)))
            s.flush()
            assert os.path.getsize(s.path) == 4096 + 3 * 4100

    def test_io_accounting(self, store, tmp_path):
        store.append_matrix(np.zeros((4, 512)))
        per_seq = store.pages_per_sequence
        assert per_seq == 2
        assert store.stats.pages_read == 0
        store.read(0)
        store.read(1)  # sequential: no extra seek
        store.read(3)  # skips one: seek
        assert store.stats.read_calls == 3
        assert store.stats.pages_read == 3 * per_seq
        assert store.stats.seeks == 2
        # A read is charged the pages its record touches.  132-byte
        # records: record 30 sits inside page 1, record 31 straddles
        # the boundary into page 2.
        with SequencePageStore(tmp_path / "small.dat", 16, cache_bytes=0) as small:
            small.append_matrix(np.zeros((32, 16)))
            assert small.pages_per_sequence == 1
            small.read(30)
            small.read(31)  # the next record: no seek, though it shares a page
            assert small.stats.pages_read == 1 + 2
            assert small.stats.seeks == 1
            small.read_many([31, 30])
            assert small.stats.pages_read == 3 + 2 + 1
            assert small.stats.seeks == 3

    def test_stats_reset(self, store):
        store.append(np.zeros(512))
        store.read(0)
        store.stats.reset()
        assert store.stats.read_calls == 0
        assert store.stats.pages_read == 0
        assert store.stats.seeks == 0

    def test_stats_reset_clears_seek_position(self, store):
        # Regression: reset() must also forget where the head stands,
        # otherwise the first read after a reset can ride the stale
        # position and be miscounted as sequential (zero seeks).
        store.append_matrix(np.zeros((3, 512)))
        store.read(0)
        store.read(1)
        store.stats.reset()
        assert store.stats._next_record is None
        store.read(2)  # would look sequential against the stale position
        assert store.stats.seeks == 1

    def test_close_is_idempotent(self, tmp_path):
        store = SequencePageStore(tmp_path / "c.dat", 16)
        assert not store.closed
        store.close()
        assert store.closed
        store.close()  # second close: no error
        assert store.closed

    def test_context_manager_closes(self, tmp_path):
        with SequencePageStore(tmp_path / "cm.dat", 16) as store:
            store.append(np.zeros(16))
        assert store.closed

    def test_reads_interleaved_with_appends(self, store):
        first = np.arange(512.0)
        store.append(first)
        store.append(first * 2)
        np.testing.assert_array_equal(store.read(0), first)
        store.append(first * 3)
        np.testing.assert_array_equal(store.read(2), first * 3)
        np.testing.assert_array_equal(store.read(1), first * 2)

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(StorageError):
            SequencePageStore(tmp_path / "x.dat", 0)
        with pytest.raises(StorageError):
            SequencePageStore(tmp_path / "x.dat", 10, page_size=8)


class TestReopen:
    def test_reopen_recovers_contents(self, tmp_path):
        path = tmp_path / "persist.dat"
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(7, 200))
        with SequencePageStore(path, 200) as store:
            store.append_matrix(rows)
        reopened = SequencePageStore.open(path)
        assert len(reopened) == 7
        assert reopened.sequence_length == 200
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(reopened.read(i), row)
        reopened.close()

    def test_reopen_supports_further_appends(self, tmp_path):
        path = tmp_path / "grow.dat"
        with SequencePageStore(path, 16) as store:
            store.append(np.arange(16.0))
        with SequencePageStore.open(path) as reopened:
            new_id = reopened.append(np.arange(16.0) * 2)
            assert new_id == 1
            np.testing.assert_array_equal(
                reopened.read(1), np.arange(16.0) * 2
            )

    def test_page_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ps.dat"
        SequencePageStore(path, 16, page_size=4096).close()
        with pytest.raises(StorageError):
            SequencePageStore.open(path, page_size=8192)
        SequencePageStore.open(path, page_size=4096).close()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_bytes(b"not a sequence store, definitely" * 10)
        with pytest.raises(StorageError):
            SequencePageStore.open(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.dat"
        path.write_bytes(b"abc")
        with pytest.raises(StorageError):
            SequencePageStore.open(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            SequencePageStore.open(tmp_path / "nope.dat")


class TestCorruptionDetection:
    """Round trips through deliberate damage: every fault gets a type."""

    LENGTH = 512  # 4,100-byte records

    def _filled(self, tmp_path, rows=4):
        path = tmp_path / "victim.dat"
        matrix = np.random.default_rng(5).normal(size=(rows, self.LENGTH))
        with SequencePageStore(path, self.LENGTH) as store:
            store.append_matrix(matrix)
            offsets = [store._offset_of(i) for i in range(rows)]
        return path, matrix, offsets

    @staticmethod
    def _damage(path, offset, flip=0x01):
        with open(path, "r+b") as raw:
            raw.seek(offset)
            byte = raw.read(1)[0]
            raw.seek(offset)
            raw.write(bytes([byte ^ flip]))

    def test_byte_flip_raises_corruption_error(self, tmp_path):
        path, matrix, offsets = self._filled(tmp_path)
        self._damage(path, offsets[2] + 100)
        with SequencePageStore.open(path) as store:
            with pytest.raises(CorruptionError):
                store.read(2)
            # Only the damaged sequence is lost.
            np.testing.assert_array_equal(store.read(1), matrix[1])

    def test_flipped_crc_itself_is_detected(self, tmp_path):
        path, _, offsets = self._filled(tmp_path)
        self._damage(path, offsets[2] - 1)  # record 1 ends with its CRC
        with SequencePageStore.open(path) as store:
            with pytest.raises(CorruptionError):
                store.read(1)

    def test_mid_page_truncation_is_torn_write(self, tmp_path):
        path, matrix, offsets = self._filled(tmp_path)
        with open(path, "r+b") as raw:
            raw.truncate(offsets[-1] + 700)  # cut into the last sequence
        # Reopening without repair refuses the torn tail:
        with pytest.raises(TornWriteError):
            SequencePageStore.open(path)

    def test_repair_truncates_torn_tail(self, tmp_path):
        path, matrix, offsets = self._filled(tmp_path)
        with open(path, "r+b") as raw:
            raw.truncate(offsets[-1] + 700)
        with obs.observed() as registry:
            with SequencePageStore.open(path, repair=True) as store:
                assert len(store) == len(matrix) - 1
                for i in range(len(store)):
                    np.testing.assert_array_equal(store.read(i), matrix[i])
                # The healed store accepts fresh appends.
                new_id = store.append(matrix[-1])
                np.testing.assert_array_equal(store.read(new_id), matrix[-1])
        assert registry.counter("resilience.storage_repairs").value == 1

    def test_bad_magic_is_corruption_error(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 4096)
        with pytest.raises(CorruptionError):
            SequencePageStore.open(path)

    def test_header_crc_mismatch_is_corruption_error(self, tmp_path):
        path, _, _ = self._filled(tmp_path)
        self._damage(path, 9)  # inside the header's page_size field
        with pytest.raises(CorruptionError):
            SequencePageStore.open(path)

    def test_short_header_is_torn_write(self, tmp_path):
        path = tmp_path / "stub.dat"
        path.write_bytes(b"abc")
        with pytest.raises(TornWriteError):
            SequencePageStore.open(path)

    def test_errors_are_typed_storage_errors(self):
        assert issubclass(CorruptionError, StorageError)
        assert issubclass(TornWriteError, CorruptionError)

    def test_scrub_locates_every_victim(self, tmp_path):
        path, _, offsets = self._filled(tmp_path, rows=6)
        self._damage(path, offsets[1] + 50)
        self._damage(path, offsets[4] + 50)
        with SequencePageStore.open(path) as store:
            store.stats.reset()
            assert store.scrub() == (1, 4)
            # Maintenance reads bypass the experiment's I/O accounting.
            assert store.stats.pages_read == 0

    def test_verify_checksums_off_skips_detection(self, tmp_path):
        path, matrix, offsets = self._filled(tmp_path)
        self._damage(path, offsets[0] + 100)
        with SequencePageStore.open(path, verify_checksums=False) as store:
            garbled = store.read(0)  # no raise: caller opted out
            assert garbled.shape == matrix[0].shape
            assert not np.array_equal(garbled, matrix[0])
        with SequencePageStore.open(path) as store:
            with pytest.raises(CorruptionError):
                store.read(0)


class TestFileFormat:
    """What new stores write: format 3, one ``row || crc32`` record each."""

    def test_new_stores_are_v3(self, tmp_path):
        with SequencePageStore(tmp_path / "new.dat", 16) as store:
            assert store.format_version == 3
        with SequencePageStore.open(tmp_path / "new.dat") as reopened:
            assert reopened.format_version == 3
        assert (tmp_path / "new.dat").read_bytes()[:8] == b"RPRSEQ3\x00"

    def test_zlib_crc_convention(self, tmp_path):
        # A record is the row's raw bytes, then plain zlib.crc32 of them
        # — pin the convention so other tooling can validate files.
        row = np.arange(4.0)
        with SequencePageStore(tmp_path / "pin.dat", 4) as store:
            store.append(row)
            store.append(row * 2)
            offset = store._offset_of(1)
        with open(tmp_path / "pin.dat", "rb") as raw:
            raw.seek(offset)
            record = raw.read()
        assert record == (row * 2).tobytes() + struct.pack(
            "<I", zlib.crc32((row * 2).tobytes())
        )

    def test_format1_is_unsupported(self, tmp_path):
        path = tmp_path / "legacy.dat"
        header = struct.pack("<8sIQ", b"RPRSEQ1\x00", 4096, 512)
        path.write_bytes(header.ljust(4096, b"\x00") + bytes(4096))
        with pytest.raises(CorruptionError, match="supported format"):
            SequencePageStore.open(path)


class TestFormatV2Compatibility:
    """Page-checksummed format-2 files stay readable and appendable."""

    def _filled(self, tmp_path, rows=4):
        path = tmp_path / "v2.dat"
        matrix = np.random.default_rng(6).normal(size=(rows, 512))
        record = write_format2(path, matrix)
        return path, matrix, record

    def test_reads_back(self, tmp_path):
        path, matrix, record = self._filled(tmp_path)
        with SequencePageStore.open(path, cache_bytes=0) as store:
            assert store.format_version == 2
            assert len(store) == len(matrix)
            # 4092 payload bytes a page: 512 floats take two pages.
            assert store.pages_per_sequence == 2 and record == 8192
            for i, row in enumerate(matrix):
                np.testing.assert_array_equal(store.read(i), row)
            np.testing.assert_array_equal(
                store.read_many([3, 0, 0, 2]), matrix[[3, 0, 0, 2]]
            )
            assert store.stats.pages_read == 8 * 2

    def test_scrub_and_reads_find_a_damaged_page(self, tmp_path):
        path, matrix, record = self._filled(tmp_path)
        with open(path, "r+b") as raw:
            raw.seek(4096 + 2 * record + 4096 + 10)  # record 2, page 1
            raw.write(b"\xff")
        with SequencePageStore.open(path) as store:
            assert store.scrub() == (2,)
            with pytest.raises(CorruptionError, match="unit 1 of 2"):
                store.read(2)
            with pytest.raises(CorruptionError):
                store.read_many([0, 2])
            np.testing.assert_array_equal(store.read(3), matrix[3])

    def test_repair_truncates_a_torn_tail(self, tmp_path):
        path, matrix, record = self._filled(tmp_path)
        with open(path, "r+b") as raw:
            raw.truncate(4096 + 3 * record + 700)
        with pytest.raises(TornWriteError):
            SequencePageStore.open(path)
        with SequencePageStore.open(path, repair=True) as store:
            assert len(store) == 3
            np.testing.assert_array_equal(store.read_many(range(3)), matrix[:3])

    def test_appends_after_reopen_keep_writing_format_2(self, tmp_path):
        path, matrix, _ = self._filled(tmp_path, rows=2)
        more = np.random.default_rng(7).normal(size=(3, 512))
        with SequencePageStore.open(path) as store:
            assert store.append(more[0]) == 2
            assert store.append_matrix(more[1:]) == [3, 4]
            assert store.format_version == 2
        write_format2(tmp_path / "whole.dat", np.vstack([matrix, more]))
        assert path.read_bytes() == (tmp_path / "whole.dat").read_bytes()


class TestMemorySequenceStore:
    def test_roundtrip(self):
        store = MemorySequenceStore(8)
        row = np.arange(8.0)
        seq_id = store.append(row)
        np.testing.assert_array_equal(store.read(seq_id), row)

    def test_reads_are_free(self):
        store = MemorySequenceStore(4)
        store.append(np.zeros(4))
        store.read(0)
        assert store.stats.read_calls == 1
        assert store.stats.pages_read == 0
        assert store.pages_per_sequence == 0

    def test_out_of_range(self):
        store = MemorySequenceStore(4)
        with pytest.raises(KeyNotFoundError):
            store.read(0)

    def test_length_checked(self):
        store = MemorySequenceStore(4)
        with pytest.raises(StorageError):
            store.append(np.zeros(5))

    def test_bulk_paths_match_the_per_row_ones(self):
        rows = np.arange(24.0).reshape(6, 4)
        store = MemorySequenceStore(4)
        assert store.append(rows[0]) == 0
        assert store.append_matrix(rows[1:]) == [1, 2, 3, 4, 5]
        rows[1:] = -1.0  # the store holds its own copy
        ids = [5, 0, 3, 3]
        block = store.read_many(ids)
        np.testing.assert_array_equal(
            block, np.stack([store.read(seq_id) for seq_id in ids])
        )
        assert block[0, 0] == 20.0
        assert store.stats.read_calls == 8
        with pytest.raises(KeyNotFoundError):
            store.read_many([0, 6])
        with pytest.raises(StorageError):
            store.append_matrix(np.zeros((2, 5)))
        with pytest.raises(SeriesLengthError):
            store.append_matrix(np.array([[1.0, np.nan, 0.0, 0.0]]))
        assert len(store) == 6

    def test_context_manager(self):
        with MemorySequenceStore(4) as store:
            store.append(np.zeros(4))
        # close() is a no-op: data still readable.
        assert len(store) == 1
