"""Disk-backed sequence storage with explicit I/O accounting.

The paper's timing experiment (fig. 23) contrasts three configurations: a
linear scan that reads every *uncompressed* sequence from disk, an index
whose compressed features live on disk, and an index whose compressed
features fit in memory.  Since absolute 2004-era disk timings are not
reproducible, this module makes the dominant cost *measurable*: every
sequence fetched from a :class:`SequencePageStore` is charged the number of
pages it spans, and the store keeps running counters of read calls, pages
touched and (an estimate of) random seeks.

:class:`MemorySequenceStore` implements the same interface with zero I/O
cost, so "index in memory" and "index on disk" are the same code path with
a different store plugged in.

File layout (format 3, what every new store writes): a checksummed
header page (magic, page size, sequence length, header CRC32), then one
record per sequence: the row's raw float64 bytes followed by a CRC32 of
those bytes, at a stride of ``8 * sequence_length + 4`` bytes.  A flipped
bit, a zeroed record or a truncated file surfaces as a typed
:class:`~repro.exceptions.CorruptionError` /
:class:`~repro.exceptions.TornWriteError` instead of silently feeding
garbage floats to the query engine.  Format-2 files, which checksum every
``page_size`` page and zero-pad each row to whole pages, stay readable and
appendable: both formats are one *checksummed unit* repeated (a page under
format 2, the whole record under format 3), and every encoder, checker and
reader below is written over that unit.  See ``docs/RESILIENCE.md`` for
the fault model.

Reads have two physical paths with identical semantics and accounting:

* **buffered** (default) — :meth:`SequencePageStore.read` is one
  ``preadv(2)`` of the record; :meth:`SequencePageStore.read_many`
  sorts a block's disk reads by offset and reads each run of adjacent
  sequences with one ``preadv(2)`` straight into the buffers that keep
  them (cache frames, or a scratch buffer);
* **memory-mapped** (``use_mmap=True`` or ``REPRO_MMAP=1``) — the file
  is mapped once and raw records are gathered as numpy slices of the
  map, so ``read_many`` serves a whole candidate block with zero
  syscalls.

CRC validation, the :class:`~repro.storage.cache.SequenceCache` and
every :class:`IOStats` charge are the same on both — a read is charged
the ``page_size`` pages its record's byte range touches, whether the
bytes arrive via ``read(2)`` or a page fault.

:meth:`SequencePageStore.read_many` handles a block of ids as arrays:
one bounds check, one array plan over the cache
(:meth:`~repro.storage.cache.SequenceCache.plan`), one gather of the
disk reads straight into the cache frames that will hold them, one CRC
pass over every checksummed unit where it lies, counters charged in
aggregate, one gather of the payloads into the result, and a commit
that moves only the cache's indices.  Everything it reports — bytes,
:class:`IOStats`, cache counters and LRU order — equals what
:meth:`SequencePageStore.read` called per id in request order reports.
A block that fails any check is handed to that per-id loop whole, so
errors, and the side effects before them, are the loop's own; the
cached records are untouched, because the misses went to spare frames.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import (
    CorruptionError,
    KeyNotFoundError,
    StorageError,
    TornWriteError,
)
from repro.storage.cache import (
    SequenceCache,
    cache_budget_from_env,
    frame_bytes,
)
from repro.timeseries.preprocessing import as_float_array, as_float_matrix

__all__ = [
    "FSYNC_ENV",
    "IOStats",
    "MMAP_ENV",
    "MemorySequenceStore",
    "SequencePageStore",
    "fsync_enabled_from_env",
    "mmap_enabled_from_env",
]

#: Environment switch for memory-mapped reads (``1``/``true``/``on``).
MMAP_ENV = "REPRO_MMAP"

#: Environment switch for durable writes (``REPRO_FSYNC=0``/``1``).
FSYNC_ENV = "REPRO_FSYNC"


def mmap_enabled_from_env() -> bool:
    """Whether ``REPRO_MMAP`` asks for memory-mapped store reads."""
    raw = os.environ.get(MMAP_ENV, "").strip().lower()
    return raw in {"1", "true", "yes", "on"}


def fsync_enabled_from_env(default: bool = False) -> bool:
    """Resolve the ``REPRO_FSYNC`` knob against a per-site default.

    Durability sites disagree on the right default: the WAL and the
    stream manifest default *on* (losing acknowledged appends is a
    correctness bug), while bulk page stores and benchmarks default
    *off* (an fsync per batch would dominate the measured ingest cost).
    An explicit ``REPRO_FSYNC=1``/``0`` overrides every site either way;
    unset or unrecognised falls back to ``default``.
    """
    raw = os.environ.get(FSYNC_ENV, "").strip().lower()
    if raw in {"1", "true", "yes", "on"}:
        return True
    if raw in {"0", "false", "no", "off"}:
        return False
    return bool(default)

_MAGIC_V3 = b"RPRSEQ3\x00"
#: Header magic -> format version; any other magic, format 1 included,
#: is rejected at open.
_FORMATS = {b"RPRSEQ2\x00": 2, _MAGIC_V3: 3}
_HEADER_FIELDS = struct.Struct("<8sIQ")  # magic, page_size, sequence_length
_HEADER = struct.Struct("<8sIQI")  # ... + CRC32 of the preceding fields
#: Bytes closing every checksummed unit: the CRC32 of the unit's payload.
_CRC_BYTES = 4
_CRC = struct.Struct("<I")
# Bulk appends encode + write in chunks of roughly this many bytes so
# the scratch buffer stays within the CPU cache and the allocator arena.
_BULK_CHUNK_BYTES = 4 << 20
#: Upper sanity bound for header fields.
_MAX_PAGE_SIZE = 1 << 24
_MAX_SEQUENCE_LENGTH = 1 << 40
#: ``preadv(2)``, and the most buffers one call accepts (``EINVAL``
#: beyond it).  Where it is missing, buffered blocks are read per id.
_PREADV = getattr(os, "preadv", None)
_IOV_MAX = os.sysconf("SC_IOV_MAX") if _PREADV is not None else 0


def _checked_ids(seq_ids, count: int) -> np.ndarray:
    """``seq_ids`` as an array; the first id outside ``[0, count)`` raises."""
    ids = np.fromiter(seq_ids, dtype=np.intp)
    outside = (ids < 0) | (ids >= count)
    if outside.any():
        raise KeyNotFoundError(int(ids[outside.argmax()]))
    return ids


@dataclass
class IOStats:
    """Running I/O counters for a sequence store.

    A read is charged the pages its record's byte range touches, and a
    seek wherever it does not start at the record that follows the one
    read before it.
    """

    read_calls: int = 0
    pages_read: int = 0
    seeks: int = 0
    _next_record: int | None = field(default=None, repr=False)

    def charge(self, record: int, page_count: int) -> None:
        """Record one read of ``record``, touching ``page_count`` pages."""
        self.read_calls += 1
        self.pages_read += page_count
        obs.add("storage.read_calls")
        obs.add("storage.pages_read", page_count)
        if record != self._next_record:
            self.seeks += 1
            obs.add("storage.seeks")
        self._next_record = record + 1

    def charge_cached(self) -> None:
        """Record one read served from the sequence cache.

        A cache hit is still a read call, but it touches zero pages and
        moves no disk head, so the page and seek counters — and the head
        position used to estimate future seeks — are left alone.
        """
        self.read_calls += 1
        obs.add("storage.read_calls")
        obs.add("storage.pages_read", 0)

    def charge_many(
        self, records: np.ndarray, page_counts: np.ndarray, cached: int
    ) -> None:
        """Record a block: one read of each of ``records``, in request
        order, touching ``page_counts`` pages, plus ``cached`` cache hits.

        Leaves every counter where :meth:`charge` per read and
        :meth:`charge_cached` per hit, in request order, leave them:
        hits move no head, so only the reads' order decides the seeks.
        """
        reads = len(records)
        pages = int(page_counts.sum())
        self.read_calls += reads + cached
        obs.add("storage.read_calls", reads + cached)
        obs.add("storage.pages_read", pages)
        if not reads:
            return
        self.pages_read += pages
        seeks = int(np.count_nonzero(records[1:] != records[:-1] + 1))
        if int(records[0]) != self._next_record:
            seeks += 1
        if seeks:
            self.seeks += seeks
            obs.add("storage.seeks", seeks)
        self._next_record = int(records[-1]) + 1

    def reset(self) -> None:
        self.read_calls = 0
        self.pages_read = 0
        self.seeks = 0
        self._next_record = None


class SequencePageStore:
    """Append-only on-disk store of equal-length float64 sequences.

    Parameters
    ----------
    path:
        Backing file.  Created on first append; reopened read-write.
    sequence_length:
        Length of every stored sequence (fixed per store).
    page_size:
        Simulated disk page size in bytes (default 4096).  Under format
        3 it only aligns the header (data starts at ``page_size``) and
        sets the accounting unit: a read is charged the pages its
        record touches.  Format-2 files also checksum per page: each
        carries ``page_size - 4`` bytes of payload and its CRC32.
    cache_bytes:
        Byte budget for the hot-read :class:`SequenceCache` in front of
        the block reader.  ``None`` (default) consults the
        ``REPRO_CACHE_BYTES`` environment variable; 0 disables caching.
    use_mmap:
        Serve raw blocks from a read-only memory map of the backing
        file instead of buffered ``seek``/``read`` calls.  ``None``
        (default) consults ``REPRO_MMAP``.  Appends remain buffered
        writes; the map is refreshed lazily when the store grows.
    fsync:
        Force every append through ``fsync(2)`` so acknowledged writes
        survive a power loss, not just a process crash.  ``None``
        (default) consults ``REPRO_FSYNC`` with a default of *off* —
        page stores are bulk-ingest surfaces whose durability the
        stream layer's WAL already guarantees (``docs/STREAMING.md``).
    """

    def __init__(
        self,
        path,
        sequence_length: int,
        page_size: int = 4096,
        cache_bytes: int | None = None,
        use_mmap: bool | None = None,
        fsync: bool | None = None,
    ) -> None:
        self._validate_geometry(sequence_length, page_size)
        self.path = os.fspath(path)
        self.sequence_length = int(sequence_length)
        self.page_size = int(page_size)
        self.format_version = 3
        self.stats = IOStats()
        self._init_fsync(fsync)
        self._init_geometry()
        self._init_cache(cache_bytes)
        self._init_mmap(use_mmap)
        self._count = 0
        self._file = open(self.path, "w+b")
        fields = _HEADER_FIELDS.pack(
            _MAGIC_V3, self.page_size, self.sequence_length
        )
        self._file.write(fields + _CRC.pack(zlib.crc32(fields)))
        self._data_offset = self._align(_HEADER.size)
        self._file.write(b"\x00" * (self._data_offset - _HEADER.size))
        self._file.flush()

    @staticmethod
    def _validate_geometry(sequence_length: int, page_size: int) -> None:
        if not 0 < sequence_length <= _MAX_SEQUENCE_LENGTH:
            raise StorageError(
                f"sequence_length must be in (0, {_MAX_SEQUENCE_LENGTH}], "
                f"got {sequence_length}"
            )
        if not 64 <= page_size <= _MAX_PAGE_SIZE:
            raise StorageError(
                f"page_size must be in [64, {_MAX_PAGE_SIZE}] bytes, "
                f"got {page_size}"
            )

    def _init_geometry(self) -> None:
        """Size the checksummed unit: a page (format 2) or the record (3).

        A record is ``units`` units of ``payload`` bytes plus a CRC32
        each; under format 3 that is one unit, the row and its CRC.
        """
        row_bytes = self.sequence_length * 8
        if self.format_version == 2:
            self._unit = self.page_size
        else:
            self._unit = row_bytes + _CRC_BYTES
        self._payload = self._unit - _CRC_BYTES
        self._units = -(-row_bytes // self._payload)
        self._record_bytes = self._units * self._unit

    def _init_cache(self, cache_bytes: int | None) -> None:
        budget = (
            cache_budget_from_env() if cache_bytes is None else int(cache_bytes)
        )
        if budget < 0:
            raise StorageError(f"cache_bytes must be >= 0, got {budget}")
        self._cache = (
            SequenceCache(budget, self._record_bytes) if budget else None
        )

    def _init_mmap(self, use_mmap: bool | None) -> None:
        self._use_mmap = (
            mmap_enabled_from_env() if use_mmap is None else bool(use_mmap)
        )
        self._mmap: np.memmap | None = None
        self._mmap_rows = 0

    def _init_fsync(self, fsync: bool | None) -> None:
        self._fsync = (
            fsync_enabled_from_env(default=False)
            if fsync is None
            else bool(fsync)
        )

    @property
    def cache(self) -> SequenceCache | None:
        """The hot-read cache, or ``None`` when caching is disabled."""
        return self._cache

    @property
    def uses_mmap(self) -> bool:
        """Whether raw blocks are served from a memory map of the file."""
        return self._use_mmap

    @property
    def fsync_enabled(self) -> bool:
        """Whether appends are forced through ``fsync(2)``."""
        return self._fsync

    @classmethod
    def open(
        cls,
        path,
        page_size: int | None = None,
        *,
        repair: bool = False,
        cache_bytes: int | None = None,
        use_mmap: bool | None = None,
        fsync: bool | None = None,
    ) -> "SequencePageStore":
        """Reopen an existing store file, validating its header.

        The sequence length and page size are read back from the
        checksummed header; passing ``page_size`` asserts the
        expectation.  The sequence count is recovered from the file
        size, so a store survives process restarts.  A reopened store
        keeps writing its own format (2 or 3); any other header,
        format 1 included, raises
        :class:`~repro.exceptions.CorruptionError`.

        A file whose size is not a whole number of records records a
        torn write — a crash mid-append.  By default that raises
        :class:`~repro.exceptions.TornWriteError`; with ``repair=True``
        the partial trailing record is truncated away (the self-healing
        path: everything fully written stays readable).
        """
        path = os.fspath(path)
        try:
            with open(path, "rb") as probe:
                raw_header = probe.read(_HEADER.size)
                file_size = os.path.getsize(path)
        except OSError as exc:
            raise StorageError(f"cannot open store file {path!r}: {exc}")
        if len(raw_header) < _HEADER.size:
            raise TornWriteError(
                f"{path!r} is too short to be a sequence store"
            )
        magic, stored_page_size, sequence_length, stored_crc = _HEADER.unpack(
            raw_header
        )
        version = _FORMATS.get(magic)
        if version is None:
            raise CorruptionError(
                f"{path!r} is not a sequence store of a supported format "
                f"(magic {magic!r})"
            )
        expected_crc = zlib.crc32(raw_header[: _HEADER_FIELDS.size])
        if stored_crc != expected_crc:
            raise CorruptionError(
                f"{path!r}: header CRC mismatch "
                f"(stored {stored_crc:#010x}, "
                f"computed {expected_crc:#010x})"
            )
        try:
            cls._validate_geometry(sequence_length, stored_page_size)
        except StorageError as exc:
            raise CorruptionError(
                f"{path!r}: implausible header fields: {exc}"
            ) from None
        if page_size is not None and page_size != stored_page_size:
            raise StorageError(
                f"store {path!r} uses page size {stored_page_size}, "
                f"expected {page_size}"
            )

        store = cls.__new__(cls)
        store.path = path
        store.sequence_length = int(sequence_length)
        store.page_size = int(stored_page_size)
        store.format_version = version
        store.stats = IOStats()
        store._init_fsync(fsync)
        store._init_geometry()
        store._init_cache(cache_bytes)
        store._init_mmap(use_mmap)
        store._file = open(path, "r+b")
        store._data_offset = store._align(_HEADER.size)
        payload_bytes = max(file_size - store._data_offset, 0)
        store._count, torn = divmod(payload_bytes, store._record_bytes)
        if torn:
            if not repair:
                store._file.close()
                raise TornWriteError(
                    f"{path!r}: trailing partial sequence "
                    f"({torn} bytes past the last whole sequence) — "
                    f"reopen with repair=True to truncate it"
                )
            store._file.truncate(store._offset_of(store._count))
            store._file.flush()
            obs.add("resilience.storage_repairs")
        return store

    def _align(self, offset: int) -> int:
        return -(-offset // self.page_size) * self.page_size

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._file.closed

    def close(self) -> None:
        """Release the backing file descriptor; safe to call repeatedly."""
        self._release_mmap()
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "SequencePageStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Storage interface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def pages_per_sequence(self) -> int:
        """The ``page_size`` pages one record spans when page aligned.

        A read is charged the pages its record's byte range touches.
        Format-2 records are page aligned, so that is always this many;
        format-3 records sit at a stride of ``8 * n + 4`` bytes, so one
        that straddles an extra page boundary is charged one page more.
        """
        return -(-self._record_bytes // self.page_size)

    def _pages_of(self, seq_ids):
        """The pages each of ``seq_ids``' records touches (scalar or array)."""
        start = self._offset_of(seq_ids)
        last = start + self._record_bytes - 1
        return last // self.page_size - start // self.page_size + 1

    def append(self, values) -> int:
        """Store a sequence; returns its integer id (dense, starting at 0)."""
        arr = as_float_array(values)
        if arr.size != self.sequence_length:
            raise StorageError(
                f"store holds sequences of length {self.sequence_length}, "
                f"got {arr.size}"
            )
        seq_id = self._count
        self._file.seek(self._offset_of(seq_id))
        self._file.write(self._encode_block(arr.tobytes()))
        obs.add("storage.page_writes", int(self._pages_of(seq_id)))
        self._count += 1
        self._maybe_sync()
        return seq_id

    def append_matrix(self, matrix: np.ndarray) -> list[int]:
        """Store every row of a ``(count, sequence_length)`` matrix.

        The bulk ingest path: records and CRCs are encoded in vectorised
        passes over a preallocated buffer (:meth:`_encode_matrix`) and
        written in a few megabyte-sized sequential chunks, instead of
        one encode + seek + write per row.  The chunking keeps the
        scratch buffer cache-hot and allocator-recycled rather than
        faulting a fresh matrix-sized buffer on every call.  The bytes
        on disk are identical to per-row :meth:`append` — asserted by
        ``tests/storage/test_bulk_append.py``.
        """
        matrix = as_float_matrix(matrix)
        count = matrix.shape[0]
        if count == 0:
            return []
        if matrix.shape[1] != self.sequence_length:
            raise StorageError(
                f"store holds sequences of length {self.sequence_length}, "
                f"got {matrix.shape[1]}"
            )
        first = self._count
        self._file.seek(self._offset_of(first))
        chunk_rows = max(1, _BULK_CHUNK_BYTES // self._record_bytes)
        for start in range(0, count, chunk_rows):
            encoded = self._encode_matrix(matrix[start : start + chunk_rows])
            self._file.write(encoded.data)
        ids = np.arange(first, first + count)
        obs.add("storage.page_writes", int(self._pages_of(ids).sum()))
        self._count += count
        self._maybe_sync()
        return ids.tolist()

    def _offset_of(self, seq_id):
        return self._data_offset + seq_id * self._record_bytes

    def flush(self) -> None:
        """Push buffered writes to the OS, without forcing them to disk.

        Enough for *visibility*: a concurrently opened reader sees a
        complete file.  Durability against power loss additionally
        needs :meth:`sync`.
        """
        self._file.flush()

    def sync(self) -> None:
        """Flush buffers and force the bytes to stable storage."""
        self._file.flush()
        os.fsync(self._file.fileno())
        obs.add("storage.fsyncs")

    def _maybe_sync(self) -> None:
        if self._fsync:
            self.sync()

    def _encode_block(self, payload: bytes) -> bytes:
        """Serialise one sequence as its record: zero-padded,
        checksummed units."""
        width = self._payload
        block = bytearray()
        for start in range(0, width * self._units, width):
            chunk = payload[start : start + width].ljust(width, b"\x00")
            block += chunk
            block += _CRC.pack(zlib.crc32(chunk))
        return bytes(block)

    def _encode_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Serialise a whole ``(count, n)`` matrix of sequences at once.

        Fills a single preallocated record buffer: the payload bytes are
        scattered unit-column by unit-column (one assignment under
        format 3), each unit's CRC32 runs over a view of its payload,
        and the checksums land in the last four bytes of every unit —
        no per-row bytes objects and no final ``tobytes`` copy.  The
        buffer's bytes are exactly
        ``b"".join(self._encode_block(row.tobytes()) ...)``; callers
        write its memoryview directly.
        """
        count = matrix.shape[0]
        units, payload = self._units, self._payload
        raw = matrix.view(np.uint8).reshape(count, self.sequence_length * 8)
        buf = np.zeros((count, units, self._unit), dtype=np.uint8)
        for unit in range(units):
            chunk = raw[:, unit * payload : (unit + 1) * payload]
            buf[:, unit, : chunk.shape[1]] = chunk
        flat = buf.reshape(count * units, self._unit)
        payloads = flat[:, :payload]
        checksums = np.empty(count * units, dtype="<u4")
        for index in range(count * units):
            checksums[index] = zlib.crc32(payloads[index])
        flat[:, payload:] = checksums.view(np.uint8).reshape(-1, _CRC_BYTES)
        return buf.reshape(-1)

    # ------------------------------------------------------------------
    # Block checks and decoding: one checker, one decoder, any count
    # ------------------------------------------------------------------
    def _failed_units(self, records: np.ndarray, rows=None) -> np.ndarray:
        """Checksummed units of the records ``records[rows]`` (every row
        by default) whose CRC fails.

        ``records`` is a C-contiguous 2-D uint8 array holding a record
        at the start of each row.  Returns flat unit numbers
        (``i * units + unit`` for the ``i``-th record checked),
        ascending.  Pure: no counter moves.
        The stored CRCs are read through one ``<u4`` view, and
        ``zlib.crc32`` is the only call made per unit.
        """
        unit, payload, stride = self._unit, self._payload, records.shape[1]
        units = records[:, : self._record_bytes].reshape(
            len(records), self._units, unit
        )
        stored = units[:, :, payload:].view("<u4")
        if rows is None:
            rows = np.arange(len(records))
        else:
            stored = stored[rows]
        starts = rows[:, None] * stride + np.arange(0, self._record_bytes, unit)
        flat = memoryview(records).cast("B")
        crc32 = zlib.crc32
        computed = np.fromiter(
            [crc32(flat[start : start + payload]) for start in starts.ravel().tolist()],
            dtype=np.uint32,
            count=stored.size,
        )
        return (computed != stored.ravel()).nonzero()[0]

    def _check_block(self, seq_id: int, block: np.ndarray) -> None:
        """Raise the typed error for the first fault of one raw record.

        :class:`~repro.exceptions.TornWriteError` for a short record or
        a unit never written, :class:`~repro.exceptions.CorruptionError`
        for a CRC mismatch.
        """
        if len(block) < self._record_bytes:
            raise TornWriteError(
                f"store {self.path!r}: sequence {seq_id} is truncated "
                f"({len(block)} of {self._record_bytes} bytes on disk)"
            )
        failed = self._failed_units(block[None])
        if not failed.size:
            return
        unit = int(failed[0])
        unit_bytes = block[unit * self._unit : (unit + 1) * self._unit]
        stored = int(unit_bytes[self._payload :].view("<u4")[0])
        computed = zlib.crc32(unit_bytes[: self._payload])
        where = f"sequence {seq_id} unit {unit} of {self._units}"
        obs.add("resilience.corrupt_pages")
        if not unit_bytes.any():
            raise TornWriteError(
                f"store {self.path!r}: {where} was never written "
                f"(torn write)"
            )
        raise CorruptionError(
            f"store {self.path!r}: {where} CRC mismatch "
            f"(stored {stored:#010x}, computed {computed:#010x})"
        )

    def _decode(self, records: np.ndarray, rows=None) -> np.ndarray:
        """The ``(len(rows), sequence_length)`` payloads of
        ``records[rows]`` (every row by default), laid out as for
        :meth:`_failed_units`.

        Format 3 is one gather through a float64 view of the rows (each
        starts with its payload, 8-byte aligned); format 2 gathers its
        units and drops their tails (CRC and padding).
        """
        count = len(records)
        if self._units == 1:
            rows_view = np.ndarray(
                (count, self.sequence_length),
                dtype=np.float64,
                buffer=records,
                strides=(records.shape[1], 8),
            )
            return rows_view.copy() if rows is None else rows_view[rows]
        units = records[:, : self._record_bytes].reshape(
            count, self._units, self._unit
        )
        if rows is not None:
            units = units[rows]
        payloads = units[:, :, : self._payload].reshape(len(units), -1)
        return np.ascontiguousarray(
            payloads[:, : 8 * self.sequence_length]
        ).view(np.float64)

    # ------------------------------------------------------------------
    # Raw block access: buffered or memory-mapped
    # ------------------------------------------------------------------
    def _release_mmap(self) -> None:
        """Drop the current map (idempotent; tolerates live views)."""
        mapped, self._mmap = self._mmap, None
        self._mmap_rows = 0
        if mapped is None:
            return
        inner = getattr(mapped, "_mmap", None)
        if inner is not None:
            try:
                inner.close()
            except (BufferError, OSError):  # pragma: no cover - live views
                pass

    def _block_view(self) -> np.ndarray | None:
        """A read-only ``(count, record bytes)`` uint8 view over the map.

        Returns ``None`` when mapping is disabled or impossible (empty
        store, file shorter than the expected data region), in which
        case callers fall back to buffered reads.  The map is refreshed
        lazily after appends grow the store.
        """
        if not self._use_mmap or self._count == 0 or self._file.closed:
            return None
        needed = self._offset_of(self._count)
        if self._mmap is None or self._mmap_rows < self._count:
            self._file.flush()
            try:
                if os.path.getsize(self.path) < needed:
                    return None
                mapped = np.memmap(self.path, dtype=np.uint8, mode="r")
            except (OSError, ValueError):
                return None
            self._release_mmap()
            self._mmap = mapped
            self._mmap_rows = self._count
        return self._mmap[self._data_offset : needed].reshape(
            self._count, self._record_bytes
        )

    def _read_record(self, seq_id: int, target: np.ndarray) -> np.ndarray:
        """Read ``seq_id``'s record into the start of the uint8 buffer
        ``target``; returns the part of it that arrived (short at a cut
        tail)."""
        target = target[: self._record_bytes]
        view = self._block_view()
        if view is not None:
            target[:] = view[seq_id]
            return target
        file, offset = self._file, self._offset_of(seq_id)
        if _PREADV is not None and type(file) is io.BufferedRandom:
            file.flush()  # appends may still sit in the file object's buffer
            return target[: _PREADV(file.fileno(), [target], offset)]
        # A wrapped file (fault injection) must see every read.
        file.seek(offset)
        data = file.read(self._record_bytes)
        target[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return target[: len(data)]

    def read(self, seq_id: int, *, cached: bool = True) -> np.ndarray:
        """Fetch a sequence by id, charging its pages to :attr:`stats`.

        Raises :class:`~repro.exceptions.CorruptionError` (or its
        subclass :class:`~repro.exceptions.TornWriteError`) when the
        record fails validation.  A miss is read straight into a spare
        cache frame and admitted once it validates.  ``cached=False``
        reads around the hot-read cache: from disk, through the CRC,
        without consulting or filling the cache.
        """
        if not 0 <= seq_id < self._count:
            raise KeyNotFoundError(seq_id)
        cache = self._cache if cached else None
        if cache is not None:
            block = cache.get(seq_id)
            if block is not None:
                self.stats.charge_cached()
                try:
                    self._check_block(seq_id, block)
                except CorruptionError:
                    # A record that no longer validates (e.g. checksum
                    # verification was toggled on after it was cached)
                    # must not be served again.
                    cache.invalidate(seq_id)
                    raise
                return self._decode(block[None])[0]
        self.stats.charge(seq_id, int(self._pages_of(seq_id)))
        if cache is not None and cache.capacity:
            frame = cache.spare()
            target = cache.frames[frame]
        else:
            frame, target = None, np.empty(self._record_bytes, dtype=np.uint8)
        block = self._read_record(seq_id, target)
        self._check_block(seq_id, block)
        if frame is not None:
            cache.admit(seq_id, frame)
        return self._decode(block[None])[0]

    def read_many(self, seq_ids, *, cached: bool = True) -> np.ndarray:
        """Fetch several sequences as a ``(len(seq_ids), n)`` matrix.

        Returns, raises and counts exactly what :meth:`read` called per
        id in request order would — payload bytes, :class:`IOStats`
        (seeks in request order), cache hits, misses, evictions and LRU
        order — but handles the block as arrays: the cache plans the
        block in one pass (:meth:`SequenceCache.plan`), the misses are
        one gather straight into the plan's spare frames, every record
        is CRC-checked and decoded where it lies, and the counters are
        charged in aggregate.  The checks run before any side effect; a
        block that fails one (a bad record, a short file), or that asks
        for an id twice, is read by the per-id loop instead, which then
        raises exactly where, and after exactly the side effects, it
        always did.  ``cached=False`` is :meth:`read`'s cache bypass,
        per block.
        """
        ids = _checked_ids(seq_ids, self._count)
        if len(ids) < 2:  # nothing to batch: the per-id path is cheaper
            return self._read_each(ids.tolist(), cached)
        cache = self._cache if cached else None
        plan = None if cache is None else cache.plan(ids)
        if cache is not None and plan is None:  # an id repeats
            return self._read_each(ids.tolist(), cached)
        misses = np.arange(len(ids)) if plan is None else plan.misses
        # Misses with no cache frame (every request, without a cache)
        # go to the rows of a scratch buffer.
        scratch = misses if plan is None else misses[: len(misses) - plan.taken]
        # (records, rows holding the block's, their positions or None for
        # all, the misses' ids, the rows they are read into)
        parts = []
        if len(scratch) < len(ids):
            framed = misses[len(scratch) :]
            held = (plan.frames >= 0).nonzero()[0] if scratch.size else None
            rows = plan.frames if held is None else plan.frames[held]
            parts.append(
                (cache.frames, rows, held, ids[framed], plan.frames[framed])
            )
        if scratch.size:
            raw = np.empty(
                (len(scratch), frame_bytes(self._record_bytes)), dtype=np.uint8
            )
            where = scratch if parts else None
            rows = np.arange(len(scratch))
            parts.append((raw, None, where, ids[scratch], rows))
        for records, rows, _, read_ids, read_rows in parts:
            if (
                not self._read_into(records, read_ids, read_rows)
                or self._failed_units(records, rows).size
            ):
                return self._read_each(ids.tolist(), cached)
        if len(parts) == 1:
            out = self._decode(*parts[0][:2])
        else:
            out = np.empty((len(ids), self.sequence_length), dtype=np.float64)
            for records, rows, where, *_ in parts:
                out[where] = self._decode(records, rows)
        self.stats.charge_many(
            ids[misses], self._pages_of(ids[misses]), cached=len(ids) - len(misses)
        )
        if plan is not None:
            cache.commit(plan, ids)
        return out

    def _read_each(self, seq_ids: list[int], cached: bool = True) -> np.ndarray:
        """:meth:`read` per id, in order: the reference ``read_many``."""
        rows = [self.read(seq_id, cached=cached) for seq_id in seq_ids]
        if not rows:
            return np.empty((0, self.sequence_length), dtype=np.float64)
        return np.stack(rows)

    def _read_into(
        self, records: np.ndarray, seq_ids: np.ndarray, rows: np.ndarray
    ) -> bool:
        """Read the on-disk records of ``seq_ids`` into the start of
        ``records[rows]``.

        Memory-mapped, one fancy-index gather.  Buffered, the ids are
        sorted by offset, adjacent ones joined into runs, and each run
        is one ``preadv(2)`` into the rows it fills (split at
        ``IOV_MAX`` rows).  Returns False when the records cannot all be
        read that way — a short file, a closed one, or a backing file
        object that is not the store's own (fault injection wraps it
        and must see every ``read``) — and the caller reads per id.
        """
        if not seq_ids.size:
            return True
        view = self._block_view()
        if view is not None:
            records[rows, : self._record_bytes] = view[seq_ids]
            return True
        file = self._file
        if _PREADV is None or type(file) is not io.BufferedRandom or file.closed:
            return False
        file.flush()  # appends may still sit in the file object's buffer
        stride, block_bytes = records.shape[1], self._record_bytes
        order = seq_ids.argsort(kind="stable")
        ordered = seq_ids[order]
        # A read starts where the ids stop being adjacent, and every
        # IOV_MAX rows into a run.
        new_run = np.empty(len(ordered), dtype=bool)
        new_run[0] = True
        np.not_equal(ordered[1:], ordered[:-1] + 1, out=new_run[1:])
        if len(ordered) > _IOV_MAX:
            position = np.arange(len(ordered))
            run_start = np.maximum.accumulate(np.where(new_run, position, 0))
            new_run |= (position - run_start) % _IOV_MAX == 0
        starts = new_run.nonzero()[0]
        flat = memoryview(records).cast("B")
        buffers = [
            flat[row * stride : row * stride + block_bytes]
            for row in rows[order].tolist()
        ]
        fd = file.fileno()
        bounds = starts.tolist() + [len(ordered)]
        offsets = self._offset_of(ordered[starts]).tolist()
        for start, stop, offset in zip(bounds, bounds[1:], offsets):
            if _PREADV(fd, buffers[start:stop], offset) != (stop - start) * block_bytes:
                return False
        return True

    def scrub(self) -> tuple[int, ...]:
        """Verify every stored sequence; return the ids that fail.

        A maintenance pass (it bypasses :attr:`stats`, so experiment I/O
        counters stay meaningful): each sequence's record is read and
        checksum-validated, and the ids of corrupt or torn sequences are
        returned instead of raised — feed them to the engine's
        quarantine, or re-ingest them from the source of truth.

        The scrub always reads from disk — never from the sequence
        cache — and evicts every failing id from the cache, so a
        sequence that went bad on disk can never keep being served from
        a stale cached copy.
        """
        bad: list[int] = []
        buffer = np.empty(self._record_bytes, dtype=np.uint8)
        for seq_id in range(self._count):
            try:
                self._check_block(seq_id, self._read_record(seq_id, buffer))
            except CorruptionError:
                bad.append(seq_id)
        if bad:
            if self._cache is not None:
                for seq_id in bad:
                    self._cache.invalidate(seq_id)
            obs.add("resilience.scrub_failures", len(bad))
        return tuple(bad)


class MemorySequenceStore:
    """Drop-in replacement for :class:`SequencePageStore` held in RAM.

    Reads are free: :attr:`stats` counts calls but charges zero pages, which
    models the paper's "compressed features in memory" configuration.
    """

    def __init__(self, sequence_length: int) -> None:
        if sequence_length <= 0:
            raise StorageError("sequence_length must be positive")
        self.sequence_length = int(sequence_length)
        self.stats = IOStats()
        # Row storage with spare capacity; the first ``_count`` rows hold
        # the sequences, so a block read is one fancy index.
        self._matrix = np.empty((0, self.sequence_length), dtype=np.float64)
        self._count = 0

    @classmethod
    def over(cls, matrix: np.ndarray) -> "MemorySequenceStore":
        """A store whose rows *are* ``matrix``: adopted, not copied.

        The caller hands the array over; an append grows into a new
        buffer, so the adopted rows are never written.
        """
        matrix = as_float_matrix(matrix)
        store = cls(matrix.shape[1])
        store._matrix, store._count = matrix, len(matrix)
        return store

    def __len__(self) -> int:
        return self._count

    @property
    def pages_per_sequence(self) -> int:
        return 0

    def append(self, values) -> int:
        arr = as_float_array(values)
        if arr.size != self.sequence_length:
            raise StorageError(
                f"store holds sequences of length {self.sequence_length}, "
                f"got {arr.size}"
            )
        return self._extend(arr.reshape(1, -1))[0]

    def append_matrix(self, matrix: np.ndarray) -> list[int]:
        """Append every row; validated and copied once, as a block."""
        matrix = as_float_matrix(matrix)
        if matrix.shape[1] != self.sequence_length:
            raise StorageError(
                f"store holds sequences of length {self.sequence_length}, "
                f"got {matrix.shape[1]}"
            )
        return self._extend(matrix)

    def _extend(self, rows: np.ndarray) -> list[int]:
        """Copy ``rows`` in after the last sequence, growing geometrically."""
        first, end = self._count, self._count + len(rows)
        if end > len(self._matrix):
            grown = np.empty(
                (max(end, 2 * len(self._matrix)), self.sequence_length)
            )
            grown[:first] = self._matrix[:first]
            self._matrix = grown
        self._matrix[first:end] = rows
        self._count = end
        return list(range(first, end))

    def read(self, seq_id: int) -> np.ndarray:
        if not 0 <= seq_id < self._count:
            raise KeyNotFoundError(seq_id)
        self.stats.read_calls += 1
        # Charge zero pages so the page counter exists (and stays zero)
        # for in-memory runs — reports can show "0 pages" explicitly.
        obs.add("storage.read_calls")
        obs.add("storage.pages_read", 0)
        return self._matrix[seq_id]

    def read_many(self, seq_ids) -> np.ndarray:
        """Fetch several sequences as one matrix; counts one call per id."""
        ids = _checked_ids(seq_ids, self._count)
        self.stats.read_calls += len(ids)
        obs.add("storage.read_calls", len(ids))
        obs.add("storage.pages_read", 0)
        return self._matrix[ids]

    def close(self) -> None:
        """No-op, for interface parity with :class:`SequencePageStore`."""

    def __enter__(self) -> "MemorySequenceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
