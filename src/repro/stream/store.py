"""The crash-safe streaming store: WAL + live tier + sealed segments.

:class:`StreamStore` is the write path the paper's MSN setting implies
and ROADMAP item 2 asks for — an LSM-style organisation over one
directory:

* a mutable :class:`~repro.stream.live.LiveTier` absorbs single-event
  appends, full-series adds and day rollovers, with every mutation
  logged first to a :class:`~repro.stream.wal.WriteAheadLog`;
* :meth:`StreamStore.seal` flushes the live tier into an immutable,
  checksummed :class:`~repro.storage.SequencePageStore` segment through
  the existing bulk ``append_matrix`` lane;
* a generational :class:`~repro.stream.manifest.ManifestLog` names the
  consistent snapshot — readers adopt exactly one generation, writers
  publish the next with an atomic rename;
* :meth:`StreamStore.compact` merges the visible sealed rows into one
  segment, dropping tombstoned and superseded rows physically.

**Recovery is the headline.**  Opening a directory adopts the newest
manifest that passes its CRC *and* whose segments check out (failures
are quarantined aside and the scan falls back a generation), replays
the WAL tail into a fresh live tier (a torn final record is truncated,
not fatal), and garbage-collects every segment/WAL file the adopted
generation does not reference.  That one GC rule is what makes every
kill point safe: a crash mid-seal or mid-compaction leaves either the
old manifest (new files are unreferenced orphans → deleted) or the new
one (retired files are unreferenced → deleted) — orphans are garbage,
never corruption.  The :class:`RecoveryReport` on ``store.recovery``
says exactly what happened.

**Visibility semantics.**  Sealed rows are immutable, so mutation is
expressed by *shadowing*: a name's visible sealed row is its occurrence
in the newest segment (latest wins); a tombstone hides every sealed
occurrence; re-adding a sealed name tombstones it and starts a fresh
live series (supersede).  Compaction turns shadowing into physics —
only visible rows survive the merge, and the tombstone set resets.

**Crash model.**  Durable steps are separated by
:func:`~repro.resilience.faults.crashpoint` seams (``wal.write``,
``wal.sync``, ``seal.segment.write``, ``seal.segment.sync``,
``seal.wal.rotate``, ``manifest.tmp.write``, ``manifest.rename``,
``seal.gc``, ``compact.segment.write``, ``compact.segment.sync``,
``compact.gc``).  An armed :class:`~repro.resilience.faults.CrashPlan`
raises through the mutator; the store then *poisons itself* — the
in-memory image may be behind the disk, so every later call raises
until the directory is reopened, exactly like a killed process.  The
seeded drill in ``tests/stream/test_recovery.py`` kills at every seam
and asserts the reopened state is bit-identical to a legal snapshot.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.exceptions import (
    CorruptionError,
    IngestionError,
    KeyNotFoundError,
    StorageError,
)
from repro.resilience.faults import InjectedCrashError, crashpoint
from repro.resilience.ingest import validate_counts
from repro.storage.pagestore import SequencePageStore, fsync_enabled_from_env
from repro.stream.alerts import (
    BurstAlert,
    LiveBurstMonitor,
    LivePeriodMonitor,
    PeriodAlert,
)
from repro.stream.index import StreamIndex
from repro.stream.live import LiveTier
from repro.stream.manifest import (
    ManifestLog,
    SegmentInfo,
    StreamManifest,
    manifest_filename,
    segment_filename,
    wal_filename,
)
from repro.stream.wal import WalRecord, WriteAheadLog

__all__ = ["RecoveryReport", "StreamStore"]


@dataclass(frozen=True)
class RecoveryReport:
    """What opening a stream directory found and repaired."""

    generation: int  #: the adopted manifest generation
    created: bool  #: True when the open committed the genesis generation
    wal_records: int  #: live-tier records replayed from the WAL
    wal_truncated_bytes: int  #: torn-tail bytes truncated off the WAL
    manifests_quarantined: int  #: manifest files moved aside as invalid
    orphans_removed: int  #: unreferenced segment/WAL/tmp files deleted


class StreamStore:
    """A durable streaming ingest store over one directory.

    Parameters
    ----------
    directory:
        The stream directory.  Created (with a genesis generation) when
        it holds no manifest yet — ``sequence_length`` is then required.
    sequence_length:
        Window length in days, fixed for the store's lifetime.  When
        reopening, it is read from the adopted manifest (passing it too
        asserts the expectation).
    fsync:
        Force WAL appends, segment seals and manifest commits through
        ``fsync(2)``.  ``None`` consults ``REPRO_FSYNC`` with a default
        of **on** — this is the layer whose durability is the point.
    burst_window / burst_sigmas:
        Configuration of the per-series real-time burst monitor; a
        ``burst_window`` of ``None`` disables alerting.
    burst_model:
        The burst backend the monitor runs — a registered model name
        (``"ma"``, ``"kleinberg"``, ``"elastic"``, ``"macd"``), a
        built :class:`~repro.bursts.protocol.BurstModel`, or ``None``
        for the paper's moving-average detector with
        ``burst_window`` / ``burst_sigmas``.
    period_window:
        Window (days) of the per-series period-change monitor; ``None``
        (the default) disables period alerting.
    """

    def __init__(
        self,
        directory,
        sequence_length: int | None = None,
        *,
        fsync: bool | None = None,
        burst_window: int | None = 7,
        burst_sigmas: float = 1.5,
        burst_model=None,
        period_window: int | None = None,
    ) -> None:
        self.directory = os.fspath(directory)
        self._fsync = (
            fsync_enabled_from_env(default=True) if fsync is None else bool(fsync)
        )
        self._manifests = ManifestLog(self.directory, fsync=self._fsync)
        self._monitor = (
            LiveBurstMonitor(burst_window, burst_sigmas, model=burst_model)
            if burst_window is not None
            else None
        )
        self._period_monitor = (
            LivePeriodMonitor(window=period_window)
            if period_window is not None
            else None
        )
        self._segments: list[tuple[SegmentInfo, SequencePageStore]] = []
        # The cached union and the live epoch its live snapshot was
        # taken in (see index()), or None.
        self._union: tuple[int, StreamIndex] | None = None
        self._live_epoch = 0
        self._poisoned = False
        self._closed = False
        os.makedirs(self.directory, exist_ok=True)
        with obs.span("stream.open"):
            self.recovery = self._recover(sequence_length)
        obs.add("stream.recoveries")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, sequence_length: int | None) -> RecoveryReport:
        quarantined = 0
        adopted: StreamManifest | None = None
        for _, path in self._manifests.candidates():
            try:
                manifest = self._manifests.load(path)
                segments = self._open_segments(manifest)
            except StorageError:
                self._manifests.quarantine(path)
                quarantined += 1
                continue
            adopted, self._segments = manifest, segments
            break
        created = adopted is None
        if created:
            if sequence_length is None:
                raise CorruptionError(
                    f"{self.directory!r} holds no valid stream manifest "
                    f"and no sequence_length was given to create one"
                )
            adopted = self._genesis(int(sequence_length))
        elif (
            sequence_length is not None
            and int(sequence_length) != adopted.sequence_length
        ):
            raise StorageError(
                f"stream at {self.directory!r} holds "
                f"{adopted.sequence_length}-day windows, "
                f"expected {sequence_length}"
            )
        self._manifest = adopted
        self._tombstones = set(adopted.tombstones)
        self._live = LiveTier(adopted.sequence_length)
        records, truncated = self._replay_wal()
        orphans = self._collect_garbage()
        return RecoveryReport(
            generation=adopted.generation,
            created=created,
            wal_records=len(records),
            wal_truncated_bytes=truncated,
            manifests_quarantined=quarantined,
            orphans_removed=orphans,
        )

    def _genesis(self, sequence_length: int) -> StreamManifest:
        # WAL first, manifest second: the manifest must never reference
        # a file that does not exist.  A crash between the two leaves an
        # unreferenced WAL that the next genesis attempt re-creates.
        wal_name = wal_filename(1)
        WriteAheadLog.create(
            os.path.join(self.directory, wal_name), fsync=self._fsync
        ).close()
        manifest = StreamManifest(
            generation=1,
            sequence_length=sequence_length,
            wal=wal_name,
            next_segment=0,
            segments=(),
            tombstones=(),
            retired=(),
        )
        self._manifests.commit(manifest)
        return manifest

    def _open_segments(
        self, manifest: StreamManifest
    ) -> list[tuple[SegmentInfo, SequencePageStore]]:
        """Open and cross-check every segment a manifest references.

        A missing or mis-sized segment invalidates the whole generation
        (the caller falls back to the previous one): a manifest is only
        committed after its segments are durable, so disagreement means
        this generation's files were tampered with or lost.
        """
        opened: list[tuple[SegmentInfo, SequencePageStore]] = []
        try:
            for info in manifest.segments:
                path = os.path.join(self.directory, info.file)
                store = SequencePageStore.open(path, fsync=False)
                opened.append((info, store))
                if len(store) != info.count:
                    raise CorruptionError(
                        f"segment {info.file!r} holds {len(store)} rows, "
                        f"manifest generation {manifest.generation} "
                        f"records {info.count}"
                    )
                if store.sequence_length != manifest.sequence_length:
                    raise CorruptionError(
                        f"segment {info.file!r} holds "
                        f"{store.sequence_length}-day rows, manifest "
                        f"records {manifest.sequence_length}"
                    )
        except StorageError:
            for _, store in opened:
                store.close()
            raise
        return opened

    def _replay_wal(self) -> tuple[list[WalRecord], int]:
        wal_path = os.path.join(self.directory, self._manifest.wal)
        if not os.path.exists(wal_path):
            # Only reachable if the WAL was deleted out from under a
            # committed manifest; re-create so the store stays usable.
            WriteAheadLog.create(wal_path, fsync=self._fsync).close()
        records, truncated = WriteAheadLog.replay(wal_path, repair=True)
        for record in records:
            self._apply(record)
        self._wal = WriteAheadLog(wal_path, fsync=self._fsync)
        return records, truncated

    def _collect_garbage(self) -> int:
        """Delete files the adopted generation does not reference.

        This is the single rule that makes orphans harmless: after a
        crash, whichever manifest survives defines the store, and any
        half-born segment, rotated-away WAL or ``.tmp`` manifest is
        unreferenced by it — so it is deleted, not interpreted.
        Quarantined files and old manifests are kept (forensics and the
        concurrent-reader story respectively).
        """
        referenced = self._manifest.referenced_files()
        removed = 0
        for entry in sorted(os.listdir(self.directory)):
            path = os.path.join(self.directory, entry)
            is_garbage = entry.endswith(".tmp") or (
                entry not in referenced
                and (
                    (entry.startswith("wal-") and entry.endswith(".log"))
                    or (
                        entry.startswith("segment-")
                        and entry.endswith(".pages")
                    )
                )
            )
            if is_garbage:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
                removed += 1
        if removed:
            obs.add("stream.orphans_removed", removed)
        return removed

    def _apply(self, record: WalRecord) -> None:
        """Apply one WAL record to the in-memory image.

        Shared by live mutation and recovery replay — both sides run
        the exact same transition, which is what makes "replaying the
        log lands where the writer stopped" true by construction.
        """
        if record.kind == "add":
            self._live.add(record.name, record.values)
            # Feed every *completed* day; the final slot is the
            # still-open "today", fed by the rollover that closes it.
            for monitor in self._monitors():
                monitor.observe_series(record.name, record.values[:-1])
        elif record.kind == "event":
            self._live.record(record.name, record.day, record.count)
        elif record.kind == "roll":
            for name, value in self._live.rollover():
                for monitor in self._monitors():
                    monitor.observe(name, value)
        elif record.kind == "tomb":
            if record.name in self._live:
                self._live.delete(record.name)
            self._tombstones.add(record.name)
            self._forget_detectors((record.name,))
        else:  # pragma: no cover - decode guarantees the kind set
            raise CorruptionError(f"unknown WAL record kind {record.kind!r}")

    # ------------------------------------------------------------------
    # Lifecycle / guards
    # ------------------------------------------------------------------
    @property
    def sequence_length(self) -> int:
        """Window length in days, shared by every series."""
        return self._manifest.sequence_length

    @property
    def generation(self) -> int:
        """The manifest generation this store currently serves."""
        return self._manifest.generation

    @property
    def live_count(self) -> int:
        """Series currently in the live tier."""
        return len(self._live)

    def __len__(self) -> int:
        return len(self._visible_sealed()) + len(self._live)

    def names(self) -> tuple[str, ...]:
        """Visible names: surviving sealed rows, then live rows."""
        self._check_usable()
        sealed = tuple(name for _, _, name in self._visible_sealed())
        return sealed + self._live.names

    def close(self) -> None:
        """Release the WAL, segment and index handles; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._union = None
        wal = getattr(self, "_wal", None)
        if wal is not None:
            wal.close()
        for _, store in self._segments:
            store.close()

    def __enter__(self) -> "StreamStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_usable(self) -> None:
        if self._poisoned:
            raise StorageError(
                "stream store poisoned by a simulated crash — reopen it "
                "from the directory to recover"
            )
        if self._closed:
            raise StorageError("stream store is closed")

    @contextlib.contextmanager
    def _crash_guard(self):
        """Turn an injected crash into a poisoned store, like a kill would.

        After the (uncatchable-by-policy) ``InjectedCrashError`` passes
        through, the in-memory image may trail the disk; refusing all
        further calls forces the drill — and any future caller — to do
        what a restarted process does: reopen from the directory.
        """
        try:
            yield
        except InjectedCrashError:
            self._poisoned = True
            with contextlib.suppress(Exception):
                self._wal.close()
            for _, store in self._segments:
                with contextlib.suppress(Exception):
                    store.close()
            raise

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _sealed_name_visible(self, name: str) -> bool:
        return name not in self._tombstones and any(
            name in info.names for info, _ in self._segments
        )

    def _commit_records(self, records: list[WalRecord]) -> None:
        payloads = []
        for record in records:
            if record.kind == "add":
                payloads.append(
                    WriteAheadLog.encode_add(record.name, record.values)
                )
            elif record.kind == "event":
                payloads.append(
                    WriteAheadLog.encode_event(
                        record.name, record.day, record.count
                    )
                )
            elif record.kind == "roll":
                payloads.append(WriteAheadLog.encode_roll())
            else:
                payloads.append(WriteAheadLog.encode_tomb(record.name))
        with self._crash_guard():
            self._wal.append_group(payloads)
        # Only after the group is durable does the memory image move —
        # a crash inside the WAL write leaves both sides at pre-batch.
        for record in records:
            self._apply(record)
        # Only a tombstone (delete, or a supersede of a sealed name)
        # changes which sealed rows are visible between seals.
        # Anything else ends only the live epoch (see index()).
        if any(record.kind == "tomb" for record in records):
            self._union = None
        else:
            self._live_epoch += 1

    def append(self, name: str, values) -> None:
        """Add a full-window raw count series under ``name``.

        A name already live is rejected
        (:class:`~repro.exceptions.IngestionError`); a name visible in
        the sealed tier is *superseded* — tombstoned and re-added live,
        atomically (one WAL group).
        """
        self._check_usable()
        records = self._plan_add(name, values)
        self._commit_records(records)
        obs.add("stream.appends")

    def append_many(self, items) -> None:
        """Add several ``(name, values)`` series as one atomic group.

        Everything is validated before one byte is written, and the
        whole batch travels as a single WAL group — a crash anywhere
        leaves either all of the batch or none of it.
        """
        self._check_usable()
        records: list[WalRecord] = []
        batch_names = set()
        for name, values in items:
            if name in batch_names:
                raise IngestionError(
                    f"series {name!r} appears twice in one batch"
                )
            batch_names.add(name)
            records.extend(self._plan_add(name, values))
        if not records:
            return
        self._commit_records(records)
        obs.add("stream.appends", len(batch_names))

    def _plan_add(self, name: str, values) -> list[WalRecord]:
        arr = validate_counts(values, name, counts=True)
        if arr.size != self.sequence_length:
            raise IngestionError(
                f"series {name!r} holds {arr.size} days, the stream's "
                f"window is {self.sequence_length}"
            )
        if name in self._live:
            raise IngestionError(f"series {name!r} is already live")
        records: list[WalRecord] = []
        if self._sealed_name_visible(name):
            records.append(WalRecord(kind="tomb", name=name))
            obs.add("stream.supersedes")
        records.append(WalRecord(kind="add", name=name, values=arr))
        return records

    def record(self, name: str, count: float, day: int | None = None) -> None:
        """Accumulate one count event into ``name``'s window.

        ``day`` defaults to the open "today" slot (the window's final
        index); earlier indices accept late-arriving data.  A sealed
        name is superseded into a fresh live series first.
        """
        self._check_usable()
        count = float(count)
        if not np.isfinite(count) or count < 0:
            raise IngestionError(
                f"series {name!r}: event count must be a finite "
                f"non-negative number, got {count!r}"
            )
        if day is None:
            day = self.sequence_length - 1
        if not 0 <= day < self.sequence_length:
            raise IngestionError(
                f"day index {day} outside the {self.sequence_length}-day "
                f"window"
            )
        records: list[WalRecord] = []
        if name not in self._live and self._sealed_name_visible(name):
            records.append(WalRecord(kind="tomb", name=name))
            obs.add("stream.supersedes")
        records.append(
            WalRecord(kind="event", name=name, day=int(day), count=count)
        )
        self._commit_records(records)
        obs.add("stream.events")

    def rollover(self) -> None:
        """Close the current day: every live window slides one slot.

        The day each live series just completed is fed to the burst
        monitor, so alerts fire the moment the data that causes them is
        final.
        """
        self._check_usable()
        self._commit_records([WalRecord(kind="roll")])
        obs.add("stream.rollovers")

    def delete(self, name: str) -> None:
        """Tombstone ``name`` everywhere it is visible."""
        self._check_usable()
        if name not in self._live and not self._sealed_name_visible(name):
            raise KeyNotFoundError(name)
        self._commit_records([WalRecord(kind="tomb", name=name)])
        obs.add("stream.tombstones")

    # ------------------------------------------------------------------
    # Seal
    # ------------------------------------------------------------------
    def seal(self) -> str | None:
        """Flush the live tier into an immutable checksummed segment.

        Returns the new segment's file name, or ``None`` when the live
        tier is empty.  The durable order is what recovery relies on:
        segment first, fresh WAL second, manifest rename third, old-WAL
        delete last — a crash between any two steps leaves either the
        old generation (plus unreferenced orphans) or the new one (plus
        an unreferenced old WAL), both of which open cleanly.  The sealed
        series' burst and period detectors are forgotten.
        """
        self._check_usable()
        if len(self._live) == 0:
            return None
        with obs.span("stream.seal"), self._crash_guard():
            names = self._live.names
            matrix = self._live.matrix()
            manifest = self._manifest
            ordinal = manifest.next_segment
            seg_name = segment_filename(ordinal)
            seg_path = os.path.join(self.directory, seg_name)
            crashpoint("seal.segment.write")
            writer = SequencePageStore(
                seg_path, self.sequence_length, fsync=False
            )
            writer.append_matrix(matrix)
            # Always flushed (a concurrent reader adopting the next
            # manifest must see the whole file); fsynced on demand.
            writer.flush()
            crashpoint("seal.segment.sync")
            if self._fsync:
                writer.sync()
            crashpoint("seal.wal.rotate")
            next_wal_name = wal_filename(manifest.generation + 1)
            next_wal = WriteAheadLog.create(
                os.path.join(self.directory, next_wal_name), fsync=self._fsync
            )
            sealed_names = set(names)
            try:
                next_manifest = StreamManifest(
                    generation=manifest.generation + 1,
                    sequence_length=manifest.sequence_length,
                    wal=next_wal_name,
                    next_segment=ordinal + 1,
                    segments=manifest.segments
                    + (
                        SegmentInfo(
                            file=seg_name, count=len(names), names=names
                        ),
                    ),
                    # Sealing a name publishes its newest occurrence;
                    # latest-wins shadowing replaces any tombstone on it.
                    tombstones=tuple(
                        sorted(self._tombstones - sealed_names)
                    ),
                    retired=(),
                )
                self._manifests.commit(next_manifest)
            except BaseException:
                next_wal.close()
                raise
            old_wal_name = manifest.wal
            self._adopt_after_seal(next_manifest, writer, next_wal)
            crashpoint("seal.gc")
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.directory, old_wal_name))
        obs.add("stream.seals")
        obs.add("stream.sealed_rows", len(names))
        return seg_name

    def _adopt_after_seal(
        self,
        manifest: StreamManifest,
        writer: SequencePageStore,
        next_wal: WriteAheadLog,
    ) -> None:
        self._wal.close()
        self._wal = next_wal
        self._manifest = manifest
        self._segments.append((manifest.segments[-1], writer))
        self._tombstones = set(manifest.tombstones)
        # A sealed series is never fed again, and a reopened store seeds
        # detectors only from the WAL written since the seal.
        self._forget_detectors(self._live.names)
        self._live.clear()
        self._union = None

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> str | None:
        """Merge the visible sealed rows into one segment.

        Tombstoned and shadowed (superseded) rows are physically
        dropped and the tombstone set resets; retired segment files are
        deleted only after the new manifest is durable, so a concurrent
        reader holding the prior generation keeps its already-open file
        handles (POSIX keeps unlinked-but-open files readable) and a
        crash at any point leaves a generation whose GC rule cleans up.
        Returns the merged segment's file name, or ``None`` when there
        is nothing to merge (``<= 1`` segment and no tombstones).
        """
        self._check_usable()
        if len(self._segments) <= 1 and not self._tombstones:
            return None
        with obs.span("stream.compact"), self._crash_guard():
            visible = self._visible_sealed()
            manifest = self._manifest
            ordinal = manifest.next_segment
            merged: tuple[SegmentInfo, SequencePageStore] | None = None
            segments: tuple[SegmentInfo, ...] = ()
            crashpoint("compact.segment.write")
            if visible:
                seg_name = segment_filename(ordinal)
                writer = SequencePageStore(
                    os.path.join(self.directory, seg_name),
                    self.sequence_length,
                    fsync=False,
                )
                writer.append_matrix(self._gather_rows(visible))
                writer.flush()
                crashpoint("compact.segment.sync")
                if self._fsync:
                    writer.sync()
                info = SegmentInfo(
                    file=seg_name,
                    count=len(visible),
                    names=tuple(name for _, _, name in visible),
                )
                merged = (info, writer)
                segments = (info,)
            retired = tuple(info.file for info, _ in self._segments)
            next_manifest = StreamManifest(
                generation=manifest.generation + 1,
                sequence_length=manifest.sequence_length,
                wal=manifest.wal,
                next_segment=ordinal + (1 if visible else 0),
                segments=segments,
                tombstones=(),
                retired=retired,
            )
            self._manifests.commit(next_manifest)
            old_segments = self._segments
            self._manifest = next_manifest
            self._segments = [merged] if merged else []
            self._tombstones = set()
            self._union = None
            crashpoint("compact.gc")
            for info, store in old_segments:
                store.close()
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.directory, info.file))
        obs.add("stream.compactions")
        obs.add("stream.segments_retired", len(retired))
        return merged[0].file if merged else None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _visible_sealed(self) -> list[tuple[int, int, str]]:
        """Visible ``(segment_index, row_index, name)`` in storage order.

        Latest wins: scanning segments newest to oldest, the first
        occurrence of a name claims it; tombstoned names are invisible
        everywhere.  The result is sorted back into (segment, row)
        order so compaction and queries see a stable layout.
        """
        winner: dict[str, tuple[int, int]] = {}
        for seg_idx in range(len(self._segments) - 1, -1, -1):
            info, _ = self._segments[seg_idx]
            for row_idx, name in enumerate(info.names):
                if name not in winner and name not in self._tombstones:
                    winner[name] = (seg_idx, row_idx)
        ordered = sorted(winner.items(), key=lambda item: item[1])
        return [(seg, row, name) for name, (seg, row) in ordered]

    def _gather_rows(self, visible: list[tuple[int, int, str]]) -> np.ndarray:
        """Read the visible rows from disk, CRC-validated, as one matrix.

        The reads go around each segment's hot-read cache: a sealed
        change re-reads every row through the checksums, so a byte that
        flipped on disk after a cached read is still caught here.
        """
        out = np.empty(
            (len(visible), self.sequence_length), dtype=np.float64
        )
        by_segment: dict[int, list[tuple[int, int]]] = {}
        for out_row, (seg_idx, row_idx, _) in enumerate(visible):
            by_segment.setdefault(seg_idx, []).append((out_row, row_idx))
        for seg_idx, pairs in by_segment.items():
            _, store = self._segments[seg_idx]
            out[[out_row for out_row, _ in pairs]] = store.read_many(
                [row for _, row in pairs], cached=False
            )
        return out

    def index(self) -> StreamIndex:
        """An engine-protocol index over the current union snapshot.

        Cached in two epochs.  The *sealed* epoch ends only when sealed
        visibility changes — ``seal()``, ``compact()``, or a WAL group
        holding a tombstone (a delete, or a supersede of a sealed name);
        the next call then re-reads every visible sealed row through the
        checksummed page stores (silent corruption surfaces here as a
        typed error, never as garbage distances) and quantises them.
        Any other mutation ends only the *live* epoch: the next call
        keeps the same sealed rows and codes around a fresh live
        snapshot (:meth:`StreamIndex.with_live`).
        """
        self._check_usable()
        if self._union is not None and self._union[0] == self._live_epoch:
            return self._union[1]
        live = (self._live.matrix(), self._live.names)
        if self._union is not None:
            built = self._union[1].with_live(*live)
        else:
            visible = self._visible_sealed()
            sealed_matrix = (
                self._gather_rows(visible)
                if visible
                else np.empty((0, self.sequence_length), dtype=np.float64)
            )
            built = StreamIndex(
                sealed_matrix, tuple(name for _, _, name in visible), *live
            )
        self._union = (self._live_epoch, built)
        return built

    def search(self, query, k: int = 1):
        """k-NN over sealed + live through the shared engine."""
        return self.index().search(query, k)

    def range_search(self, query, radius: float):
        """Range search over sealed + live through the shared engine."""
        return self.index().range_search(query, radius)

    # ------------------------------------------------------------------
    # Alerts
    # ------------------------------------------------------------------
    def _monitors(self):
        """The active live monitors (burst, then period)."""
        active = []
        if self._monitor is not None:
            active.append(self._monitor)
        if self._period_monitor is not None:
            active.append(self._period_monitor)
        return active

    def _forget_detectors(self, names) -> None:
        """Drop the named series' detectors from every monitor."""
        for monitor in self._monitors():
            for name in names:
                monitor.forget(name)

    def drain_alerts(self) -> list[BurstAlert]:
        """Burst alerts raised since the last drain (empty if disabled)."""
        if self._monitor is None:
            return []
        return self._monitor.drain()

    def drain_period_alerts(self) -> list[PeriodAlert]:
        """Period-change alerts since the last drain (empty if disabled)."""
        if self._period_monitor is None:
            return []
        return self._period_monitor.drain()

    @property
    def monitor(self) -> LiveBurstMonitor | None:
        """The live burst monitor, or ``None`` when alerting is off."""
        return self._monitor

    @property
    def period_monitor(self) -> LivePeriodMonitor | None:
        """The live period monitor, or ``None`` when period alerting is off."""
        return self._period_monitor

    # ------------------------------------------------------------------
    # Introspection used by drills and docs examples
    # ------------------------------------------------------------------
    def manifest_path(self) -> str:
        """Path of the currently adopted manifest file."""
        return os.path.join(
            self.directory, manifest_filename(self._manifest.generation)
        )

    def segment_files(self) -> tuple[str, ...]:
        """File names of the current generation's segments, in order."""
        return tuple(info.file for info, _ in self._segments)
