"""repro.stream — crash-safe streaming ingest (ROADMAP item 2).

The paper's MSN setting is a *stream* of (day, query) demand; this
package is the LSM-style write path that absorbs it durably:

* :class:`~repro.stream.wal.WriteAheadLog` — CRC'd, group-atomic log of
  every live-tier mutation; torn tails truncate, they never corrupt;
* :class:`~repro.stream.live.LiveTier` — mutable raw-count windows with
  day rollovers and query-time sliding-window re-normalisation;
* :class:`~repro.stream.manifest.ManifestLog` /
  :class:`~repro.stream.manifest.StreamManifest` — generational,
  atomically-renamed snapshots; readers adopt newest-valid, failures
  quarantine and fall back;
* :class:`~repro.stream.store.StreamStore` — the assembled store:
  WAL-backed appends, seal into checksummed immutable segments,
  recoverable compaction with tombstone/supersede semantics, and a
  recovery path proven by a seeded kill-point drill
  (``tests/stream/test_recovery.py``);
* :class:`~repro.stream.index.StreamIndex` — one coded ``flat`` over
  sealed + live: the union's row codes are its filter, and the shared
  engine keeps the pruning invariant intact;
* :class:`~repro.stream.alerts.LiveBurstMonitor` — real-time burst
  alerts through any registered burst model, bit-identical to the
  model's batch form on every prefix;
* :class:`~repro.stream.alerts.LivePeriodMonitor` — real-time
  period-*change* alerts over a sliding incremental periodogram.

Formats, the generation lifecycle, compaction invariants and the
failure matrix are specified in ``docs/STREAMING.md``.
"""

from repro.stream.alerts import (
    BurstAlert,
    LiveBurstMonitor,
    LivePeriodMonitor,
    PeriodAlert,
)
from repro.stream.index import StreamIndex
from repro.stream.live import LiveTier
from repro.stream.manifest import ManifestLog, SegmentInfo, StreamManifest
from repro.stream.store import RecoveryReport, StreamStore
from repro.stream.wal import WalRecord, WriteAheadLog

__all__ = [
    "BurstAlert",
    "LiveBurstMonitor",
    "LivePeriodMonitor",
    "PeriodAlert",
    "LiveTier",
    "ManifestLog",
    "RecoveryReport",
    "SegmentInfo",
    "StreamIndex",
    "StreamManifest",
    "StreamStore",
    "WalRecord",
    "WriteAheadLog",
]
