"""Byte-budgeted LRU cache for hot sequence reads.

The paper's timing experiment (fig. 23) separates "features on disk"
from "features in memory"; real deployments sit in between — a small
set of hot sequences (popular queries, the verifier's repeat reads)
served from memory while the long tail stays on disk.
:class:`SequenceCache` models that middle ground: a least-recently-used
cache over the *raw checksummed records* of a
:class:`~repro.storage.pagestore.SequencePageStore`, bounded by a byte
budget rather than an entry count so the operator reasons in the same
unit as the page store itself.

Design points:

* **A frame table the store reads into.**  Every record has the same
  size, so the cache is one ``(frames, record_bytes)`` uint8 array,
  like a database buffer pool: room for the budget's records plus
  spare frames for one block's admitted misses (never more than the
  capacity), grown in doubling steps as it fills.  Each frame carries
  its id and an LRU stamp, and an id → frame index finds it.  A miss
  is read from disk straight into a spare frame and admitted there, so
  no record is ever copied into the cache; a spare frame is scratch
  until admitted.
* **Raw records, not decoded arrays.**  A hit runs the frame through
  the same CRC validation as a miss, so a cached record that was
  corrupt on disk still raises instead of silently serving garbage —
  the cache changes *where* bytes come from, never *whether* they are
  checked.
* **Explicit invalidation.**  ``scrub()`` and the torn-write repair
  path call :meth:`invalidate` for every affected id, so a repaired or
  quarantined sequence can never be served stale.
* **Observable.**  Hits, misses, evictions and invalidations are
  instance counters mirrored into :mod:`repro.obs`
  (``storage.cache.*``); the run report derives the hit rate.
* **A block plan as arrays.**  :meth:`SequenceCache.plan` works out
  what a per-id ``get`` / ``put`` loop over a block of distinct ids
  would do without changing anything: request ``j`` of a cached id
  hits iff its LRU stack depth at its turn, ``p + j`` less the earlier
  cached requests that were already above it, is below the capacity,
  and the block evicts ``max(0, count + misses - capacity)`` records.
  The store reads the misses into the plan's spare frames and checks
  the block; :meth:`SequenceCache.commit` then moves only indices and
  stamps.  A block that fails its checks leaves every cached record in
  its frame for the per-id loop.

The budget comes from the ``cache_bytes`` store parameter or, by
default, the ``REPRO_CACHE_BYTES`` environment variable (unset or 0
disables caching entirely — stores then behave exactly as before).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.exceptions import StorageError
from repro.tools.envparse import parse_env_int

__all__ = ["SequenceCache", "cache_budget_from_env"]

#: Environment variable consulted when a store is created without an
#: explicit ``cache_bytes`` argument.
CACHE_BYTES_ENV = "REPRO_CACHE_BYTES"

#: The stamp of a free frame, which no log position has.
_FREE = -1
#: Rows of the pairwise comparison :func:`_earlier_greater` holds at once.
_PAIR_ROWS = 1024


def cache_budget_from_env() -> int:
    """The default cache budget in bytes (0 = caching disabled)."""
    return parse_env_int(CACHE_BYTES_ENV, 0, minimum=0, error=StorageError)


def frame_bytes(record_bytes: int) -> int:
    """The bytes a record takes in a buffer row: padded to a multiple of
    8, so a float64 payload at the start of every row stays aligned."""
    return -(-record_bytes // 8) * 8


def _earlier_greater(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each ``j`` of ``rows``, how many ``i < j`` have
    ``values[i] > values[j]``."""
    out = np.empty(len(rows), dtype=np.intp)
    columns = np.arange(len(values))
    for start in range(0, len(rows), _PAIR_ROWS):
        chunk = rows[start : start + _PAIR_ROWS]
        greater = values[None, :] > values[chunk, None]
        greater &= columns[None, :] < chunk[:, None]
        out[start : start + len(chunk)] = np.count_nonzero(greater, axis=1)
    return out


@dataclass
class BlockPlan:
    """What a per-id ``get`` / ``put`` loop over one block would do.

    ``frames[j]`` is the frame that holds request ``j``'s record: its
    own for a hit, a spare for a miss.  The block's first misses get -1
    when there are more misses than spare frames; none of those is ever
    admitted, and the store reads them into a scratch buffer.  The rest
    is how :meth:`SequenceCache.commit` moves the indices: the ``taken``
    spare frames leave the free stack, ``freed`` ones join it (the
    records the block evicts, and the spares of misses it does not
    keep), and the requests from ``keep_from`` on, the block's last
    ``capacity``, end most recent in request order.
    """

    frames: np.ndarray
    misses: np.ndarray  # positions that read disk, ascending
    evictions: int
    taken: int
    freed: np.ndarray
    keep_from: int
    count: int


class SequenceCache:
    """LRU table of ``seq_id -> raw record`` frames under a byte budget.

    Parameters
    ----------
    budget_bytes:
        Maximum total size of cached records; the cache holds
        ``budget_bytes // record_bytes`` of them (none when one record
        is larger than the whole budget).
    record_bytes:
        The size of every record, the store's own; a frame holds one in
        :func:`frame_bytes`.
    """

    def __init__(self, budget_bytes: int, record_bytes: int) -> None:
        if budget_bytes < 0:
            raise StorageError(
                f"cache budget must be >= 0 bytes, got {budget_bytes}"
            )
        if record_bytes <= 0:
            raise StorageError(
                f"cache records must be > 0 bytes, got {record_bytes}"
            )
        self.budget_bytes = int(budget_bytes)
        self.record_bytes = int(record_bytes)
        self.capacity = self.budget_bytes // self.record_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._frame_limit = 2 * self.capacity  # records + spare frames
        self.frames = np.empty(
            (0, frame_bytes(self.record_bytes)), dtype=np.uint8
        )
        self._ids = np.empty(0, dtype=np.intp)  # frame -> id, -1 if free
        self._free = np.empty(0, dtype=np.intp)  # stack of free frames
        self._free_top = 0
        # id -> frame, -1 if absent; ids past the end read its last
        # entry, which stays -1.
        self._slot = np.full(1, -1, dtype=np.intp)
        self._count = 0
        # LRU order: every touch of a frame stamps it with the next tick
        # and logs it at ``log[stamp - base]``.  A log entry is current
        # while its frame still bears that stamp, so the least recent
        # records are the current entries from ``first`` on.
        self._stamps = np.empty(0, dtype=np.int64)  # frame -> stamp
        self._log = np.empty(0, dtype=np.intp)
        self._base = self._first = self._tick = 0

    @property
    def current_bytes(self) -> int:
        return self._count * self.record_bytes

    def __len__(self) -> int:
        return self._count

    def __contains__(self, seq_id: int) -> bool:
        return self._frame_of(seq_id) >= 0

    def items(self) -> list[tuple[int, bytes]]:
        """Every cached ``(id, record)``, least recent first."""
        return [
            (int(self._ids[f]), self.frames[f, : self.record_bytes].tobytes())
            for f in self._oldest(self._count).tolist()
        ]

    # ------------------------------------------------------------------
    # Per id
    # ------------------------------------------------------------------
    def get(self, seq_id: int) -> np.ndarray | None:
        """The record of ``seq_id``, refreshed as most recent.

        A view of its frame: it holds the record until the cache next
        changes.
        """
        frame = self._frame_of(seq_id)
        if frame < 0:
            self.misses += 1
            obs.add("storage.cache.misses")
            return None
        if self._tick - self._base == len(self._log):
            self._compact(1)
        self._log[self._tick - self._base] = frame
        self._stamps[frame] = self._tick
        self._tick += 1
        self.hits += 1
        obs.add("storage.cache.hits")
        return self.frames[frame, : self.record_bytes]

    def spare(self) -> int:
        """A free frame to read a record into before :meth:`admit`.

        It stays this call's answer until the cache next changes; only a
        cache that holds at least one record has one.
        """
        self._reserve(1)
        return int(self._free[self._free_top - 1])

    def admit(self, seq_id: int, frame: int) -> None:
        """Cache the record read into the :meth:`spare` ``frame`` as
        ``seq_id``'s, replacing a stale entry and evicting the least
        recent one to fit."""
        if not self._free_top or self._free[self._free_top - 1] != frame:
            raise StorageError(f"frame {frame} is not the cache's spare")
        self._free_top -= 1
        stale = self._frame_of(seq_id)
        if stale >= 0:
            self._release(np.array([stale]))
        elif self._count == self.capacity:
            self._release(self._oldest(1))
            self.evictions += 1
            obs.add("storage.cache.evictions")
        self._occupy(np.array([seq_id]), np.array([frame]))
        self._count += 1

    def put(self, seq_id: int, block) -> None:
        """Cache a copy of ``block``, evicting the least recent to fit."""
        block = np.frombuffer(block, dtype=np.uint8)
        if len(block) != self.record_bytes:
            raise StorageError(
                f"cache records are {self.record_bytes} bytes, "
                f"got {len(block)}"
            )
        if not self.capacity:
            return
        frame = self.spare()
        self.frames[frame, : self.record_bytes] = block
        self.admit(seq_id, frame)

    def invalidate(self, seq_id: int) -> bool:
        """Drop ``seq_id`` from the cache; True if it was present."""
        frame = self._frame_of(seq_id)
        if frame < 0:
            return False
        self._release(np.array([frame]))
        self.invalidations += 1
        obs.add("storage.cache.invalidations")
        return True

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        if self._count:
            self.invalidations += self._count
            obs.add("storage.cache.invalidations", self._count)
            self._release(np.flatnonzero(self._ids >= 0))

    # ------------------------------------------------------------------
    # Per block
    # ------------------------------------------------------------------
    def plan(self, seq_ids: np.ndarray) -> BlockPlan | None:
        """Plan ``get`` (and ``put`` on each miss) for every id of the
        non-negative ``seq_ids``, in order, without changing the cache;
        ``None`` if an id repeats.

        The misses' spare frames are reserved, so the store can read
        into them at once.
        """
        size = len(seq_ids)
        if size > 1 and len(set(seq_ids.tolist())) < size:
            return None
        capacity, count = self.capacity, self._count
        frames = self._slot.take(seq_ids, mode="clip")
        hit = frames >= 0
        cached = hit.nonzero()[0]
        own = frames[cached]
        # Only the `reach` least recent records can leave during the
        # block (untouched, or overtaken before their turn): evictions
        # take the least recent untouched record, and every hit ahead of
        # it in that order is one miss, so one eviction, fewer.
        spill = count + size - capacity
        reach = min(count, spill) if spill > 0 else 0
        below = overtaken = None
        if reach:
            oldest = self._oldest(reach)
            stamps = self._stamps[own]
            near = (stamps <= self._stamps[oldest[-1]]).nonzero()[0]
        if reach and near.size:
            # How many records are less recent than each near request.
            below = self._stamps[oldest].searchsorted(stamps[near])
            # A request's depth at its turn is p + j less the earlier
            # cached requests that were already above it.
            depth = count - 1 - below + cached[near]
            risky = (depth >= capacity).nonzero()[0]
            if risky.size:
                depth = depth[risky] - _earlier_greater(stamps, near[risky])
                overtaken = near[risky[depth >= capacity]]
                hit[cached[overtaken]] = False
        misses = (~hit).nonzero()[0]
        missed = len(misses)
        if not capacity:
            frames[:] = -1
            return BlockPlan(frames, misses, 0, 0, misses[:0], size, 0)
        final = min(capacity, count + missed)
        keep_from = max(0, size - capacity)
        # The first misses find no spare frame only when the block has
        # more misses than the capacity; none of them is kept.
        taken = min(missed, self._frame_limit - count)
        self._reserve(taken)
        top = self._free_top
        if missed > taken:
            frames[misses[: missed - taken]] = -1
        frames[misses[missed - taken :]] = self._free[top - taken : top]
        if keep_from:
            gone = [own[~hit[cached] | (cached < keep_from)]]
        else:
            gone = [] if overtaken is None else [own[overtaken]]
        evicted = count - len(cached) - (final - (size - keep_from))
        if evicted > 0:
            if below is not None:
                untouched = np.ones(reach, dtype=bool)
                untouched[below] = False
                oldest = oldest[untouched]
            gone.append(oldest[:evicted])
        if keep_from:
            unkept = misses[missed - taken : misses.searchsorted(keep_from)]
            gone.append(frames[unkept])
        return BlockPlan(
            frames,
            misses,
            count + missed - final,
            taken,
            np.concatenate(gone) if gone else misses[:0],
            keep_from,
            final,
        )

    def commit(self, plan: BlockPlan, seq_ids: np.ndarray) -> None:
        """Apply ``plan`` for the block ``seq_ids``: indices and stamps
        only, the records are already in their frames."""
        self._free_top -= plan.taken
        self._release(plan.freed)
        self._occupy(seq_ids[plan.keep_from :], plan.frames[plan.keep_from :])
        self._count = plan.count
        counts = {
            "hits": len(seq_ids) - len(plan.misses),
            "misses": len(plan.misses),
            "evictions": plan.evictions,
        }
        self.hits += counts["hits"]
        self.misses += counts["misses"]
        self.evictions += counts["evictions"]
        for name, amount in counts.items():
            if amount:  # a per-id loop never adds 0 to these counters
                obs.add(f"storage.cache.{name}", amount)

    # ------------------------------------------------------------------
    # The table
    # ------------------------------------------------------------------
    def _oldest(self, count: int) -> np.ndarray:
        """The frames of the ``count`` least recent records, least recent
        first: the first current entries of the log."""
        found, start, leading = [], self._first, True
        while count > 0 and start < self._tick:
            stop = min(self._tick, start + 2 * count + 16)
            window = self._log[start - self._base : stop - self._base]
            window = window[self._stamps[window] == np.arange(start, stop)]
            if leading:  # nothing current before it: skip it next time
                leading = not len(window)
                self._first = stop if leading else int(self._stamps[window[0]])
            found.append(window[:count])
            count -= len(found[-1])
            start = stop
        if len(found) == 1:
            return found[0]
        return np.concatenate(found) if found else np.empty(0, dtype=np.intp)

    def _touch(self, frames: np.ndarray) -> None:
        """Stamp ``frames`` most recent, in order."""
        if self._tick + len(frames) - self._base > len(self._log):
            self._compact(len(frames))
        at = self._tick - self._base
        self._log[at : at + len(frames)] = frames
        self._stamps[frames] = np.arange(self._tick, self._tick + len(frames))
        self._tick += len(frames)

    def _compact(self, room: int) -> None:
        """Restamp the records in LRU order into a fresh log with space
        for ``room`` more touches."""
        live = self._oldest(self._count)
        self._log = np.empty(max(1024, 2 * (len(live) + room)), dtype=np.intp)
        self._log[: len(live)] = live
        self._base = self._first = self._tick
        self._stamps[live] = np.arange(self._tick, self._tick + len(live))
        self._tick += len(live)

    def _frame_of(self, seq_id: int) -> int:
        if 0 <= seq_id < len(self._slot):
            return int(self._slot[seq_id])
        return -1

    def _occupy(self, seq_ids: np.ndarray, frames: np.ndarray) -> None:
        """Index ``frames`` as ``seq_ids``', most recent last; the caller
        keeps ``_count``."""
        if len(seq_ids):
            self._reserve_ids(int(seq_ids.max()) + 1)
        self._ids[frames] = seq_ids
        self._slot[seq_ids] = frames
        self._touch(frames)

    def _release(self, frames: np.ndarray) -> None:
        """Free ``frames`` (held or spare) onto the free stack."""
        if not len(frames):
            return
        seq_ids = self._ids[frames]
        seq_ids = seq_ids[seq_ids >= 0]
        self._slot[seq_ids] = -1
        self._count -= len(seq_ids)
        self._ids[frames] = -1
        self._stamps[frames] = _FREE
        top = self._free_top
        self._free[top : top + len(frames)] = frames
        self._free_top = top + len(frames)

    def _reserve(self, spare: int) -> None:
        """Grow the table until ``spare`` frames are free (at most
        ``_frame_limit`` frames in all)."""
        if self._free_top >= spare:
            return
        old = len(self.frames)
        new = min(
            self._frame_limit, max(old + spare - self._free_top, 2 * old, 16)
        )
        frames = np.empty((new, self.frames.shape[1]), dtype=np.uint8)
        frames[:old] = self.frames
        self.frames = frames
        self._ids = np.concatenate([self._ids, np.full(new - old, -1)])
        self._stamps = np.concatenate(
            [self._stamps, np.full(new - old, _FREE, dtype=np.int64)]
        )
        free = np.empty(new, dtype=np.intp)
        free[: self._free_top] = self._free[: self._free_top]
        # The lowest new frame on top, so reuse stays packed.
        free[self._free_top : self._free_top + new - old] = np.arange(
            new - 1, old - 1, -1
        )
        self._free = free
        self._free_top += new - old

    def _reserve_ids(self, end: int) -> None:
        """Index ids below ``end`` (and keep the last entry free)."""
        old = len(self._slot)
        if end < old:
            return
        new = max(end + 1, 2 * old)
        self._slot = np.concatenate([self._slot, np.full(new - old, -1)])
