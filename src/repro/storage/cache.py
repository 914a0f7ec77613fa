"""Byte-budgeted LRU cache for hot sequence reads.

The paper's timing experiment (fig. 23) separates "features on disk"
from "features in memory"; real deployments sit in between — a small
set of hot sequences (popular queries, the verifier's repeat reads)
served from memory while the long tail stays on disk.
:class:`SequenceCache` models that middle ground: a least-recently-used
cache over the *raw checksummed blocks* of a
:class:`~repro.storage.pagestore.SequencePageStore`, bounded by a byte
budget rather than an entry count so the operator reasons in the same
unit as the page store itself.

Design points:

* **Raw blocks, not decoded arrays.**  A hit replays the stored bytes
  through the same CRC validation as a miss, so a
  cached block that was corrupt on disk still raises instead of
  silently serving garbage — the cache changes *where* bytes come
  from, never *whether* they are checked.
* **Explicit invalidation.**  ``scrub()`` and the torn-write repair
  path call :meth:`invalidate` for every affected id, so a repaired or
  quarantined sequence can never be served stale.
* **Observable.**  Hits, misses, evictions and invalidations are
  instance counters mirrored into :mod:`repro.obs`
  (``storage.cache.*``); the run report derives the hit rate.
* **Batched replay.**  :meth:`SequenceCache.replay` works out what a
  per-id ``get`` / ``put`` loop over a block of ids would do — which
  request hits, which reads disk, what is evicted — without changing
  anything; :meth:`SequenceCache.commit` then applies it in one pass.
  The page store checks a block between the two, so a block that fails
  its checks leaves the cache untouched for the per-id loop to replay.

The budget comes from the ``cache_bytes`` store parameter or, by
default, the ``REPRO_CACHE_BYTES`` environment variable (unset or 0
disables caching entirely — stores then behave exactly as before).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.exceptions import StorageError
from repro.tools.envparse import parse_env_int

__all__ = ["SequenceCache", "cache_budget_from_env"]

#: Environment variable consulted when a store is created without an
#: explicit ``cache_bytes`` argument.
CACHE_BYTES_ENV = "REPRO_CACHE_BYTES"


def cache_budget_from_env() -> int:
    """The default cache budget in bytes (0 = caching disabled)."""
    return parse_env_int(CACHE_BYTES_ENV, 0, minimum=0, error=StorageError)


@dataclass
class CacheReplay:
    """What a per-id ``get`` / ``put`` loop over one block would do.

    Positions index the block's requests.  ``hits`` serve a block that
    was cached before the call; ``misses`` read disk (and are inserted,
    when a block fits the budget); ``repeats`` hit a block that an
    earlier miss of the same call inserted, so they serve that miss's
    bytes.  The rest is the cache state the loop would leave behind.
    """

    hits: list[tuple[int, bytes]]  # (position, cached block)
    misses: list[int]  # positions, in request order
    repeats: list[tuple[int, int]]  # (position, position of the miss)
    evictions: int
    dropped: set[int]  # cached ids the loop refreshes or evicts
    tail: OrderedDict[int, bytes | int]  # most recent last; int = a miss
    current_bytes: int


class SequenceCache:
    """LRU mapping of ``seq_id -> raw block bytes`` under a byte budget.

    Parameters
    ----------
    budget_bytes:
        Maximum total size of cached blocks.  Blocks larger than the
        whole budget are simply never cached.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise StorageError(
                f"cache budget must be >= 0 bytes, got {budget_bytes}"
            )
        self.budget_bytes = int(budget_bytes)
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._blocks: OrderedDict[int, bytes] = OrderedDict()

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._blocks

    def get(self, seq_id: int) -> bytes | None:
        """The cached block for ``seq_id``, refreshed as most recent."""
        block = self._blocks.get(seq_id)
        if block is None:
            self.misses += 1
            obs.add("storage.cache.misses")
            return None
        self._blocks.move_to_end(seq_id)
        self.hits += 1
        obs.add("storage.cache.hits")
        return block

    def put(self, seq_id: int, block: bytes) -> None:
        """Cache ``block``, evicting least-recently-used entries to fit."""
        size = len(block)
        if size > self.budget_bytes:
            return
        stale = self._blocks.pop(seq_id, None)
        if stale is not None:
            self.current_bytes -= len(stale)
        while self._blocks and self.current_bytes + size > self.budget_bytes:
            _, evicted = self._blocks.popitem(last=False)
            self.current_bytes -= len(evicted)
            self.evictions += 1
            obs.add("storage.cache.evictions")
        self._blocks[seq_id] = block
        self.current_bytes += size

    def replay(self, seq_ids: list[int], size: int) -> CacheReplay:
        """Plan ``get`` (and ``put`` of a ``size``-byte block on each
        miss) for every id in order, without touching the cache.

        The LRU order the loop would leave is the cached ids it never
        touches, in their current order, followed by the ids it touches,
        in the order it last touched them.  So the plan walks the
        current order only as far as evictions reach, and every
        dictionary operation is on a requested id or an evicted one.
        """
        blocks = self._blocks
        limit = self.budget_bytes - size  # an insert needs current <= limit
        untouched = iter(blocks)  # eviction order; skips ids in `dropped`
        dropped: set[int] = set()
        tail: OrderedDict[int, bytes | int] = OrderedDict()
        hits: list[tuple[int, bytes]] = []
        misses: list[int] = []
        repeats: list[tuple[int, int]] = []
        current, count, evictions = self.current_bytes, len(blocks), 0
        for position, seq_id in enumerate(seq_ids):
            block = blocks.get(seq_id)
            if block is not None and seq_id not in dropped:
                dropped.add(seq_id)
                tail[seq_id] = block
                hits.append((position, block))
                continue
            if seq_id in tail:
                tail.move_to_end(seq_id)
                entry = tail[seq_id]
                if isinstance(entry, int):
                    repeats.append((position, entry))
                else:
                    hits.append((position, entry))
                continue
            misses.append(position)
            if limit < 0:  # larger than the whole budget: never cached
                continue
            while count and current > limit:
                for victim in untouched:
                    if victim not in dropped:
                        dropped.add(victim)
                        current -= len(blocks[victim])
                        break
                else:
                    _, evicted = tail.popitem(last=False)
                    current -= size if isinstance(evicted, int) else len(evicted)
                count -= 1
                evictions += 1
            tail[seq_id] = position
            current += size
            count += 1
        return CacheReplay(
            hits, misses, repeats, evictions, dropped, tail, current
        )

    def commit(self, replay: CacheReplay, rows) -> None:
        """Apply ``replay``; row ``rows[position]`` of the 2-D uint8 array
        ``rows`` holds each miss's block.

        Only the misses still cached at the end are copied to ``bytes``.
        """
        blocks = self._blocks
        for seq_id in replay.dropped:
            del blocks[seq_id]
        for seq_id, entry in replay.tail.items():
            blocks[seq_id] = (
                rows[entry].tobytes() if isinstance(entry, int) else entry
            )
        self.current_bytes = replay.current_bytes
        counts = {
            "hits": len(replay.hits) + len(replay.repeats),
            "misses": len(replay.misses),
            "evictions": replay.evictions,
        }
        self.hits += counts["hits"]
        self.misses += counts["misses"]
        self.evictions += counts["evictions"]
        for name, amount in counts.items():
            if amount:  # a per-id loop never adds 0 to these counters
                obs.add(f"storage.cache.{name}", amount)

    def invalidate(self, seq_id: int) -> bool:
        """Drop ``seq_id`` from the cache; True if it was present."""
        block = self._blocks.pop(seq_id, None)
        if block is None:
            return False
        self.current_bytes -= len(block)
        self.invalidations += 1
        obs.add("storage.cache.invalidations")
        return True

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        if self._blocks:
            self.invalidations += len(self._blocks)
            obs.add("storage.cache.invalidations", len(self._blocks))
        self._blocks.clear()
        self.current_bytes = 0
