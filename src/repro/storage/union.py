"""Several sequence stores read as one population, by global id."""

from __future__ import annotations

import numpy as np

from repro.exceptions import KeyNotFoundError, ReproError

__all__ = ["RowUnion"]


class RowUnion:
    """The verifier's store over rows held in several stores: the shard
    router's shards, or the stream union's sealed and live tiers.

    Built from ``(store, global_ids)`` sources whose id lists partition
    ``range(total)``; an empty source may have no store (``None``).  A
    block of ids is read with one ``read_many`` per source — sources in
    order of first appearance, each store's ids in request order — so
    every store's counters, cache and LRU order end where a per-id
    ``read`` loop leaves them; a block from one source is that store's
    read as is.
    """

    def __init__(self, sources, sequence_length: int) -> None:
        self.stores = [store for store, _ in sources]
        self.global_ids = [np.asarray(i, dtype=np.intp) for _, i in sources]
        self.sequence_length = int(sequence_length)
        for store, ids in zip(self.stores, self.global_ids):
            if store is None and ids.size:
                raise ReproError("a populated source needs a store")
            if store is not None and len(store) != ids.size:
                raise ReproError(
                    f"a source holds {len(store)} members but "
                    f"{ids.size} global ids were supplied"
                )
        total = int(sum(ids.size for ids in self.global_ids))
        if total and not np.array_equal(
            np.sort(np.concatenate(self.global_ids)), np.arange(total)
        ):
            raise ReproError(
                "global ids must partition range(total) — "
                "every id on exactly one source"
            )
        self._source_of = np.empty(total, dtype=np.intp)
        self._local_of = np.empty(total, dtype=np.intp)
        for source, ids in enumerate(self.global_ids):
            self._source_of[ids] = source
            self._local_of[ids] = np.arange(ids.size)

    def __len__(self) -> int:
        return int(self._source_of.size)

    def locate(self, seq_id: int) -> tuple[int, int]:
        """``(source, local id)`` of a global id."""
        seq_id = int(seq_id)
        if not 0 <= seq_id < self._source_of.size:
            raise KeyNotFoundError(
                f"sequence id {seq_id} out of range for "
                f"{self._source_of.size} members"
            )
        return int(self._source_of[seq_id]), int(self._local_of[seq_id])

    def read(self, seq_id: int) -> np.ndarray:
        source, local = self.locate(seq_id)
        return self.stores[source].read(local)

    def read_many(self, seq_ids) -> np.ndarray:
        """The rows of ``seq_ids`` as one ``(len(seq_ids), n)`` block."""
        ids = np.asarray(seq_ids, dtype=np.intp).reshape(-1)
        if not ids.size:
            return np.empty((0, self.sequence_length))
        # Blocks are a few ids: Python's min/max beat two ufunc passes.
        listed = ids.tolist()
        if min(listed) < 0 or max(listed) >= len(self):
            self.locate(next(i for i in listed if not 0 <= i < len(self)))
        source = self._source_of[ids]
        local = self._local_of[ids]
        order = dict.fromkeys(source.tolist())
        if len(order) == 1:
            return self.stores[source[0]].read_many(local.tolist())
        rows = np.empty((ids.size, self.sequence_length))
        for each in order:
            mask = source == each
            rows[mask] = self.stores[each].read_many(local[mask].tolist())
        return rows

    def append(self, source: int) -> int:
        """Book the row just appended to ``source``'s store as the next
        global id, and return that id."""
        seq_id = len(self)
        ids = np.append(self.global_ids[source], seq_id)
        self.global_ids[source] = ids
        self._source_of = np.append(self._source_of, source)
        self._local_of = np.append(self._local_of, ids.size - 1)
        return seq_id
