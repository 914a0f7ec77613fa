"""A row union reads like the per-id loop over its sources.

:class:`~repro.storage.union.RowUnion` is the verifier's store over the
shard router's shards and the stream union's two tiers.  The law, for
any sources (empty ones, without a store or with one, among cached page
stores and in-memory ones) under a contiguous or an interleaved id map,
and any block of ids (repeated, unsorted): ``union.read_many(ids)``
equals the stacked ``twin.read(i)`` of a twin union over twin stores,
and leaves every store's :class:`IOStats`, cache counters and LRU order
where that per-id loop leaves its twin's.  An id outside the union
raises :class:`~repro.exceptions.KeyNotFoundError`, before any read.
"""

import contextlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import KeyNotFoundError
from repro.storage import MemorySequenceStore, SequencePageStore
from repro.storage.union import RowUnion

LENGTH = 16
# (rows, store kind, cache budget in records); "none" is no store when empty
SOURCE = st.tuples(
    st.integers(0, 6), st.sampled_from(["pages", "memory", "none"]), st.integers(0, 4)
)


def twins(directory, source, rows, kind, budget, stack):
    """Two stores over the same rows: one for the block, one for the loop."""
    if kind == "none" and not len(rows):
        return None, None
    if kind != "pages":
        return MemorySequenceStore.over(rows), MemorySequenceStore.over(rows)
    path = os.path.join(directory, f"{source}.pages")
    with SequencePageStore(path, LENGTH, page_size=128) as writer:
        writer.append_matrix(rows)
        cache_bytes = budget * writer._record_bytes
    return tuple(
        stack.enter_context(SequencePageStore.open(path, cache_bytes=cache_bytes))
        for _ in range(2)
    )


def state(store):
    if store is None:
        return None
    stats, cache = store.stats, getattr(store, "cache", None)
    return (stats.read_calls, stats.pages_read, stats.seeks), cache is not None and (
        cache.hits, cache.misses, cache.evictions, cache.items()
    )


@settings(max_examples=80, deadline=None)
@given(
    sources=st.lists(SOURCE, min_size=1, max_size=4),
    interleaved=st.booleans(),
    seed=st.integers(0, 2**16),
    blocks=st.lists(st.lists(st.integers(0, 10**6), max_size=16), max_size=3),
)
def test_read_many_is_the_per_id_loop(sources, interleaved, seed, blocks):
    rng = np.random.default_rng(seed)
    sizes = [rows for rows, _, _ in sources]
    total = sum(sizes)
    deal = rng.permutation(total) if interleaved else np.arange(total)
    ends = np.cumsum(sizes)
    ids_of = [np.sort(deal[end - size : end]) for size, end in zip(sizes, ends)]
    matrix = rng.normal(size=(total, LENGTH))
    with tempfile.TemporaryDirectory() as directory, contextlib.ExitStack() as stack:
        pairs = [
            twins(directory, n, matrix[ids], kind, budget, stack)
            for n, ((_, kind, budget), ids) in enumerate(zip(sources, ids_of))
        ]
        block = RowUnion([(a, ids) for (a, _), ids in zip(pairs, ids_of)], LENGTH)
        loop = RowUnion([(b, ids) for (_, b), ids in zip(pairs, ids_of)], LENGTH)
        assert len(block) == total
        for gid in range(total):
            source, local = block.locate(gid)
            assert ids_of[source][local] == gid
        for ids in blocks:
            ids = [seq_id % total for seq_id in ids] if total else []
            got = block.read_many(ids)
            np.testing.assert_array_equal(got, matrix[ids].reshape(-1, LENGTH))
            if ids:
                per_id = np.stack([loop.read(i) for i in ids])
                np.testing.assert_array_equal(got, per_id)
            assert [state(a) for a, _ in pairs] == [state(b) for _, b in pairs]
        for bad in (total, -1):
            with pytest.raises(KeyNotFoundError, match="out of range"):
                block.read_many([0, bad] if total else [bad])
            with pytest.raises(KeyNotFoundError, match="out of range"):
                block.read(bad)
        assert [state(a) for a, _ in pairs] == [state(b) for _, b in pairs]
