"""``read_many`` is the per-id ``read`` loop, observable for observable.

The batched reader plans the cache, gathers a block's disk reads, checks
every checksummed unit and charges the counters as arrays.  The law it
must keep: for any block of ids — duplicates, unsorted, adjacent runs —
under any cache budget, with mmap on or off, checksums on or off,
format 2 or 3 and any damage on disk, ``store.read_many(ids)`` returns, raises
and counts exactly what ``[twin.read(i) for i in ids]`` does on a twin
store opened over the same file.  "Counts" is every logical observable:
:class:`IOStats` (``read_calls``, ``pages_read``, ``seeks``, the head
position), the cache's hits, misses, evictions, invalidations,
``current_bytes`` and LRU order with its bytes, and the ``repro.obs``
counters each call moves.
"""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.exceptions import StorageError
from repro.storage import SequencePageStore
from repro.stream import StreamStore
from tests.storage.format2 import write_format2

PAGE_SIZE = 128  # small pages: format 2 takes one to three per row here
BUDGETS = ("none", "under one block", "a few blocks", "everything")
DAMAGE = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from(["flip", "zero unit", "truncate"]),
        st.floats(0, 1, exclude_max=True),
    ),
)
IDS = st.one_of(
    st.lists(st.integers(0, 11), min_size=1, max_size=24),
    # adjacent runs, in any order: what the buffered gather joins
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(1, 6)), min_size=1, max_size=4
    ).map(lambda runs: [first + i for first, count in runs for i in range(count)]),
)


def write_store(path, matrix, fmt):
    """A format-``fmt`` store file holding ``matrix``; its record bytes."""
    if fmt == 2:
        return write_format2(path, matrix, PAGE_SIZE)
    with SequencePageStore(path, matrix.shape[1], page_size=PAGE_SIZE) as store:
        store.append_matrix(matrix)
        return store._record_bytes


def damage_file(path, store, kind, where):
    """Flip a byte, zero a checksummed unit or cut the tail, somewhere in
    the records of ``store``."""
    first = store._offset_of(0)
    data = first + int(where * len(store) * store._record_bytes)
    with open(path, "r+b") as raw:
        if kind == "truncate":
            raw.truncate(data)
        elif kind == "flip":
            raw.seek(data)
            byte = raw.read(1)[0]
            raw.seek(data)
            raw.write(bytes([byte ^ 0x01]))
        else:
            raw.seek(data - (data - first) % store._unit)
            raw.write(bytes(store._unit))


def budget_bytes(label, rows, block):
    return {
        "none": 0,
        "under one block": block - 1,
        "a few blocks": 3 * block,
        "everything": rows * block,
    }[label]


def outcome(call):
    """What a call returned or raised, and the obs counters it moved."""
    with obs.observed() as registry:
        try:
            result = call()
            seen = ("ok", result.dtype.str, result.shape, result.tobytes())
        except StorageError as exc:
            seen = ("raised", type(exc).__name__, str(exc))
    return seen, registry.snapshot()["counters"]


def state(store):
    stats, cache = store.stats, store.cache
    io = (stats.read_calls, stats.pages_read, stats.seeks, stats._next_record)
    if cache is None:
        return io, None
    return io, (
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.invalidations,
        cache.current_bytes,
        cache.items(),  # LRU order, oldest first, with bytes
    )


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(2, 12),
    length=st.sampled_from([5, 16, 31, 40]),
    fmt=st.sampled_from([2, 3]),
    budget=st.sampled_from(BUDGETS),
    use_mmap=st.booleans(),
    damage=DAMAGE,
    blocks=st.lists(IDS, min_size=1, max_size=3),
)
# A miss evicts an id the same block asks for later: that request misses
# too, though the id was cached when the block began.
@example(
    rows=4, length=16, fmt=3, budget="a few blocks", use_mmap=False,
    damage=None, blocks=[[0, 1, 2], [3, 0]],
)
# An id twice in one block: a miss, then a hit on what the miss inserted.
@example(
    rows=4, length=16, fmt=3, budget="a few blocks", use_mmap=True,
    damage=None, blocks=[[2, 2, 1, 2]],
)
# A block longer than the cache: its early hit on 2 is evicted by the
# misses after it, in the same block.
@example(
    rows=8, length=16, fmt=3, budget="a few blocks", use_mmap=False,
    damage=None, blocks=[[0, 1, 2], [2, 3, 4, 5]],
)
# All hits: in reverse LRU order on a full cache, then a block longer
# than the capacity (only repeats make one).
@example(
    rows=4, length=16, fmt=3, budget="a few blocks", use_mmap=False,
    damage=None, blocks=[[0, 1, 2], [2, 1, 0], [0, 1, 2, 0, 1, 2, 0]],
)
# A damaged block on a full cache: the block's misses were read beside
# the cached records, which must all still be there for the last block.
@example(
    rows=6, length=16, fmt=3, budget="a few blocks", use_mmap=False,
    damage=("flip", 0.55), blocks=[[0, 1, 2], [3, 4], [2, 1, 0]],
)
def test_read_many_is_the_per_id_loop(
    rows, length, fmt, budget, use_mmap, damage, blocks
):
    matrix = np.random.default_rng(rows * 100 + length).normal(size=(rows, length))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "twins.pages")
        block = write_store(path, matrix, fmt)
        options = dict(
            cache_bytes=budget_bytes(budget, rows, block),
            use_mmap=use_mmap,
        )
        # Both twins open before any damage: a cut tail must not stop open().
        with SequencePageStore.open(path, **options) as batched, \
                SequencePageStore.open(path, **options) as per_id:
            if damage is not None:
                damage_file(path, batched, *damage)
            for ids in blocks:
                ids = [seq_id % rows for seq_id in ids]
                assert outcome(lambda: batched.read_many(ids)) == outcome(
                    lambda: np.stack([per_id.read(seq_id) for seq_id in ids])
                )
                assert state(batched) == state(per_id)


def test_buffered_block_longer_than_iov_max(tmp_path):
    """One run of adjacent ids longer than ``IOV_MAX`` (1024 on Linux)."""
    matrix = np.random.default_rng(3).normal(size=(1500, 8))
    with SequencePageStore(tmp_path / "long.pages", 8, page_size=64, use_mmap=False) as store:
        store.append_matrix(matrix)
        np.testing.assert_array_equal(store.read_many(range(1500)), matrix)
        assert store.stats.read_calls == 1500 and store.stats.seeks == 1


def test_stream_store_reopens_over_more_than_iov_max_rows(tmp_path, monkeypatch):
    """Reopen re-reads every sealed row in id order: one run of 1100."""
    monkeypatch.delenv("REPRO_MMAP", raising=False)
    days = 32
    counts = np.random.default_rng(4).integers(0, 50, size=(1100, days)).astype(float)
    with StreamStore(tmp_path / "stream", days, fsync=False, burst_window=None) as store:
        store.append_many([(f"q{i}", row) for i, row in enumerate(counts)])
        store.seal()
        query = store.index().fetch(7)
    with StreamStore(tmp_path / "stream", days, fsync=False, burst_window=None) as store:
        (hit,), _ = store.search(query, 1)
        assert hit.name == "q7" and hit.distance == 0.0
