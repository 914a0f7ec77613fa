"""The decoder's mutation law: damage on disk is typed, never silent.

Take a format-2 or format-3 store file, header included, and apply one
drawn mutation: a flipped byte anywhere, a zeroed range, or a
truncation.  Then ``open``, ``read``, ``read_many`` and ``scrub`` each
either raise a :class:`~repro.exceptions.StorageError` subclass or
return rows bit-identical to the ones written.  They never return wrong
rows and never raise anything else.
"""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import CorruptionError, StorageError
from repro.storage import SequencePageStore
from tests.storage.format2 import write_format2

PAGE_SIZE = 128
WHERE = st.floats(0, 1, exclude_max=True)
MUTATION = st.one_of(
    st.tuples(st.just("flip"), WHERE, st.integers(1, 255)),
    st.tuples(st.just("zero"), WHERE, st.integers(1, 3 * PAGE_SIZE)),
    st.tuples(st.just("truncate"), WHERE, st.just(0)),
)


def mutate(path, kind, where, amount):
    """Apply one mutation at a fraction ``where`` of the file."""
    at = int(where * os.path.getsize(path))
    with open(path, "r+b") as raw:
        if kind == "truncate":
            raw.truncate(at)
            return
        raw.seek(at)
        if kind == "flip":
            byte = raw.read(1)[0]
            raw.seek(at)
            raw.write(bytes([byte ^ amount]))
        else:
            raw.write(bytes(min(amount, os.path.getsize(path) - at)))


def rows_or_typed_error(call, expected):
    """``call()`` raises a ``StorageError`` or returns ``expected``'s bits."""
    try:
        rows = call()
    except StorageError:
        return
    assert rows.dtype == np.float64 and rows.shape == expected.shape
    assert rows.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    fmt=st.sampled_from([2, 3]),
    rows=st.integers(1, 6),
    length=st.sampled_from([5, 16, 40]),
    use_mmap=st.booleans(),
    mutation=MUTATION,
)
# The format-3 magic's last digit flipped to format 2's: the header CRC
# covers the magic.
@example(fmt=3, rows=2, length=16, use_mmap=False, mutation=("flip", 0.0166, 1))
# A record's CRC zeroed along with the start of the next record.
@example(fmt=3, rows=3, length=16, use_mmap=True, mutation=("zero", 0.5, 200))
# Cut on a record boundary: fewer rows, all of them intact.
@example(fmt=3, rows=2, length=16, use_mmap=False, mutation=("truncate", 0.6633, 0))
def test_damage_is_typed_or_harmless(fmt, rows, length, use_mmap, mutation):
    matrix = np.random.default_rng(rows * 100 + length).normal(size=(rows, length))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "victim.pages")
        if fmt == 2:
            write_format2(path, matrix, PAGE_SIZE)
        else:
            with SequencePageStore(path, length, page_size=PAGE_SIZE) as store:
                store.append_matrix(matrix)
        mutate(path, *mutation)
        try:
            store = SequencePageStore.open(path, use_mmap=use_mmap)
        except StorageError:
            return
        with store:
            assert store.sequence_length == length and len(store) <= rows
            for seq_id in range(rows):
                rows_or_typed_error(lambda: store.read(seq_id), matrix[seq_id])
            rows_or_typed_error(lambda: store.read_many(range(rows)), matrix)
            try:
                bad = store.scrub()
            except StorageError:
                return
            # The scrub's verdict is the reads' verdict, id by id.
            for seq_id in range(len(store)):
                if seq_id in bad:
                    try:
                        store.read(seq_id, cached=False)
                    except CorruptionError:
                        continue
                    raise AssertionError(f"scrub flagged readable {seq_id}")
                assert store.read(seq_id).tobytes() == matrix[seq_id].tobytes()
