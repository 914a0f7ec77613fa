"""The construction rules every backend inherits from ``IndexBase``."""

import numpy as np
import pytest

from repro.engine import available_indexes, get_index
from repro.exceptions import SeriesMismatchError
from repro.storage import MemorySequenceStore
from repro.timeseries import zscore

BACKENDS = [name for name in available_indexes() if name != "sharded"]

#: The backends whose constructors take a ``store=`` keyword.
STORE_BACKENDS = ["flat", "vptree", "mvptree", "scan"]


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(3)
    return np.array([zscore(rng.normal(size=64)) for _ in range(40)])


def store_of(rows):
    store = MemorySequenceStore(rows.shape[1])
    if len(rows):
        store.append_matrix(rows)
    return store


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejects_a_matrix_that_is_not_2d(backend, matrix):
    with pytest.raises(SeriesMismatchError, match="2-D"):
        get_index(backend, matrix[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejects_misaligned_names(backend, matrix):
    with pytest.raises(SeriesMismatchError, match="names must align"):
        get_index(backend, matrix, names=["only-one"])


@pytest.mark.parametrize("backend", STORE_BACKENDS)
@pytest.mark.parametrize("rows", [10, 41], ids=["shorter", "longer"])
def test_rejects_a_store_of_the_wrong_length(backend, matrix, rows):
    longer = np.vstack([matrix, matrix[:1]])
    store = store_of(longer[:rows])
    with pytest.raises(SeriesMismatchError, match=f"{rows} sequences.*40"):
        get_index(backend, matrix, store=store)
    assert len(store) == rows


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_fills_an_empty_store(backend, matrix):
    store = store_of(matrix[:0])
    index = get_index(backend, matrix, store=store)
    assert index.store is store
    assert len(store) == len(matrix)
    np.testing.assert_array_equal(store.read(30), matrix[30])


@pytest.mark.parametrize("backend", STORE_BACKENDS)
def test_uses_an_exact_store_as_is(backend, matrix):
    store = store_of(matrix)
    index = get_index(backend, matrix, store=store)
    assert index.store is store
    assert len(store) == len(matrix)
    neighbors, _ = index.search(matrix[30], k=1)
    assert neighbors[0].seq_id == 30
    assert neighbors[0].distance == 0.0
