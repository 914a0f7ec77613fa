"""Round-trip persistence tests for time-series collections."""

import numpy as np
import pytest

from repro import QueryLogGenerator
from repro.timeseries import TimeSeriesCollection


@pytest.fixture(scope="module")
def collection():
    return QueryLogGenerator(seed=17, days=128).synthetic_database(24)


class TestCollectionPersistence:
    def test_roundtrip(self, collection, tmp_path):
        path = tmp_path / "collection.npz"
        collection.save(path)
        loaded = TimeSeriesCollection.load(path)
        assert loaded.names == collection.names
        assert loaded.start == collection.start
        np.testing.assert_array_equal(
            loaded.as_matrix(), collection.as_matrix()
        )

    def test_loaded_series_usable(self, collection, tmp_path):
        path = tmp_path / "collection.npz"
        collection.save(path)
        loaded = TimeSeriesCollection.load(path)
        series = loaded[collection.names[0]]
        assert series.standardize().is_standardized()
