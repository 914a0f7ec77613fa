"""The top-level package exposes a coherent public API."""

import importlib
import pkgutil

import repro


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet_from_docstring(self):
        """The __init__ docstring's quickstart must actually run."""
        from repro import QueryLogGenerator, VPTreeIndex, detect_periods

        gen = QueryLogGenerator(seed=0, days=128)
        collection = gen.collection(["cinema", "easter", "elvis"]).standardize()
        index = VPTreeIndex(
            collection.as_matrix(), names=list(collection.names)
        )
        neighbors, _ = index.search(collection["cinema"].values, k=2)
        assert neighbors[0].name == "cinema"
        periods = detect_periods(collection["cinema"])
        assert periods.periods[0].period == repro.periodogram(
            collection["cinema"].values
        ).period_of(periods.periods[0].index)

    def test_every_submodule_imports(self):
        """No submodule may be broken by a refactor."""
        failures = []
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            try:
                importlib.import_module(info.name)
            except Exception as exc:  # pragma: no cover - reported below
                failures.append((info.name, exc))
        assert not failures, failures

    def test_every_public_item_has_a_docstring(self):
        import inspect

        missing = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            item = getattr(repro, name)
            if not inspect.getdoc(item):
                missing.append(name)
        assert not missing, missing

    def test_exceptions_hierarchy(self):
        from repro.exceptions import (
            CompressionError,
            KeyNotFoundError,
            ReproError,
            SeriesLengthError,
            SeriesMismatchError,
            StorageError,
            UnknownQueryError,
        )

        for exc in (
            SeriesLengthError,
            SeriesMismatchError,
            CompressionError,
            StorageError,
            KeyNotFoundError,
            UnknownQueryError,
        ):
            assert issubclass(exc, ReproError), exc
        # Catchability as stdlib categories where it matters.
        assert issubclass(KeyNotFoundError, KeyError)
        assert issubclass(UnknownQueryError, KeyError)
