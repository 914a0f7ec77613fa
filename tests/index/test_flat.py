"""Tests for the flat compressed index."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compression import StorageBudget
from repro.exceptions import SeriesMismatchError
from repro.index import FlatSketchIndex, VPTreeIndex, distances_to_query
from repro.storage import SequencePageStore
from repro.timeseries import zscore


def make_db(count=120, n=64, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            row = rng.normal(size=n)
        else:
            period = [7, 16][kind - 1]
            row = np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) + (
                0.4 * rng.normal(size=n)
            )
        rows.append(zscore(row))
    return np.array(rows)


@pytest.fixture(scope="module")
def matrix():
    return make_db()


@pytest.fixture(scope="module")
def index(matrix):
    return FlatSketchIndex(matrix)


class TestKnn:
    def test_matches_brute_force(self, matrix, index):
        rng = np.random.default_rng(1)
        for k in (1, 4):
            query = zscore(rng.normal(size=64))
            hits, _ = index.search(query, k=k)
            truth = np.sort(distances_to_query(matrix, query))[:k]
            np.testing.assert_allclose(
                [h.distance for h in hits], truth, atol=1e-9
            )

    def test_query_in_database(self, matrix, index):
        hits, _ = index.search(matrix[13], k=1)
        assert hits[0].seq_id == 13

    def test_agrees_with_vptree(self, matrix, index):
        tree = VPTreeIndex(matrix, seed=2)
        rng = np.random.default_rng(3)
        query = zscore(rng.normal(size=64))
        a, _ = index.search(query, k=3)
        b, _ = tree.search(query, k=3)
        np.testing.assert_allclose(
            [h.distance for h in a], [h.distance for h in b], atol=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=800))
    def test_property_exact(self, seed):
        matrix = make_db(count=40, n=32, seed=seed)
        index = FlatSketchIndex(matrix)
        rng = np.random.default_rng(seed + 1)
        query = zscore(rng.normal(size=32))
        hits, _ = index.search(query, k=2)
        truth = np.sort(distances_to_query(matrix, query))[:2]
        np.testing.assert_allclose([h.distance for h in hits], truth, atol=1e-9)

    def test_sub_filter_engages(self, matrix, index):
        """The row codes are the filter: every row bounded, few read."""
        with obs.observed() as registry:
            _, stats = index.search(matrix[0], k=1)
        assert registry.counter("engine.codes.pruned").value > 0
        assert stats.candidates_after_sub_filter == len(matrix)
        assert stats.full_retrievals <= 1 + 5
        assert stats.bound_computations == len(matrix)

    def test_pruning_accounts_for_every_object(self, matrix, index):
        """Each database member is either pruned or retrieved, exactly once."""
        rng = np.random.default_rng(7)
        for k in (1, 3, 10):
            query = zscore(rng.normal(size=64))
            _, stats = index.search(query, k=k)
            assert (
                stats.candidates_pruned + stats.full_retrievals == len(matrix)
            )


class TestRange:
    def test_matches_brute_force(self, matrix, index):
        rng = np.random.default_rng(4)
        query = zscore(rng.normal(size=64))
        truth = distances_to_query(matrix, query)
        radius = float(np.median(truth))
        hits, _ = index.range_search(query, radius)
        assert {h.seq_id for h in hits} == set(
            np.flatnonzero(truth <= radius).tolist()
        )

    def test_zero_radius_member(self, matrix, index):
        hits, _ = index.range_search(matrix[5], 0.0)
        assert [h.seq_id for h in hits] == [5]


class TestConfiguration:
    def test_rejects_sketch_arguments(self, matrix):
        """The codes are the filter: there is no sketch to configure."""
        for knob in (
            {"compressor": StorageBudget(8).compressor("best_min_error")},
            {"bound_method": "best_min_error_safe"},
        ):
            with pytest.raises(TypeError):
                FlatSketchIndex(matrix, **knob)

    def test_disk_store(self, matrix, tmp_path, monkeypatch):
        # Scalar verify mode: strict physical/logical read equality is a
        # property of the scalar reference loop (the blocked verifier
        # may prefetch rows past the termination point).
        monkeypatch.setenv("REPRO_VERIFY_BLOCK", "0")
        store = SequencePageStore(tmp_path / "flat.dat", matrix.shape[1])
        index = FlatSketchIndex(matrix, store=store)
        store.stats.reset()
        _, stats = index.search(matrix[0], k=1)
        assert store.stats.read_calls == stats.full_retrievals

    def test_disk_store_blocked(self, matrix, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_BLOCK", raising=False)
        store = SequencePageStore(tmp_path / "flat.dat", matrix.shape[1])
        index = FlatSketchIndex(matrix, store=store)
        store.stats.reset()
        _, stats = index.search(matrix[0], k=1)
        assert store.stats.read_calls >= stats.full_retrievals

    def test_names(self, matrix):
        names = [f"q{i}" for i in range(len(matrix))]
        index = FlatSketchIndex(matrix, names=names)
        hits, _ = index.search(matrix[8], k=1)
        assert hits[0].name == "q8"

    def test_validation(self, matrix, index):
        with pytest.raises(SeriesMismatchError):
            FlatSketchIndex(np.zeros(10))
        with pytest.raises(SeriesMismatchError):
            FlatSketchIndex(matrix, names=["x"])
        with pytest.raises(SeriesMismatchError):
            index.search(np.zeros(5), k=1)
        with pytest.raises(ValueError):
            index.search(matrix[0], k=0)
        with pytest.raises(SeriesMismatchError):
            index.range_search(np.zeros(5), 1.0)
        with pytest.raises(ValueError):
            index.range_search(matrix[0], -0.5)


def snap(result):
    hits, stats = result
    return (
        [(h.distance, h.seq_id, h.name) for h in hits],
        dataclasses.asdict(stats),
    )


@settings(max_examples=25, deadline=None)
@example(
    seed=0, built=1, grown=1, named=False, on_disk=False, k=3, radius=0.0
)  # k past the population, drawn by the explore profile
@given(
    seed=st.integers(0, 2**16),
    built=st.integers(1, 30),
    grown=st.integers(1, 12),
    named=st.booleans(),
    on_disk=st.booleans(),
    k=st.integers(1, 8),
    radius=st.floats(0.0, 10.0),
)
def test_grown_by_insert_answers_like_built(
    tmp_path_factory, seed, built, grown, named, on_disk, k, radius
):
    """Growing ``flat`` row by row equals building it over the same rows.

    Answers, names and every SearchStats field agree, with the rows in
    memory or in a page store: an insert appends the row to the store
    and its code to the filter, and a code is a function of its row.
    """
    matrix = make_db(count=built + grown, n=32, seed=seed)
    names = [f"q{i}" for i in range(len(matrix))] if named else None

    def store():
        if not on_disk:
            return None
        directory = tmp_path_factory.mktemp("flat")
        return SequencePageStore(directory / "rows.dat", matrix.shape[1])

    whole = FlatSketchIndex(matrix, names=names, store=store())
    grown_index = FlatSketchIndex(
        matrix[:built], names=names[:built] if named else None, store=store()
    )
    for offset, row in enumerate(matrix[built:]):
        seq_id = grown_index.insert(row, names[built + offset] if named else None)
        assert seq_id == built + offset
    assert len(grown_index) == len(whole)
    k = min(k, len(whole))
    query = zscore(np.random.default_rng(seed + 1).normal(size=32))
    for probe in (query, matrix[-1]):
        assert snap(grown_index.search(probe, k=k)) == snap(
            whole.search(probe, k=k)
        )
        assert snap(grown_index.range_search(probe, radius)) == snap(
            whole.range_search(probe, radius)
        )
    with pytest.raises(SeriesMismatchError):
        grown_index.insert(np.zeros(5))
    whole.store.close()
    grown_index.store.close()
