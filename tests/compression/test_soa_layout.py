"""The canonical structure-of-arrays surface of :class:`SketchDatabase`.

Every packed-array path — batch compression, row views — funnels
through ``from_soa`` / ``soa_blocks``, so this file locks that API:
field set and dtypes, contiguity caching, the precomputed norms block
and their bitwise determinism, and round-trips through each boundary.
"""

import numpy as np
import pytest

from repro.compression import BestMinErrorCompressor, SketchDatabase
from repro.compression.database import sketch_norms_sq
from repro.exceptions import CompressionError
from repro.timeseries import zscore


def make_db(seed=11, count=10, n=64):
    rng = np.random.default_rng(seed)
    matrix = np.array(
        [zscore(np.cumsum(rng.normal(size=n))) for _ in range(count)]
    )
    names = [f"q{i}" for i in range(count)]
    return SketchDatabase.from_matrix(
        matrix, BestMinErrorCompressor(5), names
    )


@pytest.fixture(scope="module")
def db():
    return make_db()


def assert_databases_equal(left, right):
    assert (left.n, left.basis, left.method) == (
        right.n,
        right.basis,
        right.method,
    )
    assert left.names == right.names
    for field in SketchDatabase.SOA_FIELDS:
        lhs = left.soa_blocks()[field]
        rhs = right.soa_blocks()[field]
        assert lhs.dtype == rhs.dtype
        assert lhs.tobytes() == rhs.tobytes(), field


class TestBlocks:
    def test_blocks_cover_every_field_plus_norms(self, db):
        blocks = db.soa_blocks()
        assert set(blocks) == set(SketchDatabase.SOA_FIELDS) | {"norms"}

    def test_blocks_are_contiguous_in_canonical_dtypes(self, db):
        blocks = db.soa_blocks()
        expected = {
            "positions": np.intp,
            "coefficients": np.complex128,
            "weights": np.float64,
            "errors": np.float64,
            "min_powers": np.float64,
            "widths": np.intp,
            "norms": np.float64,
        }
        for field, block in blocks.items():
            assert block.flags["C_CONTIGUOUS"], field
            assert block.dtype == np.dtype(expected[field]), field

    def test_contiguous_blocks_are_cached_not_recopied(self, db):
        first = db.soa_blocks()
        second = db.soa_blocks()
        for field in first:
            assert first[field] is second[field], field

    def test_noncontiguous_fields_are_canonicalised_in_place(self):
        db = make_db(seed=5)
        db.weights = np.asfortranarray(np.ascontiguousarray(db.weights))
        assert not db.weights.flags["C_CONTIGUOUS"]
        blocks = db.soa_blocks()
        assert blocks["weights"].flags["C_CONTIGUOUS"]
        assert db.weights is blocks["weights"]

    def test_norms_block_matches_the_reference_formula(self, db):
        blocks = db.soa_blocks()
        re = db.coefficients.real
        im = db.coefficients.imag
        reference = np.einsum("ij,ij->i", db.weights, re * re + im * im)
        assert blocks["norms"].tobytes() == reference.tobytes()
        assert db.norms_sq is blocks["norms"]

    def test_widths_property_aliases_the_widths_block(self, db):
        assert db.widths is db.soa_blocks()["widths"]


class TestFromSoa:
    def test_round_trips_the_database(self, db):
        blocks = db.soa_blocks()
        rebuilt = SketchDatabase.from_soa(
            {f: blocks[f] for f in SketchDatabase.SOA_FIELDS},
            n=db.n,
            basis=db.basis,
            method=db.method,
            names=db.names,
        )
        assert_databases_equal(db, rebuilt)

    def test_adopts_contiguous_blocks_zero_copy(self, db):
        blocks = db.soa_blocks()
        rebuilt = SketchDatabase.from_soa(
            {f: blocks[f] for f in SketchDatabase.SOA_FIELDS},
            n=db.n,
            basis=db.basis,
            method=db.method,
        )
        for field in SketchDatabase.SOA_FIELDS:
            assert rebuilt.soa_blocks()[field] is blocks[field], field

    def test_missing_field_raises(self, db):
        blocks = db.soa_blocks()
        partial = {
            f: blocks[f]
            for f in SketchDatabase.SOA_FIELDS
            if f != "weights"
        }
        with pytest.raises(CompressionError, match="weights"):
            SketchDatabase.from_soa(
                partial, n=db.n, basis=db.basis, method=db.method
            )

    def test_shape_disagreement_raises(self, db):
        blocks = {f: db.soa_blocks()[f] for f in SketchDatabase.SOA_FIELDS}
        blocks["weights"] = blocks["weights"][:, :-1]
        with pytest.raises(CompressionError, match="shape"):
            SketchDatabase.from_soa(
                blocks, n=db.n, basis=db.basis, method=db.method
            )


class TestNormsHandshake:
    def test_norms_are_bitwise_deterministic_across_derivations(self, db):
        again = sketch_norms_sq(
            db.weights.copy(), db.coefficients.copy()
        )
        assert again.tobytes() == db.norms_sq.tobytes()


class TestRoundTrips:
    def test_take_slices_blocks_and_norms_bitwise(self, db):
        rows = [7, 2, 2, 9]
        view = db.take(rows)
        parent = db.soa_blocks()
        child = view.soa_blocks()
        for field in SketchDatabase.SOA_FIELDS:
            assert (
                child[field].tobytes() == parent[field][rows].tobytes()
            ), field
        assert child["norms"].tobytes() == parent["norms"][rows].tobytes()

    def test_appended_rebuilds_a_canonical_layout(self, db):
        grown = db.appended(db.sketch(3))
        blocks = grown.soa_blocks()
        assert len(grown) == len(db) + 1
        for field in ("positions", "coefficients", "weights"):
            assert (
                blocks[field][: len(db)].tobytes()
                == db.soa_blocks()[field].tobytes()
            ), field
        assert blocks["norms"][-1] == db.norms_sq[3]

    def test_batch_and_scalar_compression_share_one_layout(self):
        rng = np.random.default_rng(29)
        matrix = np.array(
            [zscore(np.cumsum(rng.normal(size=64))) for _ in range(8)]
        )
        compressor = BestMinErrorCompressor(5)
        batch = SketchDatabase.from_matrix(matrix, compressor)
        scalar = SketchDatabase.from_matrix_scalar(matrix, compressor)
        assert_databases_equal(batch, scalar)
