"""Batch kernels must agree with the scalar reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import batch_bounds, bounds_for
from repro.bounds.batch import _KERNELS, BatchBounds, get_batch_kernel
from repro.compression import (
    AdaptiveEnergyCompressor,
    BestErrorCompressor,
    BestMinCompressor,
    BestMinErrorCompressor,
    GeminiCompressor,
    SketchDatabase,
    WangCompressor,
)
from repro.exceptions import CompressionError, SeriesMismatchError
from repro.index.distance import euclidean_early_abandon_sq
from repro.spectral import Spectrum
from repro.timeseries import zscore
from tests.engine.test_duplicate_rows import KINDS, database, draw_row

METHODS = {
    "gemini": GeminiCompressor,
    "wang": WangCompressor,
    "best_min": BestMinCompressor,
    "best_error": BestErrorCompressor,
    "best_min_error": BestMinErrorCompressor,
}


def make_matrix(seed, count=24, n=96):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    rows = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            row = rng.normal(size=n)
        elif kind == 1:
            row = np.cumsum(rng.normal(size=n))
        else:
            period = rng.choice([7, 14, 30])
            row = np.sin(2 * np.pi * t / period + rng.uniform(0, 6)) + (
                0.3 * rng.normal(size=n)
            )
        rows.append(zscore(row))
    return np.array(rows)


@pytest.fixture(scope="module")
def matrix():
    return make_matrix(0)


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(99)
    return Spectrum.from_series(zscore(np.cumsum(rng.normal(size=96))))


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_all_methods(self, method, k, matrix, query):
        db = SketchDatabase.from_matrix(matrix, METHODS[method](k))
        lb, ub = batch_bounds(query, db)
        for row in range(len(db)):
            pair = bounds_for(query, db.sketch(row))
            assert lb[row] == pytest.approx(pair.lower, abs=1e-9), (method, row)
            if np.isinf(pair.upper):
                assert np.isinf(ub[row])
            else:
                assert ub[row] == pytest.approx(pair.upper, abs=1e-9), (
                    method,
                    row,
                )

    def test_safe_envelope(self, matrix, query):
        db = SketchDatabase.from_matrix(matrix, BestMinErrorCompressor(6))
        lb, ub = batch_bounds(query, db, method="best_min_error_safe")
        for row in range(len(db)):
            pair = bounds_for(
                query, db.sketch(row), method="best_min_error_safe"
            )
            assert lb[row] == pytest.approx(pair.lower, abs=1e-9)
            assert ub[row] == pytest.approx(pair.upper, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_property_random_databases(self, seed):
        matrix = make_matrix(seed, count=8, n=64)
        rng = np.random.default_rng(seed + 1)
        query = Spectrum.from_series(zscore(rng.normal(size=64)))
        for method, compressor_cls in METHODS.items():
            db = SketchDatabase.from_matrix(matrix, compressor_cls(4))
            lb, ub = batch_bounds(query, db)
            for row in range(len(db)):
                pair = bounds_for(query, db.sketch(row))
                np.testing.assert_allclose(lb[row], pair.lower, atol=1e-9)
                if not np.isinf(pair.upper):
                    np.testing.assert_allclose(ub[row], pair.upper, atol=1e-9)


#: Every kernel name, with compressors whose sketches it can bound: a
#: fixed-k one and, where the shape allows, the ragged adaptive one.
KERNEL_SKETCHES = {
    "gemini": [GeminiCompressor(5)],
    "wang": [WangCompressor(5)],
    "best_error": [BestErrorCompressor(5)],
    "best_min": [BestMinCompressor(5)],
    "best_min_error": [BestMinErrorCompressor(5)],
    "adaptive_best_min_error": [AdaptiveEnergyCompressor(0.7, max_k=12)],
    "best_min_error_safe": [
        BestMinErrorCompressor(5),
        AdaptiveEnergyCompressor(0.7, max_k=12),
    ],
}


class TestRowIndependence:
    """``kernel(batch, db.take(rows)) == kernel(batch, db)[rows]``, bitwise.

    The sketch trees bound the whole database once per query and read a
    node's bounds by row; that is the per-node computation only if no
    kernel lets one row's result depend on which rows sit beside it.
    """

    def test_every_registered_kernel_is_covered(self):
        assert set(KERNEL_SKETCHES) == set(_KERNELS)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        grown=st.booleans(),
        data=st.data(),
    )
    def test_take_commutes_with_kernel(self, seed, grown, data):
        matrix = make_matrix(seed, count=12, n=64)
        rng = np.random.default_rng(seed + 1)
        batch = BatchBounds(Spectrum.from_series(zscore(rng.normal(size=64))))
        rows = data.draw(
            st.one_of(
                st.lists(st.integers(0, 11), min_size=1, max_size=30),
                st.just(list(range(12))),
            )
        )
        for method, compressors in KERNEL_SKETCHES.items():
            kernel = get_batch_kernel(method)
            for compressor in compressors:
                if grown:
                    db = SketchDatabase.from_matrix(matrix[:9], compressor)
                    for row in matrix[9:]:
                        db = db.appended(
                            compressor.compress(Spectrum.from_series(row))
                        )
                else:
                    db = SketchDatabase.from_matrix(matrix, compressor)
                lower, upper = kernel(batch, db)
                sub_lower, sub_upper = kernel(batch, db.take(rows))
                context = (method, type(compressor).__name__, rows)
                assert np.array_equal(sub_lower, lower[rows]), context
                assert np.array_equal(
                    sub_upper, upper[rows], equal_nan=True
                ), context


class TestSoundSquaredBounds:
    """``BatchBounds.bounds_sq`` holds the verifier's computed ``d_sq``.

    The walks keep and prune on these squares with no slack, so the
    bound must hold the distance the engine computes, bit for bit, also
    at distance 0: a query that is a stored row.  The raw kernels' ``LB²``
    exceeds a self-distance of 0 by rounding; the widening absorbs it.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(KINDS),
        n=st.sampled_from((32, 256)),
    )
    def test_squared_bounds_hold_the_verifiers_distance(self, seed, kind, n):
        matrix = database(seed, 8, 2, kind, n)
        rng = np.random.default_rng(seed)
        sound = set(KERNEL_SKETCHES) - {"best_min_error",
                                        "adaptive_best_min_error"}
        for query in (draw_row(rng, kind, n), matrix[seed % len(matrix)]):
            batch = BatchBounds(Spectrum.from_series(query))
            d_sq = np.array([
                euclidean_early_abandon_sq(query, row, np.inf)
                for row in matrix
            ])
            for method in sorted(sound):
                for compressor in KERNEL_SKETCHES[method]:
                    db = SketchDatabase.from_matrix(matrix, compressor)
                    lower_sq, upper_sq = batch.bounds_sq(
                        get_batch_kernel(method), db
                    )
                    assert (lower_sq <= d_sq).all(), method
                    assert (d_sq <= upper_sq).all(), method

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.sampled_from((1e-9, 1e-7, 1e-5)),
    )
    def test_a_query_on_a_rows_stored_part_keeps_its_bound(self, seed, scale):
        """The error envelope's tight case: the query is a row's stored
        coefficients plus ``scale`` times its omitted part, so the
        query's omitted energy rounds to nothing beside the row's.  A
        ``γ E`` widening leaves ``LB² > d_sq`` on about 60% of these
        draws; the ``√γ`` term holds them."""
        rng = np.random.default_rng(seed)
        row = zscore(np.cumsum(rng.normal(size=256)))
        db = SketchDatabase.from_matrix(row[None], BestMinErrorCompressor(6))
        spectrum = np.fft.rfft(row)
        stored = np.zeros(spectrum.size, dtype=bool)
        stored[db.positions[0][db.weights[0] > 0]] = True
        part = np.fft.irfft(np.where(stored, spectrum, 0.0), row.size)
        query = part + scale * (row - part)
        lower_sq, upper_sq = BatchBounds(Spectrum.from_series(query)).bounds_sq(
            get_batch_kernel("best_min_error_safe"), db
        )
        d_sq = euclidean_early_abandon_sq(query, row, np.inf)
        assert lower_sq[0] <= d_sq <= upper_sq[0]


class TestOnePassSafeKernel:
    """``best_min_error_safe`` is, bit for bit, the envelope of the
    registered ``best_min`` and ``best_error`` kernels: one pass over the
    shared row pieces computes exactly what the two kernels compute
    separately, on every database shape a kernel meets."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        adaptive=st.booleans(),
        shape=st.sampled_from(["packed", "appended", "take", "from_soa"]),
        data=st.data(),
    )
    def test_safe_is_the_envelope_of_its_parts(
        self, seed, adaptive, shape, data
    ):
        matrix = make_matrix(seed, count=12, n=64)
        rng = np.random.default_rng(seed + 1)
        batch = BatchBounds(Spectrum.from_series(zscore(rng.normal(size=64))))
        if adaptive:
            compressor = AdaptiveEnergyCompressor(0.7, max_k=12)
        else:
            compressor = BestMinErrorCompressor(data.draw(st.integers(2, 9)))
        safe = get_batch_kernel("best_min_error_safe")
        db = SketchDatabase.from_matrix(matrix[:9], compressor)
        safe(batch, db)  # the parent's cached terms exist before deriving
        if shape == "appended":
            for row in matrix[9:]:
                db = db.appended(compressor.compress(Spectrum.from_series(row)))
        elif shape == "take":
            db = db.take(
                data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=20))
            )
        elif shape == "from_soa":
            blocks = db.soa_blocks()
            db = SketchDatabase.from_soa(
                {f: blocks[f] for f in SketchDatabase.SOA_FIELDS},
                n=db.n,
                basis=db.basis,
                method=db.method,
            )
        lower, upper = safe(batch, db)
        lb_min, ub_min = get_batch_kernel("best_min")(batch, db)
        lb_err, ub_err = get_batch_kernel("best_error")(batch, db)
        assert lower.tobytes() == np.maximum(lb_min, lb_err).tobytes()
        assert upper.tobytes() == np.minimum(ub_min, ub_err).tobytes()

    def test_hoisted_terms_stay_with_their_database(self, matrix):
        compressor = BestMinErrorCompressor(5)
        parent = SketchDatabase.from_matrix(matrix[:-1], compressor)
        parent_terms = parent.kernel_terms()
        children = {
            "take": parent.take([3, 0, 7, 3]),
            "appended": parent.appended(
                compressor.compress(Spectrum.from_series(matrix[-1]))
            ),
        }
        for name, child in children.items():
            blocks = child.soa_blocks()
            fresh = SketchDatabase.from_soa(
                {f: blocks[f] for f in SketchDatabase.SOA_FIELDS},
                n=child.n,
                basis=child.basis,
                method=child.method,
            ).kernel_terms()
            terms = child.kernel_terms()
            assert terms is not parent_terms, name
            for key, value in fresh.items():
                if key != "blocks":
                    assert np.array_equal(terms[key], value), (name, key)
        # Replacing a field block rebuilds the database's own terms.
        parent.min_powers = parent.min_powers * 2.0
        rebuilt = parent.kernel_terms()
        assert rebuilt is not parent_terms
        assert np.array_equal(rebuilt["min_sq"], parent.min_powers**2)


class TestOddLengths:
    """The paper assumes power-of-two lengths; odd lengths must still be
    sound (no real Nyquist coefficient exists, so the middle filler is
    skipped — see repro.compression.first_k)."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_batch_equals_scalar_odd_n(self, method):
        rng = np.random.default_rng(13)
        matrix = np.array([zscore(rng.normal(size=97)) for _ in range(10)])
        query = Spectrum.from_series(zscore(rng.normal(size=97)))
        db = SketchDatabase.from_matrix(matrix, METHODS[method](5))
        lb, ub = batch_bounds(query, db)
        for row in range(len(db)):
            pair = bounds_for(query, db.sketch(row))
            assert lb[row] == pytest.approx(pair.lower, abs=1e-9)
            if not np.isinf(pair.upper):
                assert ub[row] == pytest.approx(pair.upper, abs=1e-9)

    def test_sound_bounds_bracket_truth_odd_n(self):
        rng = np.random.default_rng(14)
        x, y = (zscore(rng.normal(size=63)) for _ in range(2))
        query = Spectrum.from_series(x)
        for cls in (GeminiCompressor, WangCompressor, BestMinCompressor,
                    BestErrorCompressor):
            sketch = cls(6).compress(Spectrum.from_series(y))
            pair = bounds_for(query, sketch)
            true = float(np.linalg.norm(x - y))
            assert pair.lower <= true + 1e-7, cls.__name__
            assert true <= pair.upper + 1e-7, cls.__name__


class TestAppended:
    def test_appended_row_matches_fresh_pack(self, matrix, query):
        compressor = BestMinErrorCompressor(6)
        sketches = [
            compressor.compress(Spectrum.from_series(row)) for row in matrix
        ]
        grown = SketchDatabase(sketches[:-1]).appended(sketches[-1])
        fresh = SketchDatabase(sketches)
        lb_a, ub_a = batch_bounds(query, grown)
        lb_b, ub_b = batch_bounds(query, fresh)
        np.testing.assert_allclose(lb_a, lb_b)
        np.testing.assert_allclose(ub_a, ub_b)

    def test_appended_wider_sketch_repads(self, matrix, query):
        narrow = BestMinErrorCompressor(4)
        wide = BestMinErrorCompressor(9)
        base = SketchDatabase.from_matrix(matrix[:5], narrow)
        # Widening append is rejected on method grounds only if tags
        # differ; craft a same-method wider sketch.
        wide_sketch = wide.compress(Spectrum.from_series(matrix[5]))
        object.__setattr__(wide_sketch, "method", base.method)
        grown = base.appended(wide_sketch)
        assert grown.width == 9
        lb, _ = batch_bounds(query, grown)
        pair = bounds_for(query, grown.sketch(5))
        assert lb[5] == pytest.approx(pair.lower, abs=1e-9)

    def test_appended_method_mismatch_rejected(self, matrix):
        base = SketchDatabase.from_matrix(matrix[:3], WangCompressor(4))
        other = GeminiCompressor(4).compress(Spectrum.from_series(matrix[4]))
        with pytest.raises(CompressionError):
            base.appended(other)


class TestSketchDatabase:
    def test_mixed_widths_padded(self, matrix):
        # BestMin pads with the middle coefficient unless it is already
        # among the best; craft a matrix where widths genuinely differ.
        n = 32
        t = np.arange(n)
        nyquist_heavy = zscore(np.cos(np.pi * t))  # all energy at Nyquist
        weekly = zscore(np.sin(2 * np.pi * t / 8))
        db = SketchDatabase.from_matrix(
            np.array([nyquist_heavy, weekly]), BestMinCompressor(2)
        )
        widths = {len(db.sketch(0)), len(db.sketch(1))}
        assert widths == {2, 3}
        # Bounds still match the scalar path despite padding.
        query = Spectrum.from_series(zscore(np.sin(2 * np.pi * t / 5)))
        lb, ub = batch_bounds(query, db)
        for row in range(2):
            pair = bounds_for(query, db.sketch(row))
            assert lb[row] == pytest.approx(pair.lower, abs=1e-9)
            assert ub[row] == pytest.approx(pair.upper, abs=1e-9)

    def test_sketch_roundtrip(self, matrix):
        compressor = BestMinErrorCompressor(5)
        sketches = [
            compressor.compress(Spectrum.from_series(row)) for row in matrix
        ]
        db = SketchDatabase(sketches, names=[f"s{i}" for i in range(len(matrix))])
        for i, original in enumerate(sketches):
            rebuilt = db.sketch(i)
            np.testing.assert_array_equal(rebuilt.positions, original.positions)
            np.testing.assert_allclose(
                rebuilt.coefficients, original.coefficients
            )
            assert rebuilt.error == pytest.approx(original.error)
            assert rebuilt.min_power == pytest.approx(original.min_power)
        assert db.names[3] == "s3"

    def test_empty_rejected(self):
        with pytest.raises(CompressionError):
            SketchDatabase([])

    def test_mixed_methods_rejected(self, matrix):
        a = GeminiCompressor(3).compress(Spectrum.from_series(matrix[0]))
        b = WangCompressor(3).compress(Spectrum.from_series(matrix[1]))
        with pytest.raises(CompressionError):
            SketchDatabase([a, b])

    def test_name_alignment_checked(self, matrix):
        sketch = WangCompressor(3).compress(Spectrum.from_series(matrix[0]))
        with pytest.raises(CompressionError):
            SketchDatabase([sketch], names=["a", "b"])

    def test_query_compatibility_checked(self, matrix, query):
        db = SketchDatabase.from_matrix(matrix, WangCompressor(3))
        bad_query = Spectrum.from_series(np.ones(10))
        with pytest.raises(SeriesMismatchError):
            batch_bounds(bad_query, db)

    def test_error_method_mismatch(self, matrix, query):
        db = SketchDatabase.from_matrix(matrix, GeminiCompressor(3))
        with pytest.raises(CompressionError):
            batch_bounds(query, db, method="best_error")
        with pytest.raises(CompressionError):
            batch_bounds(query, db, method="nope")
