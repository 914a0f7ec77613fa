"""Batch compression must be bit-identical to the per-row reference.

The fast ingest path (:mod:`repro.compression.batch`) builds the whole
:class:`~repro.compression.database.SketchDatabase` from one batched
transform plus vectorised top-k selection; the per-row scalar path stays
in the codebase as the readable specification.  These tests pin the
contract between them: for every fixed-k compressor family, both bases
and a spread of lengths (odd ones included), every packed array of the
batch database equals the scalar one exactly — no tolerances.
"""

import numpy as np
import pytest

from repro.compression import (
    AdaptiveEnergyCompressor,
    BestErrorCompressor,
    BestMinCompressor,
    BestMinErrorCompressor,
    GeminiCompressor,
    WangCompressor,
    batch_compress,
    supports_batch,
)
from repro.compression.database import SketchDatabase
from repro.exceptions import CompressionError, SeriesMismatchError


def databases_equal(left: SketchDatabase, right: SketchDatabase) -> bool:
    """Exact array-for-array equality of two packed sketch databases."""
    return (
        left.n == right.n
        and left.basis == right.basis
        and left.method == right.method
        and left.names == right.names
        and np.array_equal(left.positions, right.positions)
        and np.array_equal(left.coefficients, right.coefficients)
        and np.array_equal(left.weights, right.weights)
        and np.array_equal(left.errors, right.errors, equal_nan=True)
        and np.array_equal(left.min_powers, right.min_powers, equal_nan=True)
        and np.array_equal(left._widths, right._widths)
    )


FAMILIES = {
    "gemini": GeminiCompressor,  # first + middle
    "wang": WangCompressor,  # first + error
    "best_min": BestMinCompressor,  # best + middle
    "best_error": BestErrorCompressor,  # best + error
    "best_min_error": BestMinErrorCompressor,  # best + error + minPower
}

#: Odd, even and power-of-two lengths; the Fourier basis accepts all of
#: them, the Haar basis only the powers of two.
FOURIER_LENGTHS = (16, 17, 33, 64)
HAAR_LENGTHS = (16, 64)


def _matrix(count: int, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(count, n))
    # Duplicated rows and exact magnitude ties exercise the stable
    # tie-break of the best-k selection.
    if count > 3:
        matrix[3] = matrix[0]
    if count > 5:
        matrix[5] = 0.0
    return matrix


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", FOURIER_LENGTHS)
def test_fourier_batch_matches_scalar(family, n):
    matrix = _matrix(24, n, seed=n)
    compressor = FAMILIES[family](k=min(5, n // 2 - 1))
    scalar = SketchDatabase.from_matrix_scalar(matrix, compressor)
    batch = batch_compress(matrix, compressor)
    assert databases_equal(scalar, batch)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", HAAR_LENGTHS)
def test_haar_batch_matches_scalar(family, n):
    matrix = _matrix(24, n, seed=n + 1)
    compressor = FAMILIES[family](k=5)
    scalar = SketchDatabase.from_matrix_scalar(matrix, compressor, basis="haar")
    batch = batch_compress(matrix, compressor, basis="haar")
    assert databases_equal(scalar, batch)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_wide_k_forces_middle_padding_paths(family):
    """k large enough that first-k reaches the middle coefficient and
    best-k retains it for some rows but not others."""
    n = 16
    matrix = _matrix(32, n, seed=2)
    compressor = FAMILIES[family](k=n // 2 - 1)
    scalar = SketchDatabase.from_matrix_scalar(matrix, compressor)
    batch = batch_compress(matrix, compressor)
    assert databases_equal(scalar, batch)


def test_from_matrix_dispatches_to_batch(monkeypatch):
    matrix = _matrix(8, 32)
    compressor = BestMinErrorCompressor(6)
    via_dispatch = SketchDatabase.from_matrix(matrix, compressor)
    explicit = batch_compress(matrix, compressor)
    assert databases_equal(via_dispatch, explicit)

    # The per-row reference path must give the identical database.
    scalar = SketchDatabase.from_matrix_scalar(matrix, compressor)
    assert databases_equal(via_dispatch, scalar)


def test_adaptive_compressor_falls_back_to_scalar():
    matrix = _matrix(8, 32)
    adaptive = AdaptiveEnergyCompressor(0.9)
    assert not supports_batch(adaptive)
    with pytest.raises(CompressionError):
        batch_compress(matrix, adaptive)
    # The dispatching constructor absorbs the fallback transparently.
    db = SketchDatabase.from_matrix(matrix, adaptive)
    assert databases_equal(db, SketchDatabase.from_matrix_scalar(matrix, adaptive))


def test_batch_names_and_errors():
    matrix = _matrix(4, 16)
    compressor = GeminiCompressor(3)
    names = [f"q{i}" for i in range(4)]
    db = batch_compress(matrix, compressor, names=names)
    assert db.names == tuple(names)
    with pytest.raises(CompressionError):
        batch_compress(matrix, compressor, names=names[:-1])
    with pytest.raises(CompressionError):
        batch_compress(np.empty((0, 16)), compressor)
    with pytest.raises(SeriesMismatchError):
        batch_compress(matrix, compressor, basis="wavelet?")


def test_batch_k_too_large_matches_scalar_refusal():
    matrix = _matrix(4, 8)
    compressor = BestMinErrorCompressor(7)
    with pytest.raises(CompressionError):
        SketchDatabase.from_matrix_scalar(matrix, compressor)
    with pytest.raises(CompressionError):
        batch_compress(matrix, compressor)


def test_round_trip_sketches_match_scalar_objects():
    """Row-level spot check: materialised sketches agree field by field."""
    matrix = _matrix(12, 33, seed=9)
    compressor = BestMinErrorCompressor(5)
    scalar = SketchDatabase.from_matrix_scalar(matrix, compressor)
    batch = batch_compress(matrix, compressor)
    for row in range(len(batch)):
        left, right = scalar.sketch(row), batch.sketch(row)
        assert np.array_equal(left.positions, right.positions)
        assert np.array_equal(left.coefficients, right.coefficients)
        assert np.array_equal(left.weights, right.weights)
        assert left.error == right.error
        assert left.min_power == right.min_power
        assert (left.n, left.basis, left.method) == (
            right.n,
            right.basis,
            right.method,
        )
