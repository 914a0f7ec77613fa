"""What a sketch stores about its omitted coefficients, on any finite row.

DC is never selected, so it is always omitted.  The stored error
(``T.err``) must count its energy, and ``minPower`` must bound its
magnitude, on every compressor path: fixed-k per row, the batch kernels
and the adaptive compressor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    AdaptiveEnergyCompressor,
    BestErrorCompressor,
    BestMinErrorCompressor,
    SketchDatabase,
    WangCompressor,
)
from repro.spectral import Spectrum
from repro.wavelets.haar import haar_spectrum

LENGTH = 32

PATHS = {
    "fixed-k": lambda k: BestMinErrorCompressor(k),
    "batch": lambda k: BestErrorCompressor(k),
    "first-k": lambda k: WangCompressor(k),
    "adaptive": lambda k: AdaptiveEnergyCompressor(0.8, max_k=k),
}


@st.composite
def rows(draw):
    """Rows with a drawn mean: zero, an offset, or Poisson counts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from((0.0, -7.5, 3.0, 40.0)))
    if draw(st.booleans()):
        return rng.poisson(max(offset, 1.0), size=(6, LENGTH)).astype(float)
    return rng.normal(size=(6, LENGTH)) + offset


@settings(max_examples=80, deadline=None)
@given(
    matrix=rows(),
    path=st.sampled_from(sorted(PATHS)),
    basis=st.sampled_from(("fourier", "haar")),
    k=st.integers(1, 6),
)
def test_error_and_min_power_count_dc(matrix, path, basis, k):
    build = (
        SketchDatabase.from_matrix
        if path == "batch"
        else SketchDatabase.from_matrix_scalar
    )
    db = build(matrix, PATHS[path](k), basis=basis)
    sketches = [db.sketch(row) for row in range(len(db))]
    transform = Spectrum.from_series if basis == "fourier" else haar_spectrum
    for row, sketch in zip(matrix, sketches):
        spectrum = transform(row)
        omitted = np.ones(len(spectrum), dtype=bool)
        omitted[sketch.positions] = False
        assert omitted[0]
        scale = 1e-9 * (1.0 + spectrum.powers.sum())
        assert abs(sketch.error - spectrum.powers[omitted].sum()) <= scale
        assert sketch.error >= spectrum.powers[0] - scale
        if sketch.min_power is not None:
            assert np.all(spectrum.magnitudes[omitted] <= sketch.min_power)
