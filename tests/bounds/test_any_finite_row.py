"""``LB <= d <= UB`` on any finite row, not only standardised ones.

Every other file here z-scores what it draws, so DC is rounding noise
there.  The ``minProperty`` bounds assume every omitted coefficient is at
most ``minPower``; DC is never selected, so on a row with a non-zero
mean it is the largest omitted coefficient, and ``minPower`` must cover
it.  This law draws rows whose DC is anything but zero.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import batch_bounds
from repro.bounds.batch import _KERNELS
from repro.compression import (
    AdaptiveEnergyCompressor,
    BestErrorCompressor,
    BestMinCompressor,
    BestMinErrorCompressor,
    GeminiCompressor,
    SketchDatabase,
    WangCompressor,
)
from repro.spectral import Spectrum
from repro.wavelets.haar import haar_spectrum

LENGTH = 32
ROW_CLASSES = ("centred", "offset", "counts", "unnormalised")
#: The paper's verbatim fig. 9 combination can undershoot with its UB,
#: centred rows included (``repro.bounds.best_min_error`` documents the
#: gap), so only its LB is held here: the side the DC cap keeps.
PUBLISHED = {"best_min_error", "adaptive_best_min_error"}

#: Each kernel name with the compressors whose sketches it bounds.
FEEDS = {
    "gemini": [GeminiCompressor],
    "wang": [WangCompressor],
    "best_error": [BestErrorCompressor],
    "best_min": [BestMinCompressor],
    "best_min_error": [BestMinErrorCompressor],
    "adaptive_best_min_error": [lambda k: AdaptiveEnergyCompressor(0.9, max_k=k)],
    "best_min_error_safe": [
        BestMinErrorCompressor,
        lambda k: AdaptiveEnergyCompressor(0.9, max_k=k),
    ],
}


def draw_row(rng, kind):
    """One row of a class whose DC is zero only for ``centred``."""
    if kind == "centred":
        row = rng.normal(size=LENGTH)
        return row - row.mean()
    if kind == "offset":
        return rng.normal(size=LENGTH) + rng.uniform(-50.0, 50.0)
    if kind == "counts":
        return rng.poisson(rng.uniform(1.0, 60.0), size=LENGTH).astype(float)
    return rng.normal(size=LENGTH)


def test_every_kernel_is_fed():
    assert set(FEEDS) == set(_KERNELS)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.sampled_from(sorted(_KERNELS)),
    basis=st.sampled_from(("fourier", "haar")),
    kinds=st.lists(st.sampled_from(ROW_CLASSES), min_size=1, max_size=4),
    k=st.integers(1, 6),
    data=st.data(),
)
def test_bounds_hold_on_any_finite_row(seed, kernel, basis, kinds, k, data):
    compressor = data.draw(st.sampled_from(FEEDS[kernel]), label="feed")(k)
    rng = np.random.default_rng(seed)
    matrix = np.array([draw_row(rng, kinds[i % len(kinds)]) for i in range(12)])
    query = draw_row(rng, data.draw(st.sampled_from(ROW_CLASSES), label="query"))
    db = SketchDatabase.from_matrix(matrix, compressor, basis=basis)
    spectrum = (
        Spectrum.from_series(query) if basis == "fourier" else haar_spectrum(query)
    )
    lower, upper = batch_bounds(spectrum, db, method=kernel)
    distance = np.sqrt(((matrix - query) ** 2).sum(axis=1))
    slack = 1e-9 * (np.linalg.norm(matrix, axis=1) + np.linalg.norm(query))
    assert np.all(lower <= distance + slack), (lower - distance).max()
    if kernel not in PUBLISHED:
        assert np.all(distance <= upper + slack), (distance - upper).max()
