"""The sliding-window periodogram: exact reads at every prefix, bookkeeping."""

import numpy as np
import pytest

from repro.spectral.dft import Spectrum
from repro.spectral.online import OnlinePeriodogram
from repro.spectral.periodogram import periodogram


def _signal(days, seed=6):
    rng = np.random.default_rng(seed)
    t = np.arange(days)
    return (
        np.sin(2 * np.pi * t / 7.0)
        + 0.5 * np.sin(2 * np.pi * t / 30.0)
        + rng.normal(0.0, 0.3, size=days)
    )


class TestExactReadPath:
    def test_periodogram_bit_identical_at_every_prefix(self):
        window = 32
        values = _signal(100)
        online = OnlinePeriodogram(window)
        for i, value in enumerate(values, start=1):
            online.push(value)
            expected = periodogram(values[max(0, i - window) : i])
            got = online.periodogram()
            assert got.n == expected.n
            np.testing.assert_array_equal(got.power, expected.power)

    def test_spectrum_bit_identical_to_batch(self):
        window = 16
        values = _signal(50)
        online = OnlinePeriodogram(window)
        online.extend(values)
        expected = Spectrum.from_series(values[-window:])
        got = online.spectrum()
        assert got.n == expected.n
        np.testing.assert_array_equal(got.coefficients, expected.coefficients)

    def test_exact_read_after_many_slides(self):
        window = 16
        values = _signal(2000, seed=1)
        online = OnlinePeriodogram(window)
        online.extend(values)
        np.testing.assert_array_equal(
            online.periodogram().power, periodogram(values[-window:]).power
        )


class TestBookkeeping:
    def test_growing_phase_tracks_the_prefix(self):
        online = OnlinePeriodogram(16)
        values = _signal(10)
        online.extend(values)
        assert not online.full
        assert online.size == 10
        assert online.n == 10
        assert len(online) == 10
        np.testing.assert_array_equal(online.values(), values)

    def test_sliding_phase_keeps_the_latest_window(self):
        online = OnlinePeriodogram(16)
        values = _signal(45)
        online.extend(values)
        assert online.full
        assert online.size == 45
        assert online.n == 16
        np.testing.assert_array_equal(online.values(), values[-16:])

    def test_push_counter(self):
        online = OnlinePeriodogram(8)
        online.extend(_signal(20))
        assert online.pushes == 20

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OnlinePeriodogram(3)

    def test_rejects_nan(self):
        online = OnlinePeriodogram(8)
        with pytest.raises(Exception):
            online.push(float("nan"))

    def test_empty_reads_raise(self):
        online = OnlinePeriodogram(8)
        with pytest.raises(ValueError):
            online.periodogram()
        with pytest.raises(ValueError):
            online.spectrum()
        assert online.power.size == 0
