"""Online burst detection: bit-identity to the batch detector, alerts."""

import numpy as np
import pytest

from repro.bursts.detection import BurstDetector
from repro.bursts.models import MACDModel, MovingAverageModel
from repro.stream import LiveBurstMonitor, LivePeriodMonitor, PeriodAlert


def _series(days: int = 60, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.poisson(20, size=days).astype(float)
    values[40:45] += 90.0  # an unmistakable burst
    return values


class TestOnlineBurstDetector:
    """The ``ma`` model's online form against the batch detector."""

    @pytest.mark.parametrize("window", [1, 7, 30])
    def test_bit_identical_to_batch_on_every_prefix(self, window):
        values = _series()
        batch = BurstDetector(window, 1.5, mode="trailing")
        online = MovingAverageModel(window, 1.5).online()
        for i in range(1, values.size + 1):
            online.push(i - 1, values[i - 1])
            expected = batch.detect(values[:i])
            got = online.annotation()
            assert got.window == expected.window
            assert got.cutoff == expected.cutoff  # exact, not approx
            np.testing.assert_array_equal(got.smoothed, expected.smoothed)
            np.testing.assert_array_equal(got.mask, expected.mask)

    def test_push_return_matches_final_mask_entry(self):
        values = _series(days=50, seed=3)
        online = MovingAverageModel(7, 1.5).online()
        for day, value in enumerate(values):
            online.push(day, value)
            assert online.bursting == bool(online.annotation().mask[-1])

    def test_growth_past_initial_capacity(self):
        # Initial buffers hold 15 smoothed values; push far beyond.
        online = MovingAverageModel(7, 1.5).online()
        values = _series(days=200, seed=5)
        for day, value in enumerate(values):
            online.push(day, value)
        assert len(online) == 200
        expected = BurstDetector(7, 1.5, mode="trailing").detect(values)
        np.testing.assert_array_equal(
            online.annotation().smoothed, expected.smoothed
        )

    def test_rejects_bad_parameters_and_values(self):
        with pytest.raises(ValueError):
            MovingAverageModel(0)
        with pytest.raises(ValueError):
            MovingAverageModel(7, 0.0)
        with pytest.raises(ValueError):
            MovingAverageModel(7).online().annotation()
        detector = MovingAverageModel(7).online()
        with pytest.raises(Exception):
            detector.push(0, float("nan"))


class TestLiveBurstMonitor:
    def test_rising_edge_alerts_once_per_burst(self):
        monitor = LiveBurstMonitor(window=3, threshold_sigmas=1.5)
        quiet = [10.0] * 12
        burst = [200.0] * 4
        alerts = monitor.observe_series("q", quiet + burst + quiet + burst)
        # Two separate burst episodes, two alerts — not one per bursty day.
        assert len(alerts) == 2
        assert all(a.name == "q" for a in alerts)
        for alert in alerts:
            assert alert.smoothed > alert.cutoff
            assert alert.value == 200.0

    def test_alert_day_indexes_the_observed_stream(self):
        monitor = LiveBurstMonitor(window=3)
        values = [5.0] * 10 + [500.0]
        (alert,) = monitor.observe_series("q", values)
        assert alert.day == 10

    def test_drain_hands_over_and_clears(self):
        monitor = LiveBurstMonitor(window=3)
        monitor.observe_series("q", [5.0] * 10 + [500.0])
        drained = monitor.drain()
        assert len(drained) == 1
        assert monitor.drain() == []

    def test_forget_resets_a_series(self):
        monitor = LiveBurstMonitor(window=3)
        monitor.observe_series("q", [5.0] * 8)
        assert monitor.detector("q") is not None
        monitor.forget("q")
        assert monitor.detector("q") is None
        monitor.forget("never-seen")  # idempotent

    def test_independent_series_do_not_interact(self):
        monitor = LiveBurstMonitor(window=3)
        monitor.observe_series("loud", [5.0] * 10 + [500.0] * 3)
        alerts = monitor.observe_series("calm", [7.0] * 13)
        assert alerts == []
        assert len(monitor) == 2
        assert len(monitor.detector("calm")) == 13


class TestLiveBurstMonitorModels:
    """The monitor runs any registered backend, not just the MA default."""

    def test_default_is_the_paper_moving_average(self):
        monitor = LiveBurstMonitor(window=3, threshold_sigmas=2.0)
        assert monitor.model.name == "ma"
        assert monitor.model.window == 3
        assert monitor.model.threshold_sigmas == 2.0

    def test_model_by_registry_name(self):
        monitor = LiveBurstMonitor(model="macd")
        quiet = [10.0] * 30
        alerts = monitor.observe_series("q", quiet + [400.0] * 5)
        assert monitor.model.name == "macd"
        assert len(alerts) >= 1
        assert alerts[0].day >= 30

    def test_model_by_instance(self):
        model = MACDModel(fast=3.0, slow=12.0)
        monitor = LiveBurstMonitor(model=model)
        assert monitor.model is model

    def test_alias_spellings_resolve(self):
        assert LiveBurstMonitor(model="crossover").model.name == "macd"
        assert LiveBurstMonitor(model="automaton").model.name == "kleinberg"

    def test_alert_carries_the_scored_region(self):
        monitor = LiveBurstMonitor(window=3)
        (alert,) = monitor.observe_series("q", [5.0] * 10 + [500.0])
        assert alert.region is not None
        assert alert.region.start <= alert.day <= alert.region.end

    def test_alerts_match_the_batch_decision_per_prefix(self):
        values = _series()
        monitor = LiveBurstMonitor(model="macd")
        monitor.observe_series("q", values)
        model = monitor.model
        assert monitor.detector("q").regions() == model.detect(values)


class TestLivePeriodMonitor:
    @staticmethod
    def _weekly(days, seed=0):
        t = np.arange(days)
        rng = np.random.default_rng(seed)
        return np.sin(2 * np.pi * t / 8.0) + rng.normal(0.0, 0.3, size=days)

    def test_gaining_a_rhythm_raises_a_period_alert(self):
        monitor = LivePeriodMonitor(window=32)
        alerts = monitor.observe_series("q", self._weekly(100))
        assert alerts
        assert all(isinstance(a, PeriodAlert) for a in alerts)
        assert all(a.name == "q" for a in alerts)
        gained = [p for a in alerts for p in a.gained]
        assert any(abs(p.period - 8.0) < 1.5 for p in gained)

    def test_drain_hands_over_and_clears(self):
        monitor = LivePeriodMonitor(window=32)
        monitor.observe_series("q", self._weekly(100))
        assert monitor.drain()
        assert monitor.drain() == []

    def test_forget_resets_a_series(self):
        monitor = LivePeriodMonitor(window=32)
        monitor.observe_series("q", self._weekly(50))
        assert monitor.detector("q") is not None
        monitor.forget("q")
        assert monitor.detector("q") is None
        monitor.forget("never-seen")  # idempotent

    def test_independent_series_do_not_interact(self):
        monitor = LivePeriodMonitor(window=32)
        monitor.observe_series("rhythmic", self._weekly(100, seed=1))
        flat = np.random.default_rng(2).normal(0.0, 0.3, size=100)
        monitor.observe_series("flat", flat)
        assert len(monitor) == 2
        gained = [
            p
            for a in monitor.drain()
            if a.name == "flat"
            for p in a.gained
        ]
        assert not any(abs(p.period - 8.0) < 0.5 for p in gained)

    def test_alert_day_indexes_the_observed_stream(self):
        monitor = LivePeriodMonitor(window=32)
        alerts = monitor.observe_series("q", self._weekly(100))
        for alert in alerts:
            assert 0 <= alert.day < 100
            assert alert.result.periods is not None
