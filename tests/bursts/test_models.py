"""The four registered models: registry behaviour and the equivalence law.

The load-bearing suite here is :class:`TestOnlineEquivalence` — for every
registered backend, the online detector's region list after pushing
``values[:i]`` one value at a time must equal ``detect(values[:i])``
**exactly** (``==`` over :class:`BurstRegion`, no tolerance) at every
prefix ``i``.  That is the protocol-wide law the refactor promotes from
the trailing-MA detector to all models.
"""

import numpy as np
import pytest

from repro.bursts.models import (
    ElasticModel,
    KleinbergModel,
    MACDModel,
    MovingAverageModel,
)
from repro.bursts.protocol import BurstModel, BurstRegion, ReplayDetector
from repro.bursts.registry import (
    MODEL_BUILDERS,
    available_burst_models,
    get_burst_model,
)
from repro.exceptions import ReproError, SeriesLengthError
from repro.timeseries.series import TimeSeries


def _bursty_counts(days=120, seed=3):
    """Raw daily counts: Poisson baseline with two injected bursts."""
    rng = np.random.default_rng(seed)
    values = rng.poisson(20.0, size=days).astype(np.float64)
    values[40:50] += rng.poisson(60.0, size=10)
    values[90:97] += rng.poisson(90.0, size=7)
    return values


def _zscored(values):
    return (values - values.mean()) / values.std()


#: One representative configuration per registry name, parameterised so
#: every backend runs through the same equivalence machinery.  Elastic
#: runs on raw counts with a count-scaled pure threshold; the others at
#: defaults apart from a short MA window so bursts actually register on
#: a 120-day series.
_CONFIGS = {
    "ma": lambda: MovingAverageModel(window=7),
    "kleinberg": lambda: KleinbergModel(),
    "elastic": lambda: ElasticModel(offset=0.0, rate=40.0),
    "macd": lambda: MACDModel(),
}


class TestRegistry:
    def test_every_builder_has_a_config_here(self):
        assert set(_CONFIGS) == set(MODEL_BUILDERS)

    def test_available_models(self):
        assert available_burst_models() == ("ma", "kleinberg", "elastic", "macd")

    @pytest.mark.parametrize("name", ["ma", "kleinberg", "elastic", "macd"])
    def test_get_returns_the_named_model(self, name):
        model = get_burst_model(name)
        assert isinstance(model, BurstModel)
        assert model.name == name

    @pytest.mark.parametrize(
        "alias, target",
        [
            ("moving_average", "ma"),
            ("moving-average", "ma"),
            ("trailing", "ma"),
            ("automaton", "kleinberg"),
            ("swt", "elastic"),
            ("shifted_wavelet_tree", "elastic"),
            ("crossover", "macd"),
        ],
    )
    def test_aliases(self, alias, target):
        assert get_burst_model(alias).name == target

    def test_kwargs_forward_to_the_constructor(self):
        model = get_burst_model("ma", window=14, threshold_sigmas=2.0)
        assert model.window == 14
        assert model.threshold_sigmas == 2.0
        assert get_burst_model("macd", fast=5.0, slow=20.0).fast == 5.0

    def test_unknown_name_lists_the_known_ones(self):
        with pytest.raises(ReproError, match="elastic.*kleinberg.*ma.*macd"):
            get_burst_model("wavelets")

    def test_instance_passes_through(self):
        model = MACDModel()
        assert get_burst_model(model) is model

    def test_instance_with_kwargs_is_rejected(self):
        with pytest.raises(ReproError):
            get_burst_model(MACDModel(), fast=3.0)


class TestOnlineEquivalence:
    """The law: online regions == batch regions at *every* prefix."""

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_bit_identical_at_every_prefix(self, name):
        values = _bursty_counts()
        if name == "ma":
            values = _zscored(values)
        model = _CONFIGS[name]()
        online = model.online()
        fired_any = False
        for i, value in enumerate(values):
            online.push(i, value)
            batch = model.detect(values[: i + 1])
            assert online.regions() == batch, f"{name} diverged at prefix {i + 1}"
            fired_any = fired_any or bool(batch)
        assert fired_any, f"{name} never fired; the test data is too tame"

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_detect_is_canonically_sorted(self, name):
        values = _bursty_counts(seed=11)
        regions = _CONFIGS[name]().detect(values)
        assert regions == sorted(regions)

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_empty_input_is_rejected(self, name):
        with pytest.raises(SeriesLengthError):
            _CONFIGS[name]().detect(np.empty(0))

    @pytest.mark.parametrize("name", sorted(_CONFIGS))
    def test_timeseries_input_equals_array_input(self, name):
        values = _bursty_counts(seed=7)
        model = _CONFIGS[name]()
        assert model.detect(TimeSeries(values)) == model.detect(values)


class TestMovingAverageModel:
    def test_weight_is_the_area_above_the_cutoff(self):
        values = _zscored(_bursty_counts())
        model = MovingAverageModel(window=7)
        annotation = model._detector.detect(values)
        for region in model.detect(values):
            expected = float(
                np.sum(
                    annotation.smoothed[region.start : region.end + 1]
                    - annotation.cutoff
                )
            )
            assert region.weight == expected
            assert region.weight > 0.0

    def test_online_decision_statistic_is_the_smoothed_value(self):
        values = _zscored(_bursty_counts())
        model = MovingAverageModel(window=7)
        online = model.online()
        online.extend(values)
        annotation = model._detector.detect(values)
        assert online.decision_statistic == annotation.smoothed[-1]
        assert online.decision_threshold == annotation.cutoff


class TestKleinbergModel:
    def test_online_form_is_honest_replay(self):
        assert isinstance(KleinbergModel().online(), ReplayDetector)

    def test_regions_match_the_state_sequence(self):
        values = _bursty_counts(seed=5)
        model = KleinbergModel()
        states = model.state_sequence(values)
        flagged = {
            day
            for region in model.detect(values)
            for day in range(region.start, region.end + 1)
        }
        assert flagged == set(np.flatnonzero(states >= 1).tolist())

    def test_level_is_the_peak_state(self):
        values = _bursty_counts(seed=5)
        model = KleinbergModel(states=3)
        states = model.state_sequence(values)
        for region in model.detect(values):
            assert region.level == int(
                states[region.start : region.end + 1].max()
            )

    def test_weight_sums_the_emission_savings(self):
        values = _bursty_counts(seed=5)
        model = KleinbergModel()
        _, savings = model.weighted_states(values)
        for region in model.detect(values):
            assert region.weight == float(
                np.sum(savings[region.start : region.end + 1])
            )
            assert region.weight > 0.0


class TestElasticModel:
    def test_negative_values_are_clipped_pointwise(self):
        values = _bursty_counts(seed=2)
        model = ElasticModel(offset=0.0, rate=40.0)
        shifted = values.copy()
        shifted[shifted < 25.0] = -1000.0  # clipped to 0, not subtracted
        assert model.detect(shifted) == model.detect(np.maximum(shifted, 0.0))

    def test_default_threshold_is_affine_in_the_window(self):
        model = ElasticModel(offset=4.0, rate=1.5)
        assert model.threshold(7) == 4.0 + 1.5 * 7
        assert model.threshold(30) == 4.0 + 1.5 * 30

    def test_region_weight_is_the_window_sum(self):
        values = _bursty_counts(seed=2)
        model = ElasticModel(offset=0.0, rate=40.0)
        regions = model.detect(values)
        assert regions
        for region in regions:
            assert region.weight == float(
                np.sum(values[region.start : region.end + 1])
            )
            assert region.weight >= model.threshold(len(region))


class TestMACDModel:
    def test_rejects_bad_spans(self):
        with pytest.raises(ValueError):
            MACDModel(fast=30.0, slow=7.0)
        with pytest.raises(ValueError):
            MACDModel(fast=7.0, slow=7.0)
        with pytest.raises(ValueError):
            MACDModel(signal=0.0)

    def test_flat_series_never_bursts(self):
        assert MACDModel().detect(np.full(100, 13.0)) == []

    def test_step_up_fires_near_the_step(self):
        values = np.concatenate([np.full(60, 10.0), np.full(30, 80.0)])
        regions = MACDModel().detect(values)
        assert regions
        first = regions[0]
        assert 60 <= first.start <= 63  # momentum crosses just after the step
        assert first.weight > 0.0

    def test_weight_is_the_histogram_mass(self):
        values = _bursty_counts(seed=9)
        model = MACDModel()
        state = model._state()
        for value in values:
            state.push(value)
        histogram = np.asarray(state.histogram)
        for region in model.detect(values):
            assert region.weight == float(
                np.sum(histogram[region.start : region.end + 1])
            )
