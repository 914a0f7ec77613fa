"""The batch/online protocol: regions, alerts, and the replay fallback."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.bursts.protocol import (
    BurstModel,
    BurstRegion,
    OnlineDetector,
    RegionAlert,
    ReplayDetector,
    mask_regions,
)


class TestBurstRegion:
    def test_length_is_inclusive(self):
        assert len(BurstRegion(3, 3, 1.0)) == 1
        assert len(BurstRegion(3, 7, 1.0)) == 5

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            BurstRegion(5, 4, 1.0)

    def test_canonical_ordering_is_by_start_then_end(self):
        regions = [
            BurstRegion(4, 6, 9.0),
            BurstRegion(1, 2, 0.5),
            BurstRegion(1, 5, 0.1),
        ]
        ordered = sorted(regions)
        assert [(r.start, r.end) for r in ordered] == [(1, 2), (1, 5), (4, 6)]

    def test_equality_is_field_exact(self):
        assert BurstRegion(1, 2, 3.0) == BurstRegion(1, 2, 3.0)
        assert BurstRegion(1, 2, 3.0) != BurstRegion(1, 2, 3.0000001)
        assert BurstRegion(1, 2, 3.0, level=1) != BurstRegion(1, 2, 3.0, level=2)

    def test_overlap_days(self):
        region = BurstRegion(10, 19, 5.0)
        assert region.overlap_days(0, 9) == 0
        assert region.overlap_days(15, 30) == 5
        assert region.overlap_days(10, 19) == 10
        assert region.overlap_days(0, 100) == 10

    def test_windowed_weight_prorates_by_overlap(self):
        region = BurstRegion(10, 19, 8.0)
        assert region.windowed_weight(0, 9) == 0.0
        assert region.windowed_weight(10, 19) == 8.0
        assert region.windowed_weight(15, 100) == 8.0 * 0.5


class TestBurstRegionContract:
    """A region is an immutable ``(start, end, weight, level)`` tuple."""

    def test_repr_names_every_field(self):
        assert repr(BurstRegion(3, 7, 1.5)) == (
            "BurstRegion(start=3, end=7, weight=1.5, level=1)"
        )

    @pytest.mark.parametrize(
        "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy]
    )
    def test_pickle_and_deepcopy_give_back_a_region(self, clone):
        region = BurstRegion(2, 9, 0.25, level=3)
        twin = clone(region)
        assert type(twin) is BurstRegion
        assert twin == region and twin.level == 3

    def test_astuple_of_an_alert_keeps_its_region(self):
        alert = RegionAlert(4, 9.0, 2.5, 1.0, BurstRegion(3, 4, 0.5))
        flat = dataclasses.astuple(alert)
        assert flat == (4, 9.0, 2.5, 1.0, (3, 4, 0.5, 1))
        assert type(flat[-1]) is BurstRegion

    def test_equal_regions_hash_equal(self):
        assert hash(BurstRegion(1, 2, 3.0)) == hash(BurstRegion(1, 2, 3.0))
        assert len({BurstRegion(1, 2, 3.0), BurstRegion(1, 2, 3.0)}) == 1

    def test_fields_cannot_be_set(self):
        region = BurstRegion(1, 2, 3.0)
        for name in ("start", "end", "weight", "level", "other"):
            with pytest.raises(AttributeError):
                setattr(region, name, 0)

    def test_field_order_is_start_end_weight_level(self):
        region = BurstRegion(1, 2, 3.0, level=4)
        assert region._fields == ("start", "end", "weight", "level")
        assert tuple(region) == (1, 2, 3.0, 4)
        assert region == (1, 2, 3.0, 4)
        assert len(region) == 2

    def test_replace_checks_the_span(self):
        region = BurstRegion(3, 7, 1.0)
        assert region._replace(end=9) == BurstRegion(3, 9, 1.0)
        with pytest.raises(ValueError):
            region._replace(end=2)

    def test_trusted_builder_equals_the_checked_one(self):
        built = BurstRegion.trusted([0, 4], [2, 4], [1.5, 0.0])
        assert built == [BurstRegion(0, 2, 1.5), BurstRegion(4, 4, 0.0)]
        assert all(type(r) is BurstRegion for r in built)


class TestMaskRegions:
    def test_empty_and_all_false(self):
        assert mask_regions(np.zeros(0, dtype=bool)) == []
        assert mask_regions(np.zeros(5, dtype=bool)) == []

    def test_single_runs_and_edges(self):
        assert mask_regions([True, True, False, True]) == [(0, 1), (3, 3)]
        assert mask_regions([False, True, True]) == [(1, 2)]
        assert mask_regions([True] * 4) == [(0, 3)]


class _StepModel(BurstModel):
    """Toy model: a day bursts when its value exceeds 5."""

    name = "step"

    def detect(self, values):
        mask = np.asarray(values, dtype=np.float64) > 5.0
        return [
            BurstRegion(s, e, float(e - s + 1)) for s, e in mask_regions(mask)
        ]


class TestOnlineDetectorBase:
    def test_days_must_arrive_in_order(self):
        detector = _StepModel().online()
        detector.push(0, 1.0)
        with pytest.raises(ValueError):
            detector.push(2, 1.0)
        with pytest.raises(ValueError):
            detector.push(0, 1.0)

    def test_rejects_nan(self):
        detector = _StepModel().online()
        with pytest.raises(Exception):
            detector.push(0, float("nan"))

    def test_rising_edge_alerts_once_per_episode(self):
        values = [0, 9, 9, 9, 0, 0, 9, 0]
        detector = _StepModel().online()
        alerts = detector.extend(values)
        assert [a.day for a in alerts] == [1, 6]
        assert all(isinstance(a, RegionAlert) for a in alerts)

    def test_alert_carries_the_covering_region(self):
        detector = _StepModel().online()
        (alert,) = detector.extend([0.0, 9.0])
        assert alert.region.start <= alert.day <= alert.region.end
        assert alert.value == 9.0

    def test_size_and_bursting_track_the_stream(self):
        detector = _StepModel().online()
        detector.extend([0.0, 9.0, 0.0])
        assert detector.size == 3
        assert len(detector) == 3
        assert not detector.bursting
        detector.push(3, 9.0)
        assert detector.bursting


class TestReplayDetector:
    def test_default_online_form_is_replay(self):
        assert isinstance(_StepModel().online(), ReplayDetector)

    def test_regions_match_batch_at_every_prefix(self):
        rng = np.random.default_rng(5)
        values = rng.normal(4.0, 3.0, size=40)
        model = _StepModel()
        online = model.online()
        for i, value in enumerate(values):
            online.push(i, value)
            assert online.regions() == model.detect(values[: i + 1])

    def test_regions_returns_a_copy(self):
        model = _StepModel()
        online = model.online()
        online.extend([9.0])
        online.regions().clear()
        assert online.regions() == model.detect([9.0])
