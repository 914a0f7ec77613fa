"""The bulk ≡ per-day law: ``extend`` is a loop of pushes, bit for bit.

``LiveBurstMonitor.observe_series`` hands a whole history to the
detector's ``extend``; for the paper's ``ma`` model that is one
vectorised pass (``TrailingMA.extend`` + ``prefix_bursts``, which pays
an exact cutoff only where a decision needs one) instead of a push per
day.  The per-day ``observe`` loop is the oracle: for any series,
window, cutoff factor and split point, the bulk-fed monitor must raise
the same alerts — every field, floats compared with ``==`` — and leave
every detector in the same state and the obs counters at the same
values as a twin fed one day at a time.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bursts.kernel import prefix_bursts
from repro.bursts.models import MovingAverageModel
from repro.bursts.registry import available_burst_models, get_burst_model
from repro.exceptions import SeriesLengthError
from repro.stream.alerts import LiveBurstMonitor

KINDS = (
    "counts",
    "constant",
    "zeros",
    "spikes",
    "huge",
    "ties",
    "overflow",
    "subnormal",
    "offset",
)
COUNTERS = ("bursts.online_pushes", "stream.burst_alerts")


def make_series(kind: str, days: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        # Tenths, not integers: the prefix means round a hair above or
        # below the constant, so the cutoff flickers around it and an
        # alert's region can reach back over days that were quiet under
        # their own, earlier cutoff.
        return np.full(days, rng.integers(1, 1000) / 10.0)
    if kind == "zeros":
        return np.zeros(days)
    if kind == "ties":
        # Runs of 0 then a, n0 : n1 = x² : 1 for one drawn cutoff factor:
        # at the end of each run of a, a == mean + x * std, to the bit
        # where the arithmetic is exact (x = 1) and within ulps elsewhere.
        zeros, level = [(1, 1), (4, 1), (1, 4), (9, 4), (9, 1)][
            int(rng.integers(0, 5))
        ]
        a = 2.0 ** float(rng.integers(-3, 8))
        return np.resize([0.0] * zeros + [a] * level, days)
    values = rng.poisson(40.0, size=days).astype(np.float64)
    if kind == "spikes":
        for at in rng.integers(0, days, size=max(1, days // 12)):
            values[at : at + int(rng.integers(1, 6))] += rng.integers(80, 800)
    if kind == "huge":
        # Squares (the variance pass) stay finite up to ~1e153.
        values *= 10.0 ** float(rng.integers(12, 150))
    if kind == "overflow":
        # Up to 1e160 the squares overflow: the band is inf, so each day
        # takes the exact cutoff, itself inf where numpy's variance is.
        values *= 10.0 ** float(rng.integers(152, 160))
    if kind == "subnormal":
        # Squares underflow to zero or to subnormals; the smallest scales
        # put the values themselves below 2**-1022.
        values *= 2.0 ** -float(rng.integers(1000, 1075))
    if kind == "offset":
        # A first half far above the rest: the whole series' mean, which
        # the running estimate shifts by, sits far from the early
        # prefixes' means, so their variance estimate cancels; near 1e155
        # its squares overflow (a NaN estimate) while the early
        # prefixes' own cutoffs stay finite.
        level = 10.0 ** float(rng.choice([7, 100, 155]))
        values[: days // 2] = level * (1.0 + values[: days // 2] / 1000.0)
    return values


def fed(model, feed):
    """A fresh monitor after ``feed(monitor)``, with what it counted."""
    monitor = LiveBurstMonitor(model=model)
    with obs.observed() as registry:
        returned = feed(monitor)
    counters = registry.snapshot()["counters"]
    return monitor, returned, {name: counters.get(name) for name in COUNTERS}


def state(detector):
    return (
        detector.regions(),
        detector.size,
        detector.bursting,
        detector.decision_statistic,
        detector.decision_threshold,
    )


def check_bulk_equals_daily(model, values, split):
    """Feed ``values`` in two blocks and day by day; returns the alerts."""

    def bulk(monitor):
        # split == 0 seeds an empty detector with the whole series; any
        # other split also extends a seeded one.
        head = monitor.observe_series("q", values[:split])
        return head + monitor.observe_series("q", values[split:])

    def daily(monitor):
        alerts = [monitor.observe("q", float(value)) for value in values]
        return [alert for alert in alerts if alert is not None]

    seeded, bulk_alerts, bulk_counts = fed(model, bulk)
    pushed, daily_alerts, daily_counts = fed(model, daily)

    assert [dataclasses.astuple(a) for a in bulk_alerts] == [
        dataclasses.astuple(a) for a in daily_alerts
    ]
    assert seeded.drain() == pushed.drain() == daily_alerts
    assert state(seeded.detector("q")) == state(pushed.detector("q"))
    assert bulk_counts == daily_counts

    # The seeded detector carries on exactly where the pushed one does.
    for value in (values[-1] * 4.0 + 100.0, 0.0, values[0]):
        assert seeded.observe("q", value) == pushed.observe("q", value)
    assert state(seeded.detector("q")) == state(pushed.detector("q"))
    return bulk_alerts


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(2, 90),
    st.integers(0, 10_000),
    st.sampled_from((1, 7, 30, 1000)),  # 1000 > any drawn length
    st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
    st.integers(0, 90),
)
def test_ma_observe_series_equals_observe_day_by_day(
    kind, days, seed, window, sigmas, split
):
    check_bulk_equals_daily(
        MovingAverageModel(window, sigmas),
        make_series(kind, days, seed),
        min(split, days),
    )


def test_ma_alert_region_reaching_back_over_quiet_days():
    # The mean of a constant 0.7 rounds below 0.7 on day 7: the cutoff
    # dips under the series, and the alert's region takes in days 5-6,
    # which were quiet under their own cutoffs.
    values = np.full(40, 0.7)
    for split in (0, 6, 7, 20):
        alerts = check_bulk_equals_daily(
            MovingAverageModel(7, 0.5), values, split
        )
        assert (alerts[0].day, alerts[0].region.start) == (7, 5)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(available_burst_models()),
    st.sampled_from(KINDS),
    st.integers(2, 48),  # kleinberg's online form is a replay
    st.integers(0, 10_000),
    st.integers(0, 48),
)
def test_every_model_observe_series_equals_observe_day_by_day(
    name, kind, days, seed, split
):
    check_bulk_equals_daily(
        get_burst_model(name), make_series(kind, days, seed), min(split, days)
    )


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(0, 10_000),
    st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)),
    st.integers(0, 299),
)
def test_prefix_bursts_decide_as_mean_plus_std_at_every_prefix(
    kind, seed, sigmas, start
):
    # 300 prefixes cross numpy's pairwise-sum boundaries (8 and 128
    # elements), where a prefix's sum stops being the running total.
    smoothed = make_series(kind, 300, seed)
    with np.errstate(all="ignore"):
        cutoffs = np.array(
            [
                smoothed[:i].mean() + sigmas * smoothed[:i].std()
                for i in range(1, 301)
            ]
        )
    bursts = smoothed > cutoffs
    bursting = bool(start) and bool(bursts[start - 1])
    flags, edges, exact = prefix_bursts(smoothed, sigmas, start, bursting)
    assert flags.tolist() == bursts[start:].tolist()
    before = np.append(bursting, bursts[start:-1])
    assert edges == np.flatnonzero(bursts[start:] & ~before).tolist()
    assert set(edges) | {299 - start} <= set(exact)
    for j, cutoff in exact.items():
        assert cutoff == cutoffs[start + j] or (
            np.isnan(cutoff) and np.isnan(cutoffs[start + j])
        )


def test_ma_seeding_computes_few_exact_cutoffs():
    # A row's rising edges and last day need their cutoff; the running
    # estimate decides nearly every other day.
    rows = np.random.default_rng(3).poisson(40.0, size=(40, 255))
    for row in rows.astype(np.float64):
        with obs.observed() as registry:
            alerts = LiveBurstMonitor(model="ma").observe_series("q", row)
        exact = registry.snapshot()["counters"]["bursts.ma.exact_cutoffs"]
        assert len(alerts) <= exact < 25


@pytest.mark.parametrize("name", available_burst_models())
def test_a_nan_in_a_block_absorbs_none_of_it(name):
    monitor = LiveBurstMonitor(model=name)
    monitor.observe_series("q", [5.0, 6.0, 7.0])
    with pytest.raises(SeriesLengthError):
        monitor.observe_series("q", [8.0, float("nan"), 9.0])
    assert monitor.detector("q").size == 3
    assert monitor.observe_series("q", []) == []
