"""The online ≡ batch law for period detection, at every day.

After each push, the sliding periodogram's powers are the batch
periodogram's of the window, bit for bit, and the online detector's
significant set is the one the batch detector finds on that window.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.periods.detector import PeriodDetector
from repro.periods.online import OnlinePeriodDetector
from repro.spectral.online import OnlinePeriodogram
from repro.spectral.periodogram import periodogram
from repro.timeseries import zscore

WINDOWS = (4, 8, 64, 128)

counts = st.one_of(
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=300),
    # A flat run with spikes: the band mean sits near one bin's power.
    st.lists(st.sampled_from([0, 0, 0, 5, 10**6]), min_size=1, max_size=300),
    # A weekly rhythm under noise, so significant sets come and go.
    st.builds(
        lambda days, noise: [
            100 + 40 * (day % 7 == 5) + noise[day % len(noise)]
            for day in range(days)
        ],
        st.integers(min_value=1, max_value=300),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    days=counts,
    standardised=st.booleans(),
    window=st.sampled_from(WINDOWS),
)
def test_online_equals_batch_after_every_push(days, standardised, window):
    values = np.asarray(days, dtype=np.float64)
    if standardised:
        values = zscore(values)
    pgram = OnlinePeriodogram(window)
    monitor = OnlinePeriodDetector(window=window, min_samples=4)
    batch = PeriodDetector(interpolate=False)
    for day, value in enumerate(values.tolist()):
        pgram.push(value)
        monitor.push(day, value)
        seen = values[max(0, day + 1 - window) : day + 1]
        np.testing.assert_array_equal(pgram.power, periodogram(seen).power)
        want = (
            {p.index for p in batch.detect(seen).periods}
            if seen.size >= 4
            else set()
        )
        assert monitor.significant_indexes == want, day
