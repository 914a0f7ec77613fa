"""A drawn differential over stream-store mutation sequences.

Hypothesis interleaves appends, events, rollovers, deletes, supersedes,
seals and compactions.  Beside the store runs a dict model: sealed rows
as the z-scores they were frozen to, live rows as raw windows.  After
every step ``store.search(q, k)`` must answer like a ``scan`` index over
the model's z-scored rows, whichever cached index the store served it
from (the sealed index is rebuilt only when sealed visibility changes).
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine.registry import get_index
from repro.stream import StreamStore
from repro.timeseries.preprocessing import zscore

DAYS = 32
K = 3
QUERIES = [
    zscore(np.random.default_rng(seed).poisson(40.0, DAYS).astype(float))
    for seed in range(3)
]

picks = st.integers(min_value=0, max_value=10**6)
days = st.integers(min_value=0, max_value=DAYS - 1)
counts = st.integers(min_value=0, max_value=60).map(float)


class StreamStoreMachine(RuleBasedStateMachine):
    """Every mutation sequence reads like brute force over the model."""

    @initialize(backend=st.sampled_from(["flat", "vptree"]))
    def setup(self, backend):
        self.backend = backend
        self.directory = tempfile.mkdtemp(prefix="stream-differential-")
        self.store = StreamStore(self.directory, DAYS, fsync=False)
        self.sealed: dict[str, np.ndarray] = {}  # frozen z-scores
        self.live: dict[str, np.ndarray] = {}  # raw windows
        self.rng = np.random.default_rng(0)
        self.next_name = 0

    def teardown(self):
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
            shutil.rmtree(self.directory, ignore_errors=True)

    def fresh_name(self) -> str:
        self.next_name += 1
        return f"n{self.next_name}"

    def window(self) -> np.ndarray:
        return self.rng.poisson(40.0, DAYS).astype(float)

    def visible(self) -> list[str]:
        return sorted(self.sealed) + sorted(self.live)

    @rule()
    def append(self):
        name, values = self.fresh_name(), self.window()
        self.store.append(name, values)
        self.live[name] = values

    @rule(pick=picks, new=st.booleans(), day=days, count=counts)
    def record(self, pick, new, day, count):
        if new or not self.live:
            name = self.fresh_name()
            self.live[name] = np.zeros(DAYS)
        else:
            name = sorted(self.live)[pick % len(self.live)]
        self.store.record(name, count, day=day)
        self.live[name][day] += count

    @rule()
    def rollover(self):
        self.store.rollover()
        for window in self.live.values():
            window[:-1] = window[1:].copy()
            window[-1] = 0.0

    @precondition(lambda self: self.sealed or self.live)
    @rule(pick=picks)
    def delete(self, pick):
        names = self.visible()
        name = names[pick % len(names)]
        self.store.delete(name)
        self.sealed.pop(name, None)
        self.live.pop(name, None)

    @precondition(lambda self: self.sealed)
    @rule(pick=picks, by_record=st.booleans(), day=days, count=counts)
    def supersede(self, pick, by_record, day, count):
        name = sorted(self.sealed)[pick % len(self.sealed)]
        del self.sealed[name]
        if by_record:
            self.store.record(name, count, day=day)
            self.live[name] = np.zeros(DAYS)
            self.live[name][day] += count
        else:
            values = self.window()
            self.store.append(name, values)
            self.live[name] = values

    @rule()
    def seal(self):
        self.store.seal()
        for name, window in self.live.items():
            self.sealed[name] = zscore(window)
        self.live.clear()

    @rule()
    def compact(self):
        self.store.compact()

    @invariant()
    def answers_like_a_scan_over_the_model(self):
        if not hasattr(self, "store"):
            return
        names = self.visible()
        assert sorted(self.store.names()) == sorted(names)
        if not names:
            return
        rows = {**self.sealed, **{n: zscore(w) for n, w in self.live.items()}}
        matrix = np.stack([rows[name] for name in names])
        reference = get_index("scan", matrix, names=names)
        k = min(K, len(names))
        for query in QUERIES:
            hits, _ = self.store.search(query, k, backend=self.backend)
            truth, _ = reference.search(query, k)
            np.testing.assert_allclose(
                [hit.distance for hit in hits],
                [hit.distance for hit in truth],
                atol=1e-9,
            )
            for hit in hits:  # ties may swap names, never distances
                expected = float(np.linalg.norm(rows[hit.name] - query))
                assert abs(hit.distance - expected) <= 1e-9


TestStreamStoreDifferential = StreamStoreMachine.TestCase
TestStreamStoreDifferential.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
