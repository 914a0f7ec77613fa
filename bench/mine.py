"""``mine-detect``: the period and burst detectors, batch beside online.

No search engine and no page store run here, so an engine or storage
change must leave this workload flat.  One round does a slice of each
kind of work, so every kind is sampled across the whole timed phase:

* batch: ``PeriodDetector(interpolate=True).detect`` and ``detect`` of
  all four burst models on the next ``batch_series`` raw-count series;
* online: the next ``online_series`` series pushed day by day through
  ``OnlinePeriodDetector(window=128)`` and ``.online()`` of ``ma``,
  ``macd`` and ``elastic``, plus ``kleinberg.online()`` (a replay: its
  cost per day grows with the prefix) on a ``kleinberg_days`` prefix;
* query-by-burst: the next ``round_queries`` of the fixed query set
  against a ``BurstDatabase`` loaded in set-up.

After the rounds one ``BurstinessLeaderboard`` is built and ranked.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from repro import (
    BurstDatabase,
    PeriodDetector,
    QueryLogGenerator,
    TimeSeriesCollection,
    burst_similarity,
)
from repro.bursts import BurstinessLeaderboard, get_burst_model
from repro.periods import OnlinePeriodDetector

from harness import Workload, latency_metrics
from knn import stratified

MODELS = ("ma", "macd", "kleinberg", "elastic")
INCREMENTAL = ("ma", "macd", "elastic")  # kleinberg's online form is a replay
PERIOD_WINDOW = 128
TOP = 10


class MineDetect(Workload):
    name = "mine-detect"

    def __init__(self, seed: int, scale: dict, scratch: str) -> None:
        self.seed = seed
        self.scale = scale
        self.models = {name: get_burst_model(name) for name in MODELS}
        self.period = PeriodDetector(interpolate=True)
        self.window_period = PeriodDetector(interpolate=False)
        self.answers: dict[int, list] = {}
        self.regions_found = 0
        self.period_changes = 0

    def setup(self) -> None:
        scale = self.scale
        generator = QueryLogGenerator(seed=self.seed, days=scale["days"])
        # The catalog's named exemplars, then a stratified synthetic rest.
        catalog = generator.catalog_collection()
        rest = stratified(generator, scale["rows"] - len(catalog), "db")
        self.collection = TimeSeriesCollection(list(catalog) + list(rest))
        # Both shuffled: the clock decides how far down either list a run
        # gets, and the part it reaches must have the whole mix.
        rng = np.random.default_rng(self.seed)
        self.series = [self.collection[int(i)] for i in rng.permutation(len(self.collection))]
        queries = list(stratified(generator, scale["queries"], "query"))
        self.queries = [queries[int(i)] for i in rng.permutation(len(queries))]
        self.database = BurstDatabase()
        self.database.add_collection(self.collection)
        for query in self.queries[:20]:
            self.database.query(query, top=TOP)

    def settings(self) -> dict:
        return {
            "period_detector": "interpolate=True (batch), window=128 (online)",
            "burst_models": list(MODELS),
            "burst_database": "default detectors (30- and 7-day MA, 2.0 sigma)",
            "top": TOP,
        }

    def begin(self, recorder) -> None:
        self.batch_cursor = 0
        self.online_cursor = 0
        self.query_cursor = 0
        self.pushes = {False: 0, True: 0}  # by traced

    def next_series(self, cursor: int):
        return self.series[cursor % len(self.series)]

    # -- one round ----------------------------------------------------------
    def round(self, recorder, number: int, stop_at: float | None) -> None:
        scale = self.scale
        traced = recorder.tracing
        for _ in range(scale["batch_series"]):
            series = self.next_series(self.batch_cursor)
            self.batch_cursor += 1
            values = series.values
            recorder.op("detect-period", lambda: self.period.detect(values))
            for name, model in self.models.items():
                regions = recorder.op(f"detect-{name}", lambda: model.detect(values))
                if regions is not None:
                    self.regions_found += len(regions)

        for _ in range(scale["online_series"]):
            values = self.next_series(self.online_cursor).values
            self.online_cursor += 1
            self.push_period(recorder, values)
            for name in INCREMENTAL:
                self.push_bursts(recorder, name, values)
            self.pushes[traced] += len(values) * (1 + len(INCREMENTAL))
        prefix = self.next_series(self.online_cursor).values[: scale["kleinberg_days"]]
        self.push_bursts(recorder, "kleinberg", prefix)
        self.pushes[traced] += len(prefix)

        for _ in range(scale["round_queries"]):
            i = self.query_cursor % len(self.queries)
            self.query_cursor += 1
            query = self.queries[i]
            answer = recorder.op("query", lambda: self.database.query(query, top=TOP), key=i)
            if answer is not None:
                seen = self.answers.setdefault(i, answer)
                recorder.check(
                    None if seen == answer else "answer changed between passes",
                    f"burst query {i}",
                )

    def push_period(self, recorder, values) -> None:
        detector = OnlinePeriodDetector(window=PERIOD_WINDOW)

        def run():
            changes = 0
            for day, value in enumerate(values):
                changes += len(detector.push(day, value))
            return changes

        changes = recorder.op("push-period", run)
        if changes is None:
            return
        self.period_changes += changes
        batch = self.window_period.detect(values[-PERIOD_WINDOW:])
        recorder.check(
            None if detector.significant_indexes == {p.index for p in batch.periods}
            else "online period set differs from batch on the final window",
            "push-period",
        )

    def push_bursts(self, recorder, name: str, values) -> None:
        model = self.models[name]
        detector = model.online()

        def run():
            for day, value in enumerate(values):
                detector.push(day, value)
            return True

        if recorder.op(f"push-{name}", run) is None:
            return
        recorder.check(
            None if detector.regions() == model.detect(values)
            else "online regions differ from batch on the final prefix",
            f"push-{name}",
        )

    def finish(self, recorder) -> None:
        for number in range(1 if recorder.tracer is None else 2):
            with recorder.section(number):
                recorder.op("leaderboard", self.build_leaderboard)

    def build_leaderboard(self):
        board = BurstinessLeaderboard("ma")
        board.add_collection(self.collection)
        return board.top(TOP)

    # -- the brute-force check of query-by-burst ----------------------------
    def verify(self, recorder) -> None:
        """Score every stored sequence against each query, no index plan."""
        database = self.database
        window = database.detectors[0].window
        stored = {name: database.bursts_of(name, window) for name in database.names}
        self.right_answers = 0
        for i, answer in self.answers.items():
            probe = BurstDatabase()
            probe.add(self.queries[i])
            bursts = probe.bursts_of(self.queries[i].name, window)
            scored = sorted(
                (
                    (burst_similarity(bursts, other), name)
                    for name, other in stored.items()
                ),
                reverse=True,
            )
            want = [pair for pair in scored if pair[0] > 0.0][:TOP]
            got = [(match.similarity, match.name) for match in answer]
            self.right_answers += recorder.check(
                None if got == want else f"got {got[:3]}, brute force says {want[:3]}",
                f"burst query {i}",
            )

    # -- metrics ------------------------------------------------------------
    def series_seconds(self, recorder, traced: bool = False) -> list[float]:
        """Wall of each series' full batch analysis (period + four models)."""
        parts = [recorder.seconds("detect-period", traced)] + [
            recorder.seconds(f"detect-{name}", traced) for name in MODELS
        ]
        return [sum(sample) for sample in zip(*parts)]

    def push_seconds(self, recorder, traced: bool = False) -> float:
        return sum(
            sum(recorder.seconds(kind, traced))
            for kind in ["push-period"] + [f"push-{name}" for name in MODELS]
        )

    def end_to_end(self, recorder, load_s) -> dict[str, float]:
        metrics = latency_metrics(list(recorder.per_key(("query",)).values()))
        analysed = self.series_seconds(recorder)
        metrics["load_rows_per_s"] = len(analysed) / sum(analysed)
        metrics["recall_at_10"] = self.right_answers / len(self.answers)
        return metrics

    def per_layer(self, recorder, summary) -> dict[str, float]:
        days = self.scale["days"]
        metrics = {
            "online_days_per_s": self.pushes[False] / self.push_seconds(recorder),
            "periods.detect_us_per_series": (
                statistics.mean(recorder.seconds("detect-period")) * 1e6
            ),
            "periods.online.push_us_per_day": (
                statistics.mean(recorder.seconds("push-period")) / days * 1e6
            ),
            "periods.online.changes": float(self.period_changes),
            "bursts.query_ms": (
                statistics.median(recorder.per_key(("query",)).values()) * 1e3
            ),
            "bursts.leaderboard_ms": statistics.mean(recorder.seconds("leaderboard")) * 1e3,
            "bursts.regions_found": float(self.regions_found),
        }
        pushes = summary.calls({"OnlinePeriodogram.push"})
        metrics["spectral.online.push_us_per_day"] = (
            summary.total_s({"OnlinePeriodogram.push"}) / pushes * 1e6 if pushes else 0.0
        )
        for name in MODELS:
            metrics[f"bursts.{name}.detect_us_per_series"] = (
                statistics.mean(recorder.seconds(f"detect-{name}")) * 1e6
            )
            per_push = days if name in INCREMENTAL else self.scale["kleinberg_days"]
            metrics[f"bursts.{name}.push_us_per_day"] = (
                statistics.mean(recorder.seconds(f"push-{name}")) / per_push * 1e6
            )
        return metrics

