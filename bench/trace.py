"""Spans recorded by the benchmark's own files, around public entry points.

``with tracing(tracer):`` replaces each method in :data:`TARGETS` with a
timing wrapper for the body and puts the originals back on exit; nothing
in ``src/`` knows it is being timed.  A span is ``(name, start, end, parent, op)``:
``parent`` is the index of the span that was open when it began (-1 for
the root span the harness opens around each operation) and ``op`` is the
index of that operation, so every span of one request shares an
identifier.  A span's *self time* is its duration minus the part its
child spans cover; a layer's number is the self time of its spans.

Where a callee is bound by name at import (``execute_knn`` inside
``index.search``) the enclosing public method is the span, and its self
time is the callee's: ``FlatSketchIndex.search`` minus its candidate and
fetch children is the engine's verification loop.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
from time import perf_counter

import numpy as np

#: layer -> module -> class -> methods.  ``os.fsync`` (a module function,
#: booked to ``stream``: only its WAL, seals and manifests sync) is handled
#: apart in :func:`tracing`.
TARGETS = {
    "compression": {
        "repro.compression": {"SketchDatabase": ["from_matrix"]},
    },
    "storage": {
        "repro.storage": {
            "SequencePageStore": ["read", "read_many", "append_matrix"],
            "MemorySequenceStore": ["read", "read_many", "append_matrix"],
        },
    },
    "index": {
        "repro.index": {
            "FlatSketchIndex": ["__init__", "knn_candidates", "range_candidates"],
            "VPTreeIndex": ["__init__", "knn_candidates", "range_candidates"],
        },
    },
    "engine": {
        "repro.index": {
            "FlatSketchIndex": ["search", "range_search"],
            "VPTreeIndex": ["search", "range_search"],
        },
        "repro.cluster": {"ShardRouter": ["search", "range_search"]},
        "repro.stream": {"StreamIndex": ["search", "range_search"]},
    },
    "cluster": {
        "repro.cluster": {
            "ShardRouter": ["knn_candidates", "range_candidates", "gather_knn"],
            "ShardWorkerPool": [
                "start",
                "scatter_knn",
                "scatter_range",
                "batch_search",
                "batch_candidates",
            ],
        },
    },
    "stream": {
        "repro.stream": {
            "StreamStore": [
                "__init__",
                "append_many",
                "record",
                "rollover",
                "seal",
                "compact",
                "index",
                "search",
            ],
            "StreamIndex": ["knn_candidates", "range_candidates"],
            "LiveBurstMonitor": ["observe_series", "observe"],
        },
    },
    "bursts": {
        "repro.bursts": {
            "MovingAverageModel": ["detect"],
            "MACDModel": ["detect"],
            "KleinbergModel": ["detect"],
            "ElasticModel": ["detect"],
            "OnlineDetector": ["push"],
            "BurstDatabase": ["add", "query"],
            "BurstinessLeaderboard": ["add", "top"],
        },
    },
    "periods": {
        "repro.periods": {
            "PeriodDetector": ["detect"],
            "OnlinePeriodDetector": ["push"],
        },
    },
    "spectral": {
        "repro.spectral": {"OnlinePeriodogram": ["push"]},
    },
}

#: ``bounds`` has no wrappable entry point (an index binds its kernel at
#: construction); the flat workload books its replayed kernel time there.
LAYERS = (
    "compression", "storage", "bounds", "index", "engine",
    "cluster", "stream", "bursts", "periods", "spectral",
)
#: Layer of a root span the harness opens around one operation: its self
#: time is wall the table above does not cover.
UNATTRIBUTED = "unattributed"


class Tracer:
    """In-memory span store; written out only when the run ends."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.layer_of: list[str] = []  # by name id
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_kinds: list[str] = []  # by op index
        self._stack: list[int] = []
        self._op = -1  # index of the open operation; -1 between operations

    def name_id(self, name: str, layer: str) -> int:
        ident = self.name_ids.get(name)
        if ident is None:
            ident = self.name_ids[name] = len(self.layer_of)
            self.layer_of.append(layer)
        return ident

    def begin(self, ident: int) -> int:
        index = len(self.names)
        self.names.append(ident)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()
        if not self._stack:
            self._op = -1

    def begin_op(self, kind: str, layer: str = UNATTRIBUTED) -> int:
        """Open the root span of one operation of the given kind."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        return self.begin(self.name_id(f"op:{kind}", layer))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus what its children cover."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], duration[has_parent])
        return duration - covered

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def dump(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, op."""
        names = {ident: name for name, ident in self.name_ids.items()}
        with open(path, "w", encoding="utf-8") as handle:
            for i, ident in enumerate(self.names):
                json.dump(
                    [names[ident], self.starts[i], self.ends[i],
                     self.parents[i], self.ops[i]],
                    handle,
                )
                handle.write("\n")


class TraceSummary:
    """Self time and call counts by (operation kind, span name)."""

    def __init__(self, tracer: Tracer) -> None:
        self._by_kind: dict[str, dict[str, tuple[float, float, int]]] = {}
        self._layer = {
            name: tracer.layer_of[ident]
            for name, ident in tracer.name_ids.items()
        }
        self.op_count: dict[str, int] = {}
        for kind in tracer.op_kinds:
            self.op_count[kind] = self.op_count.get(kind, 0) + 1
        if not tracer.names:
            return
        # Spans begun between operations (the harness checking an answer
        # through a wrapped method) belong to no operation: dropped.
        ops = np.asarray(tracer.ops)
        inside = ops >= 0
        self_time = tracer.self_times()[inside]
        duration = (np.asarray(tracer.ends) - np.asarray(tracer.starts))[inside]
        kinds = sorted(set(tracer.op_kinds))
        kind_id = {kind: i for i, kind in enumerate(kinds)}
        op_kind = np.asarray([kind_id[k] for k in tracer.op_kinds])
        width = len(tracer.layer_of)
        key = op_kind[ops[inside]] * width + np.asarray(tracer.names)[inside]
        size = len(kinds) * width
        self_sum = np.bincount(key, weights=self_time, minlength=size)
        total_sum = np.bincount(key, weights=duration, minlength=size)
        count = np.bincount(key, minlength=size)
        names = {ident: name for name, ident in tracer.name_ids.items()}
        for k in np.flatnonzero(count):
            kind, name = kinds[k // width], names[k % width]
            self._by_kind.setdefault(kind, {})[name] = (
                float(self_sum[k]), float(total_sum[k]), int(count[k])
            )

    def _rows(self, kinds):
        for kind, rows in self._by_kind.items():
            if kinds is None or kind in kinds:
                yield from rows.items()

    def self_s(self, names, kinds=None) -> float:
        """Summed self time of the named spans under the given op kinds."""
        return sum(r[0] for n, r in self._rows(kinds) if n in names)

    def total_s(self, names, kinds=None) -> float:
        """Summed duration (children included) of the named spans."""
        return sum(r[1] for n, r in self._rows(kinds) if n in names)

    def calls(self, names, kinds=None) -> int:
        return sum(r[2] for n, r in self._rows(kinds) if n in names)

    def layer_self_s(self, kinds=None) -> dict[str, float]:
        """Self time by layer; sums to the wall of the root spans."""
        out = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        for name, row in self._rows(kinds):
            out[self._layer[name]] += row[0]
        return out

    def wall_s(self, kinds=None) -> float:
        """Wall covered by root spans (the traced operations)."""
        return sum(
            r[1] for n, r in self._rows(kinds) if n.startswith("op:")
        )

    def span_names(self) -> set[str]:
        return {name for rows in self._by_kind.values() for name in rows}


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------
# Patching classes is process-wide by nature, so "is it on" is too.
_active = False


def active() -> bool:
    """Whether the timing wrappers are installed right now."""
    return _active


def _wrap(tracer: Tracer, ident: int, func):
    begin, end = tracer.begin, tracer.end

    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = begin(ident)
        try:
            return func(*args, **kwargs)
        finally:
            end(index)

    return traced


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers for the body; the originals return on exit."""
    global _active
    if _active:
        raise RuntimeError("trace wrappers are already installed")
    restore: list[tuple[object, str, object]] = []
    _active = True
    try:
        for layer, modules in TARGETS.items():
            for module_name, classes in modules.items():
                module = importlib.import_module(module_name)
                for class_name, methods in classes.items():
                    cls = getattr(module, class_name)
                    for method in methods:
                        original = cls.__dict__[method]
                        ident = tracer.name_id(f"{class_name}.{method}", layer)
                        if isinstance(original, classmethod):
                            wrapper = classmethod(
                                _wrap(tracer, ident, original.__func__)
                            )
                        else:
                            wrapper = _wrap(tracer, ident, original)
                        restore.append((cls, method, original))
                        setattr(cls, method, wrapper)
        restore.append((os, "fsync", os.fsync))
        os.fsync = _wrap(tracer, tracer.name_id("os.fsync", "stream"), os.fsync)
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
        _active = False
