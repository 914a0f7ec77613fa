"""Deterministic fault injection: seeded plans and faulty wrappers.

A production substrate is only as trustworthy as its behaviour under
dirty data and failing I/O — the Lernaean Hydra evaluations stress that
index comparisons must survive the storage layer misbehaving.  This
module makes misbehaviour *reproducible*: a :class:`FaultPlan` is a
seeded stream of fault decisions (bit flips, truncated reads, transient
``OSError`` streaks, injected latency, torn writes), and the
:class:`FaultyFile` / :class:`FaultyStore` / :class:`FaultyIndex`
wrappers apply those decisions at the three seams the system has — the
byte layer under the page store, the sequence-store interface, and the
engine's ``fetch`` path.

Determinism contract: two plans built with the same seed and spec,
driven through the same operation sequence, make bit-identical fault
decisions and keep bit-identical event logs (``plan.events``).  That is
what lets a failing fuzz run be replayed as a regression test.

The write path adds a fourth seam: *crash points*.  Durable code calls
:func:`crashpoint` at every fsync/rename/flush boundary; an armed
:class:`CrashPlan` kills the process-in-miniature by raising
:class:`InjectedCrashError` at a chosen seam, and a recording plan
enumerates the seams so a drill can kill at every single one.

Example
-------
>>> plan = FaultPlan(seed=7, transient_rate=1.0, max_transient_streak=2)
>>> plan.transient_failures("read")  # armed streak length, deterministic
1
>>> plan.events[0].kind
'transient'
>>> record = CrashPlan()  # recording mode: log the seams, never fire
>>> with crash_plan(record):
...     crashpoint("wal.write")
...     crashpoint("manifest.rename")
>>> record.log
['wal.write', 'manifest.rename']
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.exceptions import TransientStorageError

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultyFile",
    "FaultyStore",
    "FaultyIndex",
    "InjectedCrashError",
    "CrashPlan",
    "crash_plan",
    "crashpoint",
]


class InjectedCrashError(BaseException):
    """A simulated process kill at a write-path seam.

    Deliberately derives from :class:`BaseException`, not
    :class:`~repro.exceptions.ReproError`: a real ``kill -9`` is not
    catchable, so no ``except Exception`` / ``except (ReproError,
    OSError)`` degradation guard in the write path may absorb it.  Only
    the drill harness, which armed the plan, catches it.
    """


class CrashPlan:
    """A deterministic schedule for killing the write path at one seam.

    Three modes, chosen by the constructor arguments:

    * **recording** (``step=None, point=None``) — never fires; every
      :func:`crashpoint` name passed is appended to :attr:`log`, so a
      drill can first enumerate a batch's seam sequence, then re-run the
      batch once per step index with an armed plan.
    * **step-armed** (``step=i``) — fires at the *i*-th crash point
      visited (0-based), whatever its name.
    * **point-armed** (``point=name, occurrence=n``) — fires the *n*-th
      time (1-based) the named seam is visited.

    After firing, :attr:`fired` holds the seam name and the plan is
    spent — subsequent visits only log.  :attr:`log` always records
    every seam visited, fired or not, so recovered-state assertions can
    be keyed to exactly where the "kill" landed.
    """

    def __init__(
        self,
        *,
        step: int | None = None,
        point: str | None = None,
        occurrence: int = 1,
    ) -> None:
        if step is not None and step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        self.step = step
        self.point = point
        self.occurrence = int(occurrence)
        #: Every crash-point name visited, in order (the seam sequence).
        self.log: list[str] = []
        #: Name of the seam the plan fired at, or ``None``.
        self.fired: str | None = None
        self._seen: dict[str, int] = {}

    def visit(self, name: str) -> None:
        """Record a seam visit; raise if this is the armed kill site."""
        index = len(self.log)
        self.log.append(name)
        count = self._seen.get(name, 0) + 1
        self._seen[name] = count
        if self.fired is not None:
            return
        hit = (self.step is not None and index == self.step) or (
            self.point is not None and name == self.point and count == self.occurrence
        )
        if hit:
            self.fired = name
            obs.add("resilience.crashes_injected")
            raise InjectedCrashError(f"injected crash at {name!r} (step {index})")


#: Stack of active crash plans; innermost wins visits last so nesting
#: composes (all active plans observe every seam).
_ACTIVE_CRASH: list[CrashPlan] = []


@contextlib.contextmanager
def crash_plan(plan: CrashPlan):
    """Activate ``plan`` for every :func:`crashpoint` in the block."""
    _ACTIVE_CRASH.append(plan)
    try:
        yield plan
    finally:
        _ACTIVE_CRASH.remove(plan)


def crashpoint(name: str) -> None:
    """Declare a write-path seam; armed plans may kill the process here.

    A no-op when no :func:`crash_plan` is active, so production code
    pays one list check per durable-boundary crossing.
    """
    for plan in _ACTIVE_CRASH:
        plan.visit(name)


@dataclass(frozen=True)
class FaultEvent:
    """One recorded fault decision (for replay verification)."""

    kind: str  #: "transient" | "bitflip" | "truncate" | "latency" | "torn_write"
    op: str  #: the operation it hit, e.g. "read" or "write"
    detail: int  #: streak length, byte offset, cut point or microseconds


class FaultPlan:
    """A seeded, replayable schedule of storage faults.

    Parameters
    ----------
    seed:
        Seed of the internal PRNG; the entire fault schedule is a pure
        function of ``(seed, spec, operation sequence)``.
    bitflip_rate:
        Per-read probability of flipping one random bit of the returned
        bytes (:class:`FaultyFile`) — the classic silent-corruption
        fault the page store's CRCs must catch.
    transient_rate:
        Per-operation probability of arming a transient-failure streak:
        the next 1..``max_transient_streak`` invocations raise
        :class:`~repro.exceptions.TransientStorageError`, then the
        operation succeeds.  Bounded streaks model recoverable I/O
        hiccups that a retry policy with enough attempts always absorbs.
    truncate_rate:
        Per-read probability of returning a short read (models a torn
        page / EOF mid-sequence).
    torn_write_rate:
        Per-write probability of persisting only a prefix of the data
        (models a crash mid-write).
    latency_rate / latency_s:
        Probability and duration of injected latency per operation.
    max_transient_streak:
        Upper bound on consecutive transient failures (default 2), so a
        retry policy with ``max_attempts > max_transient_streak``
        deterministically succeeds.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        bitflip_rate: float = 0.0,
        transient_rate: float = 0.0,
        truncate_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_s: float = 0.0,
        max_transient_streak: int = 2,
    ) -> None:
        for name, rate in (
            ("bitflip_rate", bitflip_rate),
            ("transient_rate", transient_rate),
            ("truncate_rate", truncate_rate),
            ("torn_write_rate", torn_write_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if max_transient_streak < 1:
            raise ValueError("max_transient_streak must be at least 1")
        self.seed = int(seed)
        self.bitflip_rate = float(bitflip_rate)
        self.transient_rate = float(transient_rate)
        self.truncate_rate = float(truncate_rate)
        self.torn_write_rate = float(torn_write_rate)
        self.latency_rate = float(latency_rate)
        self.latency_s = float(latency_s)
        self.max_transient_streak = int(max_transient_streak)
        self._rng = random.Random(self.seed)
        #: Every fault decision taken, in order — the replay log.
        self.events: list[FaultEvent] = []

    def replay(self) -> "FaultPlan":
        """A fresh plan with the same seed and spec (clean event log)."""
        return FaultPlan(
            self.seed,
            bitflip_rate=self.bitflip_rate,
            transient_rate=self.transient_rate,
            truncate_rate=self.truncate_rate,
            torn_write_rate=self.torn_write_rate,
            latency_rate=self.latency_rate,
            latency_s=self.latency_s,
            max_transient_streak=self.max_transient_streak,
        )

    # ------------------------------------------------------------------
    # Decisions (each draws from the seeded stream and logs an event)
    # ------------------------------------------------------------------
    def _record(self, kind: str, op: str, detail: int) -> None:
        self.events.append(FaultEvent(kind, op, detail))
        obs.add("resilience.faults_injected")

    def transient_failures(self, op: str) -> int:
        """Length of the transient-failure streak to arm now (0 = none)."""
        if self.transient_rate and self._rng.random() < self.transient_rate:
            streak = self._rng.randint(1, self.max_transient_streak)
            self._record("transient", op, streak)
            return streak
        return 0

    def maybe_flip(self, data: bytes, op: str = "read") -> bytes:
        """Possibly flip one random bit of ``data``."""
        if not data or not self.bitflip_rate:
            return data
        if self._rng.random() >= self.bitflip_rate:
            return data
        position = self._rng.randrange(len(data) * 8)
        self._record("bitflip", op, position)
        corrupted = bytearray(data)
        corrupted[position // 8] ^= 1 << (position % 8)
        return bytes(corrupted)

    def maybe_truncate(self, data: bytes, op: str = "read") -> bytes:
        """Possibly cut ``data`` short at a random point."""
        if not data or not self.truncate_rate:
            return data
        if self._rng.random() >= self.truncate_rate:
            return data
        cut = self._rng.randrange(len(data))
        self._record("truncate", op, cut)
        return data[:cut]

    def torn_write_prefix(self, length: int, op: str = "write") -> int | None:
        """How many bytes of a write survive, or ``None`` for all."""
        if length <= 0 or not self.torn_write_rate:
            return None
        if self._rng.random() >= self.torn_write_rate:
            return None
        cut = self._rng.randrange(length)
        self._record("torn_write", op, cut)
        return cut

    def maybe_sleep(self, op: str) -> None:
        """Possibly inject latency (blocking sleep)."""
        if self.latency_rate and self._rng.random() < self.latency_rate:
            self._record("latency", op, int(self.latency_s * 1e6))
            if self.latency_s > 0:
                time.sleep(self.latency_s)


class _TransientArm:
    """Per-target bookkeeping for armed transient-failure streaks.

    A streak of length N means *exactly* N consecutive failures for the
    target, then a guaranteed success — the defining property of a
    transient fault, and what makes "a retry policy with more attempts
    than the streak bound always absorbs the fault" a theorem rather
    than a probability.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._pending: dict = {}

    def check(self, key, op: str) -> None:
        """Raise while a streak is armed for ``key``; else maybe arm one."""
        pending = self._pending.get(key)
        if pending is not None:
            if pending <= 0:
                # The streak's guaranteed success; later operations on
                # this target may arm a fresh streak.
                del self._pending[key]
                return
            self._pending[key] = pending - 1
            raise TransientStorageError(
                f"injected transient fault ({op}, {pending - 1} more)"
            )
        streak = self._plan.transient_failures(op)
        if streak:
            self._pending[key] = streak - 1
            raise TransientStorageError(
                f"injected transient fault ({op}, {streak - 1} more)"
            )


class FaultyFile:
    """A binary file wrapper that injects byte-level faults on I/O.

    Wraps any seekable binary file object (typically the page store's
    backing file) and applies the plan's decisions *below* the store's
    checksum layer — so injected bit flips and truncations must be
    caught by the CRC validation, not by luck.

    Use :meth:`FaultyFile.under` to splice one beneath an open
    :class:`~repro.storage.SequencePageStore`.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._transients = _TransientArm(plan)

    @classmethod
    def under(cls, store, plan: FaultPlan) -> "FaultyFile":
        """Splice a faulty layer beneath a page store's backing file.

        Forces the store back to buffered reads: memory-mapped gathers
        bypass the file object, so a mapped store would sail past the
        injected byte faults and the drill would assert nothing.
        """
        if getattr(store, "_use_mmap", False):
            store._release_mmap()
            store._use_mmap = False
        wrapped = cls(store._file, plan)
        store._file = wrapped
        return wrapped

    # -- faulted operations --------------------------------------------
    def read(self, size: int = -1) -> bytes:
        self._plan.maybe_sleep("read")
        self._transients.check(("read", self._inner.tell()), "read")
        data = self._inner.read(size)
        data = self._plan.maybe_truncate(data, "read")
        return self._plan.maybe_flip(data, "read")

    def write(self, data) -> int:
        self._plan.maybe_sleep("write")
        self._transients.check(("write", self._inner.tell()), "write")
        cut = self._plan.torn_write_prefix(len(data), "write")
        if cut is None:
            return self._inner.write(data)
        written = self._inner.write(data[:cut])
        # A torn write leaves the file pointer where the full write
        # would have ended, like a crash between page writes would.
        self._inner.seek(len(data) - cut, 1)
        return written

    # -- transparent passthrough ---------------------------------------
    def seek(self, offset: int, whence: int = 0) -> int:
        return self._inner.seek(offset, whence)

    def tell(self) -> int:
        return self._inner.tell()

    def flush(self) -> None:
        self._inner.flush()

    def fileno(self) -> int:
        return self._inner.fileno()

    def truncate(self, size=None) -> int:
        return self._inner.truncate(size)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class FaultyStore:
    """A sequence-store wrapper injecting faults at the store interface.

    Conforms to the sequence-store protocol (``read`` / ``read_many`` /
    ``append`` / ``append_matrix`` / ``stats`` / ``close`` / context
    manager), so it drops in anywhere a
    :class:`~repro.storage.SequencePageStore` or
    :class:`~repro.storage.MemorySequenceStore` does.  Two fault kinds
    operate at this level:

    * transient streaks (:class:`~repro.exceptions.TransientStorageError`)
      per ``(op, seq_id)``, bounded by the plan so retries can win;
    * permanent corruption of chosen ids (``corrupt_ids``), surfaced as
      :class:`~repro.exceptions.CorruptionError` on every read — the
      simulation of a sequence whose pages are gone for good.
    """

    def __init__(self, inner, plan: FaultPlan, corrupt_ids=()) -> None:
        self._inner = inner
        self._plan = plan
        self._transients = _TransientArm(plan)
        self.corrupt_ids = frozenset(int(i) for i in corrupt_ids)

    # -- store protocol ------------------------------------------------
    @property
    def sequence_length(self) -> int:
        return self._inner.sequence_length

    @property
    def pages_per_sequence(self) -> int:
        return self._inner.pages_per_sequence

    @property
    def stats(self):
        return self._inner.stats

    def __len__(self) -> int:
        return len(self._inner)

    def append(self, values) -> int:
        self._plan.maybe_sleep("append")
        self._transients.check(("append", len(self._inner)), "append")
        return self._inner.append(values)

    def append_matrix(self, matrix):
        return [self.append(row) for row in np.asarray(matrix, dtype=np.float64)]

    def read(self, seq_id: int) -> np.ndarray:
        if int(seq_id) in self.corrupt_ids:
            from repro.exceptions import CorruptionError

            raise CorruptionError(
                f"injected permanent corruption of sequence {seq_id}"
            )
        self._plan.maybe_sleep("read")
        self._transients.check(("read", int(seq_id)), "read")
        return self._inner.read(seq_id)

    def read_many(self, seq_ids) -> np.ndarray:
        return np.stack([self.read(int(seq_id)) for seq_id in seq_ids])

    def close(self) -> None:
        self._inner.close()

    def __enter__(self) -> "FaultyStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FaultyIndex:
    """An engine-index wrapper that injects faults into ``fetch``.

    The M-tree and R-tree fetch straight from their in-memory matrices,
    and so does the linear scan when built without a store, so
    store-level wrappers cannot reach them; this wrapper conforms to the
    :class:`~repro.engine.core.EngineIndex` protocol and faults the one
    seam every backend shares — the verifier's ``fetch`` — which is how
    the acceptance suite drives all six backends through identical fault
    schedules.  It deliberately does *not* expose a ``store`` attribute,
    so the engine's batched path also funnels through the faulted
    ``fetch``.
    """

    def __init__(self, inner, plan: FaultPlan, corrupt_ids=()) -> None:
        self._inner = inner
        self._plan = plan
        self._transients = _TransientArm(plan)
        self.corrupt_ids = frozenset(int(i) for i in corrupt_ids)

    @property
    def obs_name(self) -> str:
        return self._inner.obs_name

    @property
    def sequence_length(self) -> int:
        return self._inner.sequence_length

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def row_codes(self):
        """The inner index's row codes, so drills run the served path."""
        return getattr(self._inner, "row_codes", None)

    def knn_candidates(self, query, k, stats):
        return self._inner.knn_candidates(query, k, stats)

    def range_candidates(self, query, radius, stats):
        return self._inner.range_candidates(query, radius, stats)

    def result_name(self, seq_id: int):
        return self._inner.result_name(seq_id)

    def fetch(self, seq_id: int) -> np.ndarray:
        if int(seq_id) in self.corrupt_ids:
            from repro.exceptions import CorruptionError

            raise CorruptionError(
                f"injected permanent corruption of sequence {seq_id}"
            )
        self._plan.maybe_sleep("fetch")
        self._transients.check(("fetch", int(seq_id)), "fetch")
        return self._inner.fetch(seq_id)

    def search(
        self, query, k: int = 1, policy=None
    ):
        """k-NN through the shared engine (same entry as any index)."""
        from repro.engine.core import execute_knn

        return execute_knn(self, query, k, policy)

    def range_search(self, query, radius: float, policy=None):
        """Range search through the shared engine."""
        from repro.engine.core import execute_range

        return execute_range(self, query, radius, policy)
