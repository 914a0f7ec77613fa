"""repro.resilience — fault injection, retries, quarantine, validation.

The north star is a service under heavy traffic; such a service meets
flipped bits, truncated files, I/O hiccups and dirty logs as a matter
of course.  This package is the cross-cutting answer, threaded through
the same seams PR 1 (obs) and PR 2 (the unified engine) created:

* **hardened storage** — :class:`~repro.storage.SequencePageStore`
  writes a CRC32 per sequence record (format 3; format-2 files, with a
  CRC32 per page, stay readable) and surfaces corruption as
  typed :class:`~repro.exceptions.CorruptionError` /
  :class:`~repro.exceptions.TornWriteError`;
* **fault injection** (:mod:`repro.resilience.faults`) — a seeded,
  replayable :class:`FaultPlan` applied by :class:`FaultyFile` (byte
  layer), :class:`FaultyStore` (store interface) and
  :class:`FaultyIndex` (engine fetch seam); plus write-path *crash
  points*: :func:`crashpoint` seams at every fsync/rename/flush
  boundary that an armed :class:`CrashPlan` turns into a simulated
  ``kill -9`` (:class:`InjectedCrashError`);
* **retries** (:mod:`repro.resilience.retry`) — :class:`RetryPolicy`
  with bounded exponential backoff, the :func:`call_with_retry`
  primitive, a :class:`RetryingStore` wrapper and a process-global
  active policy the engine consults;
* **quarantine + degraded serving**
  (:mod:`repro.resilience.quarantine`) — permanently failing sequences
  are skipped and reported (``SearchStats.degraded`` /
  ``quarantined_ids``) instead of crashing the query; generator
  failures fall back to a linear scan;
* **ingestion validation** (:mod:`repro.resilience.ingest`) —
  :func:`validate_counts` plus the :class:`DeadLetter` record backing
  the miner's dead-letter buffer.

Metric names live under ``resilience.*`` (see ``docs/OBSERVABILITY.md``);
the fault model and degradation semantics are specified in
``docs/RESILIENCE.md``.
"""

from repro.resilience.faults import (
    CrashPlan,
    FaultEvent,
    FaultPlan,
    FaultyFile,
    FaultyIndex,
    FaultyStore,
    InjectedCrashError,
    crash_plan,
    crashpoint,
)
from repro.resilience.ingest import DeadLetter, validate_counts
from repro.resilience.quarantine import Quarantine, quarantine_of
from repro.resilience.retry import (
    DEFAULT_POLICY,
    RetryPolicy,
    RetryingStore,
    active_policy,
    call_with_retry,
    policy_context,
    set_policy,
)

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
    "DeadLetter",
    "validate_counts",
    "Quarantine",
    "quarantine_of",
    "DEFAULT_POLICY",
    "RetryPolicy",
    "RetryingStore",
    "active_policy",
    "call_with_retry",
    "policy_context",
    "set_policy",
]
