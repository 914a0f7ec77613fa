"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without masking programming errors such as
:class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SeriesLengthError(ReproError, ValueError):
    """A time series has an unusable length for the requested operation."""


class SeriesMismatchError(ReproError, ValueError):
    """Two series (or a series and a representation) are incompatible.

    Raised, for example, when computing the distance between sequences of
    different lengths, or when applying a compressed sketch built from an
    *N*-point spectrum to an *M*-point query.
    """


class CompressionError(ReproError, ValueError):
    """A compressed representation could not be constructed as requested."""


class StorageError(ReproError):
    """A failure inside the storage substrate."""


class CorruptionError(StorageError):
    """Stored bytes fail validation (checksum mismatch, bad magic/header).

    Permanent by definition: retrying the read returns the same bad
    bytes, so the retry policy never retries it — the engine quarantines
    the affected sequence instead (see ``docs/RESILIENCE.md``).
    """


class TornWriteError(CorruptionError):
    """A write was interrupted mid-page (truncated file, half-written or
    never-written page where data was expected)."""


class TransientStorageError(StorageError, OSError):
    """A storage fault that may succeed on retry (I/O hiccup, EINTR-like).

    Subclasses :class:`OSError` so generic ``except OSError`` handlers —
    and the retry policy, which retries all :class:`OSError` — treat it
    like any other transient I/O failure.  The fault-injection harness
    raises it for injected transient faults.
    """


class WorkerCrashError(ReproError):
    """A persistent shard worker process died (or stopped responding).

    Raised by the :class:`repro.cluster.ShardWorkerPool` when a worker
    exits between or during requests (crash, SIGKILL, OOM).  With
    degradation enabled (the default retry policy) the router absorbs it
    — the dead worker's shard is served by an exhaustive parent-side
    fallback scan and the answer is flagged degraded — and the pool
    respawns the worker for subsequent requests; with
    ``RetryPolicy(degrade=False)`` the error propagates to the caller
    (see ``docs/CONCURRENCY.md``).
    """


class IngestionError(ReproError, ValueError):
    """Dirty input was rejected at an ingestion boundary.

    Raised (and dead-lettered) by :class:`repro.miner.QueryLogMiner` and
    :class:`repro.bursts.query.BurstDatabase` for NaN/infinite values,
    negative counts, or otherwise unusable records — instead of letting
    them poison the live index or the burst table.
    """


class KeyNotFoundError(StorageError, KeyError):
    """A key was not present in a sequence store or the stream tier."""


class UnknownQueryError(ReproError, KeyError):
    """A query name is not present in the catalog or collection."""
