"""Persistent shard workers: one long-lived process per shard.

Shard workers pay off only when the per-shard state stays warm: a
process started per call spends more on start-up, pickling and
teardown than the parallel work saves (``docs/PERFORMANCE.md`` has the
measurement).  The Lernaean Hydra evaluations (PAPERS.md) make the same
point about similarity-search benchmarking generally: honest
steady-state numbers require warm, long-lived execution.  This module
is that transport, the one parallel path beside in-process serving.  It
serves shard builds and exact ``search_many`` batches; single queries
are bounded by the router's own filter in the parent and never come
here:

* :class:`ShardWorkerPool` — one **persistent process per populated
  shard**.  A worker builds its engine index **once** from its spec
  (the shard's rows, or its checksummed page store), and then serves
  requests over a duplex pipe until told to stop.
* :class:`ShardSpec` — the picklable recipe every shard index is built
  from, in a worker or in process (:func:`_build_shard_index` is the
  one builder); respawning a crashed worker replays the spec.
* :class:`ShardStub` — the parent-side stand-in for a pooled shard.  It
  serves the data plane only — ``result_name``/``store``, for the
  verifier and the filter that run in the parent.

Request protocol (one in-flight request per worker, strictly
request/response): ``("ping",)``, ``("batch", queries, k)``,
``("knn", query, k)``, ``("range", query, radius)``,
``("cands", queries, k)``, ``("stop",)``.  Responses are
``("ok", payload)`` / ``("err", reason)``.  ``batch`` takes no policy:
it runs the exact per-shard sub-search
(:func:`~repro.engine.batch._shard_batch`); global ε-slack decisions
cannot be made per shard, so an approximate batch runs in the
parent.  ``knn`` / ``range`` / ``cands`` answer with
``(CandidateSet, SearchStats, error)`` triples for
:meth:`~repro.cluster.ShardRouter.gather_knn`; they stay as the pool's
request API, though no serving path sends them.

Failure model (see ``docs/CONCURRENCY.md`` for the full matrix): a
worker death — crash, SIGKILL, OOM — is detected by the collect loop
(pipe EOF or ``is_alive()`` going false) and **never hangs a batch**.
The batch then runs in the parent over the router's filter, exact and
not degraded, and the pool respawns the worker from its spec before the
next request (up to ``max_respawns``; after that the shard stays down).

While a pool is open, the parent and every worker run BLAS on one
thread (:mod:`repro.cluster.blas`), the caller's own numpy GEMMs too.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.cluster import blas
from repro.compression.codes import RowCodes
from repro.engine.batch import _shard_batch
from repro.engine.core import CandidateSet, population_candidates
from repro.engine.registry import get_index
from repro.exceptions import (
    CorruptionError,
    ReproError,
    WorkerCrashError,
)
from repro.index.results import SearchStats
from repro.storage.pagestore import MemorySequenceStore, SequencePageStore

__all__ = [
    "ShardSpec",
    "ShardStub",
    "ShardWorkerPool",
    "default_start_method",
]

#: Poll granularity of the collect loop, seconds.  Small enough that a
#: worker death is noticed promptly; the loop waits indefinitely while
#: the worker is demonstrably alive and working.
_POLL_S = 0.05

#: Worker join grace before escalating to terminate/kill at shutdown.
_JOIN_S = 2.0


def default_start_method() -> str:
    """Start method from ``REPRO_POOL_START_METHOD``, else fork/spawn.

    ``fork`` is preferred where available: workers inherit the parent's
    imports and (copy-on-write) address space, so spawn latency is
    milliseconds.  ``spawn`` works everywhere the specs pickle.  A
    configured method this platform lacks raises
    :class:`~repro.exceptions.ReproError` listing the ones it has.
    """
    import multiprocessing

    configured = os.environ.get("REPRO_POOL_START_METHOD", "").strip()
    available = multiprocessing.get_all_start_methods()
    if configured and configured not in available:
        raise ReproError(
            f"REPRO_POOL_START_METHOD must be one of "
            f"{', '.join(available)}, got {configured!r}"
        )
    return configured or ("fork" if "fork" in available else "spawn")


@dataclass
class ShardSpec:
    """Everything needed to (re)build one shard, picklable.

    ``backend`` is ``"flat"`` or ``"scan"``.  ``rows`` are the shard's
    sequences, and ``row_codes`` its slice of the population's row codes
    (``flat`` shards only): a worker inherits them under ``fork`` and
    receives them pickled under ``spawn``.

    ``write_store`` is ``True`` only for the *first* build of a
    directory-backed shard (the builder writes the checksummed page
    store itself — in a worker, this is how ``build_sharded`` reuses the
    pool for parallel builds); after a successful warm-up the pool flips
    it off and drops the rows, so a respawned worker reopens the
    finished file instead of rewriting it.  An in-memory spec keeps its
    rows: they are what a respawn builds from.
    """

    shard: int
    backend: str
    size: int
    sequence_length: int
    obs_name: str
    names: tuple | None = None
    store_path: str | None = None
    write_store: bool = False
    rows: np.ndarray | None = None
    row_codes: RowCodes | None = None


# ----------------------------------------------------------------------
# The one shard builder (run in a worker, or in process)
# ----------------------------------------------------------------------

def _open_shard_store(path: str, size: int) -> SequencePageStore:
    """Open a shard's page store, refusing a file of the wrong population."""
    store = SequencePageStore.open(path)
    if len(store) != size:
        count = len(store)
        store.close()
        raise CorruptionError(
            f"shard file {os.path.basename(path)} holds {count} "
            f"sequences, manifest says {size}"
        )
    return store


def _build_shard_index(spec: ShardSpec, *, store=None):
    """Build one shard's index from its spec: the only way one is made.

    The rows come from ``spec.rows`` (a build or a reopen, which read
    them in the parent) or, for a worker respawned after its first
    build wrote the page store, from that store; a ``store`` the caller
    already opened and count-checked is used as is.  In process, in a
    fresh worker and in a respawned one, the same rows, code slice and
    names reach the registry, so a worker's index is bit-identical to
    an in-process one.  Returns ``(index, store)``.
    """
    rows = spec.rows
    if spec.store_path is not None and spec.write_store:
        with obs.span("ingest.store_write"):
            store = SequencePageStore(spec.store_path, spec.sequence_length)
            store.append_matrix(rows)
            # Close-and-reopen so every byte is flushed before the
            # parent (which opens this file the moment a worker reports
            # ready) can read a torn tail out of our write buffer.
            store.close()
            store = SequencePageStore.open(spec.store_path)
    elif spec.store_path is not None:
        if store is None:
            store = _open_shard_store(spec.store_path, spec.size)
        if rows is None:
            rows = store.read_many(range(spec.size))
    else:
        store = MemorySequenceStore.over(rows)

    kwargs = {"store": store}
    if spec.row_codes is not None:
        kwargs["row_codes"] = spec.row_codes
    names = list(spec.names) if spec.names is not None else None
    with obs.span("ingest.build"):
        sub = get_index(spec.backend, rows, names=names, **kwargs)
    sub.obs_name = spec.obs_name
    return sub, store


def _portable_error(exc: BaseException) -> BaseException:
    """An exception that survives the pickle boundary, best effort."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ReproError(f"{type(exc).__name__}: {exc}")


def _candidate_payload(sub, op: str, query, arg):
    """One shard's generator run, as a ``gather_knn`` triple.

    Flat and scan shards never stream, so the set crosses the pipe as
    is.  A generator failure is answered with the shard's exhaustive
    fallback plus the error, which the router's gather records on its
    quarantine.
    """
    stats = SearchStats()
    try:
        if op == "knn":
            cands = sub.knn_candidates(query, int(arg), stats)
        else:
            cands = sub.range_candidates(query, float(arg), stats)
        return cands, stats, None
    except (ReproError, OSError) as exc:
        fallback_stats = SearchStats()
        fallback_stats.degraded = True
        error = _portable_error(exc)
        return population_candidates(len(sub)), fallback_stats, error


def _worker_main(spec: ShardSpec, conn) -> None:
    """Worker entry point: warm once, then serve until told to stop."""
    store = None
    sub = None
    blas.one_thread()  # spawned; a forked worker inherits the one thread
    try:
        try:
            sub, store = _build_shard_index(spec)
            conn.send(("ready", os.getpid(), len(sub)))
        except Exception as exc:
            try:
                conn.send(("failed", f"{type(exc).__name__}: {exc}"))
            except Exception:
                pass
            return
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; die quietly
            op = request[0]
            if op == "stop":
                break
            try:
                if op == "ping":
                    conn.send(("ok", ("pong", os.getpid(), blas.threads())))
                elif op in ("knn", "range"):
                    payload = _candidate_payload(
                        sub, op, request[1], request[2]
                    )
                    conn.send(("ok", payload))
                elif op == "batch":
                    conn.send(
                        ("ok", _shard_batch(sub, request[1], int(request[2])))
                    )
                elif op == "cands":
                    queries, k = request[1], int(request[2])
                    payloads = [
                        _candidate_payload(sub, "knn", query, k)
                        for query in queries
                    ]
                    conn.send(("ok", payloads))
                else:
                    conn.send(("err", f"unknown op {op!r}"))
            except Exception as exc:
                try:
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                except Exception:
                    break
    finally:
        if store is not None:
            try:
                store.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardStub:
    """Parent-side stand-in for a shard whose index lives in a worker.

    The router's filter and verifier run in the parent, so the stub
    serves the data plane only (``result_name``/``store``) from the
    parent's own handle on the shard's bytes — a store over the spec's
    rows or a read handle on the checksummed page store, which the
    router reads and closes through its row union.
    Sub-searches never pass through it: ``search_many`` asks the pool
    for every shard at once (``batch_search``).
    """

    def __init__(
        self, sequence_length: int, store, names: tuple | None, obs_name: str
    ) -> None:
        self._n = sequence_length
        self._store = store
        self._names = names
        self.obs_name = obs_name

    @property
    def sequence_length(self) -> int:
        return self._n

    @property
    def store(self):
        return self._store

    def result_name(self, seq_id: int) -> str | None:
        return self._names[seq_id] if self._names is not None else None


class ShardWorkerPool:
    """One persistent worker process per populated shard.

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per populated shard.
    shard_count:
        Total shards including empty ones; scatter results are aligned
        to this.
    start_method / max_respawns:
        Process start method (:func:`default_start_method` by default)
        and the per-shard respawn budget after worker deaths.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        *,
        shard_count: int | None = None,
        start_method: str | None = None,
        max_respawns: int = 2,
    ) -> None:
        self._specs = {spec.shard: spec for spec in specs}
        if len(self._specs) != len(specs):
            raise ReproError("duplicate shard in worker-pool specs")
        self._shard_count = (
            int(shard_count)
            if shard_count is not None
            else (max(self._specs) + 1 if self._specs else 0)
        )
        import multiprocessing

        self._ctx = multiprocessing.get_context(
            start_method or default_start_method()
        )
        self._procs: dict[int, object] = {}
        self._conns: dict[int, object] = {}
        self._dead: list[object] = []  # awaiting a final reaping join
        self._respawns: dict[int, int] = {}
        self._failed: dict[int, str] = {}
        self._max_respawns = int(max_respawns)
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle: spawn -> warm -> serve -> drain -> shutdown
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def closed(self) -> bool:
        return self._closed

    def start(self) -> "ShardWorkerPool":
        """Spawn every worker and block until all report warm."""
        if self._started:
            return self
        blas.hold()  # released by close(), which a failed start calls
        self._started = True
        try:
            with obs.span("cluster.pool.spawn"):
                for shard in sorted(self._specs):
                    self._spawn(shard)
            with obs.span("cluster.pool.warm"):
                for shard in sorted(self._specs):
                    self._await_ready(shard, initial=True)
        except BaseException:
            self.close()
            raise
        return self

    def _spawn(self, shard: int) -> None:
        spec = self._specs[shard]
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(spec, child_conn),
            name=f"repro-shard-worker-{shard:02d}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[shard] = proc
        self._conns[shard] = parent_conn
        obs.add("cluster.pool.spawns")
        self._publish_worker_gauge()

    def _await_ready(self, shard: int, initial: bool) -> bool:
        spec = self._specs[shard]
        message = self._collect(shard)
        error_type: type[ReproError] = ReproError
        if message is None:
            reason = f"shard {shard} worker died during warm-up"
        elif message[0] == "failed":
            reason = f"shard {shard} worker failed to build: {message[1]}"
            if str(message[1]).startswith("CorruptionError"):
                # Preserve the error's type across the process boundary:
                # a corrupt store must refuse the open the same way the
                # in-process path does.
                error_type = CorruptionError
        elif message[0] != "ready":
            reason = f"shard {shard} worker sent {message[0]!r} before ready"
        elif int(message[2]) != spec.size:
            reason = (
                f"shard {shard} worker holds {message[2]} members, "
                f"spec says {spec.size}"
            )
        else:
            if spec.store_path is not None:
                # Respawns reopen the finished store, never rewrite it.
                spec.write_store, spec.rows = False, None
            return True
        self._note_death(shard)
        if initial:
            raise error_type(reason)
        self._failed[shard] = reason
        return False

    def pids(self) -> dict[int, int | None]:
        """Live worker pids by shard (``None`` for dead workers)."""
        return {
            shard: (proc.pid if proc is not None and proc.is_alive() else None)
            for shard, proc in self._procs.items()
        }

    def heartbeat(self) -> dict[int, bool]:
        """Ping every worker; ``False`` marks a dead/unresponsive one.

        Detection only — respawning happens lazily at the next request
        (:meth:`_ensure`), so a heartbeat never blocks on a rebuild.
        """
        alive: dict[int, bool] = {}
        for shard in sorted(self._specs):
            proc = self._procs.get(shard)
            ok = proc is not None and proc.is_alive()
            if ok:
                try:
                    self._conns[shard].send(("ping",))
                    response = self._collect(shard)
                    ok = response is not None and response[0] == "ok"
                except (BrokenPipeError, OSError):
                    self._note_death(shard)
                    ok = False
            alive[shard] = ok
        return alive

    def respawn_count(self, shard: int) -> int:
        return self._respawns.get(shard, 0)

    def close(self) -> None:
        """Drain and stop every worker.

        Idempotent, and deterministic even on exception paths: stop is
        offered politely first, then escalated terminate -> kill so the
        call can never leak an orphan process.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in list(self._procs.values()) + self._dead:
            if proc is None:
                continue
            proc.join(timeout=_JOIN_S)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join()
        for conn in self._conns.values():
            try:
                conn.close()
            except Exception:
                pass
        self._procs.clear()
        self._conns.clear()
        self._dead.clear()
        if self._started:
            blas.release()
        self._publish_worker_gauge()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Health plumbing
    # ------------------------------------------------------------------
    def _publish_worker_gauge(self) -> None:
        if obs.is_enabled():
            obs.set_gauge(
                "cluster.pool.workers",
                sum(
                    1
                    for proc in self._procs.values()
                    if proc is not None and proc.is_alive()
                ),
            )
            count = blas.threads()
            if count is not None:
                obs.set_gauge("cluster.pool.blas_threads", count)

    def _note_death(self, shard: int) -> None:
        obs.add("cluster.pool.deaths")
        proc = self._procs.get(shard)
        if proc is not None:
            proc.join(timeout=0)
            if proc.is_alive():
                # Still exiting (e.g. a failed warm-up unwinding its
                # stack); close() gives it a proper reaping join.
                self._dead.append(proc)
        self._procs[shard] = None
        conn = self._conns.pop(shard, None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass
        self._publish_worker_gauge()

    def _ensure(self, shard: int) -> bool:
        """Worker alive (respawning from spec if budget remains)?"""
        if self._closed:
            raise ReproError("the shard worker pool is closed")
        if shard in self._failed:
            return False
        proc = self._procs.get(shard)
        if proc is not None and proc.is_alive():
            return True
        if proc is not None:
            self._note_death(shard)
        if self._respawns.get(shard, 0) >= self._max_respawns:
            self._failed[shard] = (
                f"shard {shard} exhausted its respawn budget "
                f"({self._max_respawns})"
            )
            return False
        self._respawns[shard] = self._respawns.get(shard, 0) + 1
        obs.add("cluster.pool.respawns")
        with obs.span("cluster.pool.respawn"):
            self._spawn(shard)
            return self._await_ready(shard, initial=False)

    def _collect(self, shard: int):
        """One response from one worker; ``None`` on worker death.

        Polls in small steps and re-checks liveness, so a killed worker
        is reported promptly and a healthy-but-busy one is waited on —
        the gather can stall only behind live work, never a corpse.
        """
        conn = self._conns.get(shard)
        proc = self._procs.get(shard)
        if conn is None or proc is None:
            return None
        while True:
            try:
                if conn.poll(_POLL_S):
                    message = conn.recv()
                    obs.add("cluster.pool.responses")
                    return message
            except (EOFError, OSError):
                self._note_death(shard)
                return None
            if not proc.is_alive():
                try:  # drain race: the reply may already be buffered
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                self._note_death(shard)
                return None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _scatter_request(self, make_request) -> dict[int, object]:
        """Send one request per populated shard, then gather replies.

        Requests go out to every live worker *before* any reply is
        awaited, so shard work overlaps; the returned map holds each
        shard's raw response message (dead shards are simply absent).
        """
        sent: list[int] = []
        for shard in sorted(self._specs):
            if not self._ensure(shard):
                continue
            try:
                self._conns[shard].send(make_request(shard))
                obs.add("cluster.pool.requests")
                sent.append(shard)
            except (BrokenPipeError, OSError):
                self._note_death(shard)
        if obs.is_enabled():
            obs.set_gauge("cluster.pool.queue_depth", len(sent))
        responses: dict[int, object] = {}
        for shard in sent:
            message = self._collect(shard)
            if message is not None:
                responses[shard] = message
            if obs.is_enabled():
                obs.set_gauge(
                    "cluster.pool.queue_depth",
                    len(sent) - len(responses),
                )
        return responses

    def _crash_triple(self, spec: ShardSpec, message):
        """The scatter triple for a shard whose worker is gone."""
        if message is not None and message[0] == "err":
            reason = str(message[1])
        elif spec.shard in self._failed:
            reason = self._failed[spec.shard]
        else:
            reason = "worker process died"
        obs.add("cluster.pool.fallbacks")
        stats = SearchStats()
        stats.degraded = True
        error = WorkerCrashError(
            f"shard {spec.shard} worker unavailable: {reason}"
        )
        return population_candidates(spec.size), stats, error

    def scatter_candidates(self, op: str, query, arg) -> list:
        """One ``(candidates, stats, error)`` triple per shard.

        The list is aligned to the full shard range (empty shards get
        empty candidate sets); a dead worker's entry is its shard's
        exhaustive fallback plus a :class:`WorkerCrashError`, exactly
        the shape the router's gather already absorbs.
        """
        with obs.span("cluster.pool.scatter"):
            responses = self._scatter_request(
                lambda shard: (op, query, arg)
            )
        out = []
        for shard in range(self._shard_count):
            spec = self._specs.get(shard)
            if spec is None:
                out.append(
                    (CandidateSet(entries=[], generated=0), SearchStats(), None)
                )
                continue
            message = responses.get(shard)
            if message is not None and message[0] == "ok":
                out.append(message[1])
            else:
                out.append(self._crash_triple(spec, message))
        return out

    def scatter_knn(self, query, k: int) -> list:
        return self.scatter_candidates("knn", query, int(k))

    def scatter_range(self, query, radius: float) -> list:
        return self.scatter_candidates("range", query, float(radius))

    def batch_search(self, queries, k: int) -> dict[int, list | None]:
        """Whole-batch exact sub-searches, one per populated shard.

        Each worker runs the full query batch against its warm index at
        ``min(k, shard_size)`` under the exact policy and returns
        per-query ``(neighbors, stats)`` with shard-local ids; the
        caller merges.  A dead worker maps to ``None`` (and books a
        ``cluster.pool.fallbacks``) — the caller then runs the batch in
        the parent.  Approximate batches never come here (see
        ``engine/batch.py``), so no policy travels on the wire.
        """
        with obs.span("cluster.pool.batch"):
            responses = self._scatter_request(
                lambda shard: ("batch", queries, int(k))
            )
        out: dict[int, list | None] = {}
        for shard, spec in self._specs.items():
            message = responses.get(shard)
            if message is not None and message[0] == "ok":
                out[shard] = message[1]
            else:
                self._crash_triple(spec, message)  # book-keeping only
                out[shard] = None
        return out

    def batch_candidates(self, queries, k: int) -> list[list] | None:
        """Whole-batch candidate scatter: per-query triples per shard.

        Ships the entire batch to every warm worker in one ``cands``
        request; each worker runs its k-NN generator once per query and
        answers with one ``(CandidateSet, SearchStats, error)`` triple
        per query — the same payloads ``scatter_knn`` would produce one
        query at a time.  Returns one
        full-shard-range triple list per query (the
        :meth:`scatter_candidates` shape), or ``None`` when any worker
        died — partial batches are not reasoned about.
        """
        with obs.span("cluster.pool.batch_cands"):
            responses = self._scatter_request(
                lambda shard: ("cands", queries, int(k))
            )
        per_shard: dict[int, list] = {}
        for shard, spec in self._specs.items():
            message = responses.get(shard)
            if message is not None and message[0] == "ok":
                per_shard[shard] = message[1]
            else:
                self._crash_triple(spec, message)  # book-keeping only
                return None
        out: list[list] = []
        for position in range(len(queries)):
            triples = []
            for shard in range(self._shard_count):
                shard_payloads = per_shard.get(shard)
                if shard_payloads is None:
                    triples.append(
                        (
                            CandidateSet(entries=[], generated=0),
                            SearchStats(),
                            None,
                        )
                    )
                else:
                    triples.append(shard_payloads[position])
            out.append(triples)
        return out
