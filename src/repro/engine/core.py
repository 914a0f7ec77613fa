"""The shared query-execution core: one verifier for every index.

Every structure in :mod:`repro.index` runs the same two-phase discipline
from fig. 11 of the paper — generate candidates from cheap (compressed or
feature-space) bounds, then verify the survivors exactly, cheapest first.
The Lernaean Hydra index evaluations (Echihabi et al.) argue that fair
cross-index comparison requires exactly one verification loop, one
:math:`\\sigma_{UB}` bookkeeping and one statistics accounting, shared.
This module is that core:

* :class:`CandidateSet` — what a *candidate generator* (the index-specific
  half: a compressed-domain or feature-space traversal) hands to the
  verifier: ``(LB^2, seq_id)`` survivors, the :math:`\\sigma_{UB}` filter
  value used, and any exact distances the traversal already paid for;
* :class:`SigmaTracker` — maintenance of the k-th smallest upper bound
  seen so far, which drives both tree pruning and the SUB filter;
* :func:`execute_knn` / :func:`execute_range` — the engine entry points:
  validation, the obs span, the verification loop, the stats invariant,
  result construction.  Index ``search``/``range_search`` methods are thin
  wrappers over these two calls.

Distances travel through the verifier **squared**: comparing running
squared sums avoids ``sqrt`` round-trips, so exact duplicate rows produce
bit-identical keys and distance ties are always broken by sequence id —
every index returns byte-identical neighbour lists on tied inputs.

The invariant the verifier enforces: every database member is either
pruned or retrieved, exactly once — ``candidates_pruned +
full_retrievals == database_size``.

**One verifier.**  Verification is one decision loop per stop rule —
:func:`_refine_knn` against the moving top-k cutoff, :func:`_refine_range`
against the fixed radius — fed by the same two helpers.
:func:`_candidate_blocks` hands a loop its candidates in LB order: an
entry list in blocks of at most ``REPRO_VERIFY_BLOCK`` (default 256),
each bulk-fetched in one batched store read (zero-copy when the store is
memory-mapped) with its squared distances from one chunk-accumulated
einsum pass.  A k-NN block reads only what the loop's stop rule can
still admit: the first holds ``k`` entries, and each later one ends
before the first entry whose relaxed lower bound exceeds the running
cutoff.  A streaming generator (the GEMINI R-tree's k-NN) comes as
single-item blocks, never prefetched, because pulling a stream item
mutates the traversal's own accounting.  :func:`_distance_sq` is the one
distance source: a distance the traversal already ``paid`` for, else the
block's prefetched value, else a per-id guarded fetch through the scalar
early-abandon kernel.  Chunk sums are non-negative, so that kernel's
running prefix is monotone and it abandons a candidate iff the *full*
squared distance exceeds the cutoff — which is how a prefetched value
reproduces every early abandon, and with it every heap update,
tie-break, termination and :class:`SearchStats` counter, bit-identically.
``REPRO_VERIFY_BLOCK=0`` (or 1) turns prefetching off: every distance
then comes from the independent scalar kernel, which is what the
blocked ≡ scalar tests and benchmarks compare against.  The only
observable difference is physical: a terminating block may have
prefetched rows the loop never consumes, when the cutoff fell inside the
block (charged to :class:`~repro.storage.pagestore.IOStats`, discarded
unread), so ``store.stats.read_calls >= stats.full_retrievals`` under
blocking, with equality at block size 0.

**Row-code stage.**  Inside guarded generation, :func:`_code_stage`
bounds every candidate of an index that holds resident
:class:`~repro.compression.codes.RowCodes` (the coded indexes, the shard
router and the stream union): a k-NN set's lower bounds
are raised to ``max(set, code)``, the entries above the k-th smallest
code upper bound are dropped and the rest re-sorted, so termination
fires after about k + 5 rows; a range set keeps the entries whose code
bound's square root is within the radius.  Dropped entries are booked
as pruned.  On ``flat``, the router and the stream union the generator
hands over every member at lower bound 0, and this stage
*is* the filter: one exact kernel pass over all the codes.  Streams and
degraded sets skip the stage.  A candidate set holds its survivors as
two arrays, ``lb_sq`` and ``ids``, so the stage bounds them without
building a pair per entry; only its survivors (about k + 10) become
Python pairs for refinement.

**Approximate tier (opt-in).**  ``execute_knn``/``execute_range`` accept
an :class:`~repro.engine.approx.ApproxPolicy`: ``epsilon`` relaxes the
k-NN termination rule against the running best-so-far cutoff (every
reported distance stays within :math:`(1+\\varepsilon)` of the true
k-th-NN distance, because the cutoff is itself a reported distance) and
the range filter against the fixed radius (missed matches confined to
the :math:`(r/(1+\\varepsilon), r]` annulus).  Members the policy
skips are accounted as ``skipped_approx`` — the invariant extends to
``pruned + retrievals + quarantined + skipped_approx == database_size``
— and the relaxation lives *only* in this verifier, never in the
candidate generators, so a shard router's gathered candidate stream
sees exactly the thresholds a monolithic index would: sharded-approx ≡
monolithic-approx bit-for-bit.
The default exact policy multiplies lower bounds by exactly ``1.0``, so
the exact tier remains the executable spec.
"""

from __future__ import annotations

import copy
import heapq
import math
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.engine.approx import ApproxPolicy, resolve_policy
from repro.exceptions import ReproError, SeriesMismatchError, StorageError
from repro.index.distance import VERIFY_CHUNK, euclidean_early_abandon_sq
from repro.index.results import Neighbor, SearchStats
from repro.resilience.quarantine import quarantine_of
from repro.resilience.retry import active_policy
from repro.timeseries.preprocessing import as_float_array
from repro.tools.envparse import parse_env_int

__all__ = [
    "DEFAULT_VERIFY_BLOCK",
    "VERIFY_BLOCK_ENV",
    "CandidateSet",
    "EngineIndex",
    "SigmaTracker",
    "block_distances_sq",
    "candidates_from_bound_arrays",
    "population_candidates",
    "execute_knn",
    "execute_range",
    "fetch_block",
    "verify_block_size",
]

#: Candidates fetched and verified per vectorised block.
DEFAULT_VERIFY_BLOCK = 256

#: Environment override for the verify block size; ``0`` or ``1``
#: turns prefetching off (every distance from the per-id scalar kernel).
VERIFY_BLOCK_ENV = "REPRO_VERIFY_BLOCK"


def verify_block_size() -> int:
    """The active verify block size (``REPRO_VERIFY_BLOCK``, default 256).

    Junk values raise a :class:`~repro.exceptions.ReproError` naming the
    variable.
    """
    return parse_env_int(VERIFY_BLOCK_ENV, DEFAULT_VERIFY_BLOCK, minimum=0)


@runtime_checkable
class EngineIndex(Protocol):
    """What a structure must provide to run on the shared engine.

    The split: the index owns *candidate generation* (its traversal, its
    bounds, its pruning rules); the engine owns *verification* (SUB
    filtering, LB-ordered exact refinement with early abandoning, stats
    accounting, obs spans).  All six structures in :mod:`repro.index`
    implement this protocol; :func:`repro.engine.get_index` builds any of
    them by name.
    """

    #: Prefix for obs spans and published counters, e.g. ``"index.flat"``.
    obs_name: str

    def __len__(self) -> int:
        """Number of live database members."""
        ...

    @property
    def sequence_length(self) -> int:
        """Length of the indexed sequences (and of any valid query)."""
        ...

    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> "CandidateSet":
        """Compressed-domain traversal emitting k-NN candidates."""
        ...

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> "CandidateSet":
        """Traversal emitting all candidates possibly within ``radius``."""
        ...

    def fetch(self, seq_id: int) -> np.ndarray:
        """The uncompressed sequence, for exact verification."""
        ...

    def result_name(self, seq_id: int) -> str | None:
        """Optional display name attached to results."""
        ...


class _Survivors:
    """The ``entries`` field of :class:`CandidateSet`: pairs in, arrays kept.

    Setting it converts ``(LB^2, seq_id)`` pairs into the set's
    ``lb_sq`` / ``ids`` arrays, the one stored form; reading it derives
    the pairs back, as Python numbers.  Reading on the class gives the
    field's default, an empty tuple.
    """

    def __get__(self, cands, owner=None):
        if cands is None:
            return ()
        return list(zip(cands.lb_sq.tolist(), cands.ids.tolist()))

    def __set__(self, cands, pairs) -> None:
        pairs = list(pairs)
        cands.lb_sq = np.array([lb for lb, _ in pairs], dtype=np.float64)
        cands.ids = np.array([seq_id for _, seq_id in pairs], dtype=np.intp)


@dataclass
class CandidateSet:
    """What one traversal hands to the shared verifier.

    The survivors are stored once, as two aligned arrays.  Producers that
    bound with numpy (the flat filter, the range filter, the tree walk,
    the stream union) hand theirs over through :meth:`from_arrays`,
    ascending by ``(LB^2, seq_id)``; a generator that collects Python
    pairs passes ``entries=[...]``, converted on the way in.

    Attributes
    ----------
    lb_sq / ids:
        ``float64`` lower bounds and ``intp`` sequence ids of the
        members surviving the generator's filter
        (:math:`LB \\le \\sigma_{UB}` for k-NN, :math:`LB \\le r` for
        range search), ascending for k-NN.  Lower bounds are *squared*
        distances.
    entries:
        The same survivors as ``(LB^2, seq_id)`` pairs of Python
        numbers, derived from the arrays on each read.
    generated:
        Candidates bounded during the traversal, before the SUB filter
        (for the k-NN accounting).  ``None`` marks a streaming generator
        (see ``stream``).
    sigma_sq:
        The squared smallest-k-th-upper-bound used as the SUB filter.
    paid:
        Exact squared distances the traversal already computed (and
        already counted as ``full_retrievals``), keyed by sequence id.
        The verifier reuses them instead of re-fetching.
    stream:
        Alternative to the arrays for incremental generators (the GEMINI
        R-tree): an iterator yielding ``(LB^2, seq_id)`` in increasing
        order, consumed lazily so unvisited members are never bounded.
    code_pruned:
        Entries the row-code stage (:func:`_code_stage`) dropped: still
        counted in ``candidates_after_sub_filter``, but proved outside
        the answer by the codes.
    top_ubs:
        The k smallest *plain-distance* upper bounds the traversal saw
        (ascending).  A router gathering per-shard candidate sets
        (``ShardRouter.gather_knn``) merges the tuples into one global
        :class:`SigmaTracker`: each of the global k smallest upper
        bounds necessarily sits inside its own shard's top-k, so the
        merged k-th smallest equals the exact global
        :math:`\\sigma_{UB}` — cross-shard pruning is then no weaker than
        a monolithic traversal.
    """

    entries: list[tuple[float, int]] = _Survivors()
    generated: int | None = 0
    sigma_sq: float = math.inf
    paid: dict[int, float] = field(default_factory=dict)
    stream: Iterator[tuple[float, int]] | None = None
    top_ubs: tuple[float, ...] = ()
    code_pruned: int = 0

    @classmethod
    def from_arrays(
        cls, lb_sq: np.ndarray, ids: np.ndarray, **fields
    ) -> "CandidateSet":
        """A set holding the survivor arrays ``(lb_sq, ids)`` as given."""
        cands = cls(**fields)
        cands.lb_sq, cands.ids = lb_sq, ids
        return cands

    def survivors(
        self, lb_sq: np.ndarray, ids: np.ndarray, **changes
    ) -> "CandidateSet":
        """A copy holding ``(lb_sq, ids)`` as its survivors."""
        kept = copy.copy(self)
        kept.lb_sq, kept.ids = lb_sq, ids
        for name, value in changes.items():
            setattr(kept, name, value)
        return kept


class SigmaTracker:
    """The k-th smallest upper bound seen so far (:math:`\\sigma_{UB}`).

    Tree traversals feed every candidate's upper bound through
    :meth:`offer`; :meth:`sigma` is then the pruning threshold of the
    paper's fig. 11 rules, and :meth:`sigma_sq` the squared form the
    verifier filters with.  Bounds are tracked in plain distance space
    (tree pruning arithmetic — medians, annuli — lives there).
    """

    def __init__(self, k: int) -> None:
        self._k = k
        self._heap: list[float] = []  # max-heap (negated) of k smallest UBs

    def offer(self, upper: float) -> None:
        """Consider one candidate's upper bound."""
        if not math.isfinite(upper):
            return
        heapq.heappush(self._heap, -upper)
        if len(self._heap) > self._k:
            heapq.heappop(self._heap)

    def sigma(self) -> float:
        """The k-th smallest upper bound, or ``inf`` before k are seen."""
        if len(self._heap) < self._k:
            return math.inf
        return -self._heap[0]

    def sigma_sq(self) -> float:
        sigma = self.sigma()
        return sigma * sigma

    def values(self) -> tuple[float, ...]:
        """The (at most k) smallest upper bounds seen, ascending.

        This is the tracker's full state: offering these values to a
        fresh tracker reproduces it exactly, which is how a shard router
        rebuilds the *global* :math:`\\sigma_{UB}` from per-shard
        trackers.
        """
        return tuple(sorted(-negated for negated in self._heap))


def candidates_from_bound_arrays(
    lower: np.ndarray, upper: np.ndarray, k: int
) -> CandidateSet:
    """Vectorised SUB filter over whole-database bound arrays.

    The flat index bounds every member with one kernel call; this helper
    applies the smallest-k-th-upper-bound filter and the increasing-LB
    ordering in a handful of numpy operations, producing the same
    :class:`CandidateSet` a tree traversal would.
    """
    # An LB is never above its own UB: where the two coincide (an
    # all-zero row: both are |q|), rounding can put the LB an ulp above
    # the UB that sets sigma, and the filter must still keep the row.
    lower = np.minimum(lower, upper)
    count = int(lower.size)
    finite = upper[np.isfinite(upper)]
    if finite.size >= k:
        smallest = np.partition(finite, k - 1)[:k]
        sigma = float(smallest[k - 1])
        survivor_ids = np.flatnonzero(lower <= sigma)
    else:
        smallest = finite
        sigma = math.inf
        survivor_ids = np.arange(count)
    lb_sq, ids = _ascending(lower[survivor_ids] ** 2, survivor_ids)
    return CandidateSet.from_arrays(
        lb_sq,
        ids,
        generated=count,
        sigma_sq=sigma * sigma,
        top_ubs=tuple(np.sort(smallest).tolist()),
    )


def _ascending(lb_sq: np.ndarray, ids: np.ndarray):
    """``(lb_sq, ids)`` reordered ascending by ``(LB^2, seq_id)``.

    ``ids`` must already ascend, so a stable sort on the bounds alone
    breaks their ties by id.
    """
    order = np.argsort(lb_sq, kind="stable")
    return lb_sq[order], ids[order].astype(np.intp, copy=False)


def fetch_block(index, ids) -> np.ndarray:
    """Fetch many sequences at once, preferring a store's batched read."""
    store = getattr(index, "store", None)
    read_many = getattr(store, "read_many", None)
    if read_many is not None:
        return read_many(ids)
    return np.stack([index.fetch(int(i)) for i in ids])


def block_distances_sq(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, bit-identical to the scalar kernel.

    Accumulates row-wise einsum partials over the same ``VERIFY_CHUNK``
    boundaries :func:`~repro.index.distance.euclidean_early_abandon_sq`
    walks, in the same left-to-right order.  einsum reduces each row with
    the same pairwise summation the 1-D form uses (it never routes
    through BLAS, whose reduction order differs), so each entry equals
    the scalar kernel's un-abandoned return value bit-for-bit.
    """
    diff = rows - query
    totals = np.zeros(diff.shape[0])
    for start in range(0, diff.shape[1], VERIFY_CHUNK):
        chunk = diff[:, start : start + VERIFY_CHUNK]
        totals += np.einsum("ij,ij->i", chunk, chunk)
    return totals


def _fetch_block_guarded(index, ids: list[int]) -> np.ndarray | None:
    """One bulk read, with the retry path applied once per block.

    Transient faults (:class:`OSError`) retry the *whole block* per the
    active :class:`~repro.resilience.RetryPolicy` — one retry schedule
    per block instead of one per row.  Returns ``None`` when the block
    cannot be fetched as a unit (permanent corruption, or the transient
    budget exhausted): the block is then consumed per id through
    :func:`_guarded_fetch`, which quarantines exactly the rows that are
    actually at fault.
    """
    policy = active_policy()
    for attempt in range(policy.max_attempts):
        if attempt:
            obs.add("resilience.retries")
            policy.sleep(policy.delay_s(attempt - 1))
        try:
            return fetch_block(index, ids)
        except StorageError as exc:
            if not isinstance(exc, OSError):
                return None  # corruption &co are permanent: isolate per id
        except OSError:
            pass
    obs.add("resilience.giveups")
    return None


def _prefetch_block(
    index, query, block, paid
) -> dict[int, float | None] | None:
    """Bulk-fetch one candidate block and compute its exact distances.

    Returns ``{seq_id: d_sq}`` for every non-paid entry in the block,
    with already-quarantined ids mapped to ``None`` (their stats are
    applied when the loop consumes them, in entry order), or ``None``
    when the bulk fetch failed and the block must be consumed per id.
    """
    quarantine = getattr(index, "_resilience_quarantine", None)
    outcomes: dict[int, float | None] = {}
    fetch_ids: list[int] = []
    for _, seq_id in block:
        if seq_id in paid:
            continue
        if quarantine is not None and seq_id in quarantine:
            outcomes[seq_id] = None
        else:
            fetch_ids.append(seq_id)
    if not fetch_ids:
        return outcomes
    rows = _fetch_block_guarded(index, fetch_ids)
    if rows is None:
        return None
    d_sq = block_distances_sq(rows, query)
    for seq_id, value in zip(fetch_ids, d_sq.tolist()):
        outcomes[seq_id] = value
    return outcomes


def _candidate_blocks(index, query, cands: CandidateSet, stop=None):
    """Yield ``(block, prefetched)`` pairs in LB order, lazily.

    ``block`` is a run of ``(LB^2, seq_id)`` pairs and ``prefetched``
    what :func:`_prefetch_block` made of it, or ``None`` when its
    distances must come per id.  The candidate arrays become pairs
    here, once per query, after the code stage has cut them down.
    Laziness matters: a loop that stops never reads the blocks behind
    its stopping point, quarantine membership is re-sampled per block (a
    per-id fetch may quarantine rows mid-query), and a stream —
    single-item blocks, never prefetched — never bounds a member the
    loop did not reach.  Block size 0 or 1 is the whole entry list as
    one unprefetched block.

    ``stop`` is the k-NN loop's termination rule, a ``(k, relax_sq,
    cutoff_sq)`` triple whose ``cutoff_sq`` reads the loop's running
    cutoff when called.  It bounds what a block prefetches.  The first
    block holds ``k`` entries, because no cutoff exists before k
    distances are known.  Every later block ends before the first entry
    whose relaxed lower bound already exceeds the cutoff: the loop
    terminates on that entry, and the cutoff never grows, so no row
    the loop wants is left out.  When that leaves a block empty, the
    rest is yielded unprefetched and the loop's test fires on its first
    entry.
    """
    if cands.stream is not None:
        for entry in cands.stream:
            yield (entry,), None
        return
    entries = cands.entries
    block_size = verify_block_size()
    if block_size <= 1:
        yield entries, None
        return
    start = 0
    while start < len(entries):
        end = start + block_size
        if stop is not None:
            k, relax_sq, cutoff_sq = stop
            if start == 0:
                end = min(end, k)
            else:
                end = bisect_right(
                    entries,
                    cutoff_sq(),
                    start,
                    min(end, len(entries)),
                    key=lambda entry: entry[0] * relax_sq,
                )
                if end == start:
                    yield entries[start:], None
                    return
        block = entries[start:end]
        yield block, _prefetch_block(index, query, block, cands.paid)
        start = end


def _distance_sq(
    index, query, seq_id: int, paid, prefetched, cutoff_sq: float,
    stats: SearchStats,
) -> float | None:
    """One candidate's exact squared distance, from the cheapest source.

    ``None`` means the candidate contributes no distance: it is
    quarantined (served degraded, not retrieved), or its comparison was
    abandoned because the distance exceeds ``cutoff_sq``.  A prefetched
    value replays the kernel's mid-sum abandon from the full distance.
    """
    if seq_id in paid:
        return paid[seq_id]  # already fetched and counted
    if prefetched is None:
        row = _guarded_fetch(index, seq_id, stats)
        if row is None:
            return None
        stats.full_retrievals += 1
        d_sq = euclidean_early_abandon_sq(query, row, cutoff_sq)
        if d_sq == math.inf:
            stats.early_abandons += 1
            return None
        return d_sq
    d_sq = prefetched.get(seq_id)
    if d_sq is None:
        # Quarantined before the block was fetched.
        stats.note_quarantined(seq_id)
        return None
    stats.full_retrievals += 1
    if d_sq > cutoff_sq:
        stats.early_abandons += 1
        return None
    return d_sq


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _validate_query(index, query) -> np.ndarray:
    query = as_float_array(query)
    if query.size != index.sequence_length:
        raise SeriesMismatchError(
            f"query length {query.size} does not match database "
            f"sequences of length {index.sequence_length}"
        )
    return query


def _check_invariant(stats: SearchStats, size: int, index) -> None:
    # The uniform-accounting contract: every member pruned, retrieved,
    # quarantined or approx-skipped, exactly once.  A failure means a
    # generator double-emitted or lost a candidate — surface it loudly
    # instead of skewing fig. 22 metrics.
    accounted = (
        stats.candidates_pruned
        + stats.full_retrievals
        + stats.quarantined
        + stats.skipped_approx
    )
    assert accounted == size, (
        f"{index.obs_name}: accounting drift — "
        f"{stats.candidates_pruned} pruned + "
        f"{stats.full_retrievals} retrieved + "
        f"{stats.quarantined} quarantined + "
        f"{stats.skipped_approx} approx-skipped != {size} members"
    )


# ----------------------------------------------------------------------
# Degraded-mode serving (see docs/RESILIENCE.md)
# ----------------------------------------------------------------------
def _guarded_fetch(index, seq_id: int, stats: SearchStats):
    """Fetch one sequence for verification, absorbing storage faults.

    The fast path is a plain ``index.fetch`` — one ``try`` frame and no
    allocations beyond the call itself.  On a transient fault
    (:class:`OSError`) the active :class:`~repro.resilience.RetryPolicy`
    retries with bounded backoff; on a permanent fault (corruption, or
    retries exhausted) the sequence is quarantined, the query is marked
    degraded, and ``None`` is returned so the verifier skips the member
    instead of crashing the query.
    """
    quarantine = getattr(index, "_resilience_quarantine", None)
    if quarantine is not None and seq_id in quarantine:
        stats.note_quarantined(seq_id)
        return None
    try:
        return index.fetch(seq_id)
    except StorageError as exc:
        if isinstance(exc, OSError):
            result = _retry_fetch(index, seq_id, exc)
        else:
            result = (False, exc)  # corruption &co are permanent
    except OSError as exc:
        result = _retry_fetch(index, seq_id, exc)
    recovered, outcome = result
    if recovered:
        return outcome
    policy = active_policy()
    if not policy.degrade:
        raise outcome
    quarantine_of(index).add(seq_id, outcome)
    stats.note_quarantined(seq_id)
    obs.add("resilience.degraded_fetches")
    return None


def _retry_fetch(index, seq_id: int, first_error: OSError):
    """Retry a faulted fetch per the active policy.

    Returns ``(True, row)`` on recovery or ``(False, error)`` once the
    budget is exhausted.  The first failed attempt has already happened.
    """
    policy = active_policy()
    error: Exception = first_error
    for retry_index in range(policy.max_attempts - 1):
        obs.add("resilience.retries")
        policy.sleep(policy.delay_s(retry_index))
        try:
            return True, index.fetch(seq_id)
        except StorageError as exc:
            if not isinstance(exc, OSError):
                return False, exc  # went permanent mid-retry
            error = exc
        except OSError as exc:
            error = exc
    obs.add("resilience.giveups")
    return False, error


def population_candidates(size: int) -> CandidateSet:
    """Every member at lower bound 0, in id order.

    The exhaustive set: a degraded query's linear-scan fallback, and the
    generator of every index whose filter is the engine's row-code stage
    (``flat``, the shard router), which bounds each member from memory.
    """
    return CandidateSet.from_arrays(
        np.zeros(size), np.arange(size, dtype=np.intp), generated=size
    )


def _generate_guarded(index, generate, size: int):
    """Run a candidate generator; fall back to a linear scan on failure.

    A generator failure (a tree traversal hitting a corrupt vantage
    read, a broken bound kernel) abandons whatever partial accounting
    the generator wrote and restarts the query as an exhaustive scan —
    the answer stays correct over every readable member, just without
    pruning.  Returns ``(candidates, stats)``; the stats object the
    generator wrote to is *replaced* on fallback so partial traversal
    counts cannot corrupt the accounting invariant.
    """
    stats = SearchStats()
    try:
        return generate(stats), stats
    except (ReproError, OSError) as exc:
        policy = active_policy()
        if not policy.degrade:
            raise
        quarantine_of(index).note_generator_failure(exc)
        obs.add("resilience.fallback_scans")
        fresh = SearchStats()
        fresh.degraded = True
        return population_candidates(size), fresh


# ----------------------------------------------------------------------
# The row-code stage (docs/ENGINE.md, "The row-code stage")
# ----------------------------------------------------------------------
def _code_stage(
    index, query, stats: SearchStats, *, k: int | None = None,
    radius: float | None = None, bounds=None,
) -> CandidateSet:
    """The generator's candidate set, pruned with resident row codes.

    One unit for :func:`_generate_guarded`: a failing code kernel, like a
    failing traversal, degrades the query to the exhaustive scan.  An
    index holding :class:`~repro.compression.codes.RowCodes`
    (``row_codes``) gets lower and upper bounds of every entry from
    memory, before any row is read, and the entries its codes prove out
    are dropped, counted in ``code_pruned``:

    * k-NN (``k``): each ``LB^2`` is raised to ``max(set, code)``, and
      an entry whose raised bound exceeds the k-th smallest code upper
      bound — itself at least the k-th nearest distance — is dropped.
      The survivors, re-sorted, leave the LB-ordered termination of
      :func:`_refine_knn` about k + 5 rows to read.
    * range (``radius``): an entry is kept iff ``sqrt(code LB^2) <=
      radius``: the code bound is at most the verifier's computed
      ``d_sq``, and ``sqrt`` is monotone and correctly rounded.

    Either way a dropped entry is one the exact loop would prune, so
    answers and the pruning ledger are unchanged.  (Only the M-tree pays
    distances during traversal, and it holds no codes.)  A set of every
    member at lower bound 0 (``flat``, the router, the stream union) is
    bounded in one pass over all the codes, with no gather:
    there the codes are the filter.  ``bounds`` are the query's code
    bounds of every row, when a batch made them in one block call.  The
    stage is skipped where it cannot help or must not act: no codes, a
    walk that bounded with them already (``code_walked``, the default
    VP-tree), a streaming generator, a degraded (fallback-scan) set —
    approximation is suspended there too, and the scan stays exhaustive
    — and a k-NN set of at most ``k`` entries, all of which refinement
    reads anyway.
    """
    if radius is None:
        cands = index.knn_candidates(query, k, stats)
    else:
        cands = index.range_candidates(query, radius, stats)
    codes = getattr(index, "row_codes", None)
    if (
        codes is None or getattr(index, "code_walked", False)
        or cands.stream is not None or stats.degraded
    ):
        return cands
    ids = cands.ids
    if ids.size <= (k or 0):
        return cands
    if bounds is None:
        every = ids.size == len(codes) and not cands.lb_sq.any()
        with obs.span("engine.codes"):
            lower, upper = codes.bounds_sq(query, None if every else ids)
        if every:
            lower, upper = lower[ids], upper[ids]
    else:
        lower, upper = bounds[0][ids], bounds[1][ids]
    if radius is None:
        lower = np.maximum(cands.lb_sq, lower)
        keep = lower <= np.partition(upper, k - 1)[k - 1]
        lower, kept = lower[keep], ids[keep]
        order = np.argsort(lower, kind="stable")
        lb_sq, kept = lower[order], kept[order]
    else:
        keep = np.sqrt(lower) <= radius
        lb_sq, kept = cands.lb_sq[keep], ids[keep]
    dropped = ids.size - kept.size
    if dropped:
        obs.add("engine.codes.pruned", dropped)
    return cands.survivors(lb_sq, kept, code_pruned=dropped)


# ----------------------------------------------------------------------
# Approximate-tier bookkeeping (docs/APPROX.md)
# ----------------------------------------------------------------------
_EXACT_POLICY = ApproxPolicy()


def _activate_policy(policy: ApproxPolicy, stats: SearchStats) -> ApproxPolicy:
    """The policy actually applied to this candidate set.

    A candidate set that is already degraded — the generator fell back
    to a linear scan, or a gathered shard's generator failed — carries zero
    lower bounds for the affected members, so the ε slack has no ordered
    stream to reason about.  Degraded serving promises "exact over every
    readable member"; approximation is suspended rather than compounded
    on top of it, and fallback-scan candidates are therefore never
    counted as ``skipped_approx``.
    """
    if policy.exact:
        return _EXACT_POLICY
    if stats.degraded:
        obs.add("engine.approx.suspended")
        return _EXACT_POLICY
    stats.approximate = True
    obs.add("engine.approx.queries")
    return policy


def _note_policy_skip(quarantine, seq_id: int, stats: SearchStats) -> None:
    """Account one candidate an approximate policy left unexamined.

    A member that is *already quarantined* keeps its own bucket (the
    exact engine would have skipped it degraded, not pruned): approx
    accounting must never launder a storage fault into a policy skip.
    """
    if quarantine is not None and seq_id in quarantine:
        stats.note_quarantined(seq_id)
    else:
        stats.skipped_approx += 1


def _unpaid_mask(ids: np.ndarray, paid) -> np.ndarray:
    """Which ``ids`` the traversal did not already pay a distance for."""
    return np.array([seq_id not in paid for seq_id in ids.tolist()], bool)


def _classify_remaining(
    index, lb_sq, ids, paid, cutoff_sq: float, stats: SearchStats
) -> None:
    """Account the entries a stopped refinement loop left unexamined.

    A lower bound above the cutoff is pruned — after an exact
    termination that is every remaining entry, by the LB order; under an
    approximate policy it is what the exact engine would have pruned
    too, and anything else is the policy's skip.
    """
    if paid:
        unpaid = _unpaid_mask(ids, paid)
        lb_sq, ids = lb_sq[unpaid], ids[unpaid]
    above = lb_sq > cutoff_sq
    stats.candidates_pruned += int(np.count_nonzero(above))
    quarantine = getattr(index, "_resilience_quarantine", None)
    for seq_id in ids[~above].tolist():
        _note_policy_skip(quarantine, seq_id, stats)


def _publish_approx(stats: SearchStats) -> None:
    if not stats.approximate or not obs.is_enabled():
        return
    if stats.skipped_approx:
        obs.add("engine.approx.skipped", stats.skipped_approx)


def _refine_span(policy: ApproxPolicy):
    """The ``engine.approx.refine`` span around non-exact refinement."""
    if policy.exact:
        return nullcontext()
    return obs.span("engine.approx.refine")


# ----------------------------------------------------------------------
# k-NN execution
# ----------------------------------------------------------------------
def execute_knn(
    index: EngineIndex, query, k: int = 1, policy: ApproxPolicy | None = None
) -> tuple[list[Neighbor], SearchStats]:
    """The ``k`` nearest neighbours of ``query`` (exact under sound bounds).

    ``policy`` opts into the approximate tier; ``None`` is exact.
    """
    policy = resolve_policy(policy)
    query = _validate_query(index, query)
    if not 1 <= k <= len(index):
        raise ValueError(f"k must be in [1, {len(index)}], got {k}")
    with obs.span(f"{index.obs_name}.search"):
        neighbors, stats = _knn_pipeline(index, query, k, policy)
    stats.publish(f"{index.obs_name}.search")
    return neighbors, stats


def _knn_pipeline(
    index, query, k: int, policy: ApproxPolicy, bounds=None
) -> tuple[list[Neighbor], SearchStats]:
    """One validated k-NN query from candidate generation to neighbours.

    Guarded generation, policy activation, refinement, the accounting
    invariant and the approx counters, in that order, for every caller:
    :func:`execute_knn`, each query of a :func:`~repro.engine.search_many`
    batch and each per-shard sub-search of a pool worker.  The caller
    publishes the returned stats; ``bounds`` go to :func:`_code_stage`.
    """
    size = len(index)
    cands, stats = _generate_guarded(
        index, partial(_code_stage, index, query, k=k, bounds=bounds), size
    )
    active = _activate_policy(policy, stats)
    with _refine_span(active):
        best = _refine_knn(index, query, k, cands, stats, size, active)
    _check_invariant(stats, size, index)
    _publish_approx(stats)
    neighbors = sorted(
        Neighbor(math.sqrt(d_sq), seq_id, index.result_name(seq_id))
        for d_sq, seq_id in best
    )
    return neighbors, stats


def _refine_knn(
    index,
    query,
    k: int,
    cands: CandidateSet,
    stats: SearchStats,
    size: int,
    policy: ApproxPolicy,
) -> list[tuple[float, int]]:
    """LB-ordered exact refinement; returns ``(distance^2, seq_id)`` pairs.

    Candidates are compared in increasing-lower-bound order against the
    uncompressed sequences, with early abandoning against the running
    k-th best distance and termination as soon as the next lower bound
    exceeds it.  Ties on exact distance are broken by sequence id, so the
    result is the canonical k smallest ``(distance, seq_id)`` pairs no
    matter what order a traversal emitted the candidates in.

    An active :class:`ApproxPolicy` relaxes exactly one comparison:
    termination fires as soon as ``lb_sq * (1+ε)^2`` exceeds the running
    cutoff.  The cutoff is a distance the answer actually reports, which
    is what makes the relaxation sound: every member left behind is
    provably more than ``reported_kth/(1+ε)`` away (relaxing the σ_UB
    filter instead would not be — the members *achieving* σ_UB could
    themselves be skipped).

    Blocking (:func:`_candidate_blocks`) and the distance source
    (:func:`_distance_sq`) never change a decision, so results and
    :class:`SearchStats` are identical at every block size.  A stop
    mid-block discards the rest of the block's prefetched rows:
    physical I/O only, no logical accounting.
    """
    paid = cands.paid
    if cands.stream is None:
        count = int(cands.ids.size)
        stats.candidates_after_traversal = cands.generated
        stats.candidates_after_sub_filter = count + cands.code_pruned
        # Members never bounded (pruned subtrees) plus those the SUB
        # filter discarded.  Traversal-paid members are all in `ids`.
        stats.candidates_pruned += size - count

    relax_sq = policy.relax_sq
    best: list[tuple[float, int]] = []  # max-heap of (-d^2, -seq_id)
    cutoff_sq = math.inf
    cutoff_id = -1
    consumed = 0
    terminated = False
    stop = (k, relax_sq, lambda: cutoff_sq)  # reads the running cutoff
    for block, prefetched in _candidate_blocks(index, query, cands, stop=stop):
        for lb_sq, seq_id in block:
            if len(best) == k and lb_sq * relax_sq > cutoff_sq:
                # Increasing-LB order: every remaining candidate is at
                # least as far, and cannot even tie (its distance is
                # strictly above the cutoff — or above cutoff/(1+ε)
                # under the relaxation).
                terminated = True
                break
            consumed += 1
            d_sq = _distance_sq(
                index, query, seq_id, paid, prefetched, cutoff_sq, stats
            )
            if d_sq is not None and not (
                len(best) == k and (d_sq, seq_id) >= (cutoff_sq, cutoff_id)
            ):
                # Better than the incumbent k-th (ties lose to lower ids).
                heapq.heappush(best, (-d_sq, -seq_id))
                if len(best) > k:
                    heapq.heappop(best)
                if len(best) == k:
                    cutoff_sq = -best[0][0]
                    cutoff_id = -best[0][1]
        if terminated:
            break

    if cands.stream is not None:
        # A stream bounds members lazily, so nothing behind the stopping
        # point was ever bounded, and its increasing order prunes it all.
        stats.candidates_pruned += size - consumed
    elif terminated:
        _classify_remaining(
            index, cands.lb_sq[consumed:], cands.ids[consumed:], paid,
            cutoff_sq, stats,
        )
    return [(-neg_d, -neg_id) for neg_d, neg_id in best]


# ----------------------------------------------------------------------
# Range execution
# ----------------------------------------------------------------------
def execute_range(
    index: EngineIndex,
    query,
    radius: float,
    policy: ApproxPolicy | None = None,
) -> tuple[list[Neighbor], SearchStats]:
    """All sequences within ``radius`` of ``query`` (epsilon search).

    ``policy`` opts into the approximate tier: candidates whose relaxed
    lower bound clears the radius are skipped, so only hits in the
    ``(radius/(1+ε), radius]`` annulus can be missed; every hit reported
    is still exact.
    """
    policy = resolve_policy(policy)
    query = _validate_query(index, query)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    size = len(index)
    generate = partial(_code_stage, index, query, radius=radius)
    with obs.span(f"{index.obs_name}.range_search"):
        cands, stats = _generate_guarded(index, generate, size)
        active = _activate_policy(policy, stats)
        with _refine_span(active):
            hits = _refine_range(
                index, query, radius, cands, stats, size, active
            )
    _check_invariant(stats, size, index)
    stats.publish(f"{index.obs_name}.range_search")
    _publish_approx(stats)
    return sorted(hits), stats


def _refine_range(
    index,
    query,
    radius: float,
    cands: CandidateSet,
    stats: SearchStats,
    size: int,
    policy: ApproxPolicy,
) -> list[Neighbor]:
    """Verify every candidate against the fixed radius.

    The abandon threshold is the constant squared radius, and every
    entry is consumed: no termination, hence no prefetch overshoot
    (``read_calls`` matches ``full_retrievals`` at every block size).
    Under an ε policy, the entries whose relaxed lower bound clears that
    threshold are masked out before any block is read and accounted as
    slack skips.  The threshold is a constant of the query and a masked
    row is never read, so its quarantine state cannot change during the
    query.
    """
    # No distance past this threshold has a ``sqrt`` at or below the
    # radius: at any scale, 8u covers the half ulp of ``sqrt`` and the
    # threshold's own roundings.
    threshold_sq = radius * radius * (1 + 2.0**-50)
    if cands.stream is not None:
        # A range stream is radius-bounded and consumed to its end, so
        # it is materialised and verified in prefetched blocks.
        streamed = CandidateSet(entries=cands.stream)
        cands = cands.survivors(streamed.lb_sq, streamed.ids, stream=None)
    count = int(cands.ids.size)
    admitted = count + cands.code_pruned
    stats.candidates_after_traversal = (
        cands.generated if cands.generated is not None else admitted
    )
    stats.candidates_after_sub_filter = admitted
    stats.candidates_pruned += size - count

    paid = cands.paid
    if policy.epsilon > 0.0:
        # The ε slack reuses the verification threshold.
        skip = cands.lb_sq * policy.relax_sq > threshold_sq
        if paid:
            skip &= _unpaid_mask(cands.ids, paid)
        quarantine = getattr(index, "_resilience_quarantine", None)
        for seq_id in cands.ids[skip].tolist():
            _note_policy_skip(quarantine, seq_id, stats)
        cands = cands.survivors(cands.lb_sq[~skip], cands.ids[~skip])
    hits: list[Neighbor] = []
    for block, prefetched in _candidate_blocks(index, query, cands):
        for _, seq_id in block:
            d_sq = _distance_sq(
                index, query, seq_id, paid, prefetched, threshold_sq, stats
            )
            if d_sq is None:
                continue
            # Admit on the distance reported, so a radius read off an
            # answer admits that answer's row.
            distance = math.sqrt(d_sq)
            if distance <= radius:
                hits.append(
                    Neighbor(distance, seq_id, index.result_name(seq_id))
                )
    return hits
