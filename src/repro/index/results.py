"""Result and statistics containers shared by the search structures.

Every index in :mod:`repro.index` — flat sketch scan, VP-tree, MVP-tree,
M-tree, GEMINI R-tree and the linear-scan baseline — returns the same
:class:`SearchStats`, with the same field names and units, so their work
is directly comparable in one report (the uniform-accounting discipline
of the Lernaean Hydra index evaluations).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro import obs

__all__ = ["Neighbor", "SearchStats"]


@dataclass(frozen=True, order=True)
class Neighbor:
    """One nearest-neighbour answer.

    Ordering is by distance first, so a list of neighbours sorts naturally.
    """

    distance: float
    seq_id: int
    name: str | None = field(default=None, compare=False)


@dataclass
class SearchStats:
    """What a query cost, in units shared by every index structure.

    Attributes
    ----------
    full_retrievals:
        Uncompressed sequences fetched and compared exactly (unit:
        sequences).  ``full_retrievals / database_size`` is the paper's
        "fraction of the database examined" (fig. 22).
    bound_computations:
        Cheap distance estimates used instead of exact distances (unit:
        objects): compressed objects whose LB/UB the search examined for
        the sketch indexes (all of them for flat, those the fig. 11 walk
        met for the trees — the paper's cost model, not the rows a kernel
        pass evaluated, which is the obs counter ``bounds.pairs``),
        feature-space distances for the GEMINI R-tree, triangle-inequality
        parent filters for the M-tree.
    nodes_visited:
        Index nodes (internal + leaf) touched during traversal; 0 for the
        tree-less structures.
    subtrees_pruned:
        Whole subtrees discarded without visiting any of their members.
    candidates_pruned:
        Individual database members discarded *without* an exact
        comparison — by a bound filter, an index prune, or the
        verification loop terminating early.  For an exhaustive search
        ``candidates_pruned + full_retrievals == database_size``.
    early_abandons:
        Exact comparisons cut short by the early-abandoning cutoff (a
        subset of ``full_retrievals``: work started but not fully paid).
    candidates_after_traversal:
        Compressed candidates surviving the traversal, before the
        smallest-upper-bound (SUB) filter.
    candidates_after_sub_filter:
        Candidates left after discarding those with LB > SUB.
    quarantined:
        Members skipped because a permanent storage fault (corruption,
        retries exhausted) put them in the index's quarantine — neither
        pruned nor retrieved; the accounting invariant becomes
        ``pruned + retrievals + quarantined == database_size``.
    degraded:
        ``True`` when this answer is best-effort: at least one member
        was quarantined mid-query or the candidate generator failed and
        the engine fell back to a linear scan.  A non-degraded result
        is exact; a degraded one is exact over every readable member
        (see ``docs/RESILIENCE.md``).
    quarantined_ids:
        The quarantined members this query skipped, for the caller's
        report.
    skipped_approx:
        Candidates an opt-in :class:`~repro.engine.ApproxPolicy` skipped
        inside the ε slack or left unrefined at a patience stop —
        neither pruned (exact search might have examined them) nor
        retrieved.  Always 0 for an exact policy; the invariant becomes
        ``pruned + retrievals + quarantined + skipped_approx ==
        database_size``.  Quarantined members keep their own bucket even
        when a slack skip would also have applied (docs/APPROX.md).
    approximate:
        ``True`` when a non-exact policy was in effect for this query —
        whether or not it actually changed anything.  An exact answer
        always carries ``False``.
    stopped_early:
        ``True`` when patience ran out and refinement stopped before
        its exact termination point (a subset of ``approximate``).
    """

    full_retrievals: int = 0
    bound_computations: int = 0
    nodes_visited: int = 0
    subtrees_pruned: int = 0
    candidates_pruned: int = 0
    early_abandons: int = 0
    candidates_after_traversal: int = 0
    candidates_after_sub_filter: int = 0
    quarantined: int = 0
    degraded: bool = False
    quarantined_ids: tuple[int, ...] = ()
    skipped_approx: int = 0
    approximate: bool = False
    stopped_early: bool = False

    def fraction_examined(self, database_size: int) -> float:
        """Fraction of the database compared uncompressed (fig. 22 metric)."""
        if database_size <= 0:
            raise ValueError("database_size must be positive")
        return self.full_retrievals / database_size

    def prune_ratio(self) -> float:
        """Fraction of considered members never compared exactly."""
        considered = self.candidates_pruned + self.full_retrievals
        if considered == 0:
            return 0.0
        return self.candidates_pruned / considered

    def note_quarantined(self, seq_id: int) -> None:
        """Book one member skipped as quarantined; the answer is degraded."""
        self.quarantined += 1
        self.degraded = True
        self.quarantined_ids += (seq_id,)

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another query's counters into this one."""
        for spec in fields(self):
            current = getattr(self, spec.name)
            if isinstance(current, bool):
                # Flags (degraded, approximate, stopped_early) describe
                # the whole merged answer: any part sets the whole.
                setattr(self, spec.name, current or getattr(other, spec.name))
            elif spec.name == "quarantined_ids":
                self.quarantined_ids = self.quarantined_ids + tuple(
                    i for i in other.quarantined_ids
                    if i not in self.quarantined_ids
                )
            else:
                setattr(
                    self,
                    spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name),
                )

    def publish(self, prefix: str) -> None:
        """Add these counters to the active metrics registry, if any.

        Counter names are ``{prefix}.{field}`` plus ``{prefix}.queries``
        (and ``{prefix}.degraded_queries`` for degraded answers); the
        indexes call this once per search with prefixes like
        ``index.vptree.search`` (see ``docs/OBSERVABILITY.md``).  A no-op
        when observability is disabled.
        """
        if not obs.is_enabled():
            return
        obs.add(f"{prefix}.queries")
        if self.degraded:
            obs.add(f"{prefix}.degraded_queries")
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, int) and not isinstance(value, bool):
                obs.add(f"{prefix}.{spec.name}", value)
