"""The customised vantage-point tree of section 4.

Construction follows the paper exactly:

* the tree is built with **exact** (uncompressed) distances — "by doing so,
  we obtain exact distances during the construction process";
* the vantage point of each node is the candidate with "the highest
  deviation of distances to the remaining objects" (sampled, for scale);
* points at distance ``<= median`` go left (:math:`S_\\le`), the rest go
  right (:math:`S_>`);
* after construction every vantage point and leaf object is replaced by
  its *compressed* representation, so the index is tiny.

Search is the two-phase algorithm of fig. 11, generalised from 1-NN to
k-NN:

1. **Traversal.**  One kernel pass bounds the full query against every
   compressed object (:mod:`repro.index.walk`); the depth-first walk
   reads LB/UB of each vantage point / leaf object it meets by sequence
   id and counts it in ``SearchStats.bound_computations``.  ``sigma_UB``
   — the k-th smallest upper bound met so far — drives the pruning
   rules: the right subtree is skipped when ``UB(Q, VP) < mu - sigma_UB``
   and the left when ``LB(Q, VP) > mu + sigma_UB``.  A *guided* heuristic
   visits first the child whose annulus overlap with ``[LB, UB]`` is
   larger.
2. **Verification.**  Candidates with ``LB > SUB`` (smallest k-th upper
   bound) are discarded; the rest are fetched uncompressed from the
   sequence store in increasing-LB order and compared exactly with early
   abandoning, stopping as soon as the next LB exceeds the best k-th
   distance found.

Exactness note: with ``bound_method="best_min_error"`` the index uses the
paper's published bounds, which are unsound in rare corner cases (see
:mod:`repro.bounds.best_min_error`) and may then return a near-neighbour
instead of the exact one.  ``bound_method="best_min_error_safe"`` (the
default) uses the provably sound envelope and always returns exact
results — the test suite checks this against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bounds.batch import get_batch_kernel
from repro.compression.codes import RowCodes
from repro.compression.database import SketchDatabase
from repro.engine.core import RANGE_SLACK as _RANGE_SLACK, CandidateSet
from repro.exceptions import SeriesMismatchError
from repro.index.base import IndexBase, SketchIndexBase
from repro.index.distance import distances_to_query
from repro.index.results import SearchStats
from repro.index.walk import BoundedWalk
from repro.spectral.dft import Spectrum
from repro.storage.pagestore import MemorySequenceStore, SequencePageStore
from repro.timeseries.preprocessing import as_float_array

__all__ = ["VPTreeIndex"]


@dataclass
class _LeafNode:
    rows: np.ndarray  # database row ids held by this leaf


@dataclass
class _InternalNode:
    vantage_id: int
    median: float
    left: "_InternalNode | _LeafNode"
    right: "_InternalNode | _LeafNode"


class VPTreeIndex(SketchIndexBase):
    """A VP-tree over compressed sequence representations.

    Parameters
    ----------
    matrix:
        Database as a ``(count, n)`` matrix of (ideally standardised)
        sequences.  Used with exact distances during construction only.
    compressor:
        Any compressor from :mod:`repro.compression`; defaults to
        BestMinError sketches with ``k=14`` best coefficients (the paper's
        middle configuration).
    names:
        Optional per-sequence names attached to results.
    store:
        Sequence store used by the verification phase.  Defaults to an
        in-memory store built from ``matrix``; pass a
        :class:`repro.storage.SequencePageStore` to model the on-disk
        configuration of fig. 23.
    bound_method:
        Bound algorithm name (see :mod:`repro.bounds.registry`).  ``None``
        uses the compressor's own method; the constructor default is the
        sound ``"best_min_error_safe"`` envelope.
    leaf_size:
        Maximum number of objects in a leaf.
    vantage_candidates / vantage_sample:
        The vantage heuristic examines up to ``vantage_candidates`` random
        candidates, estimating each one's distance spread against up to
        ``vantage_sample`` members of the subset.
    guided:
        Enable the "most promising child first" traversal heuristic.
    seed:
        Seed for the sampling randomness, for reproducible builds.

    This class only *generates* candidates (the compressed-domain
    traversal of fig. 11); exact verification runs in the shared engine
    core (:mod:`repro.engine.core`).
    """

    obs_name = "index.vptree"

    def __init__(
        self,
        matrix: np.ndarray,
        compressor=None,
        names: Sequence[str] | None = None,
        store=None,
        bound_method: str | None = "best_min_error_safe",
        leaf_size: int = 16,
        vantage_candidates: int = 8,
        vantage_sample: int = 64,
        guided: bool = True,
        seed: int = 0,
    ) -> None:
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if vantage_candidates < 1 or vantage_sample < 2:
            raise ValueError("vantage sampling parameters out of range")
        super().__init__(matrix, compressor, names, store, bound_method)
        self._leaf_size = leaf_size
        self._vantage_candidates = vantage_candidates
        self._vantage_sample = vantage_sample
        self._guided = guided
        self._rng = np.random.default_rng(seed)
        self._deleted: set[int] = set()
        self._root = self._build(np.arange(self._count), self._matrix)
        # Construction is the only phase that holds all raw rows; drop them
        # so the index's memory footprint is the compressed features only.
        self._matrix = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live (non-deleted) sequences in the index."""
        return self._count - len(self._deleted)

    def _select_vantage(self, rows: np.ndarray) -> int:
        """Row index (into ``rows``) of the highest-distance-spread candidate."""
        count = len(rows)
        candidate_count = min(self._vantage_candidates, count)
        candidates = self._rng.choice(count, candidate_count, replace=False)
        sample_count = min(self._vantage_sample, count)
        sample = self._rng.choice(count, sample_count, replace=False)
        sample_rows = rows[sample]

        best_pos, best_spread = int(candidates[0]), -1.0
        for pos in candidates:
            distances = distances_to_query(sample_rows, rows[pos])
            spread = float(distances.std())
            if spread > best_spread:
                best_pos, best_spread = int(pos), spread
        return best_pos

    def _build(self, ids: np.ndarray, rows: np.ndarray):
        """Build a subtree over ``ids``, whose raw data is ``rows`` (aligned)."""
        if ids.size <= self._leaf_size:
            return _LeafNode(rows=ids.copy())
        vantage_pos = self._select_vantage(rows)
        vantage_id = int(ids[vantage_pos])
        rest_ids = np.delete(ids, vantage_pos)
        rest_rows = np.delete(rows, vantage_pos, axis=0)
        distances = distances_to_query(rest_rows, rows[vantage_pos])
        median = float(np.median(distances))
        left_mask = distances <= median
        # A degenerate split (all points at the same distance) would recurse
        # forever; fall back to an even split by distance rank.
        if left_mask.all() or not left_mask.any():
            order = np.argsort(distances, kind="stable")
            half = rest_ids.size // 2
            left_mask = np.zeros(rest_ids.size, dtype=bool)
            left_mask[order[:half]] = True
        return _InternalNode(
            vantage_id=vantage_id,
            median=median,
            left=self._build(rest_ids[left_mask], rest_rows[left_mask]),
            right=self._build(rest_ids[~left_mask], rest_rows[~left_mask]),
        )

    # ------------------------------------------------------------------
    # Dynamic maintenance (the extension section 4.1 alludes to)
    # ------------------------------------------------------------------
    def insert(self, values, name: str | None = None) -> int:
        """Add a sequence to a built index; returns its sequence id.

        The new point is routed by exact distances to the vantage points
        (read uncompressed from the store), appended to the reached leaf,
        and the leaf is rebuilt into a subtree once it outgrows
        ``4 * leaf_size`` — keeping searches exact at a small amortised
        maintenance cost.  Routing and rebuilds read sequences through the
        store, so their I/O is visible in ``store.stats``.
        """
        if self._compressor is None:
            raise SeriesMismatchError(
                "a loaded index is search-only: its compressor "
                "configuration is not serialised; rebuild to insert"
            )
        values = as_float_array(values)
        seq_id = self._append(values, name)
        self._sketch_db = self._sketch_db.appended(
            self._compressor.compress(Spectrum.from_series(values))
        )

        node = self._root
        parent, went_left = None, False
        while isinstance(node, _InternalNode):
            vantage = self._store.read(node.vantage_id)
            distance = float(np.linalg.norm(values - vantage))
            parent, went_left = node, distance <= node.median
            node = node.left if went_left else node.right
        node.rows = np.append(node.rows, seq_id)

        if node.rows.size > 4 * self._leaf_size:
            live = np.array(
                [i for i in node.rows if i not in self._deleted], dtype=np.intp
            )
            rows = np.stack([self._store.read(int(i)) for i in live])
            rebuilt = self._build(live, rows)
            if parent is None:
                self._root = rebuilt
            elif went_left:
                parent.left = rebuilt
            else:
                parent.right = rebuilt
        return seq_id

    def remove(self, seq_id: int) -> None:
        """Logically delete a sequence.

        Tombstoned points stop appearing in results; a tombstoned vantage
        point keeps routing (its distances remain valid) but is excluded
        from candidate sets, the classic lazy-deletion scheme.
        """
        if not 0 <= seq_id < self._count or seq_id in self._deleted:
            raise SeriesMismatchError(
                f"sequence id {seq_id} is not a live index member"
            )
        self._deleted.add(seq_id)

    # ------------------------------------------------------------------
    # Candidate generation (the engine owns verification)
    # ------------------------------------------------------------------
    def knn_candidates(
        self, query: np.ndarray, k: int, stats: SearchStats
    ) -> CandidateSet:
        """Fig. 11 traversal over the query's precomputed bounds.

        ``sigma`` — the k-th smallest upper bound among the objects met so
        far — drives the subtree pruning rules; the engine applies the
        final SUB filter and verifies the survivors.
        """
        walk = BoundedWalk(*self._bounds(query), stats, k, self._deleted)
        self._knn_walk(self._root, walk)
        return walk.knn_result()

    def _knn_walk(self, node, walk: BoundedWalk) -> None:
        # A method, not a closure calling itself: that would be a reference
        # cycle holding the query's bound lists until a cyclic collection.
        stats = walk.stats
        stats.nodes_visited += 1
        if isinstance(node, _LeafNode):
            walk.examine(node.rows.tolist())
            return
        walk.examine((node.vantage_id,))
        lower = walk.lower[node.vantage_id]
        upper = walk.upper[node.vantage_id]
        sigma = walk.sigma
        visit_left = lower <= node.median + sigma
        visit_right = upper >= node.median - sigma
        if not visit_left and not visit_right:
            # The annulus excludes both only through rounding; fall
            # back to the side the bounds point at.
            visit_left = True
        order = []
        if visit_left:
            order.append(node.left)
        if visit_right:
            order.append(node.right)
        stats.subtrees_pruned += 2 - len(order)
        if len(order) == 2 and self._guided:
            # Guided traversal: larger annulus overlap first.
            left_overlap = min(upper, node.median) - lower
            right_overlap = upper - max(lower, node.median)
            if right_overlap > left_overlap:
                order.reverse()
        for child in order:
            self._knn_walk(child, walk)

    def range_candidates(
        self, query: np.ndarray, radius: float, stats: SearchStats
    ) -> CandidateSet:
        """Fixed-radius specialisation of the k-NN pruning rules.

        A subtree is skipped when every member is provably farther than
        ``radius``; a candidate whose lower bound exceeds ``radius`` is
        rejected without touching its uncompressed form.
        """
        walk = BoundedWalk(*self._bounds(query), stats, deleted=self._deleted)
        bound = radius + _RANGE_SLACK
        self._range_walk(self._root, walk, bound)
        return walk.range_result(bound)

    def _range_walk(self, node, walk: BoundedWalk, bound: float) -> None:
        walk.stats.nodes_visited += 1
        if isinstance(node, _LeafNode):
            walk.examine(node.rows.tolist())
            return
        walk.examine((node.vantage_id,))
        # For any R in the left subtree, D(Q,R) >= LB(Q,VP) - median;
        # for the right, D(Q,R) >= median - UB(Q,VP).
        if walk.lower[node.vantage_id] - node.median <= bound:
            self._range_walk(node.left, walk, bound)
        else:
            walk.stats.subtrees_pruned += 1
        if node.median - walk.upper[node.vantage_id] <= bound:
            self._range_walk(node.right, walk, bound)
        else:
            walk.stats.subtrees_pruned += 1

    # ``bench/trace.py`` wraps only methods in a class's own ``__dict__``,
    # so the engine entry points are bound here by name.
    search = IndexBase.search
    range_search = IndexBase.range_search

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialise the whole index to one ``.npz`` file.

        Saved state: the tree structure, the packed sketches, names,
        tombstones and configuration — plus the raw sequences when the
        verification store is in-memory.  A disk-backed
        :class:`~repro.storage.SequencePageStore` is *not* copied; its
        file path is recorded and reopened by :meth:`load`.
        """
        internals: list[tuple[int, float, int, int]] = []
        leaf_rows: list[np.ndarray] = []

        def flatten(node) -> int:
            """Return an encoded reference: >=0 internal, <0 leaf (-i-1)."""
            if isinstance(node, _LeafNode):
                leaf_rows.append(node.rows)
                return -len(leaf_rows)
            position = len(internals)
            internals.append((node.vantage_id, node.median, 0, 0))
            left_ref = flatten(node.left)
            right_ref = flatten(node.right)
            vantage_id, median, _, _ = internals[position]
            internals[position] = (vantage_id, median, left_ref, right_ref)
            return position

        root_ref = flatten(self._root)
        leaf_lengths = np.array([rows.size for rows in leaf_rows], dtype=np.intp)
        payload = {
            "internals": np.array(
                [(v, m, l, r) for v, m, l, r in internals], dtype=np.float64
            ).reshape(len(internals), 4),
            "leaf_values": (
                np.concatenate(leaf_rows)
                if leaf_rows
                else np.zeros(0, dtype=np.intp)
            ),
            "leaf_lengths": leaf_lengths,
            "root_ref": np.array([root_ref], dtype=np.int64),
            "deleted": np.array(sorted(self._deleted), dtype=np.intp),
            "names": np.array(
                list(self._names) if self._names is not None else [], dtype=str
            ),
            "config": np.array(
                [str(self._count), str(self._n), self.bound_method,
                 str(int(self._guided))],
                dtype=str,
            ),
            # Sketch database columns: the canonical SoA blocks (same
            # layout as SketchDatabase.save, incl. precomputed norms).
            **self._sketch_db.soa_blocks(),
            "sketch_meta": np.array(
                [str(self._sketch_db.n), self._sketch_db.basis,
                 self._sketch_db.method],
                dtype=str,
            ),
        }
        if isinstance(self._store, SequencePageStore):
            payload["store_path"] = np.array([self._store.path], dtype=str)
        else:
            payload["raw_rows"] = np.stack(
                [self._store.read(i) for i in range(len(self._store))]
            )
            self._store.stats.reset()  # the dump is not query I/O
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path) -> "VPTreeIndex":
        """Load an index previously written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as payload:
            index = object.__new__(cls)
            # A file written before ``guided`` was saved has three fields.
            count, n, bound_method, *guided = payload["config"].tolist()
            index._count = int(count)
            index._n = int(n)
            index.bound_method = bound_method
            index._kernel = get_batch_kernel(bound_method)
            index._deleted = set(int(i) for i in payload["deleted"])
            names = payload["names"]
            index._names = tuple(names.tolist()) if names.size else None
            index._guided = guided != ["0"]
            index._leaf_size = int(payload["leaf_lengths"].max(initial=1))
            index._vantage_candidates = 8
            index._vantage_sample = 64
            index._rng = np.random.default_rng(0)
            index._compressor = None  # unknown post-hoc; inserts disallowed

            sketch_n, basis, method = payload["sketch_meta"].tolist()
            db = SketchDatabase.from_soa(
                {f: payload[f] for f in SketchDatabase.SOA_FIELDS},
                n=int(sketch_n),
                basis=basis,
                method=method,
            )
            if "norms" in payload.files:
                db._norms_cache = np.ascontiguousarray(payload["norms"])
            index._sketch_db = db

            leaf_values = payload["leaf_values"].astype(np.intp)
            leaf_lengths = payload["leaf_lengths"].astype(np.intp)
            offsets = np.concatenate(([0], np.cumsum(leaf_lengths)))
            leaves = [
                _LeafNode(rows=leaf_values[lo:hi].copy())
                for lo, hi in zip(offsets, offsets[1:])
            ]
            internals_raw = payload["internals"]

            def rebuild(ref: int):
                if ref < 0:
                    return leaves[-ref - 1]
                vantage_id, median, left_ref, right_ref = internals_raw[ref]
                return _InternalNode(
                    vantage_id=int(vantage_id),
                    median=float(median),
                    left=rebuild(int(left_ref)),
                    right=rebuild(int(right_ref)),
                )

            index._root = rebuild(int(payload["root_ref"][0]))

            if "store_path" in payload:
                index._store = SequencePageStore.open(
                    str(payload["store_path"][0])
                )
                # The codes are not saved: quantise the stored rows.
                rows = index._store.read_many(
                    range(len(index._store)), cached=False
                )
                index._store.stats.reset()  # the rebuild is not query I/O
            else:
                rows = payload["raw_rows"]
                index._store = MemorySequenceStore(index._n)
                index._store.append_matrix(rows)
            index._row_codes = RowCodes.from_matrix(rows)
        return index

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Depth of the tree (a single leaf counts as height 1)."""

        def depth(node) -> int:
            if isinstance(node, _LeafNode):
                return 1
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self._root)

    def compressed_size_doubles(self) -> float:
        """Total storage of all sketches under the paper's accounting."""
        db = self._sketch_db
        return float(
            sum(db.sketch(i).storage_doubles() for i in range(len(db)))
        )
