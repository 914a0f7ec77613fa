"""What every index structure shares: its rows, their names, their store.

The six structures differ only in how they generate candidates; the
engine (:mod:`repro.engine.core`) verifies them all the same way.
:class:`IndexBase` holds the rest of the engine surface once — the
validated database shape, the names, the verification store and the
``search`` / ``range_search`` entry points — so a backend writes its
constructor knobs, ``knn_candidates`` and ``range_candidates`` and
nothing else.  :class:`CodedIndexBase` adds the resident
:class:`~repro.compression.codes.RowCodes` the engine's row-code stage
bounds candidates with, the in-memory store default and the one row
append that dynamic inserts share; ``flat`` is that and nothing more.
:class:`SketchIndexBase` adds what the two trees share: the one pass
that bounds a query against every row, with a sketch kernel over a
packed :class:`~repro.compression.database.SketchDatabase` or with the
row codes' own kernel, both as sound squared bounds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bounds.batch import BatchBounds, get_batch_kernel
from repro.compression.best_k import BestMinErrorCompressor
from repro.compression.codes import RowCodes
from repro.compression.database import SketchDatabase
from repro.engine.core import execute_knn, execute_range
from repro.exceptions import SeriesMismatchError
from repro.index.results import Neighbor, SearchStats
from repro.index.walk import BoundedWalk, code_margin
from repro.spectral.dft import Spectrum
from repro.storage.pagestore import MemorySequenceStore
from repro.timeseries.preprocessing import as_float_array

__all__ = ["CodedIndexBase", "IndexBase", "SketchIndexBase", "as_database"]

def as_database(
    matrix, names: Sequence[str] | None = None
) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """A ``(count, n)`` float matrix and its row names, checked to align."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise SeriesMismatchError(
            f"expected a 2-D database matrix, got shape {matrix.shape}"
        )
    if names is not None and len(names) != len(matrix):
        raise SeriesMismatchError("names must align with the matrix rows")
    return matrix, tuple(names) if names is not None else None


class IndexBase:
    """The engine surface every structure shares.

    ``store`` is the sequence store the verifier reads.  An empty store
    is filled from the matrix; a non-empty one must already hold exactly
    the matrix's rows.  Without a store (:meth:`_default_store` returns
    ``None``) the verifier reads the retained matrix rows.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        names: Sequence[str] | None = None,
        store=None,
    ) -> None:
        self._matrix, self._names = as_database(matrix, names)
        self._count, self._n = (int(d) for d in self._matrix.shape)
        if store is None:
            store = self._default_store()
        if store is not None:
            if len(store) == 0:
                store.append_matrix(self._matrix)
            elif len(store) != self._count:
                raise SeriesMismatchError(
                    f"the store holds {len(store)} sequences but the "
                    f"matrix has {self._count} rows"
                )
        self._store = store

    def _default_store(self):
        return None

    def __len__(self) -> int:
        return self._count

    @property
    def sequence_length(self) -> int:
        return self._n

    @property
    def store(self):
        return self._store

    def result_name(self, seq_id: int) -> str | None:
        return self._names[seq_id] if self._names is not None else None

    def fetch(self, seq_id: int) -> np.ndarray:
        if self._store is not None:
            return self._store.read(seq_id)
        return self._matrix[seq_id]

    def search(
        self, query, k: int = 1, policy=None
    ) -> tuple[list[Neighbor], SearchStats]:
        """The ``k`` nearest neighbours of an uncompressed query."""
        return execute_knn(self, query, k, policy)

    def range_search(
        self, query, radius: float, policy=None
    ) -> tuple[list[Neighbor], SearchStats]:
        """All sequences within ``radius`` of the query."""
        return execute_range(self, query, radius, policy)


class CodedIndexBase(IndexBase):
    """An index with resident row codes, verified from a store.

    The store defaults to an in-memory one built from the matrix; the
    codes come from ``row_codes`` (prebuilt, row-aligned) or from
    quantising the matrix.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        names: Sequence[str] | None = None,
        store=None,
        row_codes: RowCodes | None = None,
    ) -> None:
        super().__init__(matrix, names, store)
        if row_codes is None:
            row_codes = RowCodes.from_matrix(self._matrix)
        elif len(row_codes) != self._count:
            raise SeriesMismatchError(
                "row_codes rows must align with the matrix rows"
            )
        self._row_codes = row_codes

    @property
    def row_codes(self) -> RowCodes:
        """The resident 8-bit codes of every row (the engine's code stage)."""
        return self._row_codes

    def _default_store(self):
        return MemorySequenceStore(self._n)

    def _append(self, values, name: str | None) -> int:
        """Append one row to the store, the codes and the names;
        returns its sequence id."""
        values = as_float_array(values)
        if values.size != self._n:
            raise SeriesMismatchError(
                f"sequence length {values.size} does not match the index "
                f"length {self._n}"
            )
        seq_id = self._store.append(values)
        self._row_codes = self._row_codes.appended(values)
        if self._names is not None:
            self._names = (*self._names, name or f"inserted-{seq_id}")
        self._count += 1
        return seq_id


class SketchIndexBase(CodedIndexBase):
    """A coded index walked on one pass of sound squared bounds: its row
    codes', or, given a compressor or a ``bound_method``, a sketch kernel's
    (by default the ``"best_min_error_safe"`` envelope).

    The raw matrix stays in ``_matrix`` only for a subclass's build;
    every subclass drops it afterwards.
    """

    #: BestMinError sketches with ``k=14`` best coefficients, the paper's
    #: middle configuration.  Compressors are stateless, so one is shared.
    DEFAULT_COMPRESSOR = BestMinErrorCompressor(14)

    def __init__(
        self,
        matrix: np.ndarray,
        compressor=None,
        names: Sequence[str] | None = None,
        store=None,
        bound_method: str | None = None,
    ) -> None:
        super().__init__(matrix, names, store)
        self._kernel = self._sketch_db = self._compressor = None
        self.bound_method = bound_method
        if compressor is None and bound_method is None:
            return
        self._compressor = compressor or self.DEFAULT_COMPRESSOR
        self.bound_method = bound_method or "best_min_error_safe"
        self._kernel = get_batch_kernel(self.bound_method)
        # Batched compression, bit-identical to compressing per row.
        self._sketch_db = SketchDatabase.from_matrix(
            self._matrix, self._compressor
        )

    @property
    def code_walked(self) -> bool:
        """Whether the walk bounds with the codes (the code stage skips)."""
        return self._sketch_db is None

    def _begin_walk(self, query, stats, k=None, deleted=frozenset()):
        """The query's :class:`BoundedWalk` over one pass of its bounds."""
        if self._sketch_db is None:
            bounds = self._row_codes.bounds_sq(query)
        else:
            batch = BatchBounds(Spectrum.from_series(query))
            bounds = batch.bounds_sq(self._kernel, self._sketch_db)
        return BoundedWalk(*bounds, code_margin(self._n), stats, k, deleted)
