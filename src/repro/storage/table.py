"""A miniature relational table with secondary B-tree indexes.

This is the DBMS substrate for section 6 of the paper: burst triplets are
stored as rows ``[sequenceID, startDate, endDate, averageValue]`` and the
query-by-burst search runs the fig. 18 plan

.. code-block:: sql

    SELECT * FROM bursts
    WHERE bursts.startDate < :q_end AND bursts.endDate > :q_start

through a B-tree index.  The table supports:

* ``insert`` of positional or keyword rows, returning a row id,
* secondary indexes on any column (``create_index``), maintained on insert
  and delete,
* ``select`` with a conjunction of column/constant comparisons; a simple
  planner takes the first indexed column a predicate names, merges every
  range / point predicate on it into one bounded B-tree probe, and tests
  the remaining predicates on the raw tuples before a ``Row`` exists,
* ``delete`` by row id.

It is intentionally small — enough to be a real access-path substrate for
the experiments without growing into a SQL engine.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro import obs
from repro.exceptions import KeyNotFoundError, SchemaError
from repro.storage.btree import BPlusTree

__all__ = ["Predicate", "Row", "Table", "eq", "lt", "le", "gt", "ge"]


@dataclass(frozen=True)
class Predicate:
    """A single comparison ``column <op> value``.

    ``op`` is one of ``"==", "<", "<=", ">", ">="``.
    """

    column: str
    op: str
    value: Any

    def matches(self, cell: Any) -> bool:
        return _TESTS[self.op](cell, self.value)


_TESTS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def eq(column: str, value) -> Predicate:
    """``column == value``."""
    return Predicate(column, "==", value)


def lt(column: str, value) -> Predicate:
    """``column < value``."""
    return Predicate(column, "<", value)


def le(column: str, value) -> Predicate:
    """``column <= value``."""
    return Predicate(column, "<=", value)


def gt(column: str, value) -> Predicate:
    """``column > value``."""
    return Predicate(column, ">", value)


def ge(column: str, value) -> Predicate:
    """``column >= value``."""
    return Predicate(column, ">=", value)


@dataclass(frozen=True)
class Row:
    """A materialised row: its id plus a column-name -> value mapping."""

    row_id: int
    data: dict[str, Any]

    def __getitem__(self, column: str):
        try:
            return self.data[column]
        except KeyError:
            raise SchemaError(f"row has no column {column!r}") from None


class Table:
    """An append-oriented heap of rows with optional secondary indexes."""

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column names in {list(columns)}")
        if not columns:
            raise SchemaError("a table needs at least one column")
        self.name = name
        self.columns = tuple(columns)
        self._rows: dict[int, tuple] = {}
        self._indexes: dict[str, BPlusTree] = {}
        self._next_row_id = 0
        # Planner bookkeeping: how many index probes vs full scans ran,
        # and how many rows they handed to the filters.
        self.scan_count = 0
        self.index_probe_count = 0
        self.rows_examined = 0

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def _column_position(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise SchemaError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def create_index(self, column: str) -> None:
        """Create (and backfill) a B-tree index on ``column``."""
        position = self._column_position(column)
        if column in self._indexes:
            return
        index = BPlusTree()
        for row_id, row in self._rows.items():
            self._index_add(index, row[position], row_id)
        self._indexes[column] = index

    @property
    def indexed_columns(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    @staticmethod
    def _index_add(index: BPlusTree, key, row_id: int) -> None:
        bucket = index.get(key)
        if bucket is None:
            index.insert(key, [row_id])
        else:
            bucket.append(row_id)

    @staticmethod
    def _index_remove(index: BPlusTree, key, row_id: int) -> None:
        bucket = index[key]
        bucket.remove(row_id)
        if not bucket:
            index.delete(key)

    def insert(self, *positional, **named) -> int:
        """Insert a row given positionally or by column name; returns row id."""
        if positional and named:
            raise SchemaError("pass the row positionally or by name, not both")
        if positional:
            if len(positional) != len(self.columns):
                raise SchemaError(
                    f"expected {len(self.columns)} values, got {len(positional)}"
                )
            row = tuple(positional)
        else:
            missing = set(self.columns) - set(named)
            extra = set(named) - set(self.columns)
            if missing or extra:
                raise SchemaError(
                    f"bad columns: missing {sorted(missing)}, extra {sorted(extra)}"
                )
            row = tuple(named[column] for column in self.columns)

        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = row
        for column, index in self._indexes.items():
            self._index_add(index, row[self._column_position(column)], row_id)
        return row_id

    def delete(self, row_id: int) -> None:
        """Delete a row by id, maintaining all indexes."""
        try:
            row = self._rows.pop(row_id)
        except KeyError:
            raise KeyNotFoundError(row_id) from None
        for column, index in self._indexes.items():
            self._index_remove(index, row[self._column_position(column)], row_id)

    def update(self, row_id: int, **changes) -> None:
        """Update named columns of a row, maintaining all indexes."""
        try:
            old = self._rows[row_id]
        except KeyError:
            raise KeyNotFoundError(row_id) from None
        extra = set(changes) - set(self.columns)
        if extra:
            raise SchemaError(f"unknown columns in update: {sorted(extra)}")
        new = tuple(
            changes.get(column, old[position])
            for position, column in enumerate(self.columns)
        )
        for column, index in self._indexes.items():
            position = self._column_position(column)
            if old[position] != new[position]:
                self._index_remove(index, old[position], row_id)
                self._index_add(index, new[position], row_id)
        self._rows[row_id] = new

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def row(self, row_id: int) -> Row:
        try:
            raw = self._rows[row_id]
        except KeyError:
            raise KeyNotFoundError(row_id) from None
        return Row(row_id, dict(zip(self.columns, raw)))

    def all_rows(self) -> Iterator[Row]:
        for row_id in self._rows:
            yield self.row(row_id)

    def select(self, predicates: Iterable[Predicate] = ()) -> list[Row]:
        """Rows satisfying every predicate (a conjunction), in index order.

        Access-path choice: the first indexed column a predicate names;
        every predicate on that column is merged into one bounded B-tree
        range probe.  The rest are tested on the raw tuples, so a ``Row``
        is built only for rows that pass.  Without an indexed predicate
        the whole heap is scanned.
        """
        predicates = list(predicates)
        tests = [  # resolved once per call; validates schema and operators
            (self._column_position(p.column), _TESTS[p.op], p.value)
            for p in predicates
        ]
        access = self._pick_access_path(predicates)
        if not access:
            self.scan_count += 1
            row_ids = list(self._rows)
        else:
            self.index_probe_count += 1
            row_ids = self._probe_index(access)
        filters = [t for t, p in zip(tests, predicates) if p not in access]

        self.rows_examined += len(row_ids)
        obs.add("storage.table.rows_examined", len(row_ids))
        rows = self._rows
        for position, test, value in filters:
            row_ids = [i for i in row_ids if test(rows[i][position], value)]
        return [Row(i, dict(zip(self.columns, rows[i]))) for i in row_ids]

    def _pick_access_path(
        self, predicates: list[Predicate]
    ) -> list[Predicate]:
        """Every predicate on the first indexed column one of them names."""
        for predicate in predicates:
            if predicate.column in self._indexes:
                return [p for p in predicates if p.column == predicate.column]
        return []

    def _probe_index(self, predicates: list[Predicate]) -> list[int]:
        """Row ids, in index order, inside the predicates' merged bounds.

        The tightest bound on each side wins and keeps its strictness
        (``==`` bounds both sides); contradictory bounds touch no leaf.
        """
        low = high = None
        low_closed = high_closed = True
        for predicate in predicates:
            op, value = predicate.op, predicate.value
            if op in ("==", ">", ">=") and (
                low is None or value > low or (value == low and op == ">")
            ):
                low, low_closed = value, op != ">"
            if op in ("==", "<", "<=") and (
                high is None or value < high or (value == high and op == "<")
            ):
                high, high_closed = value, op != "<"
        if low is not None and high is not None and (
            low > high or (low == high and not (low_closed and high_closed))
        ):
            return []
        pairs = self._indexes[predicates[0].column].range(
            low, high, inclusive=(low_closed, high_closed)
        )
        return [row_id for _, bucket in pairs for row_id in bucket]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.name!r}, columns={self.columns}, rows={len(self)})"
        )
