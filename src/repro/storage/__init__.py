"""Relational/storage substrate: B+tree, table, disk-backed sequence store."""

from repro.storage.btree import BPlusTree
from repro.storage.cache import SequenceCache, cache_budget_from_env
from repro.storage.pagestore import (
    FSYNC_ENV,
    IOStats,
    MemorySequenceStore,
    SequencePageStore,
    fsync_enabled_from_env,
)
from repro.storage.table import Predicate, Row, Table, eq, ge, gt, le, lt

__all__ = [
    "BPlusTree",
    "FSYNC_ENV",
    "IOStats",
    "fsync_enabled_from_env",
    "SequenceCache",
    "cache_budget_from_env",
    "MemorySequenceStore",
    "SequencePageStore",
    "Predicate",
    "Row",
    "Table",
    "eq",
    "ge",
    "gt",
    "le",
    "lt",
]
