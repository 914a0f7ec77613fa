"""Storage substrate: the disk-backed sequence store and its cache."""

from repro.storage.cache import SequenceCache, cache_budget_from_env
from repro.storage.pagestore import (
    FSYNC_ENV,
    IOStats,
    MemorySequenceStore,
    SequencePageStore,
    fsync_enabled_from_env,
)

__all__ = [
    "FSYNC_ENV",
    "IOStats",
    "fsync_enabled_from_env",
    "SequenceCache",
    "cache_budget_from_env",
    "MemorySequenceStore",
    "SequencePageStore",
]
