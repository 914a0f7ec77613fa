"""The hot-read sequence cache: LRU semantics, budgets, counters.

The cache stores *raw checksummed records*, one per frame of the
store's record size, in front of the page store's reader, bounded by a
byte budget (``cache_bytes`` or the ``REPRO_CACHE_BYTES`` environment
variable).  These tests pin its contract: hits return the same data as
disk, the budget is enforced by least-recently-used eviction, counters
balance (``hits + misses`` equals the read calls that consulted the
cache), and stores with caching disabled behave exactly as before.
"""

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage import SequenceCache, SequencePageStore, cache_budget_from_env
from repro.storage.cache import CACHE_BYTES_ENV


def _store(tmp_path, rows=8, length=64, **kwargs):
    store = SequencePageStore(str(tmp_path / "c.pages"), length, **kwargs)
    matrix = np.random.default_rng(1).normal(size=(rows, length))
    store.append_matrix(matrix)
    return store, matrix


class TestSequenceCache:
    def test_lru_eviction_under_byte_budget(self):
        cache = SequenceCache(budget_bytes=30, record_bytes=10)
        cache.put(0, b"x" * 10)
        cache.put(1, b"y" * 10)
        cache.put(2, b"z" * 10)
        assert len(cache) == 3 and cache.current_bytes == 30
        cache.get(0)  # refresh 0; 1 becomes least recent
        cache.put(3, b"w" * 10)
        assert 1 not in cache and {0, 2, 3} <= {i for i, _ in cache.items()}
        assert cache.evictions == 1

    def test_oversized_block_never_cached(self):
        cache = SequenceCache(budget_bytes=8, record_bytes=12)
        cache.put(0, b"toolongtofit")
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_put_replaces_stale_entry(self):
        cache = SequenceCache(budget_bytes=64, record_bytes=10)
        cache.put(0, b"a" * 10)
        cache.put(0, b"b" * 10)
        assert cache.current_bytes == 10
        assert cache.get(0).tobytes() == b"b" * 10
        with pytest.raises(StorageError):
            cache.put(1, b"c" * 20)

    def test_invalidate_and_clear_count(self):
        cache = SequenceCache(budget_bytes=64, record_bytes=1)
        cache.put(0, b"a")
        cache.put(1, b"b")
        assert cache.invalidate(0) and not cache.invalidate(0)
        cache.clear()
        assert cache.invalidations == 2 and len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(StorageError):
            SequenceCache(-1, record_bytes=1)


class TestStoreIntegration:
    def test_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_BYTES_ENV, raising=False)
        store, _ = _store(tmp_path)
        assert store.cache is None
        store.close()

    def test_env_budget_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_BYTES_ENV, "1048576")
        assert cache_budget_from_env() == 1048576
        store, _ = _store(tmp_path)
        assert store.cache is not None
        store.close()

    @pytest.mark.parametrize("raw", ["not-a-number", "-5"])
    def test_env_budget_invalid(self, monkeypatch, raw):
        monkeypatch.setenv(CACHE_BYTES_ENV, raw)
        with pytest.raises(StorageError):
            cache_budget_from_env()

    def test_hits_serve_identical_data(self, tmp_path):
        store, matrix = _store(tmp_path, cache_bytes=1 << 20)
        with store:
            first = store.read(3)
            again = store.read(3)
            np.testing.assert_array_equal(first, matrix[3])
            np.testing.assert_array_equal(again, matrix[3])
            assert store.cache.hits == 1 and store.cache.misses == 1

    def test_counters_balance_with_read_calls(self, tmp_path):
        store, _ = _store(tmp_path, cache_bytes=1 << 20)
        with store:
            store.stats.reset()
            ids = [0, 1, 0, 2, 1, 0, 5, 5]
            for seq_id in ids:
                store.read(seq_id)
            cache = store.cache
            assert cache.hits + cache.misses == store.stats.read_calls
            assert cache.hits == 4 and cache.misses == 4
            # Hits touch no pages: only the 4 misses paid disk I/O.
            assert store.stats.pages_read == 4 * store.pages_per_sequence

    def test_read_many_goes_through_cache(self, tmp_path):
        store, matrix = _store(tmp_path, cache_bytes=1 << 20)
        with store:
            np.testing.assert_array_equal(
                store.read_many([2, 4]), matrix[[2, 4]]
            )
            np.testing.assert_array_equal(
                store.read_many([2, 4]), matrix[[2, 4]]
            )
            assert store.cache.hits == 2

    def test_tiny_budget_still_correct(self, tmp_path):
        """A budget below one block caches nothing but stays correct."""
        store, matrix = _store(tmp_path, cache_bytes=16)
        with store:
            for _ in range(3):
                np.testing.assert_array_equal(store.read(0), matrix[0])
            assert store.cache.hits == 0 and len(store.cache) == 0

    def test_reopen_carries_explicit_budget(self, tmp_path):
        store, matrix = _store(tmp_path, cache_bytes=1 << 20)
        store.close()
        with SequencePageStore.open(
            str(tmp_path / "c.pages"), cache_bytes=1 << 20
        ) as reopened:
            np.testing.assert_array_equal(reopened.read(1), matrix[1])
            reopened.read(1)
            assert reopened.cache.hits == 1

    def test_scrub_never_reads_from_cache(self, tmp_path):
        store, _ = _store(tmp_path, cache_bytes=1 << 20)
        with store:
            for seq_id in range(len(store)):
                store.read(seq_id)  # populate
            hits_before = store.cache.hits
            assert store.scrub() == ()
            # scrub read every sequence without a single cache hit
            assert store.cache.hits == hits_before
