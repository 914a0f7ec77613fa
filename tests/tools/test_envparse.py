"""The shared environment-knob parser: loud, typed, variable-naming.

Every numeric ``REPRO_*`` knob goes through one helper
(:mod:`repro.tools.envparse`), so a mistyped value fails the same way
everywhere: a typed error that names the variable and echoes the raw
value, never a silent fall-through to the default.
"""

import pytest

from repro.exceptions import ReproError, StorageError
from repro.tools import parse_env_int

VAR = "REPRO_TEST_KNOB"


class TestParseEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(VAR, raising=False)
        assert parse_env_int(VAR, 7) == 7

    def test_blank_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv(VAR, "   ")
        assert parse_env_int(VAR, 7) == 7

    def test_set_value_parses(self, monkeypatch):
        monkeypatch.setenv(VAR, " 42 ")
        assert parse_env_int(VAR, 7) == 42

    def test_junk_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(VAR, "not-a-number")
        with pytest.raises(ReproError, match=VAR) as excinfo:
            parse_env_int(VAR, 7)
        assert "not-a-number" in str(excinfo.value)

    def test_float_is_not_an_int(self, monkeypatch):
        monkeypatch.setenv(VAR, "3.5")
        with pytest.raises(ReproError, match=VAR):
            parse_env_int(VAR, 7)

    def test_minimum_enforced(self, monkeypatch):
        monkeypatch.setenv(VAR, "0")
        with pytest.raises(ReproError, match=VAR):
            parse_env_int(VAR, 7, minimum=1)
        assert parse_env_int(VAR, 7, minimum=0) == 0

    def test_custom_error_type(self, monkeypatch):
        monkeypatch.setenv(VAR, "junk")
        with pytest.raises(StorageError, match=VAR):
            parse_env_int(VAR, 7, error=StorageError)


class TestKnobsAreWired:
    """The real knobs route through the shared parser (loud on junk)."""

    def test_verify_block(self, monkeypatch):
        from repro.engine.core import verify_block_size

        monkeypatch.setenv("REPRO_VERIFY_BLOCK", "huge")
        with pytest.raises(ReproError, match="REPRO_VERIFY_BLOCK"):
            verify_block_size()

    def test_shards(self, monkeypatch):
        from repro.cluster.build import default_shard_count

        monkeypatch.setenv("REPRO_SHARDS", "many")
        with pytest.raises(ReproError, match="REPRO_SHARDS"):
            default_shard_count()
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.raises(ReproError, match="REPRO_SHARDS"):
            default_shard_count()

    def test_shard_workers(self, monkeypatch):
        from repro.cluster.build import default_worker_pool

        monkeypatch.setenv("REPRO_SHARD_WORKERS", "yes")
        with pytest.raises(ReproError, match="REPRO_SHARD_WORKERS"):
            default_worker_pool()

    def test_pool_start_method(self, monkeypatch):
        from repro.cluster.pool import default_start_method

        monkeypatch.setenv("REPRO_POOL_START_METHOD", "threads")
        with pytest.raises(ReproError, match="REPRO_POOL_START_METHOD.*spawn"):
            default_start_method()

    def test_cache_bytes_keeps_storage_error(self, monkeypatch):
        from repro.storage.cache import cache_budget_from_env

        monkeypatch.setenv("REPRO_CACHE_BYTES", "a-lot")
        with pytest.raises(StorageError, match="REPRO_CACHE_BYTES"):
            cache_budget_from_env()
