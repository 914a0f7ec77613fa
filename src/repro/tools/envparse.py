"""Shared parsing for the ``REPRO_*`` environment knobs.

Every numeric tunable the engine reads from the environment —
``REPRO_VERIFY_BLOCK``, ``REPRO_SHARDS``, ``REPRO_SHARD_WORKERS``,
``REPRO_CACHE_BYTES`` — goes through :func:`parse_env_int`, so a
typo'd value fails the same way everywhere: a
:class:`~repro.exceptions.ReproError` (or a caller-chosen subclass)
whose message names the variable, quotes the offending value, and
states what would have been accepted.  Before this module each call
site either swallowed junk silently (masking misconfiguration) or let
a raw ``ValueError`` escape with no hint of *which* variable was bad.

Unset and empty/whitespace-only variables always mean "use the
default" — an empty string is how CI matrices and shell scripts spell
"knob absent".
"""

from __future__ import annotations

import os

from repro.exceptions import ReproError

__all__ = ["parse_env_int"]


def parse_env_int(
    name: str,
    default: int,
    *,
    minimum: int | None = None,
    error: type[ReproError] = ReproError,
) -> int:
    """``int(os.environ[name])`` with a clear failure mode.

    Returns ``default`` when the variable is unset or blank.  Raises
    ``error`` (default :class:`~repro.exceptions.ReproError`) naming the
    variable when the value is not an integer or is below ``minimum``.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise error(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {raw!r}")
    return value
