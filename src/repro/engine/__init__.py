"""The unified query-execution engine.

One shared verification/accounting core (:mod:`repro.engine.core`), a
string-keyed registry of the index structures — the six monolithic ones
plus the sharded router
(:mod:`repro.engine.registry`), a batched multi-query entry point
(:mod:`repro.engine.batch`), and the opt-in approximate tier's policy
object (:mod:`repro.engine.approx`).  See ``docs/ENGINE.md``,
``docs/SHARDING.md`` and ``docs/APPROX.md``.
"""

from repro.engine.approx import (
    DEFAULT_EPSILON,
    ApproxPolicy,
    resolve_policy,
)
from repro.engine.batch import search_many
from repro.engine.core import (
    DEFAULT_VERIFY_BLOCK,
    VERIFY_BLOCK_ENV,
    CandidateSet,
    EngineIndex,
    SigmaTracker,
    block_distances_sq,
    execute_knn,
    execute_range,
    verify_block_size,
)
from repro.engine.registry import available_indexes, get_index

__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_VERIFY_BLOCK",
    "VERIFY_BLOCK_ENV",
    "ApproxPolicy",
    "CandidateSet",
    "EngineIndex",
    "SigmaTracker",
    "available_indexes",
    "block_distances_sq",
    "execute_knn",
    "execute_range",
    "get_index",
    "resolve_policy",
    "search_many",
    "verify_block_size",
]
