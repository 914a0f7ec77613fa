"""String-keyed registry of the index structures (six + the shard router).

Mirrors :mod:`repro.bounds.registry`: experiment configuration names an
index the same way it names a bound method, so the evaluation runner,
the miner and the benchmarks construct structures from strings instead
of hard-coded classes::

    from repro.engine import get_index

    index = get_index("vptree", matrix, names=names)
    neighbors, stats = index.search(query, k=5)

Every registered structure implements the engine's
:class:`~repro.engine.core.EngineIndex` protocol, so anything built here
supports ``search``, ``range_search`` and
:func:`~repro.engine.batch.search_many`.

The six structures derive from :mod:`repro.index.base`, which holds
their shared construction rules once.  The sketch-based structures
("flat", "vptree", "mvptree") accept the compression keywords
(``compressor``, ``bound_method``); the exact/feature-space baselines
("mtree", "rtree", "scan") have no sketch to configure and reject them.
The sketch structures and "scan" accept a verification ``store``: an
empty one is filled from the matrix, and a non-empty one must hold
exactly the matrix's rows or the builder raises
:class:`~repro.exceptions.SeriesMismatchError`.  All builders accept
``names``.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ReproError

__all__ = ["INDEX_BUILDERS", "available_indexes", "get_index"]


def _build_flat(matrix, **kwargs):
    from repro.index.flat import FlatSketchIndex

    return FlatSketchIndex(matrix, **kwargs)


def _build_vptree(matrix, **kwargs):
    from repro.index.vptree import VPTreeIndex

    return VPTreeIndex(matrix, **kwargs)


def _build_mvptree(matrix, **kwargs):
    from repro.index.mvptree import MVPTreeIndex

    return MVPTreeIndex(matrix, **kwargs)


def _build_mtree(matrix, **kwargs):
    from repro.index.mtree import MTreeIndex

    return MTreeIndex(matrix, **kwargs)


def _build_rtree(matrix, **kwargs):
    from repro.index.rtree import GeminiRTreeIndex

    return GeminiRTreeIndex(matrix, **kwargs)


def _build_scan(matrix, **kwargs):
    from repro.index.linear_scan import LinearScanIndex

    return LinearScanIndex(matrix, **kwargs)


def _build_sharded(matrix, **kwargs):
    from repro.cluster.build import build_sharded

    return build_sharded(matrix, **kwargs)


#: Builders keyed by registry name.  The classes are imported lazily so
#: that :mod:`repro.index` modules (which import the engine core) and
#: this registry never form an import cycle.  "sharded" is the
#: router over N partitions (``shards=``, ``policy=``,
#: ``backend=`` select the split and the per-shard structure; the shard
#: count defaults to the ``REPRO_SHARDS`` environment variable).
INDEX_BUILDERS: dict[str, Callable] = {
    "flat": _build_flat,
    "vptree": _build_vptree,
    "mvptree": _build_mvptree,
    "mtree": _build_mtree,
    "rtree": _build_rtree,
    "scan": _build_scan,
    "sharded": _build_sharded,
}

#: Alternate spellings accepted by :func:`get_index`.
_ALIASES = {
    "linear_scan": "scan",
    "vp": "vptree",
    "mvp": "mvptree",
    "shard": "sharded",
    "cluster": "sharded",
}


def available_indexes() -> tuple[str, ...]:
    """The registered index names, in registration order."""
    return tuple(INDEX_BUILDERS)


def get_index(name: str, matrix, **kwargs):
    """Build the index structure registered under ``name``.

    ``matrix`` is the ``(count, n)`` database; remaining keyword
    arguments are forwarded to the structure's constructor (``names=``
    everywhere; compression and tree knobs where the structure has
    them).  Raises :class:`~repro.exceptions.ReproError` for an unknown
    name, listing what is available.
    """
    key = _ALIASES.get(name, name)
    try:
        builder = INDEX_BUILDERS[key]
    except KeyError:
        known = ", ".join(sorted(INDEX_BUILDERS))
        raise ReproError(
            f"unknown index {name!r}; available: {known}"
        ) from None
    return builder(matrix, **kwargs)
