"""Building (and reopening) a sharded population.

:func:`build_sharded` splits a ``(count, n)`` database matrix into N
shards under a deterministic :class:`~repro.cluster.Partitioner`, builds
one registry backend per shard, and wires them behind a
:class:`~repro.cluster.ShardRouter`.  With a ``directory``, each shard
also gets its own checksummed page-store file (pagestore format v2) and
the split is described by a CRC-checked
:class:`~repro.cluster.ShardManifest`; :func:`open_sharded` rebuilds the
router from that directory alone.

The default shard count comes from the ``REPRO_SHARDS`` environment
variable (else 2), which is how the CI matrix runs the whole tier-1
suite against a 4-shard router without touching any test.

A router is built and served on one of two transports.  By default the
shards are built one after another and scattered serially, in process.
Setting ``REPRO_SHARD_WORKERS`` (to any integer >= 1) routes builds and
searches through the persistent :class:`~repro.cluster.ShardWorkerPool`
— one long-lived worker process per populated shard over shared memory
— again without touching any test; ``worker_pool=True``/``False``
overrides the environment per call.  Pooled routers serve the same
bit-identical answers but cannot accept dynamic inserts (see
``docs/CONCURRENCY.md``; ``docs/PERFORMANCE.md`` has the measured table
behind the choice of these two).
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro import obs
from repro.cluster.manifest import ShardManifest
from repro.cluster.partitioner import Partitioner
from repro.cluster.router import ShardRouter
from repro.compression.database import SketchDatabase
from repro.exceptions import CorruptionError, ReproError
from repro.storage.pagestore import SequencePageStore
from repro.tools.envparse import parse_env_int

__all__ = [
    "build_sharded",
    "default_shard_count",
    "default_worker_pool",
    "open_sharded",
]

#: Fallback shard count when ``REPRO_SHARDS`` is unset or blank.
DEFAULT_SHARDS = 2

#: Registry backends whose constructors accept a ``store=`` keyword.
_STORE_BACKENDS = frozenset({"flat", "vptree", "mvptree", "scan"})

#: Registry backends with seeded construction randomness; ``seed`` is
#: shared between the partitioner and their per-shard constructors.
_SEEDED_BACKENDS = frozenset({"vptree", "mvptree"})


def default_shard_count() -> int:
    """Shard count from ``REPRO_SHARDS``, else :data:`DEFAULT_SHARDS`.

    A set-but-unusable value raises :class:`~repro.exceptions.ReproError`
    naming the variable — a mistyped knob should fail loudly, not
    silently rebuild the population over the default shard count.
    """
    return parse_env_int("REPRO_SHARDS", DEFAULT_SHARDS, minimum=1)


def default_worker_pool() -> bool:
    """Whether ``REPRO_SHARD_WORKERS`` enables the persistent pool.

    Any integer >= 1 enables it; the pool always runs one worker per
    populated shard, so the value is a switch, not a count.  Unset,
    empty or ``0`` keeps the in-process scatter; anything else raises
    :class:`~repro.exceptions.ReproError` naming the variable.
    """
    return parse_env_int("REPRO_SHARD_WORKERS", 0, minimum=0) >= 1


def _canonical_backend(backend: str) -> str:
    from repro.engine.registry import _ALIASES, INDEX_BUILDERS

    key = _ALIASES.get(backend, backend)
    if key in ("sharded", "shard"):
        raise ReproError("shards cannot themselves be sharded")
    if key not in INDEX_BUILDERS:
        known = ", ".join(sorted(set(INDEX_BUILDERS) - {"sharded"}))
        raise ReproError(
            f"unknown shard backend {backend!r}; available: {known}"
        )
    return key


def _shard_file(shard: int) -> str:
    return f"shard-{shard:02d}.pages"


def build_sharded(
    matrix: np.ndarray,
    *,
    shards: int | None = None,
    policy: str = "hash",
    seed: int = 0,
    backend: str = "flat",
    names: Sequence[str] | None = None,
    directory: str | os.PathLike | None = None,
    partitioner: Partitioner | None = None,
    worker_pool: bool | None = None,
    **index_kwargs,
) -> ShardRouter:
    """Partition ``matrix`` into shard indexes behind one router.

    Parameters
    ----------
    matrix:
        The ``(count, n)`` database.
    shards / policy / seed:
        Partitioner configuration (``shards``/``policy`` are ignored
        when an explicit ``partitioner`` is supplied).  ``shards=None``
        takes :func:`default_shard_count`; ``seed`` also seeds the
        per-shard constructors of backends with construction randomness
        unless ``index_kwargs`` carries its own ``seed``.
    backend:
        Any non-sharded registry backend; one instance is built per
        populated shard, with ``**index_kwargs`` forwarded.
    directory:
        When given, each shard's sequences are persisted to its own
        page-store file there and a checksummed manifest is written, so
        :func:`open_sharded` can rebuild the router later.
    worker_pool:
        ``True`` routes the returned router through a persistent
        :class:`~repro.cluster.ShardWorkerPool`, whose warm-up is also
        the parallel build (every worker writes its shard's store and
        constructs its index concurrently); ``False`` builds and
        scatters serially in process; ``None`` (default) defers to
        :func:`default_worker_pool` (the ``REPRO_SHARD_WORKERS``
        environment switch).  Pooled routers return bit-identical
        answers, shut their workers down deterministically via
        ``router.close()`` (or a ``with`` block), and do not support
        dynamic inserts.
    """
    from repro.engine.registry import get_index
    from repro.index.base import SketchIndexBase, as_database

    matrix, names = as_database(matrix, names)
    key = _canonical_backend(backend)
    if partitioner is None:
        partitioner = Partitioner(
            shards if shards is not None else default_shard_count(),
            policy=policy,
            seed=seed,
        )
    if key in _SEEDED_BACKENDS and "seed" not in index_kwargs:
        index_kwargs["seed"] = seed
    total, n = int(matrix.shape[0]), int(matrix.shape[1])
    members = partitioner.members(total)

    # One compression pass for the whole population, sliced into
    # shard-local views — the flat backend then skips per-shard
    # recompression entirely (and the views are bit-identical to what a
    # per-shard compression would produce, since sketches are per-row).
    shared_sketches = None
    if key == "flat" and "sketch_db" not in index_kwargs and total:
        compressor = (
            index_kwargs.get("compressor") or SketchIndexBase.DEFAULT_COMPRESSOR
        )
        with obs.span("ingest.compress"):
            shared_sketches = SketchDatabase.from_matrix(matrix, compressor)

    if directory is not None:
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)

    pooled = default_worker_pool() if worker_pool is None else bool(worker_pool)
    if pooled:
        return _build_pooled(
            matrix=matrix,
            n=n,
            total=total,
            key=key,
            names=names,
            directory=directory,
            partitioner=partitioner,
            members=members,
            shared_sketches=shared_sketches,
            index_kwargs=index_kwargs,
        )

    def build_one(shard: int):
        """Build shard ``shard`` end to end: store write + index build."""
        rows = members[shard]
        sub_matrix = matrix[rows]
        store = None
        if directory is not None:
            with obs.span("ingest.store_write"):
                store = SequencePageStore(
                    os.path.join(directory, _shard_file(shard)), n
                )
                store.append_matrix(sub_matrix)
        if rows.size == 0:
            if store is not None:
                store.close()
            return None
        kwargs = dict(index_kwargs)
        if store is not None and key in _STORE_BACKENDS:
            kwargs["store"] = store
        elif store is not None:
            store.close()  # matrix-backed structure; file stays for reopen
        if shared_sketches is not None:
            kwargs["sketch_db"] = shared_sketches.take(rows)
        sub_names = (
            [names[int(i)] for i in rows] if names is not None else None
        )
        with obs.span("ingest.build"):
            sub = get_index(key, sub_matrix, names=sub_names, **kwargs)
        # Instance-level obs tag, so every engine span and counter the
        # sub-index emits is shard-addressed automatically.
        sub.obs_name = f"index.sharded.shard{shard:02d}"
        return sub

    built = [build_one(shard) for shard in range(len(members))]
    pairs = list(zip(built, members))
    files = (
        [_shard_file(shard) for shard in range(len(members))]
        if directory is not None
        else []
    )

    router = ShardRouter(
        pairs,
        partitioner=partitioner,
        sequence_length=n if total == 0 else None,
    )
    if directory is not None:
        ShardManifest(
            policy=partitioner.policy,
            seed=partitioner.seed,
            shards=partitioner.shards,
            total=total,
            sequence_length=n,
            backend=key,
            counts=tuple(int(rows.size) for rows in members),
            files=tuple(files),
        ).save(directory)
    return router


def _pooled_pairs(pool, specs, members, sequence_length, arena):
    """Parent-side ``(ShardStub, global_ids)`` pairs for a warm pool.

    Each stub gets the parent's *own* handle on the shard's bytes — a
    fresh read handle on the checksummed page store, or a store view
    over the shared-memory matrix — so verification never round-trips
    through a worker.
    """
    from repro.cluster.pool import ShardStub
    from repro.storage.shm import MatrixSequenceStore

    by_shard = {spec.shard: spec for spec in specs}
    pairs: list[tuple[object, np.ndarray]] = []
    for shard, rows in enumerate(members):
        if rows.size == 0:
            pairs.append((None, rows))
            continue
        spec = by_shard[shard]
        if spec.store_path is not None:
            store = SequencePageStore.open(spec.store_path)
            if len(store) != int(rows.size):
                count = len(store)
                store.close()
                raise CorruptionError(
                    f"shard file {os.path.basename(spec.store_path)} "
                    f"holds {count} sequences, expected {rows.size}"
                )
        else:
            store = MatrixSequenceStore(arena.array(spec.matrix_key))
        stub = ShardStub(
            shard,
            int(rows.size),
            sequence_length,
            store,
            spec.names,
            spec.obs_name,
            pool,
        )
        pairs.append((stub, rows))
    return pairs


def _build_pooled(
    *,
    matrix,
    n,
    total,
    key,
    names,
    directory,
    partitioner,
    members,
    shared_sketches,
    index_kwargs,
):
    """The worker-pool build: publish, spawn, warm, wire the router.

    The parent stages each shard's sub-matrix, its squared norms (the
    workers' attach-time integrity handshake) and its slice of the
    shared sketch blocks into one :class:`SharedArena`, then starts the
    pool; every worker writes its own page store (when persisting) and
    builds its own index concurrently during warm-up, which is also the
    parallel-build path.  Any failure — staging, spawn, a worker
    refusing to warm, manifest write — tears the pool (and the arena)
    down deterministically before the exception propagates: no orphan
    processes, no leaked ``/dev/shm`` segments.
    """
    from repro.cluster.pool import ShardSpec, ShardWorkerPool
    from repro.storage.shm import SharedArena, stage_sketch_database

    arena = SharedArena()
    specs: list[ShardSpec] = []
    try:
        for shard, rows in enumerate(members):
            if rows.size == 0:
                if directory is not None:
                    # Workers only exist for populated shards; the
                    # parent writes the (empty) store file so reopen
                    # finds the full set the manifest promises.
                    SequencePageStore(
                        os.path.join(directory, _shard_file(shard)), n
                    ).close()
                continue
            sub_matrix = np.ascontiguousarray(matrix[rows])
            matrix_key = f"shard{shard:02d}.matrix"
            norms_key = f"shard{shard:02d}.norms"
            arena.stage(matrix_key, sub_matrix)
            arena.stage(
                norms_key,
                np.einsum("ij,ij->i", sub_matrix, sub_matrix),
            )
            sketch_meta = None
            if shared_sketches is not None:
                sketch_meta = stage_sketch_database(
                    arena,
                    f"shard{shard:02d}.sketches",
                    shared_sketches.take(rows),
                )
            specs.append(
                ShardSpec(
                    shard=shard,
                    backend=key,
                    size=int(rows.size),
                    sequence_length=n,
                    obs_name=f"index.sharded.shard{shard:02d}",
                    names=(
                        tuple(names[int(i)] for i in rows)
                        if names is not None
                        else None
                    ),
                    index_kwargs=dict(index_kwargs),
                    store_path=(
                        os.path.join(directory, _shard_file(shard))
                        if directory is not None
                        else None
                    ),
                    write_store=directory is not None,
                    matrix_key=matrix_key,
                    norms_key=norms_key,
                    sketch_meta=sketch_meta,
                )
            )
        arena.seal()
    except BaseException:
        arena.close()
        raise

    pool = ShardWorkerPool(specs, arena, shard_count=len(members))
    try:
        pool.start()  # warm-up = parallel store writes + index builds
        pairs = _pooled_pairs(pool, specs, members, n, arena)
        router = ShardRouter(
            pairs,
            partitioner=partitioner,
            sequence_length=n if total == 0 else None,
            pool=pool,
        )
        if directory is not None:
            ShardManifest(
                policy=partitioner.policy,
                seed=partitioner.seed,
                shards=partitioner.shards,
                total=total,
                sequence_length=n,
                backend=key,
                counts=tuple(int(rows.size) for rows in members),
                files=tuple(
                    _shard_file(shard) for shard in range(len(members))
                ),
            ).save(directory)
        return router
    except BaseException:
        pool.close()
        raise


def open_sharded(
    directory: str | os.PathLike,
    *,
    backend: str | None = None,
    worker_pool: bool | None = None,
    **index_kwargs,
) -> ShardRouter:
    """Rebuild a sharded router from a directory written by
    :func:`build_sharded`.

    The manifest's CRC and per-shard counts are verified before any
    index is built; a mismatch raises
    :class:`~repro.exceptions.CorruptionError`.  ``backend`` defaults to
    the one recorded in the manifest.  ``worker_pool`` follows the same
    ``REPRO_SHARD_WORKERS`` default as :func:`build_sharded`; a pooled
    reopen warms one worker per populated shard from its page-store
    file (no shared-memory arena — the stores are the source of truth).
    """
    from repro.engine.registry import get_index

    directory = os.fspath(directory)
    manifest = ShardManifest.load(directory)
    key = _canonical_backend(backend or manifest.backend)
    partitioner = Partitioner(
        manifest.shards, policy=manifest.policy, seed=manifest.seed
    )
    members = partitioner.members(manifest.total)
    for shard, rows in enumerate(members):
        if int(rows.size) != manifest.counts[shard]:
            raise CorruptionError(
                f"shard {shard} holds {manifest.counts[shard]} members "
                f"per manifest but the partitioner assigns {rows.size}"
            )

    pooled = default_worker_pool() if worker_pool is None else bool(worker_pool)
    if pooled:
        from repro.cluster.pool import ShardSpec, ShardWorkerPool

        specs = [
            ShardSpec(
                shard=shard,
                backend=key,
                size=int(rows.size),
                sequence_length=manifest.sequence_length,
                obs_name=f"index.sharded.shard{shard:02d}",
                names=None,  # page stores persist sequences, not names
                index_kwargs=dict(index_kwargs),
                store_path=os.path.join(directory, manifest.files[shard]),
                write_store=False,
            )
            for shard, rows in enumerate(members)
            if rows.size > 0
        ]
        pool = ShardWorkerPool(specs, None, shard_count=len(members))
        try:
            pool.start()
            pairs = _pooled_pairs(
                pool, specs, members, manifest.sequence_length, None
            )
            return ShardRouter(
                pairs,
                partitioner=partitioner,
                sequence_length=manifest.sequence_length,
                pool=pool,
            )
        except BaseException:
            pool.close()
            raise

    pairs: list[tuple[object, np.ndarray]] = []
    for shard, rows in enumerate(members):
        store = SequencePageStore.open(
            os.path.join(directory, manifest.files[shard])
        )
        if len(store) != int(rows.size):
            count = len(store)
            store.close()
            raise CorruptionError(
                f"shard file {manifest.files[shard]} holds {count} "
                f"sequences, manifest says {rows.size}"
            )
        if rows.size == 0:
            store.close()
            pairs.append((None, rows))
            continue
        sub_matrix = store.read_many(range(int(rows.size)))
        kwargs = dict(index_kwargs)
        if key in _STORE_BACKENDS:
            kwargs["store"] = store
        else:
            store.close()
        sub = get_index(key, sub_matrix, **kwargs)
        sub.obs_name = f"index.sharded.shard{shard:02d}"
        pairs.append((sub, rows))
    return ShardRouter(
        pairs,
        partitioner=partitioner,
        sequence_length=manifest.sequence_length,
    )
