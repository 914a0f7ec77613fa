"""The on-disk description of a sharded population.

A sharded build with a ``directory`` writes one page-store file per
shard (pagestore format 3, self-checksummed) plus ``shards.json`` — the
manifest tying them together: which partition policy and seed produced
the split, how many members each shard holds, and which file serves
which shard.  The manifest carries its own CRC32 over the canonical JSON
payload, in the same spirit as the pagestore's header checksum: a torn
or hand-edited manifest surfaces as a typed
:class:`~repro.exceptions.CorruptionError` at open time, never as a
mis-routed query.

The member ids themselves are *not* stored: the partitioner is a pure
function of ``(policy, seed, shards)``, so
:func:`~repro.cluster.build.open_sharded` reconstructs the assignment
and cross-checks it against the per-shard counts recorded here.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass

from repro.exceptions import CorruptionError

__all__ = ["MANIFEST_NAME", "ShardManifest"]

#: File name of the manifest inside a shard directory.
MANIFEST_NAME = "shards.json"

_FORMAT = "repro-shards"
_VERSION = 1


def _checksum(payload: dict) -> int:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


@dataclass(frozen=True)
class ShardManifest:
    """What :func:`~repro.cluster.build.open_sharded` needs to rebuild."""

    policy: str
    seed: int
    shards: int
    total: int
    sequence_length: int
    backend: str
    counts: tuple[int, ...]
    files: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.shards or len(self.files) != self.shards:
            raise CorruptionError(
                f"manifest lists {len(self.counts)} counts and "
                f"{len(self.files)} files for {self.shards} shards"
            )
        if sum(self.counts) != self.total:
            raise CorruptionError(
                f"manifest shard counts sum to {sum(self.counts)}, "
                f"expected {self.total}"
            )

    def payload(self) -> dict:
        """The checksummed body (everything but format/version/crc)."""
        body = asdict(self)
        body["counts"] = list(self.counts)
        body["files"] = list(self.files)
        return body

    def save(self, directory: str | os.PathLike) -> str:
        """Write the manifest into ``directory``; returns its path."""
        payload = self.payload()
        document = {
            "format": _FORMAT,
            "version": _VERSION,
            "crc32": _checksum(payload),
            **payload,
        }
        path = os.path.join(os.fspath(directory), MANIFEST_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "ShardManifest":
        """Read and verify the manifest in ``directory``.

        Raises :class:`~repro.exceptions.CorruptionError` for a missing
        or unparseable file, a foreign format, or a CRC mismatch.
        """
        path = os.path.join(os.fspath(directory), MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            raise CorruptionError(f"no shard manifest at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptionError(
                f"unreadable shard manifest at {path}: {exc}"
            ) from exc
        if document.get("format") != _FORMAT:
            raise CorruptionError(
                f"{path} is not a shard manifest "
                f"(format={document.get('format')!r})"
            )
        if document.get("version") != _VERSION:
            raise CorruptionError(
                f"unsupported shard manifest version "
                f"{document.get('version')!r} in {path}"
            )
        recorded = document.get("crc32")
        try:
            manifest = cls(
                policy=document["policy"],
                seed=int(document["seed"]),
                shards=int(document["shards"]),
                total=int(document["total"]),
                sequence_length=int(document["sequence_length"]),
                backend=document["backend"],
                counts=tuple(int(c) for c in document["counts"]),
                files=tuple(document["files"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptionError(
                f"malformed shard manifest at {path}: {exc}"
            ) from exc
        actual = _checksum(manifest.payload())
        if recorded != actual:
            raise CorruptionError(
                f"shard manifest checksum mismatch at {path}: "
                f"recorded {recorded}, computed {actual}"
            )
        return manifest
