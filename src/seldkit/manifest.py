"""Dataset manifests: bookkeeping for real vs. emulated clips."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

from .tensorio import check_keys, read_json, write_json

ORIGINS = ("real", "emulated")


@dataclass(frozen=True)
class ManifestEntry:
    clip_path: str
    label_path: str
    origin: str
    fold_tag: str | None = None
    room_tag: str | None = None
    duration_s: float = 0.0

    def __post_init__(self):
        if not self.clip_path or not self.label_path:
            raise ValueError("manifest entry paths must be non-empty")
        if self.origin not in ORIGINS:
            raise ValueError(f"origin must be one of {ORIGINS}, got {self.origin!r}")
        d = self.duration_s
        if isinstance(d, bool) or not isinstance(d, numbers.Real) or not (math.isfinite(d) and d >= 0):
            raise ValueError(f"duration_s must be a finite number >= 0, got {d!r}")


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


ENTRY_KEYS = tuple(f.name for f in fields(ManifestEntry))


def load_manifest(path) -> DatasetManifest:
    """Load a manifest JSON: {"entries": [{clip_path, label_path, origin, ...}]}.

    An entry needs ``clip_path``, ``label_path`` and ``origin``; the other
    fields of ``ManifestEntry`` are optional and any other key is an error.
    A malformed document raises ValueError naming the file, and the
    entry's index for an entry.
    """
    doc = read_json(path)
    check_keys(doc, ("entries",), f"manifest {path}", required=("entries",))
    entries = []
    for i, e in enumerate(doc["entries"]):
        where = f"manifest {path} entry {i}"
        check_keys(e, ENTRY_KEYS, where, required=ENTRY_KEYS[:3])
        try:
            entries.append(ManifestEntry(**e))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return DatasetManifest(tuple(entries))


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_json({"entries": [asdict(e) for e in manifest.entries]}, path)
