"""Dataset manifests: bookkeeping for real vs. emulated clips."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .tensorio import write_json

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


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def load_manifest(path) -> DatasetManifest:
    with open(path) as f:
        doc = json.load(f)
    return DatasetManifest(tuple(ManifestEntry(**e) for e in doc["entries"]))


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_json({"entries": [asdict(e) for e in manifest.entries]}, path)
