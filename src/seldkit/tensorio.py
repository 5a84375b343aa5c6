"""Flat binary tensor files with a JSON sidecar header.

The binary file holds little-endian 32-bit floats in C order; the header
at ``<path>.json`` records dims, channel names and the producing config.
Used for feature tensors (``.feat``) and ACCDOA sequences (``.acc``).
``write_json`` is the one canonical JSON form of every file seldkit writes,
``read_json`` the one reader of every JSON document, and ``check_keys``
the one key check of a document.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_json(doc, path) -> None:
    """Write ``doc`` as canonical JSON: indent 2, sorted keys, trailing newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    """Read the JSON document at ``path``; text that is not JSON raises ValueError naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON document: {exc}") from None


def check_keys(doc, keys, where: str, required=()) -> None:
    """Raise ValueError naming ``where`` unless ``doc`` is a JSON object whose keys
    are all in ``keys`` and include every key in ``required``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ValueError(f"{where} lacks required keys: {', '.join(missing)}")


HEADER_KEYS = ("dims", "dtype", "channel_names", "config")


def save_tensor(path, array, channel_names=None, config: dict | None = None) -> None:
    arr = np.ascontiguousarray(np.asarray(array), dtype="<f4")
    arr.tofile(str(path))
    header = {
        "dims": list(arr.shape),
        "dtype": "<f4",
        "channel_names": list(channel_names) if channel_names is not None else None,
        "config": config,
    }
    write_json(header, str(path) + ".json")


def load_tensor(path) -> tuple[np.ndarray, dict]:
    """Return (array, header). The array comes back as float64.

    The header needs ``dims``; its ``dtype``, if present, must be
    ``"<f4"``, the only payload ``save_tensor`` writes. A malformed header
    raises ValueError naming the header file, and a NaN or infinite
    payload value one naming the path.
    """
    header_path = Path(str(path) + ".json")
    if not header_path.exists():
        raise FileNotFoundError(f"missing tensor header {header_path}")
    header = read_json(header_path)
    check_keys(header, HEADER_KEYS, f"tensor header {header_path}", required=("dims",))
    if header.get("dtype", "<f4") != "<f4":
        raise ValueError(f"tensor header {header_path}: dtype must be '<f4', got {header['dtype']!r}")
    dims = tuple(header["dims"])
    flat = np.fromfile(str(path), dtype="<f4")
    if flat.size != int(np.prod(dims)):
        raise ValueError(f"{path}: payload has {flat.size} values, header says {dims}")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: non-finite payload values")
    return flat.reshape(dims).astype(float), header
