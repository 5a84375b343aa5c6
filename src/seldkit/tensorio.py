"""Flat binary tensor files with a JSON sidecar header.

The binary file holds little-endian 32-bit floats in C order; the header
at ``<path>.json`` records dims, channel names and the producing config.
Used for feature tensors (``.feat``) and ACCDOA sequences (``.acc``).
``write_json`` is the one canonical JSON form of every file seldkit writes.
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

    A NaN or infinite payload value raises ValueError naming the path.
    """
    header_path = Path(str(path) + ".json")
    if not header_path.exists():
        raise FileNotFoundError(f"missing tensor header {header_path}")
    with open(header_path) as f:
        header = json.load(f)
    dims = tuple(header["dims"])
    flat = np.fromfile(str(path), dtype=header.get("dtype", "<f4"))
    if flat.size != int(np.prod(dims)):
        raise ValueError(f"{path}: payload has {flat.size} values, header says {dims}")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: non-finite payload values")
    return flat.reshape(dims).astype(float), header
