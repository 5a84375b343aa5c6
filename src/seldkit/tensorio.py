"""Flat binary tensor files with a JSON sidecar header.

The binary file holds little-endian 32-bit floats in C order; the header
at ``<path>.json`` records dims, channel names and the producing config.
Used for feature tensors (``.feat``) and ACCDOA sequences (``.acc``).
``write_json`` is the one canonical JSON form of every file seldkit writes,
``read_json`` the one reader of every JSON document, ``check_keys``
the one key check of a document, and ``config_from_doc`` the one way a
document becomes a config dataclass, each value of its field's JSON type.
``typed_value`` checks the JSON type of one value of a document.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np


def write_json(doc, path) -> None:
    """Write ``doc`` as canonical JSON: indent 2, sorted keys, trailing newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    """Read the JSON document at ``path``; text that is not UTF-8 or not JSON raises ValueError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
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


def typed_value(doc: dict, key: str, types: tuple, kind: str, where: str, default=None):
    """``doc[key]``, or ``default`` when the key is absent, if its type is one of ``types``.

    The type must match exactly, not by isinstance, so a JSON ``true`` is
    no number. Any other value raises ValueError naming ``where``, the key
    and ``kind``, the JSON type wanted. Where a float is wanted, so is an
    integer that a float holds: a larger one raises ValueError too.
    """
    value = doc.get(key, default)
    if type(value) not in types:
        raise ValueError(f"{where} {key} must be a JSON {kind}, got {value!r}")
    if float in types and type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(
            f"{where} {key} must be a JSON {kind} within the float range, "
            f"got an integer of {len(str(abs(value)))} digits"
        )
    return value


# field annotation -> (the Python types json gives for it, its JSON name, the stored form)
_JSON_KINDS = {
    int: ((int,), "integer", int),
    float: ((int, float), "number", float),
    tuple: ((list,), "array", tuple),
    str: ((str,), "string", str),
    dict: ((dict,), "object", dict),
}


def config_from_doc(config_cls, doc, where: str):
    """Build the dataclass ``config_cls`` from ``doc``, each value of the JSON type its field declares.

    A field without a default is required. Per ``_JSON_KINDS``, an ``int``
    field takes a JSON integer, ``float`` a number, ``tuple`` an array,
    ``str`` a string and ``dict`` an object; a dataclass-typed field is read
    from its object the same way, and ``X | None`` also takes null. Any other
    key or value raises ValueError naming ``where`` and the key, and a
    ValueError of ``config_cls`` itself is raised again prefixed with ``where``.
    """
    fields = dataclasses.fields(config_cls)
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    check_keys(doc, [f.name for f in fields], where, required)
    hints = typing.get_type_hints(config_cls)
    values = {}
    for name in (f.name for f in fields if f.name in doc):
        args = typing.get_args(hints[name])
        nullable = type(None) in args  # X | None
        field_type = next(t for t in args if t is not type(None)) if nullable else hints[name]
        if nullable and doc[name] is None:
            values[name] = None
        elif dataclasses.is_dataclass(field_type):
            values[name] = config_from_doc(field_type, doc[name], f"{where} {name}")
        elif field_type in _JSON_KINDS:
            types, kind, store = _JSON_KINDS[field_type]
            values[name] = store(typed_value(doc, name, types, kind, where))
        else:
            raise TypeError(f"{config_cls.__name__}.{name}: no JSON type for the annotation {hints[name]}")
    try:
        return config_cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


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

    The header needs ``dims``, a list of non-negative integers; its
    ``dtype``, if present, must be ``"<f4"``, the only payload
    ``save_tensor`` writes. A malformed header raises ValueError naming
    the header file, and a NaN or infinite payload value one naming the
    path.
    """
    header_path = Path(str(path) + ".json")
    if not header_path.exists():
        raise FileNotFoundError(f"missing tensor header {header_path}")
    header = read_json(header_path)
    check_keys(header, HEADER_KEYS, f"tensor header {header_path}", required=("dims",))
    if header.get("dtype", "<f4") != "<f4":
        raise ValueError(f"tensor header {header_path}: dtype must be '<f4', got {header['dtype']!r}")
    dims = header["dims"]
    if not (isinstance(dims, list) and all(type(d) is int and d >= 0 for d in dims)):
        raise ValueError(
            f"tensor header {header_path}: dims must be a list of non-negative integers, got {dims!r}"
        )
    dims = tuple(dims)
    flat = np.fromfile(str(path), dtype="<f4")
    if flat.size != math.prod(dims):
        raise ValueError(f"{path}: payload has {flat.size} values, header says {dims}")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: non-finite payload values")
    return flat.reshape(dims).astype(float), header
