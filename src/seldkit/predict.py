"""The predictor contract plus test-double and file-backed implementations.

A predictor maps a feature tensor (7, T, M) to an ACCDOA sequence
(T // frames_per_label, n_classes, 3) with values in [-1, 1], the ratio
being the run's ``FeatureConfig.frames_per_label`` (4 at the default hop).
Predictors also receive a
ClipIdentity naming the clip and the rotation pattern already applied to
its audio; feature-driven models may ignore it, while the oracle uses it
to stay consistent with rotated inputs (which is what makes end-to-end
TTA identities exactly testable).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

import numpy as np

from .accdoa import MAX_ACTIVITY, encode
from .features import FeatureConfig
from .rotation import pattern_by_id, rotate_annotation
from .tensorio import load_tensor


@dataclass(frozen=True)
class ClipIdentity:
    """Names a clip and the rotation pattern its audio currently carries."""

    clip_id: str
    pattern_id: int = 0

    def with_pattern(self, pattern_id: int) -> "ClipIdentity":
        return replace(self, pattern_id=pattern_id)


class Predictor(Protocol):
    def predict(self, features: np.ndarray, identity: ClipIdentity) -> np.ndarray: ...


def label_frames_of(features, frames_per_label: int) -> int:
    return int(np.asarray(features).shape[1]) // frames_per_label


def check_prediction(seq, identity: ClipIdentity, label_frames: int, n_classes: int | None) -> None:
    """Enforce the predictor contract on one output, naming the clip and pattern on failure.

    The sequence must be shaped (label_frames, n_classes, 3), with any
    class count when ``n_classes`` is None, hold only finite values, and
    have no vector longer than ``MAX_ACTIVITY``. The bound is on the norm,
    not on each value: a rotated unit vector may exceed 1 in one
    component by an ulp. Raises ValueError.
    """
    arr = np.asarray(seq, dtype=float)
    where = f"clip {identity.clip_id!r}, rotation pattern {identity.pattern_id}"
    classes = arr.shape[1] if n_classes is None and arr.ndim == 3 else n_classes
    if arr.shape != (label_frames, classes, 3):
        raise ValueError(
            f"{where}: prediction shape {arr.shape}, expected ({label_frames}, {classes}, 3)"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: non-finite prediction values")
    longest = float(np.linalg.norm(arr, axis=2).max(initial=0.0))
    if longest > MAX_ACTIVITY:
        raise ValueError(
            f"{where}: prediction vector of norm {longest} exceeds sqrt(3) = {MAX_ACTIVITY}"
        )


def seed_material(*parts) -> list[int]:
    """Deterministic RNG seed material from ints and strings."""
    material = []
    for part in parts:
        if isinstance(part, str):
            material.append(zlib.crc32(part.encode("utf-8")))
        else:
            material.append(int(part) & 0xFFFFFFFF)
    return material


@dataclass(frozen=True)
class OraclePredictorConfig:
    jitter_deg: float = 0.0
    activity: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.jitter_deg < 90.0:
            raise ValueError(f"jitter_deg must be in [0, 90), got {self.jitter_deg}")
        if not 0.0 < self.activity <= 1.0:
            raise ValueError(f"activity must be in (0, 1], got {self.activity}")


def _jitter_vectors(seq: np.ndarray, jitter_deg: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate each active vector by a random axis-angle of magnitude <= jitter_deg.

    The draws (axis, then angle) and the axis-vector dot stay per cell, in
    cell order, so the RNG stream and every bit match a per-cell loop; the
    Rodrigues rotation itself runs over all cells at once.
    """
    frames, classes = np.nonzero(np.linalg.norm(seq, axis=2) > 0)
    v = seq[frames, classes]
    axes = np.empty_like(v)
    angles = np.empty(len(v))
    dots = np.empty(len(v))
    for i in range(len(v)):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angles[i] = rng.uniform(0.0, jitter_deg)
        axes[i] = axis
        dots[i] = axis @ v[i]  # per row: a batched dot rounds differently
    angle = np.radians(angles)[:, np.newaxis]
    out = seq.copy()
    # Rodrigues rotation about the random axes
    out[frames, classes] = (
        v * np.cos(angle)
        + np.cross(axes, v) * np.sin(angle)
        + axes * dots[:, np.newaxis] * (1.0 - np.cos(angle))
    )
    return out


class OraclePredictor:
    """Ground-truth-backed predictor for end-to-end verification.

    Holds the annotations of known clips; prediction encodes the clip's
    labels, transformed by the rotation pattern named in the identity, so
    its output matches what a perfect model would produce on the rotated
    audio. Optional direction jitter (seeded per clip and pattern) and a
    fixed emitted activity roughen it into a controllable imperfect model.
    """

    def __init__(
        self,
        annotations: dict,
        config: OraclePredictorConfig | None = None,
        feature: FeatureConfig = FeatureConfig(),
    ):
        self.annotations = dict(annotations)
        self.config = config or OraclePredictorConfig()
        self.frames_per_label = feature.frames_per_label

    def predict(self, features: np.ndarray, identity: ClipIdentity) -> np.ndarray:
        if identity.clip_id not in self.annotations:
            raise ValueError(f"unknown clip identity {identity.clip_id!r}")
        rotated = rotate_annotation(
            self.annotations[identity.clip_id], pattern_by_id(identity.pattern_id)
        )
        seq = encode(rotated, label_frames_of(features, self.frames_per_label))
        if self.config.jitter_deg > 0:
            rng = np.random.default_rng(
                seed_material(self.config.seed, identity.clip_id, identity.pattern_id)
            )
            seq = _jitter_vectors(seq, self.config.jitter_deg, rng)
        return seq * self.config.activity


class ConstantPredictor:
    """Emits the same vector everywhere; value 0 predicts silence."""

    def __init__(self, n_classes: int = 13, value: float = 0.0, feature: FeatureConfig = FeatureConfig()):
        if abs(value) > 1.0:
            raise ValueError("constant value must be within the tanh range [-1, 1]")
        self.n_classes = n_classes
        self.value = value
        self.frames_per_label = feature.frames_per_label

    def predict(self, features: np.ndarray, identity: ClipIdentity) -> np.ndarray:
        frames = label_frames_of(features, self.frames_per_label)
        return np.full((frames, self.n_classes, 3), self.value)


class ExternalFilePredictor:
    """Serves precomputed ACCDOA tensors produced by an external model.

    Files live in one directory, named ``<clip_id>.p<pattern>.acc`` (with
    the usual JSON sidecar); ``<clip_id>.acc`` is accepted for the
    identity pattern so non-TTA runs need no suffix.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def predict(self, features: np.ndarray, identity: ClipIdentity) -> np.ndarray:
        stem = Path(identity.clip_id).stem
        candidates = [self.directory / f"{stem}.p{identity.pattern_id:02d}.acc"]
        if identity.pattern_id == 0:
            candidates.append(self.directory / f"{stem}.acc")
        for path in candidates:
            if path.exists():
                seq, _ = load_tensor(path)
                return seq
        raise FileNotFoundError(
            f"no prediction file for clip {identity.clip_id!r} "
            f"pattern {identity.pattern_id} under {self.directory}"
        )


_PREDICTOR_KEYS = {"oracle": {"jitter_deg", "activity", "seed"}, "constant": {"value"}, "external": {"dir"}}


def make_predictor(
    spec: dict,
    annotations: dict | None = None,
    n_classes: int = 13,
    feature: FeatureConfig = FeatureConfig(),
):
    """Build a predictor from its config mapping (the CLI parses ``--model`` strings into one).

    {"kind": "oracle", "jitter_deg": 3, "activity": 1, "seed": 0} (needs
    ``annotations``), {"kind": "constant", "value": 0} or
    {"kind": "external", "dir": "preds/"}. An unknown kind, or a key the
    kind does not read, raises ValueError. The oracle and constant
    predictors emit on the label grid of ``feature``, the run's feature config.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"predictor spec must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    if kind not in _PREDICTOR_KEYS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    unknown = sorted(set(spec) - {"kind"} - _PREDICTOR_KEYS[kind])
    if unknown:
        raise ValueError(f"{kind} predictor does not read {', '.join(unknown)}")
    if kind == "oracle":
        if annotations is None:
            raise ValueError("oracle predictor needs clip annotations")
        config = OraclePredictorConfig(**{k: v for k, v in spec.items() if k != "kind"})
        return OraclePredictor(annotations, config, feature)
    if kind == "constant":
        return ConstantPredictor(n_classes, float(spec.get("value", 0.0)), feature)
    if "dir" not in spec:
        raise ValueError("external predictor needs a directory")
    return ExternalFilePredictor(spec["dir"])
