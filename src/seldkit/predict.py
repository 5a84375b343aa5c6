"""The predictor contract plus test-double and file-backed implementations.

A predictor maps a feature tensor (7, T, M), a ClipIdentity and the clip's
label-frame count to an ACCDOA sequence (label_frames, n_classes, 3) with
vector norms of at most sqrt(3). Features are computed only for a model
that reads them (``reads_features``); the oracle, constant and external
predictors do not, and are given None. The caller owns the label grid: it
computes the count with ``FeatureConfig.label_frames`` and checks every
output against it (``check_prediction``). The identity names the clip and
the rotation pattern already applied to its audio; feature-driven models
may ignore it, while the oracle uses it to stay consistent with rotated
inputs (which is what makes end-to-end TTA identities exactly testable).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

import numpy as np

from .accdoa import MAX_ACTIVITY, encode
from .rotation import pattern_by_id, rotate_annotation
from .tensorio import check_keys, config_from_doc, load_tensor, typed_value


@dataclass(frozen=True)
class ClipIdentity:
    """Names a clip and the rotation pattern its audio currently carries."""

    clip_id: str
    pattern_id: int = 0

    def with_pattern(self, pattern_id: int) -> "ClipIdentity":
        return replace(self, pattern_id=pattern_id)


class Predictor(Protocol):
    """Emits one ACCDOA row per label frame: ``(label_frames, n_classes, 3)``.

    ``label_frames`` is the clip's count on the run's label grid, given by
    the caller; the features are the clip's (7, T, M) tensor, rotated by
    the identity's pattern. Features are computed only for a predictor
    whose ``reads_features`` is true, or that lacks the attribute; one
    that sets it false is given None. No built-in predictor kind reads
    features: the oracle, constant and external predictors set it false.
    """

    reads_features: bool = True

    def predict(self, features: np.ndarray | None, identity: ClipIdentity, label_frames: int) -> np.ndarray: ...


def reads_features(model) -> bool:
    """Whether ``model`` reads its features; a predictor without ``reads_features`` does."""
    return getattr(model, "reads_features", True)


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

    The draws (axis, then angle) stay per cell, in cell order, so the RNG
    stream and every bit match a per-cell loop of
    ``rng.standard_normal(3)``, ``np.linalg.norm`` and
    ``rng.uniform(0, jitter_deg)``. The loop holds only the two draws: a
    cell's three normals are written straight into its row of the axes
    (``standard_normal(out=row)``) and its angle draw is collected as it
    comes. After it, the axis norms and the axis-vector dots are batched as
    ``np.matmul`` of (1, 3) by (3, 1) rows, which runs the dot kernel that
    ``np.linalg.norm`` and ``@`` run on one vector, so they are bit-equal
    to the per-cell values (``einsum`` and ``sum`` round differently).
    ``uniform(0, j)`` is ``0 + j * random()``, so the angles are scaled
    after the loop, and the Rodrigues rotation runs over all cells at once.
    """
    frames, classes = np.nonzero(np.linalg.norm(seq, axis=2) > 0)
    v = seq[frames, classes]
    axes = np.empty_like(v)
    normal, random = rng.standard_normal, rng.random
    draws = np.array([(normal(out=row), random())[1] for row in axes])
    axes /= np.sqrt(np.matmul(axes[:, np.newaxis, :], axes[:, :, np.newaxis]))[:, 0]
    dots = np.matmul(axes[:, np.newaxis, :], v[:, :, np.newaxis])[:, 0, 0]
    angle = np.radians(jitter_deg * draws)[:, np.newaxis]
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

    A prediction is ``encode(rotate_annotation(annotation, pattern), frames)``,
    which rotates and converts only the clip's distinct directions; the
    identity pattern skips the rotation. Encoding errors (two same-class
    events in a frame, an event past the clip) raise from ``predict`` with
    encode's messages.
    """

    reads_features = False

    def __init__(self, annotations: dict, config: OraclePredictorConfig | None = None):
        self.annotations = dict(annotations)
        self.config = config or OraclePredictorConfig()

    def predict(self, features: np.ndarray | None, identity: ClipIdentity, label_frames: int) -> np.ndarray:
        annotation = self.annotations.get(identity.clip_id)
        if annotation is None:
            raise ValueError(f"unknown clip identity {identity.clip_id!r}")
        # the identity pattern maps every direction to itself, bit for bit
        if identity.pattern_id:
            annotation = rotate_annotation(annotation, pattern_by_id(identity.pattern_id))
        seq = encode(annotation, label_frames)
        if self.config.jitter_deg > 0:
            rng = np.random.default_rng(
                seed_material(self.config.seed, identity.clip_id, identity.pattern_id)
            )
            seq = _jitter_vectors(seq, self.config.jitter_deg, rng)
        return seq * self.config.activity


class ConstantPredictor:
    """Emits the same vector everywhere; value 0 predicts silence."""

    reads_features = False

    def __init__(self, n_classes: int = 13, value: float = 0.0):
        if not abs(value) <= 1.0:  # NaN too
            raise ValueError(f"constant value must be within the tanh range [-1, 1], got {value}")
        self.n_classes = n_classes
        self.value = value

    def predict(self, features: np.ndarray | None, identity: ClipIdentity, label_frames: int) -> np.ndarray:
        return np.full((label_frames, self.n_classes, 3), self.value)


class ExternalFilePredictor:
    """Serves precomputed ACCDOA tensors produced by an external model.

    Files live in one directory, named ``<stem>.p<pattern>.acc`` after the
    file stem of the clip id (with the usual JSON sidecar); ``<stem>.acc``
    is accepted for the identity pattern so non-TTA runs need no suffix.
    The tensor is returned as stored, whatever ``label_frames`` says;
    the caller's ``check_prediction`` holds it to the clip's grid.
    """

    reads_features = False

    def __init__(self, directory):
        self.directory = Path(directory)

    def predict(self, features: np.ndarray | None, identity: ClipIdentity, label_frames: int) -> np.ndarray:
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


def make_predictor(spec: dict, annotations: dict | None = None, n_classes: int = 13):
    """Build a predictor from its config mapping (the CLI parses ``--model`` strings into one).

    {"kind": "oracle", "jitter_deg": 3, "activity": 1, "seed": 0} (needs
    ``annotations``; its keys are ``OraclePredictorConfig``'s fields),
    {"kind": "constant", "value": 0} or {"kind": "external", "dir": "preds/"}.
    An unknown kind, a key the kind does not read or a value of another
    JSON type (``value`` is a number, ``dir`` a string) raises ValueError.
    ``annotations`` maps the run's clip ids to their labels; an external
    predictor finds files by clip stem, so two of those clips sharing a
    stem raise ValueError. No predictor holds a label grid: each call is
    given its clip's count.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"predictor spec must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    where = f"{kind} predictor"
    if kind == "oracle":
        config = config_from_doc(OraclePredictorConfig, {k: v for k, v in spec.items() if k != "kind"}, where)
        if annotations is None:
            raise ValueError("oracle predictor needs clip annotations")
        return OraclePredictor(annotations, config)
    if kind == "constant":
        check_keys(spec, ("kind", "value"), where)
        return ConstantPredictor(n_classes, float(typed_value(spec, "value", (int, float), "number", where, 0.0)))
    if kind != "external":
        raise ValueError(f"unknown predictor kind {kind!r}")
    check_keys(spec, ("kind", "dir"), where)
    directory = typed_value(spec, "dir", (str,), "string", where)
    clip_of_stem: dict = {}
    for clip_id in annotations or ():
        stem = Path(clip_id).stem
        first = clip_of_stem.setdefault(stem, clip_id)
        if first != clip_id:
            raise ValueError(
                f"clips {first!r} and {clip_id!r} share the file stem {stem!r}, "
                "so an external predictor would read the same prediction files for both"
            )
    return ExternalFilePredictor(directory)
