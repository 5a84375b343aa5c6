"""The 16-pattern FOA rotation/reflection group.

Each pattern is a combination of X/Y channel swapping, channel sign
inversion, and Z sign inversion that maps a valid FOA field to a valid FOA
field. On source angles this realizes the eight azimuth transforms
{phi, -phi, 90-phi, phi+90, phi-90, -phi-90, 180-phi, phi+180} crossed
with an elevation sign flip: the dihedral group of the square acting on
azimuth times the up/down reflection. Patterns act identically on audio
channels, feature tensors, Cartesian DOA vectors, (azimuth, elevation)
pairs and whole label annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio import AudioClip
from .features import FEATURE_CHANNELS
from .geometry import Direction, wrap_azimuth
from .labels import ClipAnnotation

_AXIS = {"x": 0, "y": 1}

# (azimuth_map, az_scale, az_offset, x_src, sign_x, y_src, sign_y):
# rotated X = sign_x * source channel x_src, likewise for Y. Derivation:
# cos(s*phi + o) and sin(s*phi + o) expand to +-cos(phi)/+-sin(phi).
_AZ_TABLE = (
    ("phi", 1, 0, "x", 1, "y", 1),
    ("-phi", -1, 0, "x", 1, "y", -1),
    ("90-phi", -1, 90, "y", 1, "x", 1),
    ("phi+90", 1, 90, "y", -1, "x", 1),
    ("phi-90", 1, -90, "y", 1, "x", -1),
    ("-phi-90", -1, -90, "y", -1, "x", -1),
    ("180-phi", -1, 180, "x", -1, "y", 1),
    ("phi+180", 1, 180, "x", -1, "y", -1),
)


@dataclass(frozen=True)
class RotationPattern:
    """One member of the 16-element FOA rotation group.

    ``x_src``/``y_src`` name which of the original X/Y channels feeds each
    rotated channel; ``sign_*`` are the channel sign inversions. The
    azimuth map is ``az_scale * phi + az_offset`` (degrees) and the
    elevation map is ``sign_z * theta``, since the Z channel carries
    sin(elevation).
    """

    id: int
    azimuth_map: str
    az_scale: int
    az_offset: int
    x_src: str
    sign_x: int
    y_src: str
    sign_y: int
    sign_z: int

    def matrix(self) -> np.ndarray:
        """The pattern as a signed permutation of (x, y, z)."""
        m = np.zeros((3, 3), dtype=int)
        m[0, _AXIS[self.x_src]] = self.sign_x
        m[1, _AXIS[self.y_src]] = self.sign_y
        m[2, 2] = self.sign_z
        return m


def _build_patterns() -> tuple[RotationPattern, ...]:
    patterns = []
    for az_idx, (name, scale, offset, x_src, sgn_x, y_src, sgn_y) in enumerate(_AZ_TABLE):
        for elev_idx, sign_z in enumerate((1, -1)):
            patterns.append(
                RotationPattern(
                    id=az_idx * 2 + elev_idx,
                    azimuth_map=name,
                    az_scale=scale,
                    az_offset=offset,
                    x_src=x_src,
                    sign_x=sgn_x,
                    y_src=y_src,
                    sign_y=sgn_y,
                    sign_z=sign_z,
                )
            )
    return tuple(patterns)


_PATTERNS = _build_patterns()
_BY_ACTION = {(p.az_scale, p.az_offset, p.sign_z): p for p in _PATTERNS}


def all_patterns() -> tuple[RotationPattern, ...]:
    """All 16 patterns in canonical id order; id 0 is the identity."""
    return _PATTERNS


def pattern_by_id(pattern_id: int) -> RotationPattern:
    if not 0 <= pattern_id < len(_PATTERNS):
        raise ValueError(f"pattern id must be in [0, 16), got {pattern_id}")
    return _PATTERNS[pattern_id]


def apply_to_audio(clip: AudioClip, p: RotationPattern) -> AudioClip:
    """Rotate an FOA clip: W untouched, X/Y/Z permuted and sign-flipped."""
    src = {"x": clip.samples[1], "y": clip.samples[2]}
    rotated = np.stack(
        [
            clip.samples[0],
            p.sign_x * src[p.x_src],
            p.sign_y * src[p.y_src],
            p.sign_z * clip.samples[3],
        ]
    )
    return AudioClip(rotated, clip.sample_rate)


def apply_to_features(features, p: RotationPattern) -> np.ndarray:
    """Rotate a (7, frames, n_mels) feature tensor into that of the rotated clip.

    Log-mel W and Z stay and X/Y are permuted; their sign flips drop out
    of the squared magnitude. The intensity rows 4-6 transform as
    vectors. The result is a new array equal, value for value, to the
    features extracted from ``apply_to_audio(clip, p)`` (an all-zero
    intensity cell may differ in the sign of its zeros).
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 3 or feats.shape[0] != len(FEATURE_CHANNELS):
        raise ValueError(f"expected a (7, frames, n_mels) tensor, got {feats.shape}")
    out = np.empty_like(feats)
    out[0] = feats[0]
    out[1] = feats[1 + _AXIS[p.x_src]]
    out[2] = feats[1 + _AXIS[p.y_src]]
    out[3] = feats[3]
    out[4:] = np.moveaxis(apply_to_vector(np.moveaxis(feats[4:], 0, -1), p), -1, 0)
    return out


def apply_to_direction(d: Direction, p: RotationPattern) -> Direction:
    """Rotate a direction: the azimuth map in exact degree arithmetic."""
    return Direction(
        wrap_azimuth(p.az_scale * d.azimuth + p.az_offset),
        p.sign_z * d.elevation,
    )


def rotate_annotation(annotation: ClipAnnotation, p: RotationPattern) -> ClipAnnotation:
    """Rotate every event direction of an annotation; frames, classes and tracks stay."""
    return ClipAnnotation(
        tuple(replace(ev, direction=apply_to_direction(ev.direction, p)) for ev in annotation.events),
        n_classes=annotation.n_classes,
    )


def apply_to_vector(vec, p: RotationPattern) -> np.ndarray:
    """Rotate Cartesian vectors (last axis length 3); norm-preserving."""
    v = np.asarray(vec, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = p.sign_x * v[..., _AXIS[p.x_src]]
    out[..., 1] = p.sign_y * v[..., _AXIS[p.y_src]]
    out[..., 2] = p.sign_z * v[..., 2]
    return out


def compose(p: RotationPattern, q: RotationPattern) -> RotationPattern:
    """The pattern acting as p after q (that is, p applied to q's output)."""
    scale = p.az_scale * q.az_scale
    offset = _canonical_offset(p.az_scale * q.az_offset + p.az_offset)
    return _BY_ACTION[(scale, offset, p.sign_z * q.sign_z)]


def inverse(p: RotationPattern) -> RotationPattern:
    """The pattern undoing p: compose(p, inverse(p)) is the identity."""
    if p.az_scale == 1:
        return _BY_ACTION[(1, _canonical_offset(-p.az_offset), p.sign_z)]
    return p  # reflections of azimuth are self-inverse


def _canonical_offset(offset: int) -> int:
    off = offset % 360
    return off - 360 if off > 180 else off
