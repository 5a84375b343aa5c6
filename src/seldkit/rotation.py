"""The 16-pattern FOA rotation/reflection group.

Each pattern is a combination of X/Y channel swapping, channel sign
inversion, and Z sign inversion that maps a valid FOA field to a valid FOA
field. On source angles this realizes the eight azimuth transforms
{phi, -phi, 90-phi, phi+90, phi-90, -phi-90, 180-phi, phi+180} crossed
with an elevation sign flip: the dihedral group of the square acting on
azimuth times the up/down reflection. Each pattern is written down once,
as its azimuth map and elevation sign; the channel permutation and signs
follow from them. Patterns act identically on audio channels, feature
tensors, Cartesian DOA vectors, (azimuth, elevation) pairs and whole
label annotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip
from .features import FEATURE_CHANNELS
from .geometry import Direction, wrap_azimuth
from .labels import ClipAnnotation

# (azimuth_map, az_scale, az_offset): the azimuth map az_scale * phi + az_offset.
_AZ_TABLE = (
    ("phi", 1, 0),
    ("-phi", -1, 0),
    ("90-phi", -1, 90),
    ("phi+90", 1, 90),
    ("phi-90", 1, -90),
    ("-phi-90", -1, -90),
    ("180-phi", -1, 180),
    ("phi+180", 1, 180),
)


@dataclass(frozen=True)
class RotationPattern:
    """One member of the 16-element FOA rotation group.

    The azimuth map is ``az_scale * phi + az_offset`` (degrees) and the
    elevation map is ``sign_z * theta``, since the Z channel carries
    sin(elevation). ``src`` and ``signs`` are the same action as a signed
    permutation of (x, y, z), derived from those numbers: rotated axis
    ``i`` is ``signs[i]`` times source axis ``src[i]``.
    """

    id: int
    azimuth_map: str
    az_scale: int
    az_offset: int
    sign_z: int
    src: tuple = field(init=False)
    signs: tuple = field(init=False)

    def __post_init__(self):
        # x = cos(phi), y = sin(phi) (times cos(theta)); with c = cos(o), s = sin(o):
        # cos(k*phi + o) = c*cos(phi) - k*s*sin(phi), sin(k*phi + o) = k*c*sin(phi) + s*cos(phi)
        k = self.az_scale
        c = round(math.cos(math.radians(self.az_offset)))
        s = round(math.sin(math.radians(self.az_offset)))
        if c:
            src, signs = (0, 1, 2), (c, k * c, self.sign_z)
        else:
            src, signs = (1, 0, 2), (-k * s, s, self.sign_z)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "signs", signs)

    def matrix(self) -> np.ndarray:
        """The pattern as a signed permutation of (x, y, z)."""
        m = np.zeros((3, 3), dtype=int)
        m[(0, 1, 2), self.src] = self.signs
        return m


def _build_patterns() -> tuple[RotationPattern, ...]:
    return tuple(
        RotationPattern(az_idx * 2 + elev_idx, name, scale, offset, sign_z)
        for az_idx, (name, scale, offset) in enumerate(_AZ_TABLE)
        for elev_idx, sign_z in enumerate((1, -1))
    )


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
    xyz = clip.samples[1:]
    rotated = np.stack([clip.samples[0], *(sign * xyz[k] for k, sign in zip(p.src, p.signs))])
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
    for i, (k, sign) in enumerate(zip(p.src, p.signs)):
        out[1 + i] = feats[1 + k]
        np.multiply(feats[4 + k], sign, out=out[4 + i])
    return out


def apply_to_direction(d: Direction, p: RotationPattern) -> Direction:
    """Rotate a direction: the azimuth map in exact degree arithmetic."""
    return Direction(
        wrap_azimuth(p.az_scale * d.azimuth + p.az_offset),
        p.sign_z * d.elevation,
    )


def rotate_annotation(annotation: ClipAnnotation, p: RotationPattern) -> ClipAnnotation:
    """Rotate each distinct direction of an annotation once; the frame, class and track
    columns stay, shared with the result (``ClipAnnotation.with_directions``)."""
    return annotation.with_directions([apply_to_direction(d, p) for d in annotation.directions])


def apply_to_vector(vec, p: RotationPattern) -> np.ndarray:
    """Rotate Cartesian vectors (last axis length 3); norm-preserving."""
    return np.asarray(vec, dtype=float)[..., p.src] * p.signs


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
