"""Directions and unit vectors on the sphere.

Convention used throughout the toolkit: x points to the front, y to the
left, z up. Azimuth is measured counterclockwise from the front axis and
normalized into (-180, 180]; elevation is measured up from the horizontal
plane and must lie in [-90, 90]. All public interfaces are in degrees.

A direction becomes Cartesian in one place: ``dir_to_unit`` gives one
validated ``UnitVec3`` and ``unit_vectors`` an ``(n, 3)`` array of many,
both from the same expressions, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def wrap_azimuth(azimuth_deg: float) -> float:
    """Wrap an azimuth in degrees into (-180, 180]."""
    az = float(azimuth_deg) % 360.0
    if az > 180.0:
        az -= 360.0
    return az


@dataclass(frozen=True)
class Direction:
    """A direction of arrival as (azimuth, elevation) in degrees."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not math.isfinite(float(self.azimuth)):
            raise ValueError(f"azimuth must be finite, got {self.azimuth}")
        el = float(self.elevation)
        if not math.isfinite(el) or el < -90.0 or el > 90.0:
            raise ValueError(f"elevation must be in [-90, 90], got {self.elevation}")
        object.__setattr__(self, "azimuth", wrap_azimuth(self.azimuth))
        object.__setattr__(self, "elevation", el)


@dataclass(frozen=True)
class UnitVec3:
    """Cartesian unit vector; the carrier for Cartesian DOA values."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"not a unit vector (norm {n})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def _cartesian(d: Direction) -> tuple[float, float, float]:
    az = math.radians(d.azimuth)
    el = math.radians(d.elevation)
    return math.cos(az) * math.cos(el), math.sin(az) * math.cos(el), math.sin(el)


def dir_to_unit(d: Direction) -> UnitVec3:
    """Convert a direction to its unit vector (x front, y left, z up)."""
    return UnitVec3(*_cartesian(d))


def unit_vectors(directions) -> np.ndarray:
    """The unit vectors of many directions as one array shaped (n, 3); (0, 3) when empty.

    Row ``i`` holds the bits of ``dir_to_unit(directions[i]).as_array()``.
    """
    return np.array([_cartesian(d) for d in directions], dtype=float).reshape(-1, 3)


def unit_to_dir(v) -> Direction:
    """Convert a vector to a direction; inverse of :func:`dir_to_unit`.

    Accepts a ``UnitVec3`` or any length-3 array-like and normalizes it.
    The azimuth of the poles (x = y = 0) is defined as 0. A zero vector
    has no direction and raises ``ValueError``.
    """
    if isinstance(v, UnitVec3):
        x, y, z = v.x, v.y, v.z
    else:
        x, y, z = (float(c) for c in np.asarray(v, dtype=float).reshape(3))
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("undefined direction: zero vector")
    x, y, z = x / n, y / n, z / n
    horiz = math.hypot(x, y)
    az = 0.0 if horiz == 0.0 else math.degrees(math.atan2(y, x))
    el = math.degrees(math.atan2(z, horiz))
    return Direction(az, el)


def angle_between(u, v) -> np.ndarray:
    """Great-circle angle in degrees between Cartesian vectors.

    Broadcasts over leading axes; the last axis must have length 3. Inputs
    need not be normalized. Uses atan2(|u x v|, u.v), which is accurate
    down to ~1e-13 degrees near coincident and antipodal pairs.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cross = np.cross(u, v)
    sin_part = np.linalg.norm(cross, axis=-1)
    cos_part = np.sum(u * v, axis=-1)
    return np.degrees(np.arctan2(sin_part, cos_part))


def angular_distance(a: Direction, b: Direction) -> float:
    """Great-circle distance between two directions, in [0, 180] degrees."""
    return float(angle_between(*unit_vectors((a, b))))
