"""Directions and unit vectors on the sphere.

Convention used throughout the toolkit: x points to the front, y to the
left, z up. Azimuth is measured counterclockwise from the front axis and
normalized into (-180, 180]; elevation is measured up from the horizontal
plane and must lie in [-90, 90]. All public interfaces are in degrees.

A direction becomes Cartesian in one place, ``angle_unit_vectors`` of
azimuth and elevation columns: ``unit_vectors`` of many directions and
``dir_to_unit`` of one call it, so all agree bit for bit. The way back is
one place too, ``vector_angles`` of the rows of an array, which
``unit_to_dir`` calls for one vector.

``norm3``, ``dot3`` and ``cross3`` are the norm, dot and cross product
over a last axis of length 3, written out component by component. They
hold the bits of ``np.linalg.norm(v, axis=-1)``, ``np.sum(u * v,
axis=-1)`` and ``np.cross(u, v)``, which add and multiply in the same
order, without numpy's generic reduction and cross set-up on small
arrays (``tests/test_geometry.py::TestXyzKernels`` holds them to it).
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


def norm3(v: np.ndarray) -> np.ndarray:
    """``sqrt((x*x + y*y) + z*z)`` over the last axis of ``v``: the bits of ``np.linalg.norm(v, axis=-1)``."""
    sq = v * v
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``((0 + u0*v0) + u1*v1) + u2*v2`` over the last axes, broadcast: the bits of ``np.sum(u * v, axis=-1)``.

    The sum starts from +0.0, as numpy's does, so three -0.0 products sum to +0.0.
    """
    p = u * v
    return 0.0 + p[..., 0] + p[..., 1] + p[..., 2]


def cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The cross product over the last axes, broadcast: the bits of ``np.cross(u, v)``."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0], axis=-1)


def _cos_sin(radians: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``math.cos`` and ``math.sin`` of every element: numpy's do not round as ``math``'s do."""
    values = radians.tolist()
    cos = np.fromiter(map(math.cos, values), float, len(values))
    return cos, np.fromiter(map(math.sin, values), float, len(values))


def angle_unit_vectors(azimuth, elevation) -> np.ndarray:
    """The unit vectors of azimuth and elevation columns (degrees) as one array shaped (n, 3).

    Row ``i`` is ``(cos az cos el, sin az cos el, sin el)`` with each angle
    in radians: ``np.radians`` is the one product ``math.radians`` takes,
    and the cosines and sines are ``math``'s, so row ``i`` holds the bits
    of ``math``'s arithmetic on ``azimuth[i]`` and ``elevation[i]``.
    """
    cos_az, sin_az = _cos_sin(np.radians(np.asarray(azimuth, dtype=float)).reshape(-1))
    cos_el, sin_el = _cos_sin(np.radians(np.asarray(elevation, dtype=float)).reshape(-1))
    return np.stack([cos_az * cos_el, sin_az * cos_el, sin_el], axis=1)


def unit_vectors(directions) -> np.ndarray:
    """The unit vectors of many directions as one array shaped (n, 3); (0, 3) when empty."""
    directions = list(directions)
    return angle_unit_vectors([d.azimuth for d in directions], [d.elevation for d in directions])


def dir_to_unit(d: Direction) -> UnitVec3:
    """Convert a direction to its unit vector (x front, y left, z up)."""
    return UnitVec3(*unit_vectors([d])[0].tolist())


def _undefined(n: float) -> ValueError:
    if n == 0.0:
        return ValueError("undefined direction: zero vector")
    return ValueError(f"undefined direction: vector norm {n} is not finite")


def vector_angles(vectors) -> tuple[np.ndarray, np.ndarray]:
    """The azimuths and elevations of the rows of an ``(n, 3)`` array, as two float arrays.

    A ``(3,)`` vector is one row, and a ``(G, n, 3)`` stack gives its
    ``G * n`` rows in order; any other shape raises ValueError naming it.

    Each row is normalized; the azimuth is ``degrees(atan2(y, x))``
    wrapped into (-180, 180] (0 at the poles, x = y = 0) and the elevation
    ``degrees(atan2(z, hypot(x, y)))``. The norms, the normalization, the
    degrees and the wrap are array arithmetic, which rounds as Python's
    float arithmetic and ``wrap_azimuth`` do; ``hypot`` and ``atan2`` are
    ``math``'s, since numpy's do not round as ``math``'s do. The first
    row whose norm is 0 or not finite raises ValueError.
    """
    v = np.asarray(vectors, dtype=float)
    if not 1 <= v.ndim <= 3 or v.shape[-1] != 3:
        raise ValueError(f"expected vectors shaped (3,), (n, 3) or (G, n, 3), got {v.shape}")
    v = v.reshape(-1, 3)
    with np.errstate(over="ignore"):
        n = norm3(v)
    bad = (n == 0.0) | ~np.isfinite(n)
    if bad.any():
        raise _undefined(float(n[bad.argmax()]))
    x, y, z = (v / n[:, np.newaxis]).T.tolist()
    horiz = list(map(math.hypot, x, y))
    azimuth = np.degrees(np.fromiter(map(math.atan2, y, x), float, len(x)))
    azimuth[np.array(horiz) == 0.0] = 0.0
    elevation = np.degrees(np.fromiter(map(math.atan2, z, horiz), float, len(x)))
    azimuth %= 360.0  # wrap_azimuth, element by element
    azimuth[azimuth > 180.0] -= 360.0
    return azimuth, elevation


def unit_to_dir(v) -> Direction:
    """Convert a vector to a direction; inverse of :func:`dir_to_unit`.

    Accepts a ``UnitVec3`` or any length-3 array-like and normalizes it
    (``vector_angles`` of one row). The azimuth of the poles (x = y = 0)
    is defined as 0. A vector whose norm is 0, or not finite, has no
    direction and raises ``ValueError``.
    """
    if isinstance(v, UnitVec3):
        v = (v.x, v.y, v.z)
    azimuth, elevation = vector_angles(np.asarray(v, dtype=float).reshape(3))
    return Direction(float(azimuth[0]), float(elevation[0]))


def angle_between(u, v) -> np.ndarray:
    """Great-circle angle in degrees between Cartesian vectors.

    Broadcasts over leading axes; the last axis must have length 3. Inputs
    need not be normalized. Uses atan2(|u x v|, u.v), which is accurate
    down to ~1e-13 degrees near coincident and antipodal pairs; ``norm3``,
    ``cross3`` and ``dot3`` give the bits of ``np.linalg.norm``, ``np.cross``
    and ``np.sum``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != (3,) or v.shape[-1:] != (3,):
        raise ValueError(f"expected vectors with a last axis of length 3, got {u.shape} and {v.shape}")
    return np.degrees(np.arctan2(norm3(cross3(u, v)), dot3(u, v)))


def angular_distance(a: Direction, b: Direction) -> float:
    """Great-circle distance between two directions, in [0, 180] degrees."""
    return float(angle_between(*unit_vectors((a, b))))
