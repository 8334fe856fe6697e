"""Classical kicked-top map on the unit sphere.

One period of the drive is a pi/2 precession about the y axis followed by
an impulsive torsion about the z axis whose angle is proportional to the
(pre-step) x component.  In Cartesian coordinates the stroboscopic map is

    X' =  Z cos(kappa X) + Y sin(kappa X)
    Y' =  Y cos(kappa X) - Z sin(kappa X)
    Z' = -X

which is a composition of two rotations and therefore preserves the norm
exactly (up to floating-point roundoff, no renormalisation is applied).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "KickedTopError",
    "KickParams",
    "SphericalPoint",
    "spherical_to_cartesian",
    "cartesian_to_spherical",
    "kick_rotation",
    "classical_step",
    "evolve_trajectory",
    "phase_portrait",
    "PORTRAIT_DTYPE",
]


class KickedTopError(RuntimeError):
    """Base of the package's own numerical failures.

    Bad input raises ValueError; a computation that cannot deliver its
    result (a series that never equilibrates, a fit window that is too
    short, a degenerate tangent frame, a drifting norm) raises a subclass
    of this.
    """


@dataclass(frozen=True)
class KickParams:
    """Parameters of the stroboscopic map.

    kappa is the torsion strength; the precession angle is fixed at pi/2.
    """

    kappa: float

    def __post_init__(self):
        kappa = float(self.kappa)
        if not np.isfinite(kappa) or kappa < 0.0:
            raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
        object.__setattr__(self, "kappa", kappa)


class SphericalPoint(NamedTuple):
    """Point on the unit sphere, theta in [0, pi] from +z, phi in [0, 2*pi)."""

    theta: float
    phi: float


def spherical_to_cartesian(point) -> np.ndarray:
    """Unit vector (x, y, z) for a (theta, phi) pair or an array of pairs.

    Accepts anything of shape (..., 2); returns shape (..., 3).
    """
    angles = np.asarray(point, dtype=np.float64)
    theta = angles[..., 0]
    phi = angles[..., 1]
    sin_t = np.sin(theta)
    out = np.stack(
        [sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=-1
    )
    return out


def cartesian_to_spherical(vec) -> SphericalPoint:
    """Inverse of spherical_to_cartesian for unit vectors.

    phi is reduced to [0, 2*pi).  At a pole (x = y = 0) phi is 0 when x
    is +0.0 and pi when x is -0.0, whatever the sign of y: arctan2 keeps
    the sign of a zero x.  A kappa=0 orbit from theta=0 reaches
    (-0.0, 0, 1) in four steps, so its portrait writes phi = pi there.
    Array input of shape (..., 3) returns a SphericalPoint of arrays.
    """
    v = np.asarray(vec, dtype=np.float64)
    theta = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    phi = np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * np.pi)
    if v.ndim == 1:
        return SphericalPoint(float(theta), float(phi))
    return SphericalPoint(theta, phi)


def kick_rotation(state: np.ndarray, phase) -> np.ndarray:
    """Apply one drive period with an externally supplied kick phase.

    Rotates by pi/2 about y, then by `phase` about z.  `state` has shape
    (..., 3); `phase` must broadcast against the leading dimensions.  The
    bipartite map reuses this with a shared phase for both subsystems.
    """
    state = np.asarray(state, dtype=np.float64)
    x = state[..., 0]
    y = state[..., 1]
    z = state[..., 2]
    c = np.cos(phase)
    s = np.sin(phase)
    out = np.empty_like(state)
    out[..., 0] = z * c + y * s
    out[..., 1] = y * c - z * s
    out[..., 2] = -x
    return out


def classical_step(state, params: KickParams) -> np.ndarray:
    """One period of the kicked-top map.

    state: array-like of shape (..., 3).  The kick phase is kappa times the
    pre-step x component of each vector.  Returns a new array; the input is
    not modified.
    """
    state = np.asarray(state, dtype=np.float64)
    return kick_rotation(state, params.kappa * state[..., 0])


def evolve_trajectory(start, params: KickParams, steps: int) -> np.ndarray:
    """Iterate the map; returns shape (steps + 1, 3) including the start.

    Row i + 1 is exactly classical_step(row i, params): the loop runs the
    same float64 operations on Python floats, without per-step array
    overhead, and math.cos/math.sin round as numpy's float64 cos/sin do.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (3,):
        raise ValueError(f"start must have shape (3,), got {start.shape}")
    cos, sin = math.cos, math.sin
    kappa = params.kappa
    x, y, z = start.tolist()
    out = array("d", (x, y, z))
    extend = out.extend
    for _ in range(steps):
        phase = kappa * x
        c = cos(phase)
        s = sin(phase)
        x, y, z = z * c + y * s, y * c - z * s, -x
        extend((x, y, z))
    return np.frombuffer(out).reshape(steps + 1, 3)


PORTRAIT_DTYPE = np.dtype(
    [
        ("traj_id", np.int64),
        ("step", np.int64),
        ("theta", np.float64),
        ("phi", np.float64),
        ("x", np.float64),
        ("y", np.float64),
        ("z", np.float64),
    ]
)


# rows per theta/phi block: the angles then need one (k, 3) copy of the
# positions, a few hundred kB however long the portrait is
_ANGLE_BLOCK_ROWS = 4096


def phase_portrait(initials, params: KickParams, steps: int) -> np.ndarray:
    """Evolve several initial points and tag each record with its trajectory.

    initials: sequence of (theta, phi) pairs, or a (count, 2) array of
    them.  Returns a structured array with fields traj_id, step, theta,
    phi, x, y, z, ordered by trajectory and then by step.  Each trajectory
    is evolve_trajectory from its start, which has the bits of stepping
    classical_step.  The records are filled in place and are the only
    array of their size the call makes.
    """
    angles = np.asarray(initials, dtype=np.float64).reshape(len(initials), 2)
    count = angles.shape[0]
    records = np.empty((count, steps + 1), dtype=PORTRAIT_DTYPE)
    records["traj_id"] = np.arange(count)[:, None]
    records["step"] = np.arange(steps + 1)
    x, y, z = records["x"], records["y"], records["z"]
    for i, start in enumerate(spherical_to_cartesian(angles)):
        x[i], y[i], z[i] = evolve_trajectory(start, params, steps).T
    records = records.reshape(-1)
    for start in range(0, records.size, _ANGLE_BLOCK_ROWS):
        block = records[start:start + _ANGLE_BLOCK_ROWS]
        # a stacked (k, 3) copy, so the angle ufuncs see the same 24-byte
        # column strides, and round the same way, as on an (n, 3) orbit
        xyz = np.stack([block["x"], block["y"], block["z"]], axis=-1)
        block["theta"], block["phi"] = cartesian_to_spherical(xyz)
    return records
