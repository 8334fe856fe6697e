"""Largest Lyapunov exponent of the classical map via tangent-space evolution.

Tangent vectors ride along a reference trajectory, multiplied each period by
the Jacobian of the map evaluated at the pre-step point.  Every s steps the
pair is Gram-Schmidt reorthonormalised and the log of the leading norm is
accumulated; the estimate after n blocks is

    lambda(n, s) = (1 / (n s)) * sum_i ln(alpha_i)

with alpha_i the pre-normalisation length of the leading vector at block i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

# classical_step is unused here; it stays importable under this name because
# perfbench/tracer.py patches it (and jacobian) on this module
from .classical import (
    KickedTopError,
    KickParams,
    SphericalPoint,
    classical_step,  # noqa: F401
    evolve_trajectory,
    spherical_to_cartesian,
)

__all__ = [
    "DegenerateTangentError",
    "TangentFrame",
    "LyapunovEstimate",
    "jacobian",
    "initial_tangent_frame",
    "benettin_lyapunov",
]

# Underflow guard: Gram-Schmidt norms below this mean the tangent frame has
# collapsed and the ln(alpha) accumulation is meaningless.
_NORM_FLOOR = 1e-300

# Initial points closer to a pole than this have no well-defined coordinate
# frame for the seed tangent vectors.
_POLE_TOL = 1e-8

# The reference orbit and its Jacobians are built this many steps at a time,
# so memory stays flat however long the run.
_CHUNK_STEPS = 4096


class DegenerateTangentError(KickedTopError):
    """Raised when a tangent-vector norm underflows during reorthonormalisation."""


@dataclass(frozen=True)
class TangentFrame:
    """Pair of tangent vectors attached to a point on the sphere."""

    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class LyapunovEstimate:
    """Result of a Benettin run.

    lam is the estimate after all blocks (nats per step); block_series[i]
    is the running estimate using the first i + 1 blocks, so block_series[-1]
    equals lam.
    """

    lam: float
    block_series: np.ndarray
    n: int
    s: int


def jacobian(state, params: KickParams) -> np.ndarray:
    """3x3 derivative of classical_step at `state`.

    state has shape (..., 3); returns shape (..., 3, 3).  Closed form; the
    x column picks up the kick-phase dependence.  Its determinant is exactly
    1 (a product of rotations with a shear that expands the cofactor
    structure to unity).
    """
    state = np.asarray(state, dtype=np.float64)
    x = state[..., 0]
    y = state[..., 1]
    z = state[..., 2]
    k = params.kappa
    a = k * x
    c = np.cos(a)
    s = np.sin(a)
    out = np.zeros(state.shape[:-1] + (3, 3))
    out[..., 0, 0] = k * (y * c - z * s)
    out[..., 0, 1] = s
    out[..., 0, 2] = c
    out[..., 1, 0] = -k * (y * s + z * c)
    out[..., 1, 1] = c
    out[..., 1, 2] = -s
    out[..., 2, 0] = -1.0
    return out


def _orbit_jacobians(state, params: KickParams, steps: int):
    """Yield the Jacobian at each of the first `steps` points of the orbit."""
    while steps > 0:
        chunk = min(_CHUNK_STEPS, steps)
        path = evolve_trajectory(state, params, chunk)
        yield from jacobian(path[:-1], params)
        state = path[-1]
        steps -= chunk


def initial_tangent_frame(point: SphericalPoint) -> TangentFrame:
    """Orthonormal tangent pair at a spherical point.

    w1 points along increasing theta, w2 along decreasing phi:
        w1 = (cos t cos p, cos t sin p, -sin t)
        w2 = (sin p, -cos p, 0)
    Rejects points within 1e-8 of a pole, where the frame is undefined.
    """
    theta, phi = float(point[0]), float(point[1])
    if abs(np.sin(theta)) < _POLE_TOL:
        raise ValueError(
            f"tangent frame undefined within {_POLE_TOL} of a pole (theta={theta!r})"
        )
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    w1 = np.array([ct * cp, ct * sp, -st])
    w2 = np.array([sp, -cp, 0.0])
    return TangentFrame(w1=w1, w2=w2)


def benettin_lyapunov(
    start: SphericalPoint,
    params: KickParams,
    n_blocks: int,
    steps_per_block: int,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent from n_blocks blocks of steps_per_block steps.

    The reference orbit starts at `start`; the tangent pair starts as the
    local (theta, phi) frame.  Norms are taken in the Euclidean metric of the
    embedding space.  The reference orbit and its Jacobians are built in
    chunks; the tangent pair then advances by one 3x3 @ 3x2 matmul per step,
    kept because a hand-written product would round differently from BLAS
    and change the output bytes.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    if steps_per_block < 1:
        raise ValueError(f"steps_per_block must be >= 1, got {steps_per_block}")
    frame = initial_tangent_frame(start)
    state = spherical_to_cartesian(start)
    w = np.column_stack([frame.w1, frame.w2])
    jacobians = _orbit_jacobians(state, params, n_blocks * steps_per_block)
    log_sum = 0.0
    block_series = np.empty(n_blocks)
    for block in range(n_blocks):
        for jac in islice(jacobians, steps_per_block):
            w = jac @ w
        alpha = float(np.linalg.norm(w[:, 0]))
        if not alpha > _NORM_FLOOR:
            raise DegenerateTangentError(
                f"leading tangent norm {alpha!r} underflowed at block {block}"
            )
        w[:, 0] /= alpha
        w[:, 1] -= (w[:, 0] @ w[:, 1]) * w[:, 0]
        beta = float(np.linalg.norm(w[:, 1]))
        if not beta > _NORM_FLOOR:
            raise DegenerateTangentError(
                f"second tangent norm {beta!r} underflowed at block {block}"
            )
        w[:, 1] /= beta
        log_sum += np.log(alpha)
        block_series[block] = log_sum / ((block + 1) * steps_per_block)
    return LyapunovEstimate(
        lam=float(block_series[-1]),
        block_series=block_series,
        n=n_blocks,
        s=steps_per_block,
    )
