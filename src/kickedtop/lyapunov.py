"""Largest Lyapunov exponent of the classical map via tangent-space evolution.

One tangent vector rides along a reference trajectory, multiplied each
period by the Jacobian of the map at the pre-step point.  Every s steps it is
renormalised and the log of its norm accumulated (Benettin et al., Meccanica
15, 9 (1980)); the estimate after n blocks is

    lambda(n, s) = (1 / (n s)) * sum_i ln(alpha_i)

with alpha_i the vector's length at the end of block i, before renormalising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "LyapunovEstimate",
    "jacobian",
    "initial_tangent_frame",
    "benettin_lyapunov",
]

# Underflow guard: a block-end tangent norm below this has collapsed, and the
# ln(alpha) accumulation is meaningless.
_NORM_FLOOR = 1e-300

# Initial points closer to a pole than this have no well-defined coordinate
# frame for the seed tangent vectors.
_POLE_TOL = 1e-8

# The reference orbit and its Jacobians are built this many steps at a time,
# so memory stays flat however long the run: a chunk's orbit and its
# Jacobians take about 80 KB at their peak
_CHUNK_STEPS = 512


class DegenerateTangentError(KickedTopError):
    """Raised when the tangent vector's norm underflows or overflows."""


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


def initial_tangent_frame(point: SphericalPoint) -> np.ndarray:
    """Orthonormal tangent pair at a spherical point, as the columns of a (3, 2) array.

    w1 (column 0) points along increasing theta, w2 (column 1) along
    decreasing phi:
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
    return np.array([[ct * cp, sp], [ct * sp, -cp], [-st, 0.0]])


def _checked_norm(w: np.ndarray, block: int) -> float:
    """np.linalg.norm of tangent column 0 without its dispatch: sqrt of a contiguous copy's dot.

    DegenerateTangentError if it overflowed or underflowed."""
    c = w[:, 0].copy()
    norm = math.sqrt(c.dot(c))
    if not math.isfinite(norm):
        raise DegenerateTangentError(
            f"leading tangent norm is {norm!r} at block {block}: the tangent product overflowed"
        )
    if not norm > _NORM_FLOOR:
        raise DegenerateTangentError(f"leading tangent norm {norm!r} underflowed at block {block}")
    return norm


def benettin_lyapunov(
    start: SphericalPoint,
    params: KickParams,
    n_blocks: int,
    steps_per_block: int,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent from n_blocks blocks of steps_per_block steps.

    The reference orbit starts at `start`; the tangent vector starts as
    column 0 of initial_tangent_frame(start).  Norms are Euclidean in the
    embedding space.  The reference orbit and its Jacobians are built in
    chunks; the vector then advances by one 3x3 . 3x2 `jac.dot` per step,
    kept because a hand-written product would round differently from BLAS
    and change the output bytes.  Each block's norm is stored, and their
    logs are summed into the block series after the loop.  A norm that
    underflows at a block's end, or a vector that leaves float64 (a huge
    kappa or a very long block) by a chunk's end, raises
    DegenerateTangentError naming the block.
    """
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    if steps_per_block < 1:
        raise ValueError(f"steps_per_block must be >= 1, got {steps_per_block}")
    w = initial_tangent_frame(start)
    # Column 1 is zeroed once and never written again.  It stays in the operand
    # only to keep the product OpenBLAS's small dgemm, which computes each output
    # column on its own, so column 0 keeps its bits; a (3, 1) operand goes to gemv.
    w[:, 1] = 0.0
    state = spherical_to_cartesian(start)
    remaining = n_blocks * steps_per_block
    block, left = 0, steps_per_block  # left: steps still to apply in this block
    alphas = np.empty(n_blocks)
    # an overflow in the Jacobians or the tangent product reaches the vector
    # as inf or NaN, which _checked_norm reports
    with np.errstate(over="ignore", invalid="ignore"):
        while remaining:
            # chunk edges fall anywhere within a block: the orbit continues
            # from the chunk's last point with the same bits
            chunk = min(_CHUNK_STEPS, remaining)
            path = evolve_trajectory(state, params, chunk)
            state = path[-1]
            remaining -= chunk
            for jac in jacobian(path[:-1], params):
                w = jac.dot(w)  # the BLAS call of np.dot and @, without their dispatch
                left -= 1
                if left:
                    continue
                alphas[block] = alpha = _checked_norm(w, block)
                w[:, 0] /= alpha
                block, left = block + 1, steps_per_block
            # a vector that left float64 never comes back: report it now,
            # not at the end of a block that may be millions of steps away
            if not np.isfinite(w[:, 0]).all():
                _checked_norm(w, block)  # its norm is inf or NaN
    block_series = np.cumsum(np.log(alphas)) / (np.arange(1, n_blocks + 1) * steps_per_block)
    return LyapunovEstimate(
        lam=float(block_series[-1]),
        block_series=block_series,
        n=n_blocks,
        s=steps_per_block,
    )
