"""Quantum spin-j top: coherent states, Floquet map, Bloch vectors, entropies.

The basis is |j, m> with m = j, j-1, ..., -j, so index 0 is the top of the
ladder.  One drive period is the unitary

    U = exp(-i kappa Jz^2 / (2 j)) exp(-i (pi/2) Jy)

applied as kick-after-precession, matching the classical map in this
package.  Bloch vectors are expectation values of (Jx, Jy, Jz) divided by j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, xlogy

from .classical import KickedTopError

__all__ = [
    "NormDriftError",
    "SpinState",
    "coherent_state",
    "floquet_unitary",
    "bloch_vector",
    "evolve_expectations",
    "linear_entropy",
    "von_neumann_entropy_single_spin",
    "thermo_limit_entropy",
]

_NORM_DRIFT_TOL = 1e-8

# a Bloch vector may be longer than 1 by this much roundoff
_BLOCH_NORM_SLACK = 1e-10


class NormDriftError(KickedTopError):
    """Raised when a state norm drifts by more than 1e-8 during evolution."""


def _two_j(j) -> int:
    two_j = round(2 * float(j))
    if abs(2 * float(j) - two_j) > 1e-9 or two_j < 1:
        raise ValueError(f"j must be a positive half-integer, got {float(j)}")
    return two_j


@dataclass(frozen=True)
class SpinState:
    """State vector of a spin-j system; amplitudes[0] is the m = j component."""

    j: float
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        dim = _two_j(self.j) + 1
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes for j={self.j}, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= _NORM_DRIFT_TOL:  # a NaN norm fails too
            raise ValueError(f"state norm {float(norm)} is not 1 within {_NORM_DRIFT_TOL}")
        object.__setattr__(self, "amplitudes", amps)


# bound on each per-j cache: one dense j=1000 quarter turn is about 64 MB
_CACHE_SIZE = 4


@lru_cache(maxsize=_CACHE_SIZE)
def _ladder(two_j: int):
    """(m values, raising coefficients) of spin two_j / 2, read-only.

    m runs j, j-1, ..., -j; c[i] couples basis index i to i-1:
    J+ |j, m_i> = c[i] |j, m_i + 1>.
    """
    j = two_j / 2.0
    m = (two_j - 2 * np.arange(two_j + 1)) / 2.0
    above = m[1:]
    coeff = np.sqrt(j * (j + 1.0) - above * (above + 1.0))
    for arr in (m, coeff):
        arr.setflags(write=False)
    return m, coeff


def coherent_state(j, theta0: float, phi0: float) -> SpinState:
    """Spin-coherent state centred at (theta0, phi0).

    Amplitudes follow from rotating |j, j> to the target direction:

        <j, m|theta0, phi0> = C(2j, j-m)^(1/2)
                              cos(theta0/2)^(j+m) sin(theta0/2)^(j-m)
                              exp(i (j - m) phi0)

    evaluated in log space so large j stays finite.  The Bloch vector of
    the result is the unit vector at (theta0, phi0).
    """
    two_j = _two_j(j)
    j = two_j / 2.0
    m = _ladder(two_j)[0]
    cos_half = np.cos(theta0 / 2.0)
    sin_half = np.sin(theta0 / 2.0)
    if cos_half < 0.0 or sin_half < 0.0:
        raise ValueError(f"theta0 must lie in [0, pi], got {float(theta0)}")
    ln_binom = gammaln(2 * j + 1) - gammaln(j - m + 1) - gammaln(j + m + 1)
    ln_mag = 0.5 * ln_binom + xlogy(j + m, cos_half) + xlogy(j - m, sin_half)
    amps = np.exp(ln_mag) * np.exp(1j * (j - m) * phi0)
    amps /= np.linalg.norm(amps)
    return SpinState(j=j, amplitudes=amps)


@lru_cache(maxsize=_CACHE_SIZE)
def _quarter_turn_y(two_j: int) -> np.ndarray:
    """exp(-i (pi/2) Jy) from the eigendecomposition of Jy.

    Jy = (J+ - J-) / 2i is built from the ladder coefficients alone: -i c/2
    just above the diagonal, +i c/2 just below it.  It is freed once `eigh`
    returns.
    """
    coeff = _ladder(two_j)[1]
    jy = np.zeros((two_j + 1, two_j + 1), dtype=np.complex128)
    above = np.arange(two_j)
    jy[above, above + 1] = -0.5j * coeff
    jy[above + 1, above] = 0.5j * coeff
    vals, vecs = np.linalg.eigh(jy)
    del jy
    rot = (vecs * np.exp(-0.5j * np.pi * vals)) @ vecs.conj().T
    rot.setflags(write=False)
    return rot


def floquet_unitary(j, kappa: float) -> np.ndarray:
    """One-period unitary: pi/2 turn about y, then the Jz^2 kick.

    The kick phase per basis state is kappa m^2 / (2 j); kappa = 0 reduces
    the map to the bare quarter turn.  A kappa so large that a phase
    overflows raises ValueError.
    """
    two_j = _two_j(j)
    j = two_j / 2.0
    if kappa < 0.0 or not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite and >= 0, got {float(kappa)}")
    if not np.isfinite(float(kappa) * (j * j)):  # kappa m^2 at |m| = j, as the kick rounds it
        raise ValueError(f"kick phase kappa m^2 / (2 j) overflows at kappa={float(kappa)}, j={j}")
    m = _ladder(two_j)[0]
    kick = np.exp(-1j * kappa * m**2 / (2.0 * j))
    return kick[:, None] * _quarter_turn_y(two_j)


def _bloch(psi: np.ndarray, m: np.ndarray, coeff: np.ndarray) -> tuple:
    """j times the Bloch vector of amplitudes psi, as (<Jx>, <Jy>, <Jz>)."""
    plus = np.sum(coeff * np.conj(psi[:-1]) * psi[1:])
    z = np.sum(m * np.abs(psi) ** 2)
    return plus.real, plus.imag, z


def bloch_vector(state: SpinState) -> np.ndarray:
    """< (Jx, Jy, Jz) > / j as a length-3 real vector.

    Uses the ladder structure directly (O(dim), no matrix products):
    <J+> = sum_i c_i conj(psi_{i-1}) psi_i, <Jx> = Re, <Jy> = Im.
    """
    m, coeff = _ladder(_two_j(state.j))
    return np.array(_bloch(state.amplitudes, m, coeff)) / state.j


def evolve_expectations(state: SpinState, unitary: np.ndarray, steps: int) -> np.ndarray:
    """Bloch vector after 0..steps periods; shape (steps + 1, 3).

    Raises NormDriftError if the state norm leaves 1 by more than 1e-8,
    which would indicate a non-unitary propagator.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    m, coeff = _ladder(_two_j(state.j))
    psi = state.amplitudes
    out = np.empty((steps + 1, 3))
    out[0] = _bloch(psi, m, coeff)
    for i in range(1, steps + 1):
        psi = unitary @ psi
        norm = np.linalg.norm(psi)
        if not abs(norm - 1.0) <= _NORM_DRIFT_TOL:  # a NaN norm fails too
            raise NormDriftError(f"norm drifted to {float(norm)} at step {i}")
        out[i] = _bloch(psi, m, coeff)
    out /= state.j
    return out


def linear_entropy(bloch: np.ndarray) -> float:
    """(1 - |r|^2) / 2 for a spin-1/2 reduced state with Bloch vector r.

    Ranges over [0, 1/2]; |r| may exceed 1 by at most 1e-10 of roundoff.
    """
    r2 = float(np.dot(bloch, bloch))
    if r2 > 1.0 + _BLOCH_NORM_SLACK:
        raise _bloch_norm_error(np.sqrt(r2))
    return max(0.5 * (1.0 - r2), 0.0)


def _bloch_norm_error(norm) -> ValueError:
    """The error for a Bloch vector of length `norm` beyond roundoff of 1."""
    return ValueError(f"Bloch vector norm {float(norm)} exceeds 1")


def von_neumann_entropy_single_spin(bloch: np.ndarray) -> float:
    """-Tr(rho ln rho) in nats for the spin-1/2 state with Bloch vector r."""
    r = float(np.linalg.norm(bloch))
    if r > 1.0 + _BLOCH_NORM_SLACK:
        raise _bloch_norm_error(r)
    lam = np.clip([(1.0 + r) / 2.0, (1.0 - r) / 2.0], 0.0, 1.0)
    return float(-np.sum(xlogy(lam, lam)))


def thermo_limit_entropy(vectors) -> float:
    """Equilibrium entropy proxy of an ensemble of unit vectors.

    (1 - |mean vector|^2) / 2: zero for a fully aligned ensemble, 1/2 for
    an isotropic one.  vectors has shape (n, 3).
    """
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] != 3:
        raise ValueError(f"vectors must have shape (n, 3), got {vecs.shape}")
    return linear_entropy(vecs.mean(axis=0))
