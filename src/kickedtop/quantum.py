"""Quantum spin-j top: coherent states, Floquet map, Bloch vectors, entropies.

The basis is |j, m> with m = j, j-1, ..., -j, so index 0 is the top of the
ladder.  One drive period is the unitary

    U = exp(-i kappa Jz^2 / (2 j)) exp(-i (pi/2) Jy)

applied as kick-after-precession, matching the classical map in this
package.  Bloch vectors are expectation values of (Jx, Jy, Jz) divided by j.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    twice = 2 * float(j)
    two_j = round(twice) if math.isfinite(twice) else 0  # 0 is refused below
    if abs(twice - two_j) > 1e-9 or two_j < 1:
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


# constants of Cephes lgam (S. L. Moshier, Cephes Math Library): ln sqrt(2 pi)
# and its Stirling series below x = 1000.  tests/test_quantum.py checks the
# port bit for bit against the library gammaln and xlogy it replaces.
_LN_SQRT_2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_gamma(n: int) -> float:
    """ln Gamma(n) for an integer n >= 1, bit for bit as Cephes lgam.

    Every log is libm's, through math.log: numpy's SIMD log rounds some
    inputs differently, which would move output bytes.
    """
    if n < 13:
        return math.log(math.factorial(n - 1))
    x = float(n)
    q = (x - 0.5) * math.log(x) - x + _LN_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = 0.0
    for coeff in _STIRLING:
        series = series * p + coeff
    return q + series / x


@lru_cache(maxsize=_CACHE_SIZE)
def _log_factorials(two_j: int) -> np.ndarray:
    """ln n! for n = 0 .. two_j (entry n is ln Gamma(n + 1)), read-only."""
    table = np.array([_log_gamma(n) for n in range(1, two_j + 2)])
    table.setflags(write=False)
    return table


def _xlogy(x: np.ndarray, y: float) -> np.ndarray:
    """x ln(y) for y >= 0, with 0 where x == 0 unless y is NaN.

    ln(y) is libm's, through math.log, and ln(0) = -inf without a warning.
    """
    log_y = math.log(y) if y else -math.inf
    return np.multiply(x, log_y, out=np.zeros_like(x), where=(x != 0) | math.isnan(log_y))


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
    ln_fact = _log_factorials(two_j)  # entry i is ln (j - m_i)!; reversed, ln (j + m_i)!
    ln_binom = ln_fact[two_j] - ln_fact - ln_fact[::-1]
    ln_mag = 0.5 * ln_binom + _xlogy(j + m, cos_half) + _xlogy(j - m, sin_half)
    amps = np.exp(ln_mag) * np.exp(1j * (j - m) * phi0)
    amps /= np.linalg.norm(amps)
    return SpinState(j=j, amplitudes=amps)


# LAPACKE's code for column-major (Fortran-ordered) matrices
_LAPACK_COL_MAJOR = 102


@lru_cache(maxsize=None)
def _lapack_zheevd():
    """LAPACKE_zheevd_work of the OpenBLAS numpy loaded, or None where there is none.

    dlsym on numpy's own linalg extension searches the libraries that
    extension loaded, so this finds numpy's copy of OpenBLAS and loads no
    second one.  Builds without the 64-bit-integer scipy-openblas LAPACK
    (numpy 1.x wheels, MKL, Accelerate) export no such symbol.  Looked up
    at the first build, so importing the package loads nothing.
    """
    try:
        from numpy.linalg import _umath_linalg

        zheevd = ctypes.CDLL(_umath_linalg.__file__).scipy_LAPACKE_zheevd_work64_
    except (ImportError, AttributeError, OSError):
        return None
    lapack_int, pointer = ctypes.c_int64, ctypes.c_void_p
    zheevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, lapack_int, pointer,
                       lapack_int, pointer, pointer, lapack_int, pointer, lapack_int,
                       pointer, lapack_int]
    zheevd.restype = lapack_int
    return zheevd


def _eigh_in_place(a: np.ndarray, zheevd) -> np.ndarray:
    """Eigenvalues of the Hermitian `a`, ascending; its eigenvectors overwrite `a`.

    The same zheevd call as np.linalg.eigh makes, on its lower triangle,
    with work arrays of the sizes an lwork = -1 query returns, so values
    and vectors have eigh's bits.  eigh calls it on a Fortran-ordered copy
    of its input; here `a` must already be that buffer.
    """
    n = len(a)
    if a.dtype != np.complex128 or a.shape != (n, n):
        raise ValueError(f"expected a square complex128 matrix, got {a.dtype} {a.shape}")
    if not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("the matrix must be a writeable Fortran-ordered array")
    vals = np.empty(n)

    def call(work, rwork, iwork, sizes):
        info = zheevd(_LAPACK_COL_MAJOR, b"V", b"L", n, a.ctypes.data, n, vals.ctypes.data,
                      work.ctypes.data, sizes[0], rwork.ctypes.data, sizes[1],
                      iwork.ctypes.data, sizes[2])
        if info > 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        if info < 0:
            raise RuntimeError(f"zheevd refused its argument {-info}")

    work, rwork, iwork = np.empty(1, np.complex128), np.empty(1), np.empty(1, np.int64)
    call(work, rwork, iwork, (-1, -1, -1))
    sizes = (int(work[0].real), int(rwork[0]), int(iwork[0]))
    call(np.empty(sizes[0], np.complex128), np.empty(sizes[1]), np.empty(sizes[2], np.int64),
         sizes)
    return vals


@lru_cache(maxsize=_CACHE_SIZE)
def _quarter_turn_y(two_j: int) -> np.ndarray:
    """exp(-i (pi/2) Jy) from the eigendecomposition of Jy.

    Jy = (J+ - J-) / 2i is built from the ladder coefficients alone, in
    Fortran order: -i c/2 just above the diagonal, +i c/2 just below it.
    Where numpy's OpenBLAS exports LAPACKE, its zheevd writes the
    eigenvectors over Jy, so no stage holds more than three dense
    matrices: Jy and zheevd's two work arrays, then the eigenvectors, a
    conjugated copy and the product.  Elsewhere np.linalg.eigh makes the
    same call on a copy of Jy.  Either way the values and vectors have
    eigh's bits, and the product's operands have its layout: C-ordered
    eigenvectors.
    """
    coeff = _ladder(two_j)[1]
    jy = np.zeros((two_j + 1, two_j + 1), dtype=np.complex128, order="F")
    above = np.arange(two_j)
    jy[above, above + 1] = -0.5j * coeff
    jy[above + 1, above] = 0.5j * coeff
    zheevd = _lapack_zheevd()
    if zheevd is None:
        vals, vecs = np.linalg.eigh(jy)
    else:
        vals = _eigh_in_place(jy, zheevd)
        vecs = np.ascontiguousarray(jy)
    del jy
    conj = vecs.conj()
    vecs *= np.exp(-0.5j * np.pi * vals)
    rot = vecs @ conj.T
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


def _blochs(psi: np.ndarray, m: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """j times the Bloch vector of each row of psi (B, dim), as (B, 3).

    Every sum runs along one row of a C-ordered array, so each row gets
    the bits of the same sums over that state alone.
    """
    plus = np.sum(coeff * np.conj(psi[:, :-1]) * psi[:, 1:], axis=1)
    z = np.sum(m * np.abs(psi) ** 2, axis=1)
    return np.stack([plus.real, plus.imag, z], axis=1)


def bloch_vector(state: SpinState) -> np.ndarray:
    """< (Jx, Jy, Jz) > / j as a length-3 real vector.

    Uses the ladder structure directly (O(dim), no matrix products):
    <J+> = sum_i c_i conj(psi_{i-1}) psi_i, <Jx> = Re, <Jy> = Im.
    """
    m, coeff = _ladder(_two_j(state.j))
    return _blochs(state.amplitudes[np.newaxis], m, coeff)[0] / state.j


# bytes of unitary rows in one block: about the L2 cache of one core, so
# a block stays cached while every state of a group passes through it
_BLOCK_BYTES = 2 * 2**20
# bytes of amplitudes stepped together: a group's arrays are a few of these
_GROUP_BYTES = 2**20


def _row_blocks(dim: int) -> list:
    """Bounds of even row blocks of a (dim, dim) complex128 matrix.

    Each block holds about _BLOCK_BYTES and at least 2 rows: numpy sends a
    1-row product to zdotu instead of zgemv, which rounds differently.
    """
    count = max(min(-(-dim * dim * 16 // _BLOCK_BYTES), dim // 2), 1)
    return [dim * i // count for i in range(count + 1)]


def _evolve_blochs(amplitudes, unitary: np.ndarray, steps: int) -> np.ndarray:
    """Bloch vector of each state after 0..steps periods; shape (B, steps + 1, 3).

    `amplitudes` holds B state vectors of one spin (a list of them or a
    (B, dim) array).  States step a group at a time, so memory stays a
    few _GROUP_BYTES however many there are.  Each period applies the
    unitary one row block at a time to the whole group: numpy runs every
    (rows, dim) @ (dim, 1) item through the same OpenBLAS zgemv as
    `unitary @ psi`, whose output rows are dot products that do not
    depend on how many rows the call holds, so every state gets the bits
    of stepping it alone, while each block is read from memory once per
    group rather than once per state.  Evolving the states as the columns
    of one zgemm would round differently.

    Raises NormDriftError if any state's norm leaves 1 by more than 1e-8,
    which would indicate a non-unitary propagator.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    out = np.empty((len(amplitudes), steps + 1, 3))
    dim = len(unitary)
    m, coeff = _ladder(dim - 1)
    bounds = _row_blocks(dim)
    blocks = [(unitary[lo:hi], slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    group = max(_GROUP_BYTES // (16 * dim), 1)
    for first in range(0, len(amplitudes), group):
        psi = np.stack(amplitudes[first:first + group])
        new = np.empty_like(psi)
        rows = out[first:first + group]
        rows[:, 0] = _blochs(psi, m, coeff)
        for i in range(1, steps + 1):
            for block, cols in blocks:
                np.matmul(block, psi[:, :, np.newaxis], out=new[:, cols, np.newaxis])
            psi, new = new, psi
            norms = np.linalg.norm(psi, axis=1)
            drifted = ~(np.abs(norms - 1.0) <= _NORM_DRIFT_TOL)  # a NaN norm fails too
            if drifted.any():
                raise NormDriftError(f"norm drifted to {float(norms[drifted][0])} at step {i}")
            rows[:, i] = _blochs(psi, m, coeff)
    out /= (dim - 1) / 2.0
    return out


def evolve_expectations(state: SpinState, unitary: np.ndarray, steps: int) -> np.ndarray:
    """Bloch vector after 0..steps periods; shape (steps + 1, 3).

    The one-state case of the stacked kernel `_evolve_blochs`: one zgemv
    per row block and step, whose rows have the bits of `unitary @ psi`
    (a 1-row block would go to zdotu, a stack of states through one
    zgemm, and both round differently).  Raises NormDriftError if the
    state norm leaves 1 by more than 1e-8, which would indicate a
    non-unitary propagator.
    """
    return _evolve_blochs([state.amplitudes], unitary, steps)[0]


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
    return float(-np.sum([_xlogy(p, p) for p in lam]))


def thermo_limit_entropy(vectors) -> float:
    """Equilibrium entropy proxy of an ensemble of unit vectors.

    (1 - |mean vector|^2) / 2: zero for a fully aligned ensemble, 1/2 for
    an isotropic one.  vectors has shape (n, 3).
    """
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[1] != 3:
        raise ValueError(f"vectors must have shape (n, 3), got {vecs.shape}")
    return linear_entropy(vecs.mean(axis=0))
