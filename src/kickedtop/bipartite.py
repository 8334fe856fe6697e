"""Classical limit of a kicked top split into a single spin and the rest.

A top built from N = 2j elementary spins is split 1 : (2j - 1).  In the
classical limit each part is a unit direction n1, n2 carrying fixed spin
magnitudes 1/2 and j - 1/2; the per-period torsion angle is shared,

    phi_c = kappa * (X1 + X2),
    X1 = n1_x * (1/2) / j,      X2 = n2_x * (j - 1/2) / j,

evaluated before the step, after which both directions undergo the usual
quarter turn about y followed by the z rotation through phi_c.  Both
magnitudes are constants of motion; only the directions evolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import KickParams, SphericalPoint, kick_rotation, spherical_to_cartesian

__all__ = [
    "CapDistribution",
    "SampleSeries",
    "sample_cap",
    "sample_pairs",
    "pair_x_steps",
    "evolve_ensemble",
]

# smallest ensemble for which downstream k-NN MI (k=3) is defined with margin
_MIN_ENSEMBLE = 8


def _unit_j(j) -> float:
    j = float(j)
    if not np.isfinite(2 * j) or (2 * j) != round(2 * j) or j < 1:
        raise ValueError(f"j must be a half-integer >= 1, got {j!r}")
    return j


@dataclass(frozen=True)
class CapDistribution:
    """Uniform-area patch of the sphere around a centre point.

    The patch is the coordinate rectangle theta0 +/- dtheta/2,
    phi0 +/- dphi/2 with dtheta = dphi = sqrt(solid_angle / sin(theta0)),
    whose area is solid_angle to leading order.  Patches that would reach
    past a pole are rejected.
    """

    center: SphericalPoint
    solid_angle: float

    def __post_init__(self):
        theta0, phi0 = self.center
        if not 0.0 < theta0 < np.pi:
            raise ValueError(f"patch centre must avoid the poles, got theta={float(theta0)}")
        if not 0.0 < self.solid_angle <= 4.0 * np.pi:
            raise ValueError(f"solid_angle must be in (0, 4*pi], got {float(self.solid_angle)}")
        object.__setattr__(self, "center", SphericalPoint(float(theta0), float(phi0)))
        object.__setattr__(self, "solid_angle", float(self.solid_angle))
        half = 0.5 * self.half_width
        if theta0 - half < 0.0 or theta0 + half > np.pi:
            raise ValueError(
                f"patch of width {2 * half:.4f} around theta={theta0:.4f} overlaps a pole"
            )

    @property
    def half_width(self) -> float:
        """Angular side length of the square patch."""
        # Python float division: a subnormal sin(theta) gives an infinite
        # width, which overlaps the pole, instead of an overflow warning
        return float(np.sqrt(self.solid_angle / float(np.sin(self.center.theta))))

    def bounds(self):
        """((theta_lo, theta_hi), (phi_lo, phi_hi)) of the rectangle."""
        half = 0.5 * self.half_width
        t0, p0 = self.center
        return (t0 - half, t0 + half), (p0 - half, p0 + half)


def sample_cap(dist: CapDistribution, count: int, seed) -> np.ndarray:
    """count area-uniform points from the patch; rows are (theta, phi).

    Each point is uniform in cos(theta) and uniform in phi.  seed may be an
    int or a numpy SeedSequence.  Point i comes from its own child stream
    keyed by i, so per-point draws are reproducible no matter how the
    ensemble is later chunked or parallelised.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    (t_lo, t_hi), (p_lo, p_hi) = dist.bounds()
    cos_hi, cos_lo = np.cos(t_hi), np.cos(t_lo)
    cos_theta = np.empty(count)
    phi = np.empty(count)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=root.entropy, spawn_key=root.spawn_key + (i,)
        ))
        cos_theta[i] = rng.uniform(cos_hi, cos_lo)
        phi[i] = rng.uniform(p_lo, p_hi)
    return np.column_stack([np.arccos(cos_theta), phi])


def _cap_vectors(dist: CapDistribution, count: int, seed) -> np.ndarray:
    """`sample_cap`'s points as (count, 3) unit vectors."""
    return spherical_to_cartesian(sample_cap(dist, count, seed))


def sample_pairs(dist1: CapDistribution, dist2: CapDistribution, j, count: int, seed):
    """Initial unit vectors (n1, n2), each (count, 3), of a paired ensemble.

    Subsystem i starts from an area-uniform draw of dist_i, from the child
    stream of `seed` keyed i - 1, so reusing a SeedSequence repeats the pair.
    """
    _unit_j(j)
    if count < _MIN_ENSEMBLE:
        raise ValueError(f"count must be >= {_MIN_ENSEMBLE}, got {count}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    child1, child2 = (np.random.SeedSequence(entropy=root.entropy, spawn_key=root.spawn_key + (c,))
                      for c in (0, 1))
    return _cap_vectors(dist1, count, child1), _cap_vectors(dist2, count, child2)


def pair_x_steps(n1: np.ndarray, n2: np.ndarray, params: KickParams, j, steps: int):
    """Yield the normalised x components, a (2, N) array, after 0..steps periods.

    n1 and n2 are (N, 3) arrays of paired unit vectors, any number of
    independent ensembles stacked; row 0 of each yielded array is x1 and
    row 1 is x2.  The pair is held as one (2, N, 3) array and both
    subsystems turn in one `kick_rotation` through their shared phase.
    Each pair advances by the shared-kick map and never interacts with
    another, so a stacked ensemble yields the same bits as each of its
    parts alone.  Only the current step is held.
    """
    j = _unit_j(j)
    weights = np.array([[0.5 / j], [(j - 0.5) / j]])
    kappa = params.kappa
    pair = np.stack([n1, n2])
    xs = weights * pair[..., 0]
    yield xs
    for _ in range(steps):
        pair = kick_rotation(pair, kappa * (xs[0] + xs[1]))
        xs = weights * pair[..., 0]
        yield xs


@dataclass(frozen=True)
class SampleSeries:
    """Per-step normalised x components of an evolved ensemble.

    x1 and x2 have shape (steps + 1, count); row t holds the ensemble after
    t periods.  Rows of x1/x2 at fixed t are the paired samples handed to
    the mutual-information estimator.
    """

    x1: np.ndarray
    x2: np.ndarray
    j: float
    kappa: float

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=np.float64)
        x2 = np.asarray(self.x2, dtype=np.float64)
        if x1.shape != x2.shape or x1.ndim != 2:
            raise ValueError(f"x1/x2 must share an (steps+1, count) shape, got {x1.shape}, {x2.shape}")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def steps(self) -> int:
        return self.x1.shape[0] - 1

    @property
    def count(self) -> int:
        return self.x1.shape[1]


def evolve_ensemble(
    dist1: CapDistribution,
    dist2: CapDistribution,
    params: KickParams,
    j,
    count: int,
    steps: int,
    seed,
) -> SampleSeries:
    """Evolve `count` paired initial conditions for `steps` shared-kick periods.

    Subsystem i starts from an area-uniform draw of dist_i; the two draws
    use independent child streams of `seed`.  Trajectories never interact,
    so the series is reproducible trajectory by trajectory.
    """
    n1, n2 = sample_pairs(dist1, dist2, j, count, seed)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    x1 = np.empty((steps + 1, count))
    x2 = np.empty((steps + 1, count))
    for t, (a, b) in enumerate(pair_x_steps(n1, n2, params, j, steps)):
        x1[t] = a
        x2[t] = b
    return SampleSeries(x1=x1, x2=x2, j=_unit_j(j), kappa=params.kappa)
