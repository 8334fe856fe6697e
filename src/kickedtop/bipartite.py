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
    "sample_cap",
    "sample_pairs",
    "pair_x_steps",
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
        half = 0.5 * self.width
        if theta0 - half < 0.0 or theta0 + half > np.pi:
            raise ValueError(
                f"patch of width {2 * half:.4f} around theta={theta0:.4f} overlaps a pole"
            )

    @property
    def width(self) -> float:
        """Angular side length of the square patch."""
        # Python float division: a subnormal sin(theta) gives an infinite
        # width, which overlaps the pole, instead of an overflow warning
        return float(np.sqrt(self.solid_angle / float(np.sin(self.center.theta))))

    def bounds(self):
        """((theta_lo, theta_hi), (phi_lo, phi_hi)) of the rectangle."""
        half = 0.5 * self.width
        t0, p0 = self.center
        return (t0 - half, t0 + half), (p0 - half, p0 + half)


def _seed_words(value) -> list:
    """The 32-bit words, low first, numpy's SeedSequence makes of an int or a sequence of ints."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed entropy must be a non-negative integer, got {value}")
        words = [value & 0xFFFFFFFF]
        while value >> 32:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
        return words
    if not isinstance(value, (list, tuple, range, np.ndarray)):
        raise TypeError(f"seed must be an int, a sequence of ints or a SeedSequence, got {value!r}")
    return [word for item in value for word in _seed_words(item)]


def _seed_key(seed):
    """(entropy, spawn key) of an int seed or a numpy SeedSequence.

    A SeedSequence is read through its attributes, so an int seed never
    loads numpy.random.
    """
    if not hasattr(seed, "spawn_key"):
        return seed, ()
    if seed.pool_size != 4:
        raise ValueError(f"seed pool size must be 4, got {seed.pool_size}")
    return seed.entropy, tuple(seed.spawn_key)


def _seed_pools(entropy, keys, count: int) -> list:
    """SeedSequence(entropy, spawn_key=key + (i,)).pool for each key and i < count.

    Returns the four pool words, each a (len(keys) * count,) uint32 array
    in (key, i) order.  This is numpy's hash mix (bit_generator.pyx), run
    on every point at once: the run entropy, padded with zeros to the pool
    size because the spawn key is never empty, then the key's words.
    Every point takes the same sequence of hash constants, so a point with
    fewer words simply stops mixing early.
    """
    run = _seed_words(entropy)
    run += [0] * (4 - len(run))
    prefixes = [run + _seed_words(key) for key in keys]
    width = max(map(len, prefixes)) + 1
    words = np.zeros((len(keys), count, width), dtype=np.uint32)
    for row, prefix in enumerate(prefixes):
        words[row, :, :len(prefix)] = prefix
        words[row, :, len(prefix)] = np.arange(count)
    words = words.reshape(-1, width)
    lengths = np.repeat([len(prefix) + 1 for prefix in prefixes], count)
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * 0x931E8875 & 0xFFFFFFFF  # MULT_A
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * 0xCA01F9DD - y * 0x4973F715  # MIX_MULT_L, MIX_MULT_R
        return result ^ (result >> 16)

    pool = [hashmix(words[:, dst]) for dst in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for col in range(4, width):
        live = col < lengths
        for dst in range(4):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(words[:, col])), pool[dst])
    return pool


def _mulhi64(x: np.ndarray, y: int) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y, from 32-bit halves."""
    x0, x1 = x & 0xFFFFFFFF, x >> 32
    y0, y1 = y & 0xFFFFFFFF, y >> 32
    low, cross1, cross2 = x0 * y0, x0 * y1, x1 * y0
    carry = ((low >> 32) + (cross1 & 0xFFFFFFFF) + (cross2 & 0xFFFFFFFF)) >> 32
    return x1 * y1 + (cross1 >> 32) + (cross2 >> 32) + carry


def _pcg_doubles(entropy, keys, count: int) -> np.ndarray:
    """The first two random() doubles of default_rng(SeedSequence(entropy, spawn_key=key + (i,))).

    Returns a (2, len(keys), count) array: entry [d, r, i] is draw d of
    the generator of keys[r] + (i,).  Each point's PCG64 state follows
    numpy's published algorithm as uint64 array arithmetic, the 128-bit
    state as (high, low) halves: SeedSequence.generate_state(4, uint64)
    from the pool, pcg64_srandom_r's seeding, then per draw one LCG step
    and the XSL-RR output, and (next64 >> 11) * 2**-53.
    """
    pool = _seed_pools(entropy, keys, count)
    hash_const = 0x8B51F9DD  # INIT_B
    halves = []
    for word in range(8):
        value = pool[word % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & 0xFFFFFFFF  # MULT_B
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    # uint32 pairs read as little-endian uint64: the state and stream seeds, high word first
    seed_hi, seed_lo, seq_hi, seq_lo = (halves[2 * w] | halves[2 * w + 1] << 32 for w in range(4))
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1

    def add(hi, lo, other_hi, other_lo):
        total = lo + other_lo
        return hi + other_hi + (total < lo), total

    def step(hi, lo):  # state * PCG_DEFAULT_MULTIPLIER_128 + inc
        mult_hi, mult_lo = 2549297995355413924, 4865540595714422341
        return add(hi * mult_lo + lo * mult_hi + _mulhi64(lo, mult_lo), lo * mult_lo,
                   inc_hi, inc_lo)

    hi, lo = step(*add(inc_hi, inc_lo, seed_hi, seed_lo))  # the state is 0, steps to inc
    draws = np.empty((2, len(keys) * count))
    for draw in draws:
        hi, lo = step(hi, lo)
        value, rot = hi ^ lo, hi >> 58
        draw[:] = (value >> rot | value << ((64 - rot) & 63)) >> 11
        draw *= 2.0**-53
    return draws.reshape(2, len(keys), count)


def _cap_points(dists, count: int, entropy, keys) -> np.ndarray:
    """`sample_cap` of every cap at once: (len(dists), count, 2) rows of (theta, phi).

    Cap r's points come from the streams keys[r] + (i,) of `entropy`, with
    the bits of sample_cap(dists[r], count, SeedSequence(entropy,
    spawn_key=keys[r])).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # (cos theta, phi) bounds of each cap, as Generator.uniform's low and high
    lows, highs = np.empty((2, 2, len(dists), 1))
    for row, dist in enumerate(dists):
        (t_lo, t_hi), (p_lo, p_hi) = dist.bounds()
        lows[:, row, 0] = np.cos(t_hi), p_lo
        highs[:, row, 0] = np.cos(t_lo), p_hi
    # Generator.uniform(low, high) is low + (high - low) * random()
    cos_theta, phi = lows + (highs - lows) * _pcg_doubles(entropy, keys, count)
    return np.stack([np.arccos(cos_theta), phi], axis=-1)


def sample_cap(dist: CapDistribution, count: int, seed) -> np.ndarray:
    """count area-uniform points from the patch; rows are (theta, phi).

    Each point is uniform in cos(theta) and uniform in phi.  seed may be an
    int or a numpy SeedSequence (read through its entropy and spawn_key).
    Point i takes the first two uniform draws of its own generator,
    default_rng(SeedSequence(entropy, spawn_key=spawn_key + (i,))), so
    per-point draws are reproducible no matter how the ensemble is later
    chunked or parallelised.  Every point is drawn at once, by numpy's
    seeding and PCG64 algorithms run as array arithmetic, with the bits of
    those generators; no generator is built.
    """
    entropy, key = _seed_key(seed)
    return _cap_points([dist], count, entropy, [key])[0]


def _cap_vectors(dists, count: int, entropy, keys) -> np.ndarray:
    """`_cap_points` as (len(dists), count, 3) unit vectors."""
    return spherical_to_cartesian(_cap_points(dists, count, entropy, keys))


def sample_pairs(dist1: CapDistribution, dist2: CapDistribution, j, count: int, seed):
    """Initial unit vectors (n1, n2), each (count, 3), of a paired ensemble.

    Subsystem i starts from an area-uniform draw of dist_i, from the child
    stream of `seed` keyed i - 1, so reusing a SeedSequence repeats the pair.
    """
    _pair_checks(j, count)
    entropy, key = _seed_key(seed)
    n1, n2 = _cap_vectors([dist1, dist2], count, entropy, [key + (0,), key + (1,)])
    return n1, n2


def _pair_checks(j, count: int):
    """sample_pairs' checks of j and the ensemble size."""
    _unit_j(j)
    if count < _MIN_ENSEMBLE:
        raise ValueError(f"count must be >= {_MIN_ENSEMBLE}, got {count}")


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
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    weights = np.array([[0.5 / j], [(j - 0.5) / j]])
    kappa = params.kappa
    pair = np.stack([n1, n2])
    xs = weights * pair[..., 0]
    yield xs
    for _ in range(steps):
        pair = kick_rotation(pair, kappa * (xs[0] + xs[1]))
        xs = weights * pair[..., 0]
        yield xs
