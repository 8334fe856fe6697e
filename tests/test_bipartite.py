"""Tests for the coupled two-subsystem classical map and patch sampling."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kickedtop import (
    CapDistribution,
    KickParams,
    SphericalPoint,
    evolve_trajectory,
    pair_x_steps,
    sample_cap,
    sample_pairs,
    spherical_to_cartesian,
)
from kickedtop.bipartite import _cap_points


def per_point_oracle(dist, count, seed):
    """sample_cap's reference: one numpy generator per point, drawn in turn.

    Point i takes cos(theta) and then phi, each one Generator.uniform call,
    from default_rng(SeedSequence(entropy, spawn_key=spawn_key + (i,))).
    """
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


def unit(theta, phi):
    return spherical_to_cartesian(SphericalPoint(theta, phi))


def pair_orbit(n1, n2, kappa, j, steps):
    """(steps + 1, 2, 3) orbit of one pair, stepped on Python floats.

    Reference for pair_x_steps: the shared phase kappa * (x1 + x2) with
    x1 = (1/2)/j * n1_x and x2 = (j - 1/2)/j * n2_x is taken before the
    step, then each direction turns a quarter about y and through that
    phase about z, with math.cos/math.sin.
    """
    w1, w2 = 0.5 / j, (j - 0.5) / j
    cos, sin = math.cos, math.sin
    (a, b, c), (d, e, f) = np.asarray(n1).tolist(), np.asarray(n2).tolist()
    out = array("d", (a, b, c, d, e, f))
    extend = out.extend
    for _ in range(steps):
        phase = kappa * (w1 * a + w2 * d)
        co = cos(phase)
        si = sin(phase)
        a, b, c = c * co + b * si, b * co - c * si, -a
        d, e, f = f * co + e * si, e * co - f * si, -d
        extend((a, b, c, d, e, f))
    return np.frombuffer(out).reshape(steps + 1, 2, 3)


class TestBipartiteStep:
    def test_kappa_zero_decouples_to_quarter_turns(self):
        # (x, y, z) -> (z, y, -x): x runs through x, z, -x, -z with period 4
        n1, n2 = unit(0.9, 0.2), unit(1.7, 4.0)
        weights = np.array([0.5 / 50, 49.5 / 50])
        start = np.stack([n1, n2])
        cycle = [start[:, 0], start[:, 2], -start[:, 0], -start[:, 2]]
        steps = pair_x_steps(n1[None], n2[None], KickParams(0.0), 50, 8)
        for t, xs in enumerate(steps):
            np.testing.assert_array_equal(xs[:, 0], weights * cycle[t % 4])
        orbit = pair_orbit(n1, n2, 0.0, 50, 1)
        np.testing.assert_array_equal(orbit[1], start[:, [2, 1, 0]] * [1, 1, -1])

    def test_norms_survive_many_steps(self):
        orbit = pair_orbit(unit(0.9, 2.0), unit(2.0, 0.7), 2.5, 100.0, 100_000)
        assert abs(np.linalg.norm(orbit[-1, 0]) - 1.0) < 1e-12
        assert abs(np.linalg.norm(orbit[-1, 1]) - 1.0) < 1e-12

    @pytest.mark.parametrize("start2", [(np.pi / 2, np.pi / 2), (1.0, 0.4)])
    def test_subsystem_two_approaches_single_top_as_j_grows(self, start2):
        # subsystem 1 contributes O(1/j) to the shared phase, so at large j
        # subsystem 2 follows the uncoupled map from the same start
        params = KickParams(1.5)
        n1_start, n2_start = unit(0.9, 2.0), unit(*start2)
        single = evolve_trajectory(n2_start, params, 50)
        deviations = {}
        for j in (1e3, 1e4):
            orbit = pair_orbit(n1_start, n2_start, params.kappa, j, 50)
            xs = np.array(list(pair_x_steps(n1_start[None], n2_start[None], params, j, 50)))
            np.testing.assert_array_equal(xs[:, 1, 0], (j - 0.5) / j * orbit[:, 1, 0])
            deviations[j] = float(np.max(np.abs(orbit[1:, 1] - single[1:])))
        assert deviations[1e3] < 0.02
        assert deviations[1e4] < deviations[1e3] / 5

    def test_label_swap_symmetry_at_equal_magnitudes(self):
        # j=1 gives both subsystems magnitude 1/2, so relabeling commutes
        # with the step exactly
        a, b = unit(0.9, 0.2)[None], unit(1.7, 4.0)[None]
        params = KickParams(2.5)
        steps = zip(pair_x_steps(a, b, params, 1, 50), pair_x_steps(b, a, params, 1, 50))
        for stepped, swapped in steps:
            np.testing.assert_array_equal(stepped, swapped[::-1])


class TestCapDistribution:
    def test_patch_width_formula(self):
        dist = CapDistribution(center=SphericalPoint(3 * np.pi / 4, 1.0), solid_angle=0.01)
        expected = np.sqrt(0.01 / np.sin(3 * np.pi / 4))
        assert abs(dist.width - expected) < 1e-12
        assert abs(dist.width - 0.1189) < 1e-4

    def test_bounds_are_centred(self):
        dist = CapDistribution(center=SphericalPoint(1.2, 2.0), solid_angle=0.25)
        (t_lo, t_hi), (p_lo, p_hi) = dist.bounds()
        assert abs(0.5 * (t_lo + t_hi) - 1.2) < 1e-12
        assert abs(0.5 * (p_lo + p_hi) - 2.0) < 1e-12
        assert abs((t_hi - t_lo) - dist.width) < 1e-12

    def test_rejects_pole_centre(self):
        with pytest.raises(ValueError):
            CapDistribution(center=SphericalPoint(0.0, 0.0), solid_angle=0.01)

    def test_rejects_pole_overlap(self):
        with pytest.raises(ValueError):
            CapDistribution(center=SphericalPoint(0.05, 0.0), solid_angle=0.25)

    @settings(deadline=None)
    @given(
        theta=st.one_of(st.floats(0.0, 1e-6), st.floats(np.pi - 1e-6, np.pi)),
        phi=st.floats(0.0, 2 * np.pi),
        solid_angle=st.floats(1e-12, 4 * np.pi),
    )
    @example(theta=5e-324, phi=0.0, solid_angle=0.01)
    def test_rejects_every_patch_near_a_pole(self, theta, phi, solid_angle):
        # within 1e-6 of a pole a patch fits only if solid_angle < 4e-18 sr;
        # a subnormal sin(theta) gives an infinite width, refused as well
        with pytest.raises(ValueError, match="avoid the poles|overlaps a pole"):
            CapDistribution(center=SphericalPoint(theta, phi), solid_angle=solid_angle)

    @settings(deadline=None)
    @given(theta=st.floats(0.0, np.pi), solid_angle=st.floats(1e-12, 4 * np.pi))
    def test_accepted_patches_stay_between_the_poles(self, theta, solid_angle):
        try:
            dist = CapDistribution(center=SphericalPoint(theta, 1.0), solid_angle=solid_angle)
        except ValueError:
            return
        (t_lo, t_hi), _ = dist.bounds()
        assert 0.0 <= t_lo < theta < t_hi <= np.pi

    def test_rejects_nonpositive_solid_angle(self):
        with pytest.raises(ValueError):
            CapDistribution(center=SphericalPoint(1.0, 0.0), solid_angle=0.0)


class TestSampleCap:
    def test_samples_stay_inside_bounds(self):
        dist = CapDistribution(center=SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), solid_angle=0.25)
        pts = sample_cap(dist, 1000, 0)
        (t_lo, t_hi), (p_lo, p_hi) = dist.bounds()
        assert pts.shape == (1000, 2)
        assert np.all((pts[:, 0] >= t_lo) & (pts[:, 0] <= t_hi))
        assert np.all((pts[:, 1] >= p_lo) & (pts[:, 1] <= p_hi))

    def test_sample_means_match_centre(self):
        # phi is exactly symmetric; theta is symmetric for narrow patches
        dist = CapDistribution(center=SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), solid_angle=0.01)
        pts = sample_cap(dist, 1000, 0)
        for col in range(2):
            se = pts[:, col].std() / np.sqrt(1000)
            assert abs(pts[:, col].mean() - 3 * np.pi / 4) < 3 * se

    def test_area_uniform_in_cos_theta(self):
        # for wide off-equator patches the area weight shifts the theta
        # mean, but cos(theta) stays centred on the midpoint of its range
        dist = CapDistribution(center=SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), solid_angle=0.25)
        pts = sample_cap(dist, 1000, 0)
        (t_lo, t_hi), _ = dist.bounds()
        mid = 0.5 * (np.cos(t_lo) + np.cos(t_hi))
        c = np.cos(pts[:, 0])
        assert abs(c.mean() - mid) < 3 * c.std() / np.sqrt(1000)

    def test_deterministic_and_seed_sensitive(self):
        dist = CapDistribution(center=SphericalPoint(1.0, 1.0), solid_angle=0.1)
        assert np.array_equal(sample_cap(dist, 50, 7), sample_cap(dist, 50, 7))
        assert not np.array_equal(sample_cap(dist, 50, 7), sample_cap(dist, 50, 8))

    def test_per_point_streams_are_chunk_invariant(self):
        # point i depends only on (seed, i), not on the requested count
        dist = CapDistribution(center=SphericalPoint(1.0, 1.0), solid_angle=0.1)
        np.testing.assert_array_equal(sample_cap(dist, 10, 5)[:5], sample_cap(dist, 5, 5))

    def test_rejects_nonpositive_count(self):
        dist = CapDistribution(center=SphericalPoint(1.0, 1.0), solid_angle=0.1)
        with pytest.raises(ValueError):
            sample_cap(dist, 0, 1)

    @settings(deadline=None, max_examples=60)
    @given(
        entropy=st.one_of(st.sampled_from([0, 1, 7919, 2**32, 2**64]),
                          st.integers(0, 2**31), st.integers(2**32, 2**64 - 1),
                          st.integers(2**64, 2**130),
                          st.lists(st.integers(0, 2**70), max_size=3)),
        caps=st.lists(st.tuples(
            st.floats(1e-3, np.pi - 1e-3), st.floats(0.0, 2 * np.pi), st.floats(1e-9, 0.5),
            st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
                     max_size=3).map(tuple),
        ), min_size=1, max_size=3),
        count=st.integers(1, 1000),
    )
    @example(entropy=2**64 + 3, caps=[(0.02, 1.0, 1e-4, ()), (1.0, 5.0, 0.3, (2**40, 1))],
             count=1000)
    def test_matches_per_point_generators(self, entropy, caps, count):
        # a cap within 0.02 rad of a pole, entropy of one to five 32-bit
        # words or a list of ints, spawn keys empty or with elements of two
        # or three words, and caps whose keys differ in length drawn together
        dists = []
        for theta, phi, solid_angle, _ in caps:
            try:
                dists.append(CapDistribution(SphericalPoint(theta, phi), solid_angle))
            except ValueError:
                assume(False)
        keys = [key for *_, key in caps]
        drawn = _cap_points(dists, count, entropy, keys)
        for dist, key, points in zip(dists, keys, drawn, strict=True):
            seed = np.random.SeedSequence(entropy, spawn_key=key)
            expected = per_point_oracle(dist, count, seed)
            np.testing.assert_array_equal(points, expected)
            np.testing.assert_array_equal(sample_cap(dist, count, seed), expected)
        if not keys[0]:
            np.testing.assert_array_equal(sample_cap(dists[0], count, entropy), drawn[0])

    @pytest.mark.parametrize("root", [np.random.SeedSequence(11, spawn_key=(4,)),
                                      np.random.SeedSequence(2**64 + 1)], ids=["keyed", "root"])
    def test_spawned_children_match_per_point_generators(self, root):
        dist = CapDistribution(center=SphericalPoint(2.0, 5.0), solid_angle=0.3)
        for child in root.spawn(2):
            np.testing.assert_array_equal(sample_cap(dist, 40, child),
                                          per_point_oracle(dist, 40, child))

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed entropy must be a non-negative integer, got -1"),
        (np.random.SeedSequence(3, spawn_key=(2,), pool_size=8), "seed pool size must be 4, got 8"),
    ], ids=["negative", "pool-size-8"])
    def test_rejects_seeds_it_cannot_reproduce(self, seed, message):
        dist = CapDistribution(center=SphericalPoint(1.0, 1.0), solid_angle=0.1)
        with pytest.raises(ValueError, match=message):
            sample_cap(dist, 5, seed)


class TestEvolveEnsemble:
    def default_dists(self, j=100):
        center = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        return (
            CapDistribution(center=center, solid_angle=0.25),
            CapDistribution(center=center, solid_angle=1.0 / j),
        )

    def series(self, kappa, count, steps, seed, j=100):
        """(steps + 1, 2, count) x components of one sampled ensemble."""
        n1, n2 = sample_pairs(*self.default_dists(j=j), j, count, seed)
        return np.array(list(pair_x_steps(n1, n2, KickParams(kappa), j, steps)))

    def test_zero_steps_keeps_initial_samples_only(self):
        xs = self.series(2.5, 16, 0, seed=0)
        assert xs.shape == (1, 2, 16)
        n1, n2 = sample_pairs(*self.default_dists(), 100, 16, seed=0)
        np.testing.assert_array_equal(xs[0], [0.5 / 100 * n1[:, 0], 99.5 / 100 * n2[:, 0]])

    def test_initial_product_form_is_uncorrelated(self):
        (x1, x2), = self.series(2.5, 1000, 0, seed=0)
        r = np.corrcoef(x1, x2)[0, 1]
        assert abs(r) < 0.1

    def test_kappa_zero_series_is_period_four(self):
        xs = self.series(0.0, 32, 8, seed=1)
        np.testing.assert_array_equal(xs[0, 0], xs[4, 0])
        np.testing.assert_array_equal(xs[3, 1], xs[7, 1])

    def test_x_magnitude_bounds(self):
        xs = self.series(6.0, 64, 50, seed=2)
        assert np.max(np.abs(xs[:, 0])) <= 0.5 / 100 + 1e-15
        assert np.max(np.abs(xs[:, 1])) <= 99.5 / 100 + 1e-15

    def test_deterministic(self):
        first, again = (self.series(2.5, 16, 5, seed=9) for _ in range(2))
        np.testing.assert_array_equal(first, again)

    @pytest.mark.parametrize("j, kappa", [(1, 0.0), (1.5, 2.5), (100, 6.0)])
    def test_matches_stepwise_bipartite_map(self, j, kappa):
        # the stacked (2, N, 3) stepping must agree bit for bit with each
        # pair stepped alone on Python floats, over a long run
        params = KickParams(kappa)
        n1, n2 = sample_pairs(*self.default_dists(j=j), j, 8, seed=3)
        orbits = np.stack([pair_orbit(a, b, kappa, j, 2000) for a, b in zip(n1, n2)], axis=1)
        expected = np.array([[0.5 / j], [(j - 0.5) / j]]) * orbits[..., 0].transpose(0, 2, 1)
        for t, xs in enumerate(pair_x_steps(n1, n2, params, j, 2000)):
            np.testing.assert_array_equal(xs, expected[t])
        assert t == 2000

    def test_reused_seed_sequence_repeats_the_pair(self):
        # the two draws come from the children with spawn keys 0 and 1, not
        # from SeedSequence.spawn, which advances the root's spawn counter;
        # for a fresh root they are the children spawn(2) would give
        dists = self.default_dists()
        root = np.random.SeedSequence(5, spawn_key=(2,))
        first = sample_pairs(*dists, 100, 8, root)
        again = sample_pairs(*dists, 100, 8, root)
        children = np.random.SeedSequence(5, spawn_key=(2,)).spawn(2)
        spawned = [spherical_to_cartesian(sample_cap(dist, 8, child))
                   for dist, child in zip(dists, children)]
        for drawn, repeat, expected in zip(first, again, spawned, strict=True):
            np.testing.assert_array_equal(drawn, repeat)
            np.testing.assert_array_equal(drawn, expected)

    def test_stacked_ensembles_step_as_each_alone(self):
        params = KickParams(6.0)
        starts = [
            sample_pairs(*self.default_dists(), 100, 12, seed) for seed in (1, 2, 3)
        ]
        n1 = np.concatenate([a for a, _ in starts])
        n2 = np.concatenate([b for _, b in starts])
        stacked = list(pair_x_steps(n1, n2, params, 100, 20))
        for r, (a, b) in enumerate(starts):
            alone = pair_x_steps(a, b, params, 100, 20)
            for (x1, x2), (y1, y2) in zip(stacked, alone, strict=True):
                np.testing.assert_array_equal(x1[12 * r : 12 * (r + 1)], y1)
                np.testing.assert_array_equal(x2[12 * r : 12 * (r + 1)], y2)

    def test_rejects_small_ensemble(self):
        with pytest.raises(ValueError, match="count must be >= 8"):
            sample_pairs(*self.default_dists(), 100, 4, seed=0)

    def test_rejects_negative_steps(self):
        n1, n2 = sample_pairs(*self.default_dists(), 100, 16, seed=0)
        steps = pair_x_steps(n1, n2, KickParams(2.5), 100, -1)
        with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
            next(steps)
