"""Tests for the coupled two-subsystem classical map and patch sampling."""

import numpy as np
import pytest

from kickedtop import (
    BipartitePair,
    CapDistribution,
    KickParams,
    SphericalPoint,
    bipartite_step,
    evolve_ensemble,
    evolve_trajectory,
    sample_cap,
    spherical_to_cartesian,
)
from kickedtop.bipartite import pair_x_steps, sample_pairs


def unit(theta, phi):
    return spherical_to_cartesian(SphericalPoint(theta, phi))


class TestBipartitePair:
    def test_magnitudes(self):
        pair = BipartitePair(n1=unit(1.0, 2.0), n2=unit(2.0, 1.0), j=100)
        assert pair.magnitude1 == 0.5
        assert pair.magnitude2 == 99.5

    def test_x_shares_are_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(size=(2, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            pair = BipartitePair(n1=v[0], n2=v[1], j=100)
            assert abs(pair.x1) <= 0.5 / 100 + 1e-15
            assert abs(pair.x2) <= 99.5 / 100 + 1e-15

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ValueError):
            BipartitePair(n1=np.array([2.0, 0.0, 0.0]), n2=unit(1.0, 1.0), j=10)

    def test_rejects_invalid_j(self):
        with pytest.raises(ValueError):
            BipartitePair(n1=unit(1.0, 1.0), n2=unit(1.0, 1.0), j=0.5)
        with pytest.raises(ValueError):
            BipartitePair(n1=unit(1.0, 1.0), n2=unit(1.0, 1.0), j=1.3)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            BipartitePair(n1=unit(1.0, 1.0), n2=np.ones((2, 3)) / np.sqrt(3), j=10)


class TestBipartiteStep:
    def test_kappa_zero_decouples_to_quarter_turns(self):
        pair = BipartitePair(n1=unit(0.9, 0.2), n2=unit(1.7, 4.0), j=50)
        stepped = bipartite_step(pair, KickParams(0.0))
        for before, after in ((pair.n1, stepped.n1), (pair.n2, stepped.n2)):
            np.testing.assert_array_equal(after, [before[2], before[1], -before[0]])

    def test_norms_survive_many_steps(self):
        pair = BipartitePair(n1=unit(0.9, 2.0), n2=unit(2.0, 0.7), j=100)
        params = KickParams(2.5)
        for _ in range(100_000):
            pair = bipartite_step(pair, params)
        assert abs(np.linalg.norm(pair.n1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(pair.n2) - 1.0) < 1e-12

    @pytest.mark.parametrize("start2", [(np.pi / 2, np.pi / 2), (1.0, 0.4)])
    def test_subsystem_two_approaches_single_top_as_j_grows(self, start2):
        # subsystem 1 contributes O(1/j) to the shared phase, so at large j
        # subsystem 2 follows the uncoupled map from the same start
        params = KickParams(1.5)
        n2_start = unit(*start2)
        single = evolve_trajectory(n2_start, params, 50)
        deviations = {}
        for j in (1e3, 1e4):
            pair = BipartitePair(n1=unit(0.9, 2.0), n2=n2_start, j=j)
            worst = 0.0
            for step in range(1, 51):
                pair = bipartite_step(pair, params)
                worst = max(worst, float(np.max(np.abs(pair.n2 - single[step]))))
            deviations[j] = worst
        assert deviations[1e3] < 0.02
        assert deviations[1e4] < deviations[1e3] / 5

    def test_label_swap_symmetry_at_equal_magnitudes(self):
        # j=1 gives both subsystems magnitude 1/2, so relabeling commutes
        # with the step exactly
        a, b = unit(0.9, 0.2), unit(1.7, 4.0)
        params = KickParams(2.5)
        stepped = bipartite_step(BipartitePair(n1=a, n2=b, j=1), params)
        swapped = bipartite_step(BipartitePair(n1=b, n2=a, j=1), params)
        assert np.array_equal(stepped.n1, swapped.n2)
        assert np.array_equal(stepped.n2, swapped.n1)

    def test_batched_step(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=(2, 6, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        pair = BipartitePair(n1=v[0], n2=v[1], j=20)
        stepped = bipartite_step(pair, KickParams(3.0))
        for i in range(6):
            solo = bipartite_step(BipartitePair(n1=v[0, i], n2=v[1, i], j=20), KickParams(3.0))
            np.testing.assert_array_equal(stepped.n1[i], solo.n1)
            np.testing.assert_array_equal(stepped.n2[i], solo.n2)


class TestCapDistribution:
    def test_patch_width_formula(self):
        dist = CapDistribution(center=SphericalPoint(3 * np.pi / 4, 1.0), solid_angle=0.01)
        expected = np.sqrt(0.01 / np.sin(3 * np.pi / 4))
        assert abs(dist.half_width - expected) < 1e-12
        assert abs(dist.half_width - 0.1189) < 1e-4

    def test_bounds_are_centred(self):
        dist = CapDistribution(center=SphericalPoint(1.2, 2.0), solid_angle=0.25)
        (t_lo, t_hi), (p_lo, p_hi) = dist.bounds()
        assert abs(0.5 * (t_lo + t_hi) - 1.2) < 1e-12
        assert abs(0.5 * (p_lo + p_hi) - 2.0) < 1e-12
        assert abs((t_hi - t_lo) - dist.half_width) < 1e-12

    def test_rejects_pole_centre(self):
        with pytest.raises(ValueError):
            CapDistribution(center=SphericalPoint(0.0, 0.0), solid_angle=0.01)

    def test_rejects_pole_overlap(self):
        with pytest.raises(ValueError):
            CapDistribution(center=SphericalPoint(0.05, 0.0), solid_angle=0.25)

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

    def test_matches_per_point_draws(self):
        # reference: one generator per point, bounds and arccos per point
        dist = CapDistribution(center=SphericalPoint(2.0, 5.0), solid_angle=0.3)
        root = np.random.SeedSequence(entropy=42, spawn_key=(3,))
        expected = []
        for i in range(40):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=42, spawn_key=(3, i))
            )
            (t_lo, t_hi), (p_lo, p_hi) = dist.bounds()
            theta = float(np.arccos(rng.uniform(np.cos(t_hi), np.cos(t_lo))))
            expected.append((theta, float(rng.uniform(p_lo, p_hi))))
        np.testing.assert_array_equal(sample_cap(dist, 40, root), expected)


class TestEvolveEnsemble:
    def default_dists(self, j=100):
        center = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        return (
            CapDistribution(center=center, solid_angle=0.25),
            CapDistribution(center=center, solid_angle=1.0 / j),
        )

    def test_zero_steps_keeps_initial_samples_only(self):
        d1, d2 = self.default_dists()
        series = evolve_ensemble(d1, d2, KickParams(2.5), 100, 16, 0, seed=0)
        assert series.x1.shape == (1, 16)
        assert series.steps == 0
        assert series.count == 16

    def test_initial_product_form_is_uncorrelated(self):
        d1, d2 = self.default_dists()
        series = evolve_ensemble(d1, d2, KickParams(2.5), 100, 1000, 0, seed=0)
        r = np.corrcoef(series.x1[0], series.x2[0])[0, 1]
        assert abs(r) < 0.1

    def test_kappa_zero_series_is_period_four(self):
        d1, d2 = self.default_dists()
        series = evolve_ensemble(d1, d2, KickParams(0.0), 100, 32, 8, seed=1)
        np.testing.assert_array_equal(series.x1[0], series.x1[4])
        np.testing.assert_array_equal(series.x2[3], series.x2[7])

    def test_x_magnitude_bounds(self):
        d1, d2 = self.default_dists()
        series = evolve_ensemble(d1, d2, KickParams(6.0), 100, 64, 50, seed=2)
        assert np.max(np.abs(series.x1)) <= 0.5 / 100 + 1e-15
        assert np.max(np.abs(series.x2)) <= 99.5 / 100 + 1e-15

    def test_pairs_at_stacks_columns(self):
        d1, d2 = self.default_dists()
        series = evolve_ensemble(d1, d2, KickParams(2.5), 100, 16, 3, seed=0)
        pairs = series.pairs_at(2)
        assert pairs.shape == (16, 2)
        np.testing.assert_array_equal(pairs[:, 0], series.x1[2])
        np.testing.assert_array_equal(pairs[:, 1], series.x2[2])

    def test_deterministic(self):
        d1, d2 = self.default_dists()
        a = evolve_ensemble(d1, d2, KickParams(2.5), 100, 16, 5, seed=9)
        b = evolve_ensemble(d1, d2, KickParams(2.5), 100, 16, 5, seed=9)
        assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)

    def test_matches_stepwise_bipartite_map(self):
        # the vectorized ensemble evolution must agree with stepping each
        # trajectory through bipartite_step by hand
        d1, d2 = self.default_dists(j=50)
        series = evolve_ensemble(d1, d2, KickParams(2.5), 50, 8, 4, seed=3)
        root = np.random.SeedSequence(3)
        c1, c2 = root.spawn(2)
        n1 = spherical_to_cartesian(sample_cap(d1, 8, c1))
        n2 = spherical_to_cartesian(sample_cap(d2, 8, c2))
        pair = BipartitePair(n1=n1, n2=n2, j=50)
        np.testing.assert_array_equal(series.x1[0], pair.x1)
        for t in range(1, 5):
            pair = bipartite_step(pair, KickParams(2.5))
            np.testing.assert_array_equal(series.x1[t], pair.x1)
            np.testing.assert_array_equal(series.x2[t], pair.x2)

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
        d1, d2 = self.default_dists()
        with pytest.raises(ValueError):
            evolve_ensemble(d1, d2, KickParams(2.5), 100, 4, 5, seed=0)

    def test_rejects_negative_steps(self):
        d1, d2 = self.default_dists()
        with pytest.raises(ValueError):
            evolve_ensemble(d1, d2, KickParams(2.5), 100, 16, -1, seed=0)
