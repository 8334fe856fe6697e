"""Tests for the classical stroboscopic map and phase portraits."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kickedtop import (
    KickParams,
    SphericalPoint,
    cartesian_to_spherical,
    classical_step,
    evolve_trajectory,
    phase_portrait,
    spherical_to_cartesian,
)
from kickedtop.classical import PORTRAIT_DTYPE, kick_rotation

SQ2 = np.sqrt(2.0) / 2.0


def random_unit_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestKickParams:
    def test_accepts_zero_and_positive(self):
        assert KickParams(0.0).kappa == 0.0
        assert KickParams(6).kappa == 6.0

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_rejects_invalid_kappa(self, bad):
        with pytest.raises(ValueError):
            KickParams(bad)


class TestCoordinates:
    def test_north_pole(self):
        np.testing.assert_allclose(
            spherical_to_cartesian(SphericalPoint(0.0, 2.1)), [0.0, 0.0, 1.0], atol=1e-15
        )

    def test_equator(self):
        np.testing.assert_allclose(
            spherical_to_cartesian(SphericalPoint(np.pi / 2, 0.0)),
            [1.0, 0.0, 0.0],
            atol=1e-15,
        )

    def test_oblique_point(self):
        got = spherical_to_cartesian(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4))
        np.testing.assert_allclose(got, [-0.5, 0.5, -SQ2], atol=1e-12)

    def test_round_trip_away_from_poles(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            point = SphericalPoint(rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi))
            back = cartesian_to_spherical(spherical_to_cartesian(point))
            assert abs(back.theta - point.theta) < 1e-10
            assert abs(back.phi - point.phi) < 1e-10

    def test_pole_phi_convention(self):
        assert cartesian_to_spherical(np.array([0.0, 0.0, 1.0])).phi == 0.0
        assert cartesian_to_spherical(np.array([0.0, 0.0, -1.0])).phi == 0.0
        assert cartesian_to_spherical(np.array([0.0, -0.0, 1.0])).phi == 0.0
        # arctan2 keeps the sign of a zero x: a pole with x = -0.0 has phi = pi
        for pole in ([-0.0, 0.0, 1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0, 1.0]):
            assert cartesian_to_spherical(np.array(pole)).phi == np.pi, pole
        # where a kappa=0 orbit from theta=0 reaches one in four steps
        assert cartesian_to_spherical(evolve_trajectory(
            spherical_to_cartesian(SphericalPoint(0.0, 0.0)), KickParams(0.0), 4)[4]).phi == np.pi

    def test_phi_range(self):
        point = cartesian_to_spherical(np.array([0.5, -0.5, -SQ2]))
        assert 0.0 <= point.phi < 2 * np.pi

    def test_batched_shapes(self):
        angles = np.stack([np.full(5, 1.0), np.linspace(0, 6, 5)], axis=-1)
        vecs = spherical_to_cartesian(angles)
        assert vecs.shape == (5, 3)
        theta, phi = cartesian_to_spherical(vecs)
        np.testing.assert_allclose(theta, 1.0, atol=1e-12)


class TestClassicalStep:
    def test_kappa_zero_is_quarter_turn(self):
        out = classical_step(np.array([1.0, 0.0, 0.0]), KickParams(0.0))
        np.testing.assert_allclose(out, [0.0, 0.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.5, 6.0, 30.0])
    def test_y_axis_fixed_point(self, kappa):
        out = classical_step(np.array([0.0, 1.0, 0.0]), KickParams(kappa))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-14)
        out = classical_step(np.array([0.0, -1.0, 0.0]), KickParams(kappa))
        np.testing.assert_allclose(out, [0.0, -1.0, 0.0], atol=1e-14)

    def test_oblique_step_against_complex_oracle(self):
        # independent form of the same map: (x', y') = (z + i y) e^{-i kappa x}
        kappa = 2.5
        state = spherical_to_cartesian(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4))
        x, y, z = state
        w = (z + 1j * y) * cmath.exp(-1j * kappa * x)
        got = classical_step(state, KickParams(kappa))
        np.testing.assert_allclose(got, [w.real, w.imag, -x], atol=1e-14)
        np.testing.assert_allclose(
            got, [-0.6974588903872496, -0.5133722783904353, 0.5], atol=1e-12
        )

    def test_norm_preserved_randomly(self):
        rng = np.random.default_rng(5)
        for v in random_unit_vectors(200, seed=17):
            out = classical_step(v, KickParams(rng.uniform(0, 10)))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_kappa_zero_period_four(self):
        params = KickParams(0.0)
        for v in random_unit_vectors(100, seed=23):
            state = v
            for _ in range(4):
                state = classical_step(state, params)
            np.testing.assert_allclose(state, v, atol=1e-12)

    def test_deterministic(self):
        v = random_unit_vectors(1, seed=3)[0]
        a = classical_step(v, KickParams(3.3))
        b = classical_step(v, KickParams(3.3))
        assert np.array_equal(a, b)

    def test_input_not_modified(self):
        v = np.array([0.0, 0.0, 1.0])
        classical_step(v, KickParams(2.0))
        np.testing.assert_array_equal(v, [0.0, 0.0, 1.0])

    def test_batched_step_matches_scalar(self):
        batch = random_unit_vectors(8, seed=9)
        params = KickParams(2.5)
        out = classical_step(batch, params)
        for i in range(8):
            np.testing.assert_array_equal(out[i], classical_step(batch[i], params))


class TestKickRotation:
    def test_zero_phase_is_quarter_turn(self):
        out = kick_rotation(np.array([0.3, 0.4, 0.5]), 0.0)
        np.testing.assert_array_equal(out, [0.5, 0.4, -0.3])

    def test_matches_step_when_phase_is_kappa_x(self):
        v = random_unit_vectors(1, seed=31)[0]
        np.testing.assert_array_equal(
            kick_rotation(v, 2.5 * v[0]), classical_step(v, KickParams(2.5))
        )


class TestEvolveTrajectory:
    def test_zero_steps_returns_start(self):
        start = np.array([1.0, 0.0, 0.0])
        path = evolve_trajectory(start, KickParams(2.5), 0)
        assert path.shape == (1, 3)
        np.testing.assert_array_equal(path[0], start)

    def test_kappa_zero_period_four_trajectory(self):
        path = evolve_trajectory(np.array([1.0, 0.0, 0.0]), KickParams(0.0), 4)
        np.testing.assert_allclose(path[4], path[0], atol=1e-15)

    def test_rows_chain_by_single_steps(self):
        params = KickParams(3.0)
        path = evolve_trajectory(random_unit_vectors(1, seed=2)[0], params, 20)
        for i in range(20):
            np.testing.assert_array_equal(path[i + 1], classical_step(path[i], params))

    def test_long_run_norm_conservation(self):
        path = evolve_trajectory(
            spherical_to_cartesian(SphericalPoint(1.1, 0.3)), KickParams(3.0), 10_000
        )
        assert abs(np.linalg.norm(path[-1]) - 1.0) < 1e-12

    def test_million_step_norm_drift(self):
        # Each step is a rotation evaluated with a few roundings per
        # component, each at most u = 2**-53 ~ 1.1e-16 relative, and cos/sin
        # good to about an ulp.  Round-to-nearest errors carry no
        # sign bias, so |v| - 1 performs a random walk of size ~ c u sqrt(N)
        # with c of order a few: ~1e-13 after N = 1e6 steps.  1e-10 is
        # three orders above that yet below the worst-case linear build-up
        # N c u ~ 3e-10, so it catches any systematic per-step drift.
        path = evolve_trajectory(
            spherical_to_cartesian(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)),
            KickParams(6.0),
            1_000_000,
        )
        drift = np.abs(np.sqrt(np.einsum("ij,ij->i", path, path)) - 1.0)
        assert drift.max() < 1e-10

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            evolve_trajectory(np.array([0.0, 0.0, 1.0]), KickParams(1.0), -1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            evolve_trajectory(np.zeros((2, 3)), KickParams(1.0), 1)


class TestPhasePortrait:
    def test_schema(self):
        records = phase_portrait([(1.0, 2.0), (0.5, 0.5)], KickParams(2.5), 3)
        assert records.dtype == PORTRAIT_DTYPE
        assert records.shape == (2 * 4,)
        assert set(records["traj_id"]) == {0, 1}
        np.testing.assert_array_equal(records["step"][:4], [0, 1, 2, 3])

    @pytest.mark.parametrize("count", [1, 2])
    def test_rejects_negative_steps(self, count):
        # every start steps through evolve_trajectory, which refuses them;
        # a batch used to return no records for steps=-1
        with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
            phase_portrait([(1.0, 2.0)] * count, KickParams(2.5), -1)

    def test_fixed_point_initial_gives_identical_points(self):
        # (theta, phi) = (pi/2, pi/2) is the +y fixed point; it is elliptic
        # for kappa < 2, so the rounding in cos(pi/2) stays at roundoff size
        records = phase_portrait([(np.pi / 2, np.pi / 2)], KickParams(1.0), 50)
        np.testing.assert_allclose(records["x"], 0.0, atol=1e-14)
        np.testing.assert_allclose(records["y"], 1.0, atol=1e-14)
        np.testing.assert_allclose(records["theta"], np.pi / 2, atol=1e-7)

    def test_deterministic(self):
        initials = [(0.7, 1.2), (2.2, 4.4)]
        a = phase_portrait(initials, KickParams(6.0), 100)
        b = phase_portrait(initials, KickParams(6.0), 100)
        assert np.array_equal(a, b)

    def test_chaotic_trajectory_covers_sphere(self):
        # a single chaotic orbit at kappa=6 visits nearly every (theta, phi) cell
        records = phase_portrait([(3 * np.pi / 4, 3 * np.pi / 4)], KickParams(6.0), 10_000)
        ti = np.minimum((records["theta"] / np.pi * 20).astype(int), 19)
        pi_ = np.minimum((records["phi"] / (2 * np.pi) * 20).astype(int), 19)
        occupied = np.zeros((20, 20), dtype=bool)
        occupied[ti, pi_] = True
        assert 1.0 - occupied.mean() < 0.10

    @pytest.mark.parametrize("kappa", [0.0, 2.5, 6.0])
    def test_each_trajectory_matches_evolve_trajectory(self, kappa):
        # the batch advances every start together; each orbit must be the
        # serial one bit for bit, including near-pole and equatorial starts
        initials = [
            (1e-6, 0.3),
            (np.pi / 2, 0.0),
            (2.2, 4.4),
            (3 * np.pi / 4, 3 * np.pi / 4),
            (np.pi - 1e-6, 6.0),
        ]
        params = KickParams(kappa)
        records = phase_portrait(initials, params, 300)
        for traj_id, point in enumerate(initials):
            block = records[records["traj_id"] == traj_id]
            path = evolve_trajectory(spherical_to_cartesian(point), params, 300)
            theta, phi = cartesian_to_spherical(path)
            np.testing.assert_array_equal(block["step"], np.arange(301))
            xyz = np.column_stack([block["x"], block["y"], block["z"]])
            np.testing.assert_array_equal(xyz, path)
            np.testing.assert_array_equal(block["theta"], theta)
            np.testing.assert_array_equal(block["phi"], phi)

    @settings(deadline=None, max_examples=50)
    @given(
        initials=st.lists(st.tuples(
            st.one_of(st.floats(0.0, np.pi), st.sampled_from([1e-9, 1e-6, np.pi - 1e-6])),
            st.floats(0.0, 2 * np.pi),
        ), max_size=12),
        steps=st.integers(0, 800),
        kappa=st.floats(0.0, 10.0),
    )
    @example(initials=[], steps=0, kappa=1.0)
    @example(initials=[(2.2, 4.4)], steps=1, kappa=2.5)
    @example(initials=[(1e-6, 0.3), (np.pi - 1e-6, 6.0)] * 6, steps=800, kappa=6.0)
    def test_records_match_per_trajectory_oracle(self, initials, steps, kappa):
        # up to 12 x 801 rows, so the angles fill zero, one or several
        # blocks; each record must be the serial orbit's, bit for bit
        params = KickParams(kappa)
        records = phase_portrait(initials, params, steps)
        assert records.shape == (len(initials) * (steps + 1),)
        for traj_id, point in enumerate(initials):
            block = records[traj_id * (steps + 1):(traj_id + 1) * (steps + 1)]
            path = evolve_trajectory(spherical_to_cartesian(point), params, steps)
            theta, phi = cartesian_to_spherical(path)
            np.testing.assert_array_equal(block["traj_id"], traj_id)
            np.testing.assert_array_equal(block["step"], np.arange(steps + 1))
            xyz = np.column_stack([block["x"], block["y"], block["z"]])
            np.testing.assert_array_equal(xyz, path)
            np.testing.assert_array_equal(block["theta"], theta)
            np.testing.assert_array_equal(block["phi"], phi)

    def test_empty_initials_yield_empty_portrait(self):
        records = phase_portrait([], KickParams(1.0), 5)
        assert records.shape == (0,)
