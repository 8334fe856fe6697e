"""Tests for the tangent-space Lyapunov estimator."""

import numpy as np
import pytest

from kickedtop import (
    KickParams,
    SphericalPoint,
    benettin_lyapunov,
    classical_step,
    initial_tangent_frame,
    jacobian,
    spherical_to_cartesian,
)
from kickedtop import lyapunov

SQ2 = np.sqrt(2.0) / 2.0


def random_states_and_kappas(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, rng.uniform(0.0, 6.0, size=n)


def closed_form_jacobian(state, params):
    """Single-state Jacobian built entry by entry, as a 3x3 literal."""
    x, y, z = np.asarray(state, dtype=np.float64)
    k = params.kappa
    c = np.cos(k * x)
    s = np.sin(k * x)
    return np.array(
        [
            [k * (y * c - z * s), s, c],
            [-k * (y * s + z * c), c, -s],
            [-1.0, 0.0, 0.0],
        ]
    )


def stepwise_block_series(start, params, n_blocks, steps_per_block):
    """Benettin's loop one step at a time: a Jacobian, then a map step.

    The chunked kernel must reproduce this bit for bit; the tangent update
    is the same 3x3 @ 3x2 matmul, so both round identically.
    """
    frame = initial_tangent_frame(start)
    state = spherical_to_cartesian(start)
    w = np.column_stack([frame.w1, frame.w2])
    log_sum = 0.0
    series = np.empty(n_blocks)
    for block in range(n_blocks):
        for _ in range(steps_per_block):
            w = closed_form_jacobian(state, params) @ w
            state = classical_step(state, params)
        alpha = float(np.linalg.norm(w[:, 0]))
        w[:, 0] /= alpha
        w[:, 1] -= (w[:, 0] @ w[:, 1]) * w[:, 0]
        w[:, 1] /= float(np.linalg.norm(w[:, 1]))
        log_sum += np.log(alpha)
        series[block] = log_sum / ((block + 1) * steps_per_block)
    return series


class TestJacobian:
    def test_kappa_zero_is_rotation_matrix(self):
        got = jacobian(np.array([0.2, -0.4, 0.8]), KickParams(0.0))
        np.testing.assert_array_equal(
            got, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]
        )

    def test_determinant_is_one(self):
        states, kappas = random_states_and_kappas(50, seed=4)
        for state, kappa in zip(states, kappas):
            det = np.linalg.det(jacobian(state, KickParams(kappa)))
            assert abs(det - 1.0) < 1e-12

    def test_matches_central_finite_differences(self):
        states, kappas = random_states_and_kappas(50, seed=8)
        h = 1e-6
        for state, kappa in zip(states, kappas):
            params = KickParams(kappa)
            fd = np.empty((3, 3))
            for col in range(3):
                dv = np.zeros(3)
                dv[col] = h
                fd[:, col] = (
                    classical_step(state + dv, params) - classical_step(state - dv, params)
                ) / (2 * h)
            dev = np.max(np.abs(jacobian(state, params) - fd))
            assert dev < 1e-6

    def test_batched_rows_match_single_state_calls(self):
        states, kappas = random_states_and_kappas(50, seed=5)
        for kappa in (0.0, 2.5, float(kappas[0]), 6.0):
            params = KickParams(kappa)
            batch = jacobian(states, params)
            assert batch.shape == (50, 3, 3)
            for state, jac in zip(states, batch):
                np.testing.assert_array_equal(jac, jacobian(state, params))
                np.testing.assert_array_equal(jac, closed_form_jacobian(state, params))

    def test_batch_shape_follows_leading_dimensions(self):
        states, _ = random_states_and_kappas(12, seed=6)
        batch = jacobian(states.reshape(3, 4, 3), KickParams(2.5))
        assert batch.shape == (3, 4, 3, 3)
        flat = jacobian(states, KickParams(2.5))
        np.testing.assert_array_equal(batch.reshape(12, 3, 3), flat)


class TestInitialTangentFrame:
    def test_equatorial_frame(self):
        frame = initial_tangent_frame(SphericalPoint(np.pi / 2, 0.0))
        np.testing.assert_allclose(frame.w1, [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(frame.w2, [0.0, -1.0, 0.0], atol=1e-15)

    def test_oblique_frame(self):
        frame = initial_tangent_frame(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4))
        np.testing.assert_allclose(frame.w1, [0.5, -0.5, -SQ2], atol=1e-12)
        np.testing.assert_allclose(frame.w2, [SQ2, SQ2, 0.0], atol=1e-12)

    def test_orthonormal_and_tangent(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            point = SphericalPoint(rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi))
            frame = initial_tangent_frame(point)
            assert abs(np.dot(frame.w1, frame.w2)) < 1e-12
            assert abs(np.linalg.norm(frame.w1) - 1.0) < 1e-12
            assert abs(np.linalg.norm(frame.w2) - 1.0) < 1e-12
            radial = spherical_to_cartesian(point)
            assert abs(np.dot(frame.w1, radial)) < 1e-12
            assert abs(np.dot(frame.w2, radial)) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, np.pi, 1e-9, np.pi - 1e-9])
    def test_rejects_poles(self, theta):
        with pytest.raises(ValueError):
            initial_tangent_frame(SphericalPoint(theta, 0.3))


class TestBenettin:
    def test_kappa_zero_exponent_vanishes(self):
        # rotations stretch nothing, so every renormalization factor is 1
        est = benettin_lyapunov(SphericalPoint(1.0, 0.5), KickParams(0.0), 200, 10)
        assert abs(est.lam) < 1e-12

    def test_chaotic_reference_value(self):
        est = benettin_lyapunov(
            SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), KickParams(6.0), 3000, 10
        )
        assert abs(est.lam - 0.978) < 0.01

    def test_mixed_phase_space_reference_value(self):
        est = benettin_lyapunov(
            SphericalPoint(np.pi / 5, np.pi / 10), KickParams(2.5), 12000, 5
        )
        assert abs(est.lam - 0.167) < 0.02

    def test_block_series_shape_and_final_value(self):
        est = benettin_lyapunov(SphericalPoint(1.2, 0.7), KickParams(6.0), 40, 5)
        assert est.block_series.shape == (40,)
        assert est.block_series[-1] == est.lam
        assert est.n == 40 and est.s == 5

    def test_renormalization_period_invariance(self):
        # with n*s fixed the estimate barely depends on the block length
        ic = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        a = benettin_lyapunov(ic, KickParams(6.0), 1000, 5).lam
        b = benettin_lyapunov(ic, KickParams(6.0), 500, 10).lam
        assert abs(a - b) < 0.01

    def test_block_series_is_cauchy(self):
        est = benettin_lyapunov(
            SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), KickParams(6.0), 1000, 5
        )
        assert abs(est.block_series[-1] - est.block_series[499]) < 0.02

    def test_jacobian_maps_tangent_to_tangent(self):
        # the extended map preserves |q| for every q, so its derivative
        # sends vectors tangent at p to vectors tangent at the image of p
        params = KickParams(6.0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.normal(size=3)
            p /= np.linalg.norm(p)
            v = rng.normal(size=3)
            v -= (p @ v) * p
            jv = jacobian(p, params) @ v
            assert abs(classical_step(p, params) @ jv) < 1e-12

    def test_leading_vector_stays_tangent(self):
        # through 300 chaotic steps with per-block renormalisation the
        # expanding direction keeps no radial component (the contracting
        # column is excluded: roundoff-injected radial parts are neutral
        # and so outgrow a direction that shrinks as exp(-lambda n))
        params = KickParams(6.0)
        point = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        frame = initial_tangent_frame(point)
        state = spherical_to_cartesian(point)
        w = np.column_stack([frame.w1, frame.w2])
        worst = 0.0
        for _ in range(30):
            for _ in range(10):
                w = jacobian(state, params) @ w
                state = classical_step(state, params)
            w[:, 0] /= np.linalg.norm(w[:, 0])
            w[:, 1] -= (w[:, 0] @ w[:, 1]) * w[:, 0]
            w[:, 1] /= np.linalg.norm(w[:, 1])
            worst = max(worst, abs(state @ w[:, 0]))
        assert worst < 1e-12

    def test_deterministic(self):
        ic = SphericalPoint(0.8, 0.9)
        a = benettin_lyapunov(ic, KickParams(2.5), 100, 5)
        b = benettin_lyapunov(ic, KickParams(2.5), 100, 5)
        assert a.lam == b.lam
        assert np.array_equal(a.block_series, b.block_series)

    @pytest.mark.parametrize(
        "start,kappa,n_blocks,steps_per_block",
        [
            # chaotic, 5000 steps: one full chunk plus a partial one
            (SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), 6.0, 500, 10),
            (SphericalPoint(np.pi / 5, np.pi / 10), 2.5, 900, 7),
            (SphericalPoint(2.0, 4.0), 0.0, 7, 300),
            # blocks longer than a chunk, on a regular orbit so the
            # unrenormalised tangent vectors stay finite
            (SphericalPoint(1.0, 0.3), 1.0, 3, lyapunov._CHUNK_STEPS + 904),
        ],
    )
    def test_matches_stepwise_loop_bit_for_bit(self, start, kappa, n_blocks, steps_per_block):
        assert (n_blocks * steps_per_block) % lyapunov._CHUNK_STEPS != 0
        params = KickParams(kappa)
        est = benettin_lyapunov(start, params, n_blocks, steps_per_block)
        expected = stepwise_block_series(start, params, n_blocks, steps_per_block)
        np.testing.assert_array_equal(est.block_series, expected)

    def test_chunk_boundaries_inside_blocks(self, monkeypatch):
        # a chunk shorter than, and coprime to, the block puts chunk edges
        # at every offset within a block
        monkeypatch.setattr(lyapunov, "_CHUNK_STEPS", 7)
        start, params = SphericalPoint(0.8, 0.9), KickParams(6.0)
        est = benettin_lyapunov(start, params, 40, 10)
        np.testing.assert_array_equal(
            est.block_series, stepwise_block_series(start, params, 40, 10)
        )

    @pytest.mark.parametrize("n_blocks,steps", [(0, 5), (5, 0), (-1, 1)])
    def test_rejects_invalid_block_structure(self, n_blocks, steps):
        with pytest.raises(ValueError):
            benettin_lyapunov(SphericalPoint(1.0, 1.0), KickParams(1.0), n_blocks, steps)
