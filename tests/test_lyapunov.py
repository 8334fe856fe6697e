"""Tests for the tangent-space Lyapunov estimator."""

import glob
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kickedtop import (
    DegenerateTangentError,
    ExperimentConfig,
    KickParams,
    SphericalPoint,
    benettin_lyapunov,
    classical_step,
    initial_tangent_frame,
    jacobian,
    run_experiment,
    spherical_to_cartesian,
)
from kickedtop import lyapunov

SQ2 = np.sqrt(2.0) / 2.0

# names the dgemm kernel OpenBLAS picked (argv[1] is its library), then runs
# the pytest arguments that follow
_KERNEL_CHILD = """
import ctypes, sys
import numpy, pytest
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print("OpenBLAS kernel:", corename().decode())
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def _bundled_openblas():
    """Path of the OpenBLAS library in numpy's wheel, or None."""
    found = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                   "libscipy_openblas64_*"))
    return found[0] if found else None


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
    """Benettin's loop over the Gram-Schmidt pair, one step at a time.

    Each step is a Jacobian, then a map step.  The kernel carries column 0
    alone and must reproduce this bit for bit; the tangent update is the
    same 3x3 @ 3x2 matmul, so both round identically.  Returns the series
    and whether the pair collapsed (the second vector's residual norm was
    not above lyapunov._NORM_FLOOR), a run the pair algorithm refused.
    Column 0 does not depend on column 1, so after a collapse column 1 is
    set to 0 and the loop carries on.
    """
    w = initial_tangent_frame(start)
    state = spherical_to_cartesian(start)
    log_sum = 0.0
    series = np.empty(n_blocks)
    refused = False
    for block in range(n_blocks):
        for _ in range(steps_per_block):
            w = closed_form_jacobian(state, params) @ w
            state = classical_step(state, params)
        alpha = float(np.linalg.norm(w[:, 0]))
        w[:, 0] /= alpha
        w[:, 1] -= (w[:, 0] @ w[:, 1]) * w[:, 0]
        second = float(np.linalg.norm(w[:, 1]))
        if lyapunov._NORM_FLOOR < second < np.inf:
            w[:, 1] /= second
        else:
            refused = True
            w[:, 1] = 0.0
        log_sum += np.log(alpha)
        series[block] = log_sum / ((block + 1) * steps_per_block)
    return series, refused


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
        assert frame.shape == (3, 2) and frame.flags.c_contiguous
        np.testing.assert_allclose(frame[:, 0], [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(frame[:, 1], [0.0, -1.0, 0.0], atol=1e-15)

    def test_oblique_frame(self):
        frame = initial_tangent_frame(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4))
        np.testing.assert_allclose(frame[:, 0], [0.5, -0.5, -SQ2], atol=1e-12)
        np.testing.assert_allclose(frame[:, 1], [SQ2, SQ2, 0.0], atol=1e-12)

    def test_orthonormal_and_tangent(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            point = SphericalPoint(rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi))
            w1, w2 = initial_tangent_frame(point).T
            assert abs(np.dot(w1, w2)) < 1e-12
            assert abs(np.linalg.norm(w1) - 1.0) < 1e-12
            assert abs(np.linalg.norm(w2) - 1.0) < 1e-12
            radial = spherical_to_cartesian(point)
            assert abs(np.dot(w1, radial)) < 1e-12
            assert abs(np.dot(w2, radial)) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, np.pi, 1e-9, np.pi - 1e-9])
    def test_rejects_poles(self, theta):
        with pytest.raises(ValueError):
            initial_tangent_frame(SphericalPoint(theta, 0.3))

    @settings(deadline=None)
    @given(distance=st.floats(0.0, 0.9e-8), south=st.booleans(), phi=st.floats(0.0, 2 * np.pi))
    def test_refuses_within_tolerance_of_a_pole(self, distance, south, phi):
        theta = np.pi - distance if south else distance
        with pytest.raises(ValueError, match="tangent frame undefined within 1e-08"):
            initial_tangent_frame(SphericalPoint(theta, phi))

    @settings(deadline=None)
    @given(distance=st.floats(1.1e-8, 1e-6), south=st.booleans(), phi=st.floats(0.0, 2 * np.pi))
    def test_finite_orthonormal_frame_just_outside_tolerance(self, distance, south, phi):
        point = SphericalPoint(np.pi - distance if south else distance, phi)
        frame = initial_tangent_frame(point)
        basis = np.array([frame[:, 0], frame[:, 1], spherical_to_cartesian(point)])
        assert np.all(np.isfinite(basis))
        np.testing.assert_allclose(basis @ basis.T, np.eye(3), rtol=0, atol=1e-12)


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
        # expanding direction keeps no radial component, so one vector
        # needs no second one to stay on the sphere
        params = KickParams(6.0)
        point = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        w = initial_tangent_frame(point)[:, 0]
        state = spherical_to_cartesian(point)
        worst = 0.0
        for _ in range(30):
            for _ in range(10):
                w = jacobian(state, params) @ w
                state = classical_step(state, params)
            w /= np.linalg.norm(w)
            worst = max(worst, abs(state @ w))
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
        expected, refused = stepwise_block_series(start, params, n_blocks, steps_per_block)
        np.testing.assert_array_equal(est.block_series, expected)

    def test_chunk_boundaries_inside_blocks(self, monkeypatch):
        # a chunk shorter than, and coprime to, the block puts chunk edges
        # at every offset within a block
        monkeypatch.setattr(lyapunov, "_CHUNK_STEPS", 7)
        start, params = SphericalPoint(0.8, 0.9), KickParams(6.0)
        est = benettin_lyapunov(start, params, 40, 10)
        expected, refused = stepwise_block_series(start, params, 40, 10)
        np.testing.assert_array_equal(est.block_series, expected)

    @settings(deadline=None, max_examples=60)
    @given(theta=st.floats(0.05, np.pi - 0.05), phi=st.floats(0.0, 2 * np.pi),
           kappa=st.floats(0.0, 8.0), n_blocks=st.integers(1, 30),
           steps_per_block=st.integers(1, 40), chunk=st.integers(1, 64))
    def test_drawn_runs_match_stepwise_loop_bit_for_bit(self, theta, phi, kappa, n_blocks,
                                                        steps_per_block, chunk):
        # chunk edges fall at any offset within a block, and the series is
        # built from the stored norms after the loop
        start, params = SphericalPoint(theta, phi), KickParams(kappa)
        with mock.patch.object(lyapunov, "_CHUNK_STEPS", chunk):
            est = benettin_lyapunov(start, params, n_blocks, steps_per_block)
        assert np.isfinite(est.block_series).all()
        expected, refused = stepwise_block_series(start, params, n_blocks, steps_per_block)
        if refused:
            # a block that stretches by about 1e16 folds the pair onto one
            # line (36 steps at kappa=5.54 did); the pair algorithm refused
            # such runs, and one vector runs them with the same column 0
            event("the pair oracle refuses this draw")
        np.testing.assert_array_equal(est.block_series, expected)

    def test_runs_the_pair_algorithm_refused(self):
        # at kappa=6 from the CLI's default centre the pair collapses at
        # block 26 of 40-step blocks; one vector runs on, with the bits of
        # the pair's column 0
        start, params = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), KickParams(6.0)
        expected, refused = stepwise_block_series(start, params, 100, 40)
        assert refused
        est = benettin_lyapunov(start, params, 100, 40)
        assert np.isfinite(est.block_series).all()
        np.testing.assert_array_equal(est.block_series, expected)

    def test_million_steps_land_in_criterion_01_band(self):
        # 1e5 blocks of 10 steps from the CLI's default centre: the series
        # stays finite and settles within criterion 01's 0.978 +/- 0.01
        est = benettin_lyapunov(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), KickParams(6.0),
                                10**5, 10)
        assert np.isfinite(est.block_series).all()
        assert abs(est.lam - 0.978) <= 0.01

    @pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
    def test_column_0_keeps_its_bits_under_other_openblas_kernels(self, coretype):
        # OpenBLAS picks its dgemm kernel at run time; under another kernel
        # the product rounds differently, but column 0 must still be the
        # pair's column 0.  Kernel and oracle run in the same child, so the
        # test does not depend on the host's own kernel.
        library = _bundled_openblas()
        if library is None:
            pytest.skip("numpy does not bundle OpenBLAS here")
        test_file = Path(__file__).resolve()
        oracle_cases = [f"{test_file}::TestBenettin::{name}" for name in (
            "test_matches_stepwise_loop_bit_for_bit",
            "test_chunk_boundaries_inside_blocks",
            "test_runs_the_pair_algorithm_refused",
        )]
        done = subprocess.run(
            [sys.executable, "-c", _KERNEL_CHILD, library, *oracle_cases],
            env={**os.environ, "OPENBLAS_CORETYPE": coretype}, cwd=test_file.parents[1],
            capture_output=True, text=True, timeout=600,
        )
        kernel = done.stdout.partition("OpenBLAS kernel: ")[2].partition("\n")[0]
        if kernel and kernel != coretype:
            pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernel (got {kernel})")
        # pytest exits 0 only when every named case ran and passed
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert kernel == coretype, done.stdout[-3000:]

    def test_overflow_is_reported_in_the_chunk_where_it_happens(self, monkeypatch):
        # at kappa=6 from the CLI's default centre the pair leaves float64
        # near step 752; the block's end, where the norms are taken, is 245
        # chunks further on
        calls = []

        def counted(*args):
            calls.append(args)
            return evolve_trajectory(*args)

        evolve_trajectory = lyapunov.evolve_trajectory
        monkeypatch.setattr(lyapunov, "evolve_trajectory", counted)
        with pytest.raises(DegenerateTangentError, match="^leading tangent norm is nan at "
                           "block 0: the tangent product overflowed$"):
            benettin_lyapunov(SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), KickParams(6.0), 1,
                              10**6)
        assert len(calls) <= 2

    def test_kernels_are_looked_up_at_call_time(self, monkeypatch):
        # perfbench's tracer wraps jacobian on this module in place; a name
        # bound anywhere else would bypass the wrapper and read 0 calls
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("jacobian", "evolve_trajectory"):
            monkeypatch.setattr(lyapunov, name, counted(name, getattr(lyapunov, name)))
        monkeypatch.setattr(lyapunov, "_CHUNK_STEPS", 7)
        run_experiment(ExperimentConfig("lyapunov", kappa=6.0, n_blocks=40, steps_per_block=10))
        chunks = -(-400 // 7)
        assert counts == {"jacobian": chunks, "evolve_trajectory": chunks}

    @pytest.mark.parametrize("kappa", [1e17, 1e308])
    def test_overflowing_tangent_is_reported_at_its_block(self, kappa):
        # the tangent product leaves float64 within block 0; this used to
        # warn, then pass as an underflow at block 1 (1e17) or as a NaN
        # norm "underflowed" at block 0 (1e308)
        start = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        with pytest.raises(DegenerateTangentError,
                           match="at block 0: the tangent product overflowed$"):
            benettin_lyapunov(start, KickParams(kappa), 5, 10)

    @pytest.mark.parametrize("n_blocks,steps", [(0, 5), (5, 0), (-1, 1)])
    def test_rejects_invalid_block_structure(self, n_blocks, steps):
        with pytest.raises(ValueError):
            benettin_lyapunov(SphericalPoint(1.0, 1.0), KickParams(1.0), n_blocks, steps)
