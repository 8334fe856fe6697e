"""Tests for the spin-j Floquet map, coherent states, and entropy measures."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedtop import (
    KickParams,
    NormDriftError,
    SphericalPoint,
    SpinState,
    bloch_vector,
    classical_step,
    coherent_state,
    evolve_expectations,
    evolve_trajectory,
    floquet_unitary,
    linear_entropy,
    spherical_to_cartesian,
    thermo_limit_entropy,
    von_neumann_entropy_single_spin,
)
from kickedtop import quantum
from kickedtop.bipartite import CapDistribution, sample_cap
from kickedtop.quantum import _ladder, _quarter_turn_y, _two_j


def spin_operators(j):
    """Dense Jx, Jy, Jz of spin j from the package's ladder coefficients.

    The oracle operators for the matrix-exponential checks; the package
    itself builds no dense operator but Jy, inside the Floquet build.
    """
    two_j = _two_j(j)
    m, coeff = _ladder(two_j)
    jz = np.diag(m).astype(np.complex128)
    jp = np.diag(coeff, 1).astype(np.complex128)
    return (jp + jp.conj().T) / 2.0, (jp - jp.conj().T) / 2.0j, jz


def direction(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


# polar angles within 1e-6 of either pole, the poles included
NEAR_POLE = st.one_of(st.floats(0.0, 1e-6), st.floats(np.pi - 1e-6, np.pi))


class TestSpinOperators:
    def test_half_spin_is_half_pauli(self):
        jx, jy, jz = spin_operators(0.5)
        np.testing.assert_allclose(jx, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
        np.testing.assert_allclose(jy, [[0.0, -0.5j], [0.5j, 0.0]], atol=1e-15)
        np.testing.assert_allclose(jz, [[0.5, 0.0], [0.0, -0.5]], atol=1e-15)

    def test_spin_one_jz(self):
        np.testing.assert_allclose(spin_operators(1)[2], np.diag([1.0, 0.0, -1.0]), atol=1e-15)

    def test_commutator_at_large_j(self):
        # the product entries are O(j^2), so allow roundoff on that scale
        jx, jy, jz = spin_operators(100)
        residual = jx @ jy - jy @ jx - 1j * jz
        assert np.max(np.abs(residual)) < 5 * 100**2 * np.finfo(float).eps

    def test_hermitian(self):
        for mat in spin_operators(7.5):
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-14

    def test_rejects_invalid_j(self):
        with pytest.raises(ValueError):
            floquet_unitary(0.3, 1.0)
        with pytest.raises(ValueError):
            coherent_state(0, 1.0, 0.0)


class TestCoherentState:
    def test_north_pole_is_top_weight_state(self):
        state = coherent_state(5, 0.0, 1.3)
        expected = np.zeros(11)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 20, 100])
    def test_bloch_vector_points_along_center(self, j):
        rng = np.random.default_rng(int(2 * j))
        for _ in range(5):
            theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi)
            state = coherent_state(j, theta, phi)
            np.testing.assert_allclose(
                bloch_vector(state), direction(theta, phi), atol=1e-10
            )

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
    def test_matches_rotation_operator_construction(self, j):
        # the closed-form amplitudes must equal the rotated top-weight state
        # exp{i theta (Jx sin phi - Jy cos phi)} |j, j>, global phase included
        jx, jy, _ = spin_operators(j)
        for theta, phi in [(0.7, 0.3), (2.2, 4.0), (np.pi / 2, np.pi)]:
            top = np.zeros(jx.shape[0], dtype=complex)
            top[0] = 1.0
            rotated = expm(1j * theta * (jx * np.sin(phi) - jy * np.cos(phi))) @ top
            got = coherent_state(j, theta, phi).amplitudes
            np.testing.assert_allclose(got, rotated, atol=1e-12)

    def test_unit_bloch_norm_means_zero_entropy(self):
        state = coherent_state(30, 1.1, 2.2)
        assert linear_entropy(bloch_vector(state)) < 1e-10

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            coherent_state(5, -0.2, 0.0)
        with pytest.raises(ValueError):
            coherent_state(5, np.pi + 0.2, 0.0)
        with pytest.raises(ValueError, match="theta0 must lie in"):
            coherent_state(5, np.nextafter(np.pi, 4.0), 0.0)

    @settings(deadline=None)
    @given(j=st.sampled_from([0.5, 20, 400]), theta=NEAR_POLE, phi=st.floats(0.0, 2 * np.pi))
    def test_near_pole_state_is_finite_with_unit_bloch_vector(self, j, theta, phi):
        # the log-space amplitudes take cos(theta/2) or sin(theta/2) down to
        # zero or a subnormal without an infinity or NaN
        state = coherent_state(j, theta, phi)
        assert np.all(np.isfinite(state.amplitudes))
        bloch = bloch_vector(state)
        assert abs(np.linalg.norm(bloch) - 1.0) < 1e-12
        np.testing.assert_allclose(bloch, direction(theta, phi), rtol=0, atol=1e-12)


class TestFloquetUnitary:
    def test_unitarity_up_to_j400(self):
        for j in (0.5, 10, 100, 200, 400):
            u = floquet_unitary(j, 3.0)
            dim = u.shape[0]
            dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            assert dev < 1e-10

    def test_half_spin_kick_is_global_phase(self):
        jy = spin_operators(0.5)[1]
        for kappa in (0.0, 1.7, 6.0):
            expected = np.exp(-1j * kappa / 4) * expm(-1j * (np.pi / 2) * jy)
            np.testing.assert_allclose(floquet_unitary(0.5, kappa), expected, atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        j = 3.5
        _, jy, jz = spin_operators(j)
        kappa = 2.5
        oracle = expm(-1j * kappa / (2 * j) * (jz @ jz)) @ expm(-1j * (np.pi / 2) * jy)
        np.testing.assert_allclose(floquet_unitary(j, kappa), oracle, atol=1e-12)

    def test_kappa_zero_integer_j_period_four(self):
        u = floquet_unitary(5, 0.0)
        u4 = np.linalg.matrix_power(u, 4)
        assert np.max(np.abs(u4 - np.eye(11))) < 1e-10

    def test_overflowing_kick_phase_is_refused(self):
        # kappa m^2 at m = j = 4 overflows; the phase must not reach exp as
        # NaN (nor warn on the way), and a large finite phase still builds
        with pytest.raises(ValueError, match="overflows at kappa=1e"):
            floquet_unitary(4, 1e308)
        assert np.isfinite(floquet_unitary(4, 1e306)).all()

    def test_norm_conserved_over_thousand_applications(self):
        u = floquet_unitary(200, 6.0)
        psi = coherent_state(200, 2.0, 1.0).amplitudes.copy()
        for _ in range(1000):
            psi = u @ psi
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            floquet_unitary(5, -1.0)

    def test_per_j_caches_stay_bounded_in_a_sweep(self):
        # one dense j=1000 entry is about 64 MB, so a sweep over j must not
        # keep every entry alive
        for j in range(1, 11):
            floquet_unitary(j, 1.0)
            coherent_state(j, 1.0, 0.5)
        for cache in (_quarter_turn_y, _ladder):
            info = cache.cache_info()
            assert info.maxsize is not None
            assert info.currsize == info.maxsize

    def test_large_j_build_keeps_no_dense_spin_operators(self):
        # a cold build keeps the cached quarter turn and the returned unitary,
        # two dense 801x801 complex matrices (20.5 MB); cached Jx, Jy, Jz
        # would add three more.  While it runs, Jy, the eigenvectors and the
        # product's operands are alive; a dense Jx and Jz beside Jy would
        # push the peak past 4.5 matrices (46.2 MB)
        caches = [f for f in vars(quantum).values() if hasattr(f, "cache_clear")]
        for cache in caches:
            cache.cache_clear()
        tracemalloc.start()
        try:
            u = floquet_unitary(400, 2.5)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            for cache in caches:
                cache.cache_clear()
        assert u.shape == (801, 801)
        assert held < 3 * 801 * 801 * 16, held
        assert peak < 4.5 * 801 * 801 * 16, peak


class TestLargeJ:
    # j=500 is the largest spin cheap enough here: a cold build takes about
    # 1 s and 64 MB, and the quarter turn is cached for the later tests

    def test_unitarity_at_j500(self):
        u = floquet_unitary(500, 2.5)
        assert np.max(np.abs(u.conj().T @ u - np.eye(1001))) < 1e-13

    def test_coherent_state_bloch_vector_at_j500(self):
        bloch = bloch_vector(coherent_state(500, 2.0, 1.0))
        np.testing.assert_allclose(bloch, direction(2.0, 1.0), rtol=0, atol=1e-14)

    def test_no_norm_drift_over_200_steps_at_j500(self):
        state = coherent_state(500, 2.0, 1.0)
        u = floquet_unitary(500, 2.5)
        psi = state.amplitudes
        for _ in range(200):
            psi = u @ psi
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        # without the kick the state stays coherent, so |r| stays 1
        bloch = evolve_expectations(state, floquet_unitary(500, 0.0), 200)
        np.testing.assert_allclose(np.linalg.norm(bloch, axis=1), 1.0, rtol=0, atol=1e-12)


class TestEvolveExpectations:
    def test_zero_steps_returns_initial_bloch(self):
        state = coherent_state(10, 0.9, 0.4)
        out = evolve_expectations(state, floquet_unitary(10, 2.5), 0)
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out[0], bloch_vector(state), atol=1e-14)

    @pytest.mark.parametrize("j, kappa", [(0.5, 1.0), (7.5, 6.0), (20, 2.5)])
    def test_matches_stepwise_state_loop(self, j, kappa):
        # reference: a fresh SpinState and bloch_vector per period
        state = coherent_state(j, 2.2, 0.7)
        unitary = floquet_unitary(j, kappa)
        expected = [bloch_vector(state)]
        psi = state.amplitudes
        for _ in range(30):
            psi = unitary @ psi
            expected.append(bloch_vector(SpinState(j=j, amplitudes=psi)))
        np.testing.assert_array_equal(evolve_expectations(state, unitary, 30), expected)

    def test_rotations_preserve_coherence(self):
        # kappa=0 keeps coherent states coherent, so |r| stays 1
        state = coherent_state(20, 1.9, 5.1)
        out = evolve_expectations(state, floquet_unitary(20, 0.0), 50)
        norms = np.linalg.norm(out, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_chaotic_entropy_saturates_near_half(self):
        state = coherent_state(20, 3 * np.pi / 4, 3 * np.pi / 4)
        out = evolve_expectations(state, floquet_unitary(20, 2.5), 100)
        s_lin = np.array([linear_entropy(r) for r in out])
        assert s_lin[80:].mean() > 0.4
        assert s_lin[0] < 1e-8

    def test_flags_norm_drift(self):
        state = coherent_state(5, 1.0, 1.0)
        with pytest.raises(NormDriftError):
            evolve_expectations(state, 1.001 * floquet_unitary(5, 1.0), 3)

    def test_flags_nan_norm(self):
        # a NaN norm is not within the tolerance either
        state = coherent_state(5, 1.0, 1.0)
        with pytest.raises(NormDriftError, match="norm drifted to nan at step 1$"):
            evolve_expectations(state, np.full((11, 11), np.nan + 0j), 3)

    def test_quantum_classical_correspondence(self):
        # large j, weak kicking: expectation values follow the classical map
        center = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)
        bloch = evolve_expectations(coherent_state(100, *center), floquet_unitary(100, 0.5), 5)
        classical = evolve_trajectory(spherical_to_cartesian(center), KickParams(0.5), 5)
        assert np.max(np.abs(bloch - classical)) < 0.05


class TestEntropies:
    def test_linear_entropy_endpoints(self):
        assert linear_entropy(np.array([0.0, 0.0, 1.0])) == 0.0
        assert linear_entropy(np.zeros(3)) == 0.5
        assert abs(linear_entropy(np.array([0.6, 0.0, 0.0])) - 0.32) < 1e-14

    def test_von_neumann_endpoints(self):
        assert von_neumann_entropy_single_spin(np.array([0.0, 0.0, 1.0])) == 0.0
        assert abs(von_neumann_entropy_single_spin(np.zeros(3)) - np.log(2)) < 1e-14
        assert abs(von_neumann_entropy_single_spin(np.array([0.5, 0.0, 0.0])) - 0.5623) < 1e-4

    def test_both_strictly_decreasing_in_bloch_norm(self):
        norms = np.linspace(0.01, 0.99, 60)
        lin = [linear_entropy(np.array([r, 0.0, 0.0])) for r in norms]
        vn = [von_neumann_entropy_single_spin(np.array([r, 0.0, 0.0])) for r in norms]
        assert np.all(np.diff(lin) < 0)
        assert np.all(np.diff(vn) < 0)

    def test_rejects_overlong_bloch_vector(self):
        with pytest.raises(ValueError):
            linear_entropy(np.array([1.1, 0.0, 0.0]))
        with pytest.raises(ValueError):
            von_neumann_entropy_single_spin(np.array([1.1, 0.0, 0.0]))


class TestThermoLimitEntropy:
    def test_aligned_ensemble_has_zero_entropy(self):
        vecs = np.tile(direction(1.0, 2.0), (50, 1))
        assert thermo_limit_entropy(vecs) < 1e-12

    def test_isotropic_ensemble_approaches_half(self):
        rng = np.random.default_rng(9)
        vecs = rng.normal(size=(20000, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        value = thermo_limit_entropy(vecs)
        assert 0.49 < value <= 0.5

    def test_chaotic_patch_exceeds_regular_island(self):
        # 200 classically evolved trajectories, late-time average: the
        # chaotic sea spreads over the sphere while the island stays put
        def late_time_mean(center):
            cap = CapDistribution(center=SphericalPoint(*center), solid_angle=0.01)
            vecs = spherical_to_cartesian(sample_cap(cap, 200, 0))
            params = KickParams(2.5)
            series = np.empty(501)
            series[0] = thermo_limit_entropy(vecs)
            for t in range(1, 501):
                vecs = classical_step(vecs, params)
                series[t] = thermo_limit_entropy(vecs)
            return series[400:].mean()

        chaotic = late_time_mean((3 * np.pi / 4, 3 * np.pi / 4))
        regular = late_time_mean((2.25, 0.75))
        assert chaotic > 0.4
        assert regular < 0.1
        assert chaotic > regular

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            thermo_limit_entropy(np.zeros((4, 2)))


class TestSpinState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SpinState(j=1, amplitudes=np.array([1.0, 1.0, 0.0]))

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(ValueError, match="is not 1"):
            SpinState(j=1, amplitudes=np.array([np.nan, 0.0, 0.0]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            SpinState(j=1, amplitudes=np.array([1.0, 0.0]))
