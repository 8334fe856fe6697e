"""Tests for the spin-j Floquet map, coherent states, and entropy measures."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln, xlogy

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
from kickedtop.quantum import (
    _evolve_blochs,
    _ladder,
    _log_factorials,
    _log_gamma,
    _quarter_turn_y,
    _two_j,
    _xlogy,
)


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
        for cache in (_quarter_turn_y, _ladder, _log_factorials):
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


def per_state_oracle(psi, unitary, steps):
    """Bloch vectors of one state stepped alone: `unitary @ psi`, 1-D sums."""
    m, coeff = _ladder(len(psi) - 1)
    out = np.empty((steps + 1, 3))
    for i in range(steps + 1):
        if i:
            psi = unitary @ psi
        plus = np.sum(coeff * np.conj(psi[:-1]) * psi[1:])
        out[i] = plus.real, plus.imag, np.sum(m * np.abs(psi) ** 2)
    out /= (len(psi) - 1) / 2.0
    return out


def random_states(dim, count, seed):
    """`count` random unit vectors of length dim, as a (count, dim) array."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def group_size(dim):
    """States per group of the stacked kernel at this dimension."""
    return quantum._GROUP_BYTES // (16 * dim)


def assert_matches_oracle(two_j, kappa, count, seed, steps=3):
    unitary = floquet_unitary(two_j / 2, kappa)
    states = random_states(two_j + 1, count, seed)
    got = _evolve_blochs(list(states), unitary, steps)
    assert got.shape == (count, steps + 1, 3)
    for row, psi in enumerate(states):
        np.testing.assert_array_equal(got[row], per_state_oracle(psi, unitary, steps),
                                      err_msg=f"2j={two_j}, kappa={kappa}, state {row}")


# dims 362 and 363 sit on either side of the first split into two row
# blocks; 801 (the benchmark's map) and 1201 rows are each one row above a
# multiple of their block height (5 x 160, 12 x 100)
BLOCKED_TWO_J = (361, 362, 800, 1200)
KAPPAS = (0.0, 2.5, 6.0)


class TestStackedKernel:
    # _evolve_blochs must give every state the bits of stepping it alone,
    # as per_state_oracle does with `unitary @ psi` and 1-D sums

    @settings(max_examples=30, deadline=None)
    @given(two_j=st.integers(1, 129), kappa=st.sampled_from(KAPPAS), data=st.data())
    def test_unblocked_spins_match_the_per_state_oracle(self, two_j, kappa, data):
        count = data.draw(st.integers(1, group_size(two_j + 1) + 2), label="count")
        assert_matches_oracle(two_j, kappa, count, data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize("two_j", BLOCKED_TWO_J)
    @settings(max_examples=4, deadline=None)
    @given(kappa=st.sampled_from(KAPPAS), data=st.data())
    def test_row_blocked_spins_match_the_per_state_oracle(self, two_j, kappa, data):
        count = data.draw(st.integers(1, group_size(two_j + 1) + 2), label="count")
        assert_matches_oracle(two_j, kappa, count, data.draw(st.integers(0, 2**32 - 1)))

    def test_oracle_holds_with_one_blas_thread(self):
        # the default run uses OpenBLAS's own thread count; a BLAS whose
        # zgemv rows depend on the row count or the thread split fails here
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{Path(__file__).resolve()}::TestStackedKernel", "-k", "per_state_oracle"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, cwd=root,
            capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-3000:]
        assert " passed" in done.stdout and " failed" not in done.stdout, done.stdout[-3000:]

    def test_no_row_block_has_a_single_row(self):
        # numpy sends a 1-row product to zdotu, which rounds differently
        # from the zgemv of `unitary @ psi`
        for dim in range(2, 3000):
            bounds = quantum._row_blocks(dim)
            assert bounds[0] == 0 and bounds[-1] == dim
            assert min(np.diff(bounds)) >= 2, dim

    def test_zero_and_negative_steps(self):
        unitary = floquet_unitary(3, 2.5)
        states = random_states(7, 3, seed=1)
        np.testing.assert_array_equal(_evolve_blochs(states, unitary, 0)[:, 0],
                                      [per_state_oracle(psi, unitary, 0)[0] for psi in states])
        with pytest.raises(ValueError, match="steps must be >= 0"):
            _evolve_blochs(states, unitary, -1)

    def test_peak_memory_is_bounded_by_the_group(self):
        # twelve groups of states at j=400: stepping them a group at a time
        # keeps the peak near one group's arrays (the state, the next state
        # and the Bloch temporaries; 4.2 MiB measured), below even one
        # (B, dim) array of the whole stack (11.9 MiB), which an ungrouped
        # kernel would hold twice over
        dim = 801
        count = 12 * group_size(dim)
        states = list(random_states(dim, count, seed=5))
        unitary = floquet_unitary(400, 2.5)
        _evolve_blochs(states[:2], unitary, 1)  # fills the ladder cache
        tracemalloc.start()
        try:
            _evolve_blochs(states, unitary, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * quantum._GROUP_BYTES, peak
        assert peak < count * dim * 16 / 2, peak

    @pytest.mark.parametrize("bad, message", [
        (lambda psi: psi * np.nan, r"norm drifted to nan at step 1$"),
        (lambda psi: psi * 1.001, r"norm drifted to 1\.00\d* at step 1$"),
    ])
    def test_one_bad_state_in_a_later_group_stops_the_stack(self, monkeypatch, bad, message):
        dim = 11
        monkeypatch.setattr(quantum, "_GROUP_BYTES", 2 * 16 * dim)  # two states per group
        states = list(random_states(dim, 5, seed=2))
        states[3] = bad(states[3])
        with pytest.raises(NormDriftError, match=message):
            _evolve_blochs(states, floquet_unitary(5, 2.5), 3)

    def test_drift_names_the_step_it_crosses_the_tolerance(self):
        # |psi| grows by 3e-9 per step: 9e-9 after three steps, 1.2e-8 after four
        states = random_states(11, 4, seed=3)
        with pytest.raises(NormDriftError, match=r"at step 4$"):
            _evolve_blochs(states, (1 + 3e-9) * floquet_unitary(5, 2.5), 10)


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


def bits(values) -> bytes:
    """The float64 bytes of values: equal bits, the sign of zero included."""
    return np.asarray(values, dtype=np.float64).tobytes()


def scipy_coherent_amplitudes(j, theta0, phi0):
    """coherent_state's amplitudes from scipy's gammaln and xlogy.

    The formula the package used before it took its logs from libm; the
    package must reproduce it bit for bit.
    """
    two_j = _two_j(j)
    j = two_j / 2.0
    m = _ladder(two_j)[0]
    cos_half = np.cos(theta0 / 2.0)
    sin_half = np.sin(theta0 / 2.0)
    ln_binom = gammaln(2 * j + 1) - gammaln(j - m + 1) - gammaln(j + m + 1)
    ln_mag = 0.5 * ln_binom + xlogy(j + m, cos_half) + xlogy(j - m, sin_half)
    amps = np.exp(ln_mag) * np.exp(1j * (j - m) * phi0)
    return amps / np.linalg.norm(amps)


@pytest.mark.filterwarnings("error")
class TestScipyOracles:
    # the coherent state ports Cephes lgam (scipy's gammaln) and xlogy onto
    # math.log; a scipy release that changes either must fail here rather
    # than silently move output bytes

    def test_log_factorials_match_gammaln_at_every_integer(self):
        n_max = 200_001
        table = _log_factorials(n_max - 1)
        assert table.shape == (n_max,) and not table.flags.writeable
        assert bits(table) == bits(gammaln(np.arange(1, n_max + 1)))

    @pytest.mark.parametrize("n", [1, 2, 12, 13, 999, 1000, 1001, 10**8, 10**8 + 1, 2**40])
    def test_log_gamma_matches_gammaln_at_branch_edges(self, n):
        assert bits(_log_gamma(n)) == bits(gammaln(float(n)))

    @pytest.mark.parametrize("y", [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, np.nan])
    def test_xlogy_matches_scipy(self, y):
        x = np.concatenate([np.arange(801.0), np.random.default_rng(0).uniform(0.0, 1e3, 200)])
        assert bits(_xlogy(x, y)) == bits(xlogy(x, y))

    @settings(deadline=None)
    @given(x=st.floats(0.0, 1e6), y=st.floats(0.0, 1.0))
    def test_xlogy_matches_scipy_on_random_values(self, x, y):
        x = np.array([0.0, x])
        assert bits(_xlogy(x, y)) == bits(xlogy(x, y))

    @pytest.mark.parametrize("two_j", [1, 2, 3, 15, 20, 200, 800, 2001])
    def test_coherent_state_matches_scipy_formula(self, two_j):
        rng = np.random.default_rng(two_j)
        thetas = [0.0, np.pi, 1e-300, np.pi - 1e-15, *rng.uniform(0.0, np.pi, 8)]
        for theta in thetas:
            phi = rng.uniform(0.0, 2 * np.pi)
            got = coherent_state(two_j / 2, theta, phi).amplitudes
            assert got.tobytes() == scipy_coherent_amplitudes(two_j / 2, theta, phi).tobytes()

    @settings(deadline=None)
    @given(
        two_j=st.integers(1, 300),
        theta=st.one_of(st.floats(0.0, np.pi), NEAR_POLE),
        phi=st.floats(0.0, 2 * np.pi),
    )
    def test_coherent_state_matches_scipy_formula_anywhere(self, two_j, theta, phi):
        got = coherent_state(two_j / 2, theta, phi).amplitudes
        assert got.tobytes() == scipy_coherent_amplitudes(two_j / 2, theta, phi).tobytes()

    @settings(deadline=None)
    @given(r=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16])))
    def test_von_neumann_entropy_matches_scipy_formula(self, r):
        lam = np.clip([(1.0 + r) / 2.0, (1.0 - r) / 2.0], 0.0, 1.0)
        expected = float(-np.sum(xlogy(lam, lam)))
        assert bits(von_neumann_entropy_single_spin(np.array([0.0, r, 0.0]))) == bits(expected)

    def test_pure_state_entropy_is_negative_zero(self):
        # the negated +0.0 sum; ROADMAP item 9 drops the sign in a version break
        assert bits(von_neumann_entropy_single_spin(np.array([0.0, 0.0, 1.0]))) == bits(-0.0)
