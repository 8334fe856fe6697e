"""Tests for equilibration analysis, maps, and the experiment runners."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from kickedtop import (
    CapDistribution,
    ExperimentConfig,
    KickParams,
    NotEquilibratedError,
    SphericalPoint,
    WindowTooShortError,
    classical_step,
    equilibrium_map,
    estimate_teq,
    fit_growth_rate,
    grid_centers,
    map_cell_value,
    run_experiment,
    sample_cap,
    spherical_to_cartesian,
    thermo_limit_entropy,
)
from kickedtop.experiments import EXPERIMENT_KINDS, _thermo_series


class TestEstimateTeq:
    def test_exponential_rise_matches_closed_form(self):
        # S(T) = S_eq (1 - e^{-T/tau}) crosses 90% of S_eq at T = tau ln 10
        T = np.arange(200, dtype=float)
        series = 0.5 * (1.0 - np.exp(-T / 10.0))
        result = estimate_teq(series)
        assert abs(result.teq - 10.0 * np.log(10.0)) <= 1.0
        assert result.teq == 24
        assert abs(result.tail_mean - 0.5) < 1e-3

    def test_constant_series_equilibrates_immediately(self):
        assert estimate_teq(np.full(50, 0.7)).teq == 0

    def test_nonpositive_tail_reports_not_equilibrated(self):
        with pytest.raises(NotEquilibratedError):
            estimate_teq(np.zeros(50))
        with pytest.raises(NotEquilibratedError):
            estimate_teq(-np.ones(50))

    def test_rejects_too_short_series(self):
        with pytest.raises(ValueError):
            estimate_teq(np.array([1.0]))


class TestFitGrowthRate:
    def test_exactly_linear_series(self):
        T = np.arange(101, dtype=float)
        fit = fit_growth_rate(0.3 * T, equilibrium=20.0)
        assert abs(fit.slope - 0.3) < 1e-12
        assert (fit.start, fit.stop) == (14, 54)
        assert fit.n_points == 41

    def test_window_too_short_on_instant_jump(self):
        series = np.array([0.0, 50.0] + [100.0] * 10)
        with pytest.raises(WindowTooShortError):
            fit_growth_rate(series, equilibrium=100.0)

    def test_series_below_band_is_rejected(self):
        with pytest.raises(ValueError):
            fit_growth_rate(np.full(20, 0.1), equilibrium=100.0)

    def test_logarithmic_growth_slows_with_window_position(self):
        # the sliding-band diagnostic separates logarithmic from linear rise
        T = np.arange(401, dtype=float)
        series = np.log1p(T)
        equilibrium = series[-1]
        slopes = [
            fit_growth_rate(series, equilibrium, band=band).slope
            for band in ((0.2, 0.5), (0.4, 0.7), (0.6, 0.9))
        ]
        assert slopes[0] > slopes[1] > slopes[2]

    def test_rejects_bad_band_and_equilibrium(self):
        series = np.arange(20, dtype=float)
        with pytest.raises(ValueError):
            fit_growth_rate(series, equilibrium=10.0, band=(0.8, 0.2))
        with pytest.raises(ValueError):
            fit_growth_rate(series, equilibrium=-1.0)


class TestGridAndMaps:
    def test_grid_centers_formula(self):
        thetas, phis = grid_centers(2, 2)
        np.testing.assert_allclose(thetas, [np.pi / 4, 3 * np.pi / 4], atol=1e-15)
        np.testing.assert_allclose(phis, [np.pi / 2, 3 * np.pi / 2], atol=1e-15)

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            grid_centers(0, 4)

    def test_two_by_two_smoke_map(self):
        result = equilibrium_map(
            "entropy-map", kappa=2.5, j=4, grid=(2, 2), count=1, window=(5, 15), seed=0
        )
        assert result.values.shape == (2, 2)
        assert np.all(np.isfinite(result.values))
        assert np.all((result.values >= 0.0) & (result.values <= 0.5))
        assert result.failures == []
        assert result.window == (5, 15)

    @pytest.mark.parametrize("kind", ["entropy-map", "thermo-map", "mi-map"])
    def test_cell_value_matches_full_map(self, kind):
        # per-cell seeding is keyed to the cell index, so a cell computed in
        # isolation reproduces its value inside the full grid run, bit for
        # bit; a failed cell raises the reason the full map records.  The
        # mi-map grid has polar cells.
        kwargs = dict(kappa=2.5, j=100, grid=(4, 2), count=20, window=(5, 15), seed=3)
        full = equilibrium_map(kind, **kwargs)
        reasons = dict(full.failures)
        for cell in range(8):
            if cell in reasons:
                with pytest.raises(ValueError, match=re.escape(reasons[cell])):
                    map_cell_value(kind, cell, **kwargs)
                continue
            solo = map_cell_value(kind, cell, **kwargs)
            assert solo == full.values[cell // 2, cell % 2]
        assert len(reasons) == (4 if kind == "mi-map" else 0)

    @pytest.mark.parametrize("count, k, reason", [
        (5, 3, "count must be >= 8, got 5"),
        (12, 11, "need at least k + 2 = 13 samples, got 12"),
    ])
    def test_failures_keep_cell_order_and_reasons(self, count, k, reason):
        # a failure at sampling time (count) and one at estimation time (k)
        # interleave with the polar rows in cell order, with the messages
        # the per-cell code gave
        result = equilibrium_map(
            "mi-map", kappa=2.5, j=100, grid=(4, 2), count=count, k=k, window=(2, 4)
        )
        north = "patch of width 0.8083 around theta=0.3927 overlaps a pole"
        south = "patch of width 0.8083 around theta=2.7489 overlaps a pole"
        assert result.failures == (
            [(0, north), (1, north)] + [(c, reason) for c in range(2, 6)]
            + [(6, south), (7, south)]
        )
        assert np.all(np.isnan(result.values))

    def test_thermo_rows_match_each_ensemble_alone(self):
        # the stacked observer gives each ensemble thermo_limit_entropy's
        # bits; an ensemble whose mean vector is longer than 1 (scaled
        # here) fails with that function's message and stays NaN
        params = KickParams(2.5)
        starts = [
            spherical_to_cartesian(sample_cap(
                CapDistribution(center=SphericalPoint(theta, 2.0), solid_angle=0.01), 30, seed))
            for seed, theta in enumerate((0.9, 1.6, 2.3))
        ]
        starts[1] = 1.5 * starts[1]
        failures = []
        values = _thermo_series(starts, [4, 7, 9], params, (3, 8), failures)
        for row, vecs in enumerate(starts):
            for _ in range(3):
                vecs = classical_step(vecs, params)
            if row == 1:
                with pytest.raises(ValueError) as alone:
                    thermo_limit_entropy(vecs)
                assert failures == [(7, str(alone.value))]
                assert np.all(np.isnan(values[row]))
                continue
            for t in range(6):
                assert values[row, t] == thermo_limit_entropy(vecs)
                vecs = classical_step(vecs, params)

    def test_mi_map_memory_does_not_grow_with_window_end(self):
        # the ensembles are stepped in place; no (steps + 1, cells * count)
        # series is kept, so moving the window late costs no memory.  Such
        # a series would take 2 * 8 B * 1001 * 3 * 100 = 4.8 MB here.
        def peak(window):
            tracemalloc.start()
            try:
                equilibrium_map("mi-map", kappa=2.5, j=100, grid=(3, 1), count=100,
                                window=window, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        early, late = peak((0, 10)), peak((990, 1000))
        assert late - early < 200_000, (early, late)

    def test_pole_overlapping_cells_fail_soft(self):
        # near-pole rows cannot host the wide subsystem-1 patch; the map
        # records them and completes the rest
        result = equilibrium_map(
            "mi-map", kappa=2.5, j=100, grid=(8, 8), count=10, window=(5, 15), seed=0
        )
        failed = {cell for cell, _ in result.failures}
        assert failed == set(range(8)) | set(range(56, 64))
        flat = result.values.ravel()
        assert np.all(np.isnan(flat[list(failed)]))
        ok = [i for i in range(64) if i not in failed]
        assert np.all(np.isfinite(flat[ok]))

    def test_window_shift_stability(self):
        # equilibrated series: a 10% window shift moves the mean by less
        # than a few standard errors of the windowed samples
        cap = CapDistribution(
            center=SphericalPoint(3 * np.pi / 4, 3 * np.pi / 4), solid_angle=0.01
        )
        vecs = spherical_to_cartesian(sample_cap(cap, 200, 0))
        params = KickParams(2.5)
        series = np.empty(511)
        series[0] = thermo_limit_entropy(vecs)
        for t in range(1, 511):
            vecs = classical_step(vecs, params)
            series[t] = thermo_limit_entropy(vecs)
        base = series[400:501].mean()
        shifted = series[410:511].mean()
        se = series[400:501].std() / np.sqrt(101)
        assert abs(base - shifted) < max(3 * se, 1e-3)

    def test_map_cell_rejects_bad_kind_and_index(self):
        with pytest.raises(ValueError):
            map_cell_value("nonsense", 0, kappa=1.0, j=4, grid=(2, 2), count=1, window=(5, 15))
        with pytest.raises(IndexError):
            map_cell_value("entropy-map", 9, kappa=1.0, j=4, grid=(2, 2), count=1, window=(5, 15))


class TestExperimentConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="spectral-form-factor")

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lyapunov", kappa=1.0, center=(4.0, 0.0))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="entropy-map", kappa=1.0, window=(40, 20))

    @pytest.mark.parametrize("field, value", [
        ("kappa", "x"), ("kappa", True), ("kappa", float("nan")), ("j", "100"),
        ("count", 2.5), ("steps", "5"), ("n_blocks", 1.0), ("steps_per_block", 2.5),
        ("seed", "a"), ("k", 3.0), ("grid", "ab"), ("grid", (2, 2.5)), ("window", (1, 2, 3)),
        ("center", 3), ("j_list", ()), ("j_list", (25, "a")), ("initials", ((0.3,),)),
    ])
    def test_rejects_wrongly_typed_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(kind="mi-map", **{"kappa": 2.5, field: value})

    def test_lists_become_tuples_and_keep_their_numbers(self):
        cfg = ExperimentConfig(
            kind="phase-portrait", kappa=2, center=[1, 2], grid=[2, 3], window=[0, 4],
            j_list=[25, 50.0], initials=[[0.3, 0.4]],
        )
        assert cfg.center == (1, 2) and type(cfg.center[0]) is int
        assert (cfg.grid, cfg.window, cfg.j_list) == ((2, 3), (0, 4), (25, 50.0))
        assert cfg.initials == ((0.3, 0.4),)

    def test_rejects_negative_kappa_and_nonpositive_j(self):
        with pytest.raises(ValueError, match="kappa"):
            ExperimentConfig(kind="mi-map", kappa=-1.0)
        with pytest.raises(ValueError, match="j must be positive"):
            ExperimentConfig(kind="mi-map", kappa=1.0, j=0)
        with pytest.raises(ValueError, match="j must be positive"):
            ExperimentConfig(kind="teq-scaling", kappa=1.0, j_list=(10, -5))

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mi-dynamics", kappa=1.0, count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mi-dynamics", kappa=1.0, k=0)


class TestRunners:
    def test_vn_vs_linear_curve(self):
        ds = run_experiment(ExperimentConfig(kind="vn-vs-linear"))
        assert ds.columns == ("bloch_norm", "s_linear", "s_vn")
        assert len(ds.rows) == 101
        s_lin = np.array([row[1] for row in ds.rows])
        s_vn = np.array([row[2] for row in ds.rows])
        order = np.argsort(s_lin)
        assert np.all(np.diff(s_vn[order]) >= 0)

    def test_phase_portrait_with_explicit_initials(self):
        ds = run_experiment(
            ExperimentConfig(kind="phase-portrait", kappa=2.5, initials=((0.3, 0.4),), steps=5)
        )
        assert len(ds.rows) == 6
        assert ds.columns == ("traj_id", "step", "theta", "phi", "x", "y", "z")

    def test_lyapunov_runner_meta(self):
        ds = run_experiment(
            ExperimentConfig(kind="lyapunov", kappa=6.0, n_blocks=50, steps_per_block=5)
        )
        assert len(ds.rows) == 50
        assert ds.meta["lambda"] == ds.rows[-1][1]

    def test_entropy_dynamics_series(self):
        ds = run_experiment(ExperimentConfig(kind="entropy-dynamics", kappa=2.5, j=8, steps=30))
        assert len(ds.rows) == 31
        s_lin = np.array([row[4] for row in ds.rows])
        assert np.all((s_lin >= 0.0) & (s_lin <= 0.5))
        assert "teq" in ds.meta

    def test_entropy_map_default_windows_follow_kick_strength(self):
        fast = run_experiment(
            ExperimentConfig(kind="entropy-map", kappa=2.5, j=4, grid=(2, 2))
        )
        slow = run_experiment(
            ExperimentConfig(kind="entropy-map", kappa=0.5, j=4, grid=(2, 2))
        )
        assert fast.meta["window"] == [20, 40]
        assert slow.meta["window"] == [60, 100]

    def test_mi_dynamics_smoke(self):
        ds = run_experiment(
            ExperimentConfig(kind="mi-dynamics", kappa=6.0, j=100, count=50, steps=8, seed=1)
        )
        assert ds.columns == ("step", "mi")
        assert len(ds.rows) == 9
        assert ds.meta["spread2"] == 0.01

    def test_teq_scaling_smoke(self):
        ds = run_experiment(
            ExperimentConfig(
                kind="teq-scaling", kappa=2.5, j_list=(25, 50), count=64, steps=120, seed=0
            )
        )
        assert [row[0] for row in ds.rows] == [25.0, 50.0]
        assert all(row[1] > 0 for row in ds.rows)
        for key in ("loglog_slope", "loglog_r2", "linlog_slope", "linlog_r2"):
            assert np.isfinite(ds.meta[key])

    def test_mi_selftest_tracks_gaussian_oracle(self):
        ds = run_experiment(ExperimentConfig(kind="mi-selftest", count=600, seed=0))
        assert len(ds.rows) == 8
        for row in ds.rows:
            assert abs(row[4] - row[5]) < 0.1

    def test_identical_config_reproduces_rows(self):
        cfg = dict(kind="mi-dynamics", kappa=6.0, j=100, count=50, steps=8, seed=1)
        a = run_experiment(ExperimentConfig(**cfg))
        b = run_experiment(ExperimentConfig(**cfg))
        assert a.rows == b.rows
        assert a.meta == b.meta

    def test_missing_required_field_raises(self):
        with pytest.raises(ValueError, match="requires kappa"):
            run_experiment(ExperimentConfig(kind="mi-dynamics"))
        with pytest.raises(ValueError, match="requires j_list"):
            run_experiment(ExperimentConfig(kind="teq-scaling", kappa=2.5))


# one small config per experiment kind
SMALL_CONFIGS = {
    "phase-portrait": dict(kappa=2.5, grid=(2, 2), steps=3),
    "lyapunov": dict(kappa=6.0, n_blocks=5, steps_per_block=3),
    "entropy-dynamics": dict(kappa=2.5, j=4, steps=5),
    "mi-dynamics": dict(kappa=6.0, j=100, count=30, steps=4),
    "teq-scaling": dict(kappa=2.5, j_list=(25, 50), count=64, steps=120),
    "entropy-map": dict(kappa=2.5, j=4, grid=(2, 2), window=(5, 15)),
    "thermo-map": dict(kappa=2.5, j=10, grid=(2, 2), count=20, window=(2, 4)),
    "mi-map": dict(kappa=2.5, j=100, grid=(2, 2), count=30, window=(2, 4)),
    "vn-vs-linear": dict(),
    "mi-selftest": dict(count=60),
}


class TestDatasetOutput:
    def test_small_configs_cover_every_kind(self):
        assert set(SMALL_CONFIGS) == set(EXPERIMENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
    def test_rows_hold_native_scalars(self, kind):
        # csv.writer prints these exactly (str for int, repr for float);
        # a numpy scalar would print as e.g. "np.float64(0.5)"
        ds = run_experiment(ExperimentConfig(kind=kind, **SMALL_CONFIGS[kind]))
        assert ds.rows
        for row in ds.rows:
            assert len(row) == len(ds.columns)
            for cell in row:
                assert type(cell) in (int, float, str, bool), (row, type(cell))

    def test_written_files_are_byte_reproducible(self, tmp_path):
        cfg = dict(kind="mi-dynamics", kappa=6.0, j=100, count=50, steps=8, seed=1)
        paths = []
        for sub in ("a", "b"):
            ds = run_experiment(ExperimentConfig(**cfg))
            paths.append(ds.write(tmp_path / sub))
        for first, second in zip(*paths):
            assert first.read_bytes() == second.read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        ds = run_experiment(ExperimentConfig(kind="vn-vs-linear"))
        csv_path, meta_path = ds.write(tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "bloch_norm,s_linear,s_vn"
        assert len(lines) == 102
        for line, row in zip(lines[1:], ds.rows):
            got = tuple(float(cell) for cell in line.split(","))
            assert got == tuple(float(c) for c in row)

    def test_meta_sidecar_holds_config_and_conventions(self, tmp_path):
        ds = run_experiment(
            ExperimentConfig(kind="entropy-map", kappa=2.5, j=4, grid=(2, 2), window=(5, 15))
        )
        _, meta_path = ds.write(tmp_path)
        meta = json.loads(meta_path.read_text())
        assert meta["kind"] == "entropy-map"
        assert meta["kappa"] == 2.5
        assert meta["window"] == [5, 15]
        assert "units" in meta and "version" in meta


# sha256 of (CSV, .meta.json) for small runs; any change to the output
# bytes shows up here.  The portrait and lyapunov digests were recorded
# before the orbit kernels were rewritten, the map and MI ones before the
# whole-grid map kernel, `mi-map-k5` and `mi-selftest` before the stacked
# estimator call, each on the commit before that source change.
PINNED_DIGESTS = {
    "portrait-grid": (
        dict(kind="phase-portrait", kappa=2.5, grid=(4, 5), steps=50),
        "0f11a2aaa5cb7e3cbd402ce3467b955265a309378a552e8ed39bc750e866a385",
        "b0d9ec5d745f17fb9d2162f76fb3ce5a0708372c13a50d24683511406cc3fdee",
    ),
    "portrait-chaotic": (
        dict(kind="phase-portrait", kappa=6.0, grid=(3, 3), steps=300),
        "fb04239cbc4610cc0027cf356f378bedbfd18014bc948e580e9f48a859a9ca42",
        "b627aa1720ece3a7a434677e080aa03f9f5412a0a003d7a2330bf02e82f88c07",
    ),
    "lyapunov-chaotic": (
        dict(kind="lyapunov", kappa=6.0, n_blocks=1000, steps_per_block=10),
        "21c41655d393dee88957a3f10efbcf3f06ce1030aa9649d51f455b59795b8da6",
        "28402d4c583a1d30370a440823b8ede17381954f44dde524aa97a6d9732d0f97",
    ),
    "lyapunov-long-blocks": (
        dict(kind="lyapunov", kappa=1.0, center=(1.0, 0.3), n_blocks=3, steps_per_block=5000),
        "3620ffcf40d6212ccd9f9579c987ab4c4bf4169a6a4fb9059fdab863c7fab71c",
        "11931576db966c12d4ca0fb36bcf4cb7f4f3beb9178560ce95f8c50d90cd39cf",
    ),
    "entropy-map": (
        dict(kind="entropy-map", kappa=2.5, j=10, grid=(3, 4), window=(5, 15)),
        "8dfce9eba46b40629381f0b133f227f34f8ad8a1419da008c9c6a0fec0bca7da",
        "3d430b4fda0033b18a42d6b8d2d256d5728a9ce10d92582d59666dbbbab8579e",
    ),
    "entropy-map-half-j": (
        dict(kind="entropy-map", kappa=6.0, j=7.5, grid=(2, 3), window=(2, 9)),
        "a3606970654a30297a527e344478ead8abb6e1b11ce9b9439577ecb16a5d5a47",
        "b9f029782cfba5c4bdca9f30103690309a009b94f4421aa962ec943b8acd5f1a",
    ),
    "thermo-map-polar": (
        # rows 0 and 7 overlap a pole: six failed cells
        dict(kind="thermo-map", kappa=2.5, j=10, grid=(8, 3), count=20, window=(2, 6), seed=4),
        "6e27d8835ed48e58998e84497d1b2f3e94b96a2bd5b2a77281c02563fad72a11",
        "3e681db15c74d672e1c57c4214f9db64e90e5feda50be1855602d25439e2e1f8",
    ),
    "mi-map": (
        # count 30, recorded while n < 200 took a brute-force neighbour
        # search; rows 0 and 3 are polar
        dict(kind="mi-map", kappa=2.5, j=100, grid=(4, 3), count=30, window=(3, 6), seed=5),
        "26e0575693669a5b7d7568fd9e1f6d227fece463c597ff2d5ff661d3db0d237b",
        "1205da800380e1eb911350e5625f4d4dcc6f696255bdceb78e26ab0daf418063",
    ),
    "mi-map-tree": (
        # count 200, recorded on the k-d tree neighbour path
        dict(kind="mi-map", kappa=6.0, j=50, grid=(3, 2), count=200, window=(2, 5), seed=9),
        "b68fab110874cb0954e324a71686626de8952d64fafb18fe4cf61f02153154cb",
        "0cd4ae144a28e832d675a0c4702af5003a9ba8ce4ff8d4a3d1fcdf70561667ab",
    ),
    "mi-dynamics": (
        dict(kind="mi-dynamics", kappa=6.0, j=100, count=60, steps=12, seed=2),
        "451403a8832b153dcc41bc37ebbab60c74ebb78fd6f41aaa6a075fb9ed7d619d",
        "39f1b91e74dd7705d1cd561d64a11111d4b631e69cae7d014fa20bcb4bc15216",
    ),
    "teq-scaling": (
        dict(kind="teq-scaling", kappa=2.5, j_list=(25, 50), count=64, steps=120, seed=1),
        "5c7541991909e2447bceab9e1fd12b03e863300feb2ad5a4b490e0e7ad928171",
        "d4581a63834dd2d02991e1dbe82b8f89d4a1785ca72cd06ecbd41a5f2f4ca89c",
    ),
    "mi-map-k5": (
        # k = 5 through the stacked estimator call
        dict(kind="mi-map", kappa=6.0, j=50, grid=(3, 2), count=40, k=5, window=(2, 6), seed=3),
        "c6311036897726a63c328f0a73d3c06eefe346a36e2d493ec99f270c1e4fb96d",
        "7a106d4f77367eeda8ae14041ca20d474ba670e468d6fe1d32ba9ba8c364fa8b",
    ),
    "mi-selftest": (
        # the direct (n, 2) estimator call, at k = 4 and k = 10
        dict(kind="mi-selftest", count=600, k=4, seed=1),
        "13c8afc000f31fe133c9ca68b4cedfcf78c859554d981432ac04f471dd84593e",
        "814b6ff65e2aff2890c384bdfa6b9540364ed8bf68f176f42aa4d67902027ce0",
    ),
}


class TestPinnedOutputBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_csv_and_meta_digests(self, tmp_path, name):
        cfg, csv_digest, meta_digest = PINNED_DIGESTS[name]
        csv_path, meta_path = run_experiment(ExperimentConfig(**cfg)).write(tmp_path)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(meta_path.read_bytes()).hexdigest() == meta_digest
