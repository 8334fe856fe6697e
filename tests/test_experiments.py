"""Tests for equilibration analysis, maps, and the experiment runners."""

import functools
import hashlib
import os
import re
import tracemalloc
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kickedtop import (
    CapDistribution,
    ExperimentConfig,
    KickParams,
    LyapunovEstimate,
    NotEquilibratedError,
    PORTRAIT_DTYPE,
    SphericalPoint,
    WindowTooShortError,
    classical_step,
    equilibrium_map,
    estimate_teq,
    fit_growth_rate,
    grid_centers,
    ksg_mi,
    map_cell_value,
    pair_x_steps,
    phase_portrait,
    run_experiment,
    sample_cap,
    sample_pairs,
    spherical_to_cartesian,
    thermo_limit_entropy,
)
from kickedtop import bipartite, classical, experiments, mutual_info, output, quantum
from kickedtop.config import _resolved
from kickedtop.experiments import _PortraitRows, _map_values, _mi_series, _thermo_series

from helpers import CPUS, assert_no_child_left, count_forks, needs_fork, on_cpus


@pytest.fixture
def one_cpu(monkeypatch):
    # map passes and CSV renders stay in this process, so in-process
    # counts and memory bounds see all of the work
    on_cpus(monkeypatch, 1)


def _traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


# map configs with cells that fail: polar rows (thermo-map at j=1, mi-map
# at j=100) and, between them, ksg_mi's size check (k=11 needs 13 samples
# per ensemble)
SUBSET_CASES = {
    "entropy-map": dict(kind="entropy-map", kappa=2.5, j=4, grid=(2, 3), window=(5, 15)),
    "thermo-map polar": dict(kind="thermo-map", kappa=2.5, j=1, grid=(4, 2), count=20,
                             window=(5, 15), seed=3),
    "mi-map polar": dict(kind="mi-map", kappa=2.5, j=100, grid=(4, 2), count=20,
                         window=(5, 15), seed=3),
    "mi-map refused": dict(kind="mi-map", kappa=2.5, j=100, grid=(4, 2), count=12, k=11,
                           window=(2, 4)),
}


@functools.lru_cache(maxsize=None)
def _full_map_pass(case):
    """_map_values over every cell of SUBSET_CASES[case], in cell order."""
    config = _resolved(ExperimentConfig(**SUBSET_CASES[case]))
    return _map_values(config, range(config.grid[0] * config.grid[1]))


class TestGridAndMaps:
    def test_grid_centers_formula(self):
        thetas, phis = grid_centers(2, 2)
        np.testing.assert_allclose(thetas, [np.pi / 4, 3 * np.pi / 4], atol=1e-15)
        np.testing.assert_allclose(phis, [np.pi / 2, 3 * np.pi / 2], atol=1e-15)

    @pytest.mark.parametrize("grid", [(0, 4), (2.5, 3), (3, 2.0), (True, 3), (3, np.bool_(True))])
    def test_grid_rejects_bad_counts(self, grid):
        # 2.5 rows used to put the last theta centre exactly on the pole
        with pytest.raises(ValueError, match="^grid must be integers of at least 1x1"):
            grid_centers(*grid)

    def test_grid_takes_numpy_integers(self):
        for got, want in zip(grid_centers(np.int64(3), np.int32(2)), grid_centers(3, 2)):
            assert got.tobytes() == want.tobytes()

    def test_two_by_two_smoke_map(self):
        result = equilibrium_map(ExperimentConfig(
            "entropy-map", kappa=2.5, j=4, grid=(2, 2), window=(5, 15)
        ))
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
        ensemble = {} if kind == "entropy-map" else dict(count=20, seed=3)
        config = ExperimentConfig(kind, kappa=2.5, j=100, grid=(4, 2), window=(5, 15),
                                  **ensemble)
        full = equilibrium_map(config)
        reasons = dict(full.failures)
        for cell in range(8):
            if cell in reasons:
                with pytest.raises(ValueError, match=re.escape(reasons[cell])):
                    map_cell_value(config, cell)
                continue
            solo = map_cell_value(config, cell)
            assert solo == full.values[cell // 2, cell % 2]
        assert len(reasons) == (4 if kind == "mi-map" else 0)

    @pytest.mark.parametrize("case", sorted(SUBSET_CASES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_subset_of_cells_reproduces_the_full_pass(self, case, data):
        # the map pass gives each cell the same value and failure whatever
        # other cells share its call, and in whatever order: the contract
        # that lets cells be split across calls or workers
        config = _resolved(ExperimentConfig(**SUBSET_CASES[case]))
        full_values, full_failures = _full_map_pass(case)
        cells = data.draw(st.permutations(range(full_values.size)))
        cells = cells[:data.draw(st.integers(0, len(cells)))]
        values, failures = _map_values(config, cells)
        assert values.tobytes() == full_values[cells].tobytes()
        assert sorted(failures) == sorted(f for f in full_failures if f[0] in cells)

    @needs_fork
    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(["thermo-map polar", "mi-map polar", "mi-map refused"]),
           grid=st.tuples(st.integers(1, 5), st.integers(1, 3)),
           workers=st.integers(1, len(CPUS)))
    def test_workers_reproduce_the_one_worker_pass(self, case, grid, workers):
        # equilibrium_map deals thermo-map and mi-map cells out to forked
        # workers; it must give the values and failures of one pass, bit for
        # bit, with polar cells and with cells that fail the size check
        config = _resolved(ExperimentConfig(**{**SUBSET_CASES[case], "grid": grid}))
        with pytest.MonkeyPatch.context() as patch:
            one_values, one_failures = _map_values(config)
            forks = count_forks(patch)
            on_cpus(patch, workers)
            split = equilibrium_map(config)
        assert len(forks) == min(workers, grid[0] * grid[1]) - 1
        assert split.values.tobytes() == one_values.tobytes()
        assert split.failures == sorted(one_failures)
        assert_no_child_left()

    @pytest.mark.parametrize("count, k, reason", [
        (5, 3, "count must be >= 8, got 5"),
        (12, 11, "need at least k + 2 = 13 samples, got 12"),
    ])
    def test_failures_keep_cell_order_and_reasons(self, count, k, reason):
        # a failure of the ensemble size (count) and one of ksg_mi's size
        # check (k), both made per cell before the draw, interleave with the
        # polar rows in cell order, with the messages the per-cell code gave
        result = equilibrium_map(ExperimentConfig(
            "mi-map", kappa=2.5, j=100, grid=(4, 2), count=count, k=k, window=(2, 4)
        ))
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
        values, failed = _thermo_series(starts, params, (3, 8))
        for row, vecs in enumerate(starts):
            for _ in range(3):
                vecs = classical_step(vecs, params)
            if row == 1:
                with pytest.raises(ValueError) as alone:
                    thermo_limit_entropy(vecs)
                assert failed == [(1, str(alone.value))]
                assert np.all(np.isnan(values[row]))
                continue
            for t in range(6):
                assert values[row, t] == thermo_limit_entropy(vecs)
                vecs = classical_step(vecs, params)

    @pytest.mark.parametrize("chunk, calls", [(1, 11), (4 * 3 * 40 + 5, 3), (2**17, 1)],
                             ids=["one-step", "remainder", "whole-window"])
    def test_mi_series_has_the_bits_of_per_step_calls(self, monkeypatch, chunk, calls):
        # _mi_series puts as many window steps into one ksg_mi call as keep
        # it within mutual_info._KNN_CHUNK samples, at least one: the 11
        # steps of 3 ensembles of 40 go as 11 x 1, 4 + 4 + 3, and 11
        params = KickParams(6.0)
        point = SphericalPoint(1.2, 2.0)
        dists = (CapDistribution(point, 0.25), CapDistribution(point, 0.01))
        starts = [sample_pairs(*dists, 100, 40, seed) for seed in range(3)]
        n1, n2 = (np.concatenate(part) for part in zip(*starts))
        steps = islice(pair_x_steps(n1, n2, params, 100, 12), 2, None)
        per_step = np.array([ksg_mi(xs.T.reshape(3, -1, 2)).value for xs in steps]).T
        seen = []
        monkeypatch.setattr(experiments, "ksg_mi",
                            lambda samples, k: seen.append(len(samples)) or ksg_mi(samples, k=k))
        monkeypatch.setattr(mutual_info, "_KNN_CHUNK", chunk)
        values = _mi_series(starts, params, 100, (2, 12), 3)
        assert values.tobytes() == per_step.tobytes()
        assert len(seen) == calls and sum(seen) == 3 * 11

    def test_size_refused_cells_make_no_draw_or_estimate(self, monkeypatch):
        # count 12 is below k + 2 = 13, so every non-polar cell fails its
        # per-cell checks and none starts: nothing is drawn or estimated
        calls = Counter()

        def counted(name):
            fn = getattr(experiments, name)
            return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

        for name in ("_cap_vectors", "ksg_mi"):
            monkeypatch.setattr(experiments, name, counted(name))
        config = _resolved(ExperimentConfig(**SUBSET_CASES["mi-map refused"]))
        values, failures = _map_values(config)
        assert calls == Counter() and np.all(np.isnan(values))
        assert [cell for cell, _ in failures] == list(range(8))

    @pytest.mark.parametrize("cpus, share", [
        (1, 0), pytest.param(2, 0, marks=needs_fork), pytest.param(2, 1, marks=needs_fork),
    ])
    def test_a_ksg_mi_refusal_in_any_share_fails_the_run(self, monkeypatch, cpus, share):
        # a ksg_mi ValueError other than the per-cell size check fails the
        # whole map with its message, whether this process (share 0) or the
        # worker (share 1) alone meets it; no worker is left behind
        parent, ksg = os.getpid(), experiments.ksg_mi

        def refusing(samples, k):
            if (os.getpid() == parent) == (share == 0):
                raise ValueError("samples must be finite")
            return ksg(samples, k=k)

        monkeypatch.setattr(experiments, "ksg_mi", refusing)
        on_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        with pytest.raises(ValueError, match="^samples must be finite$"):
            equilibrium_map(ExperimentConfig(**SUBSET_CASES["mi-map polar"]))
        assert len(forks) == cpus - 1
        assert_no_child_left()

    def test_mi_map_memory_does_not_grow_with_window_end(self, one_cpu):
        # the ensembles are stepped in place; no (steps + 1, cells * count)
        # series is kept, so moving the window late costs no memory.  Such
        # a series would take 2 * 8 B * 1001 * 3 * 100 = 4.8 MB here.
        def peak(window):
            return _traced_peak(lambda: equilibrium_map(ExperimentConfig(
                "mi-map", kappa=2.5, j=100, grid=(3, 1), count=100, window=window, seed=1)))

        early, late = peak((0, 10)), peak((990, 1000))
        assert late - early < 200_000, (early, late)

    def test_pole_overlapping_cells_fail_soft(self):
        # near-pole rows cannot host the wide subsystem-1 patch; the map
        # records them and completes the rest
        result = equilibrium_map(ExperimentConfig(
            "mi-map", kappa=2.5, j=100, grid=(8, 8), count=10, window=(5, 15), seed=0
        ))
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
        # an unknown kind fails in the config; a kind that is known but not
        # a map kind fails in the map pass
        with pytest.raises(ValueError, match="unknown kind 'nonsense'"):
            ExperimentConfig("nonsense", kappa=1.0, j=4, grid=(2, 2), window=(5, 15))
        with pytest.raises(ValueError, match="kind must be one of"):
            map_cell_value(ExperimentConfig("lyapunov", kappa=1.0), 0)
        with pytest.raises(ValueError, match="kind must be one of"):
            equilibrium_map(ExperimentConfig("lyapunov", kappa=1.0))
        with pytest.raises(IndexError):
            map_cell_value(ExperimentConfig("entropy-map", kappa=1.0, j=4, grid=(2, 2),
                                            window=(5, 15)), 9)

    @pytest.mark.parametrize("cell", [True, 1.0, 1.5, "1"])
    def test_map_cell_refuses_bools_and_non_integers(self, cell):
        # True would otherwise run cell 1, and a float would reach numpy's IndexError
        config = ExperimentConfig("entropy-map", kappa=1.0, j=4, grid=(2, 2), window=(5, 15))
        with pytest.raises(ValueError, match=f"^cell_index must be an integer, got {cell!r}$"):
            map_cell_value(config, cell)
        assert map_cell_value(config, np.int64(1)) == map_cell_value(config, 1)

    @pytest.mark.parametrize("kind, j, grid, calls", [
        # every started cell steps through one stacked kernel call
        ("entropy-map", 4, (2, 2), {"coherent_state": 4, "floquet_unitary": 1,
                                    "_evolve_blochs": 1}),
        # j=1 gives a patch of width 1: the rows at theta=0.39 and 2.75 are
        # polar; the started cells' caps come from one draw, not sample_cap
        ("thermo-map", 1, (4, 2), {"_cap_vectors": 1}),
        # rows 0 and 3 are polar; one draw serves both caps of every started
        # cell, and one ksg_mi call serves every cell at all 3 window steps
        ("mi-map", 100, (4, 2), {"_cap_vectors": 1, "ksg_mi": 1}),
    ])
    def test_map_pass_looks_kernels_up_at_call_time(self, monkeypatch, one_cpu, kind, j, grid,
                                                    calls):
        # perfbench's tracer wraps these names in place; a kernel bound into
        # a table at import time would bypass the wrapper and hide its spans
        counts = Counter()

        def counted(label, fn):
            def wrapper(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("coherent_state", "floquet_unitary", "_evolve_blochs", "ksg_mi",
                     "_cap_vectors"):
            monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
        monkeypatch.setattr(bipartite, "sample_cap",
                            counted("bipartite.sample_cap", bipartite.sample_cap))
        ensemble = {} if kind == "entropy-map" else dict(count=20, seed=1)
        equilibrium_map(ExperimentConfig(kind, kappa=2.5, j=j, grid=grid, window=(2, 4),
                                         **ensemble))
        assert counts == calls


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
        assert a.rows.tolist() == b.rows.tolist()
        assert a.meta == b.meta


class TestRunnerRows:
    def test_portrait_peak_is_its_records(self):
        # the 40,100 records (2.2 MB) are filled in place; the orbit and
        # the angles pass through buffers of a fixed size, not whole copies
        thetas, phis = grid_centers(10, 10)
        initials = [(float(t), float(p)) for t in thetas for p in phis]
        peak = _traced_peak(lambda: phase_portrait(initials, KickParams(2.5), 400))
        nbytes = len(initials) * 401 * PORTRAIT_DTYPE.itemsize
        assert peak < nbytes + 500_000, (peak, nbytes)

    def test_portrait_run_and_write_hold_one_chunk_of_row_tuples(self, tmp_path, one_cpu):
        # the records reach Dataset.write a group of trajectories at a time
        # (_PortraitRows) and become row tuples a chunk at a time: 256
        # tuples (about 58 KB) and their text (about 26 KB).  A list of
        # all 40,100 row tuples, about 225 B each, would add 9 MB over the
        # peak of one phase_portrait call over all the starts.
        thetas, phis = grid_centers(10, 10)
        initials = [(float(t), float(p)) for t in thetas for p in phis]
        portrait = _traced_peak(lambda: phase_portrait(initials, KickParams(2.5), 400))
        config = ExperimentConfig("phase-portrait", kappa=2.5, grid=(10, 10), steps=400)
        written = _traced_peak(lambda: run_experiment(config).write(tmp_path))
        assert written - portrait < 1_000_000, (portrait, written)

    def test_portrait_memory_stays_flat(self, tmp_path, one_cpu):
        # 25 and 100 trajectories of 201 rows (0.28 and 1.13 MB of records)
        # run and write one group of a trajectory (11 KB) and one write
        # chunk at a time: their peaks measured 0.13 and 0.14 MB.  Only the
        # starts and the meta's initials list grow with the grid
        small, large = (_traced_peak(lambda: run_experiment(ExperimentConfig(
            "phase-portrait", kappa=2.5, grid=grid, steps=200)).write(tmp_path))
            for grid in ((5, 5), (10, 10)))
        assert large < 300_000 and large - small < 100_000, (small, large)

    @pytest.mark.parametrize("config,bound", [
        # the perfbench portrait-write call: 400 trajectories of 201 rows
        # (4.5 MB of records) peaked at 0.26 MB, and at 1.77 MB with 1 MiB
        # groups and 1024-row chunks
        (dict(kind="phase-portrait", kappa=2.5), 400_000),
        # the perfbench long-orbit call peaked at 0.33 MB: its block norms,
        # their logs and its rows take about 0.26 MB, a 512-step chunk's
        # orbit and Jacobians about 80 KB.  4096-step chunks peaked at
        # 0.95 MB
        (dict(kind="lyapunov", kappa=6.0, n_blocks=8000, steps_per_block=10), 450_000),
    ], ids=["portrait-write", "long-orbit"])
    def test_orbit_kinds_run_and_write_in_one_chunk(self, tmp_path, one_cpu, config, bound):
        peak = _traced_peak(lambda: run_experiment(ExperimentConfig(**config)).write(tmp_path))
        assert peak < bound, peak

    def test_lone_trajectories_step_through_evolve_trajectory(self, tmp_path, monkeypatch,
                                                              one_cpu):
        # a trajectory too long to share its group steps alone, through
        # evolve_trajectory's scalar loop, and writes the bytes of a run
        # whose groups hold all trajectories
        config = ExperimentConfig("phase-portrait", kappa=2.5, grid=(3, 2), steps=300)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(output, "_WRITE_CHUNK_ROWS", 6 * 301)
            dataset = run_experiment(config)
            assert dataset.rows.group == 6
            batched = dataset.write(tmp_path / "batched")

        def refuse(*args):
            raise AssertionError("classical_step stepped a lone trajectory")

        monkeypatch.setattr(classical, "classical_step", refuse)
        dataset = run_experiment(config)
        assert dataset.rows.group == 1
        alone = dataset.write(tmp_path / "alone")
        for one, other in zip(batched, alone):
            assert one.read_bytes() == other.read_bytes()

    def test_lyapunov_rows_take_16_bytes_a_row(self, monkeypatch):
        # a 100,000-block run's (block, lambda) tuples took about 11 MiB;
        # its (int64, float64) rows take 1.6 MB
        series = np.linspace(1.0, 0.5, 100_000)
        estimate = LyapunovEstimate(lam=float(series[-1]), block_series=series, n=100_000, s=1)
        monkeypatch.setattr(experiments, "benettin_lyapunov", lambda *args: estimate)
        config = ExperimentConfig("lyapunov", kappa=6.0, n_blocks=100_000, steps_per_block=1)
        assert _traced_peak(lambda: run_experiment(config)) < 2 * 2**20
        rows = run_experiment(config).rows
        assert rows.dtype == [("block", np.int64), ("lambda_running", np.float64)]
        assert rows[:].tolist() == list(enumerate(series.tolist(), start=1))

    def test_long_entropy_dynamics_rows_are_records(self, monkeypatch):
        # a 100,000-step run peaked at 23.6 MB when its rows were tuples.
        # Its (int64, 5 x float64) records take 4.8 MB, and the run peaks
        # at 7.2 MB: the records, and the step, s_linear and s_vn columns
        # (0.8 MB each) they are built from.  The evolution is stubbed, and
        # so is the von Neumann entropy, whose 100,001 scalar calls would
        # take seconds under tracemalloc
        steps = 100_000
        bloch = np.zeros((steps + 1, 3))
        bloch[:, 0] = np.linspace(1.0, 0.0, steps + 1)
        bloch[:, 2] = np.linspace(0.0, 0.5, steps + 1)
        monkeypatch.setattr(experiments, "coherent_state", lambda *args: None)
        monkeypatch.setattr(experiments, "floquet_unitary", lambda *args: None)
        monkeypatch.setattr(experiments, "evolve_expectations", lambda *args: bloch)
        monkeypatch.setattr(experiments, "von_neumann_entropy_single_spin", lambda r: 0.5)
        config = ExperimentConfig("entropy-dynamics", kappa=2.5, j=20, steps=steps)
        runs = []
        assert _traced_peak(lambda: runs.append(run_experiment(config))) < 8 * 2**20
        rows = runs[0].rows
        assert rows.dtype.itemsize == 48
        assert rows["step"].tolist() == list(range(steps + 1))
        for name, column in zip(("rx", "ry", "rz"), bloch.T):
            assert rows[name].tobytes() == column.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(grid=st.tuples(st.integers(1, 6), st.integers(1, 6)), steps=st.integers(0, 50),
           kappa=st.sampled_from([0.0, 2.5, 6.0]), data=st.data())
    def test_grouped_portrait_rows_have_the_bits_of_one_call(self, grid, steps, kappa, data):
        # a portrait steps as many trajectories at a time as fill a write
        # chunk (at least one); any slice, within a group or across its
        # edges, holds the bytes of the same rows of one phase_portrait
        # call over all the starts
        thetas, phis = grid_centers(*grid)
        initials = np.array([(theta, phi) for theta in thetas for phi in phis])
        whole = phase_portrait(initials, KickParams(kappa), steps)
        group = data.draw(st.integers(1, len(initials)), label="group")
        size = group * (steps + 1)  # rows per group
        chunk = data.draw(st.integers(1 if group == 1 else size, size + steps),
                          label="write chunk rows")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(output, "_WRITE_CHUNK_ROWS", chunk)
            rows = _PortraitRows(initials, KickParams(kappa), steps)
        assert rows.group == group and len(rows) == whole.size
        assert rows[:].tobytes() == whole.tobytes()
        for _ in range(3):
            lo = data.draw(st.integers(0, whole.size), label="lo")
            hi = data.draw(st.integers(lo, whole.size), label="hi")
            assert rows[lo:hi].tobytes() == whole[lo:hi].tobytes()
        if size < whole.size:
            # a slice that starts in one group and ends in a later one
            edge = size * data.draw(st.integers(1, (whole.size - 1) // size), label="edge")
            lo = data.draw(st.integers(max(0, edge - size), edge - 1), label="lo")
            hi = data.draw(st.integers(edge + 1, whole.size), label="hi")
            assert rows[lo:hi].tobytes() == whole[lo:hi].tobytes()


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
    # the six below run on per-kind defaults (or int-typed values), and were
    # recorded before the defaults moved into one table
    "entropy-dynamics-defaults": (
        # default j=20, steps=100
        dict(kind="entropy-dynamics", kappa=2.5),
        "450358a2ca7f2e5584b130123f75ec5ea38df5514f48bee3593c842bc0d5cde1",
        "0215862b21ef7d06bee3a228cb8cbd939ffa849f1e0ad81ab5ceb144b6a2e676",
    ),
    "vn-vs-linear": (
        dict(kind="vn-vs-linear"),
        "4ab2debd887bba6dbc7617e7b12162aeaad6638683b99aa9580eab1dff40ce68",
        "329db0c8fa2988494bb85a99206c7761313d55f8b681d37e69711412644642e6",
    ),
    "entropy-map-default-window": (
        # kappa < 1.5 and no window: the late (60, 100) window
        dict(kind="entropy-map", kappa=0.5, j=4, grid=(2, 2)),
        "daddcc7ed3bc9d6866d243cc913deb889ab60fe0c5dfb9bba6d3c2a6025f59d9",
        "4b9d5358f2d6dd5139d29865c4fa78ff28d448a52281915c682b8d4388192454",
    ),
    "portrait-default-grid": (
        # the default 20x20 grid of starts
        dict(kind="phase-portrait", kappa=2.5, steps=20),
        "dd319eee565472dbd18ea0f45d53c01492eceb07c30f7c8e407aa3de6fce9a60",
        "3cdaaa1275820c3aa72ba7d9e030945bf4b8059e6d5b9f35866c4753041e8ddc",
    ),
    "lyapunov-defaults": (
        # default 1000 blocks of 10 steps: the bytes of `lyapunov-chaotic`
        dict(kind="lyapunov", kappa=6.0),
        "21c41655d393dee88957a3f10efbcf3f06ce1030aa9649d51f455b59795b8da6",
        "28402d4c583a1d30370a440823b8ede17381954f44dde524aa97a6d9732d0f97",
    ),
    "mi-dynamics-int-values": (
        # ints stay ints in the meta, as a JSON config gives them
        dict(kind="mi-dynamics", kappa=6, j=50, count=40, steps=6, center=(2, 2)),
        "62e30b014bcd2fe441044fea16dbd167d3969fc1d36c1f5879f28614cfc5978a",
        "abc403fa434625036b42158e42d23c448ebc1e0f06c44bd492f3b6a7aa1d2c9a",
    ),
}


def assert_pinned_bytes(tmp_path, name):
    cfg, csv_digest, meta_digest = PINNED_DIGESTS[name]
    csv_path, meta_path = run_experiment(ExperimentConfig(**cfg)).write(tmp_path)
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(meta_path.read_bytes()).hexdigest() == meta_digest


class TestPinnedOutputBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_csv_and_meta_digests(self, tmp_path, name):
        assert_pinned_bytes(tmp_path, name)

    @pytest.mark.parametrize("name", sorted(
        name for name, (cfg, *_) in PINNED_DIGESTS.items()
        if cfg["kind"] in ("entropy-map", "entropy-dynamics")))
    def test_quantum_digests_hold_on_the_eigh_fallback(self, tmp_path, monkeypatch, name):
        # where numpy's LAPACK exports no LAPACKE zheevd, the quarter turn
        # comes from np.linalg.eigh, with the same bits
        eighs, eigh = [], np.linalg.eigh
        monkeypatch.setattr(quantum, "_lapack_zheevd", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        quantum._quarter_turn_y.cache_clear()
        try:
            assert_pinned_bytes(tmp_path, name)
        finally:
            quantum._quarter_turn_y.cache_clear()
        assert eighs
