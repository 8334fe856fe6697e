"""Tests for the command-line interface."""

import argparse
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kickedtop
from kickedtop import (
    CapDistribution,
    KickedTopError,
    KickParams,
    SpinState,
    SphericalPoint,
    coherent_state,
    evolve_expectations,
    fit_growth_rate,
    floquet_unitary,
    linear_entropy,
    quantum,
)
from kickedtop.cli import _REPORTED_ERRORS, _build_parser, main
from kickedtop.config import _DEFAULTS, ExperimentConfig

# a small valid value for every config field, none of them its declared
# default: with these every kind's run is quick
SMALL = {
    "kappa": 2.5, "j": 4, "j_list": [4, 8], "center": [1.0, 2.0], "initials": [[1.0, 2.0]],
    "grid": [2, 1], "count": 20, "steps": 5, "k": 4, "window": [1, 3], "n_blocks": 5,
    "steps_per_block": 2, "spread1": 0.2, "seed": 1,
}

# every (kind, field) pair the kind does not take
NOT_TAKEN = [(kind, name) for kind, row in _DEFAULTS.items()
             for name in ExperimentConfig.__dataclass_fields__ if name not in {"kind", *row}]


def _flag(name: str, value) -> list:
    """The command-line words that set `name` to `value`."""
    words = value if isinstance(value, list) else [value]
    return ["--" + name.replace("_", "-")] + [
        word if isinstance(word, str) else json.dumps(word) for word in words
    ]


class TestSuccessPaths:
    def test_vn_vs_linear_writes_dataset(self, tmp_path, capsys):
        code = main(["vn-vs-linear", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert (tmp_path / "vn-vs-linear.csv").is_file()
        assert (tmp_path / "vn-vs-linear.meta.json").is_file()
        assert "vn-vs-linear: 101 rows" in captured.out
        assert "wrote" in captured.out

    def test_lyapunov_prints_exponent(self, tmp_path, capsys):
        code = main(
            [
                "lyapunov",
                "--kappa", "6.0",
                "--n-blocks", "50",
                "--steps-per-block", "5",
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "lambda=" in captured.out

    def test_lyapunov_runs_blocks_that_fold_a_tangent_pair(self, tmp_path, capsys):
        # a 40-step block at kappa=6 stretches by more than 1e16; the
        # Gram-Schmidt pair collapsed there and the run exited 1 with
        # "second tangent norm 0.0 underflowed at block 26"
        argv = "lyapunov --kappa 6 --n-blocks 100 --steps-per-block 40".split()
        code = main(argv + ["--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.startswith("lyapunov: lambda=0.950945 ")

    def test_window_flag_reaches_metadata(self, tmp_path, capsys):
        code = main(
            [
                "entropy-map",
                "--kappa", "2.5",
                "--j", "4",
                "--grid", "2", "2",
                "--window", "5", "15",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "entropy-map.meta.json").read_text())
        assert meta["window"] == [5, 15]

    @pytest.mark.parametrize("theta, rz", [("0", 1.0), (repr(math.pi), -1.0)],
                             ids=["north", "south"])
    def test_entropy_dynamics_from_a_pole_writes_finite_rows(self, tmp_path, capsys,
                                                              theta, rz):
        code = main(["entropy-dynamics", "--kappa", "2.5", "--center", theta, "0",
                     "--out", str(tmp_path)])
        assert code == 0
        header, *rows = (tmp_path / "entropy-dynamics.csv").read_text().splitlines()
        values = [[float(cell) for cell in row.split(",")] for row in rows]
        assert len(values) == 101
        assert all(math.isfinite(v) for row in values for v in row)
        assert values[0][header.split(",").index("rz")] == rz


    def test_summary_line_of_a_huge_kappa_stays_short(self, tmp_path, capsys):
        code = main(["entropy-dynamics", "--kappa", "1e300", "--j", "4", "--steps", "3",
                     "--out", str(tmp_path)])
        summary = capsys.readouterr().out.splitlines()[0]
        assert code == 0
        assert summary.startswith("entropy-dynamics: 4 rows kappa=1.0000e+300 j=4.0000 ")
        assert len(summary) < 120

    def test_summary_line_keeps_fixed_point_for_ordinary_values(self, tmp_path, capsys):
        code = main(["entropy-dynamics", "--kappa", "2.5", "--j", "4", "--steps", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("entropy-dynamics: 4 rows kappa=2.5000 j=4.0000 ")


class TestConfigFile:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"kappa": 6.0, "j": 100, "count": 30, "steps": 5}))
        return path

    def test_file_supplies_parameters(self, tmp_path, config_file, capsys):
        code = main(
            ["mi-dynamics", "--config", str(config_file), "--out", str(tmp_path / "run")]
        )
        assert code == 0
        meta = json.loads((tmp_path / "run" / "mi-dynamics.meta.json").read_text())
        assert meta["kappa"] == 6.0
        assert meta["count"] == 30

    def test_flags_override_file(self, tmp_path, config_file, capsys):
        code = main(
            [
                "mi-dynamics",
                "--config", str(config_file),
                "--count", "40",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "run" / "mi-dynamics.meta.json").read_text())
        assert meta["count"] == 40

    def test_unknown_field_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kappa": 6.0, "temperature": 300}))
        code = main(["mi-dynamics", "--config", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "temperature" in captured.err

    @pytest.mark.parametrize("fields, message", [
        ({"kappa": "x"}, "kappa must be a finite number, got 'x'"),
        ({"kappa": 2.5, "count": 2.5}, "count must be an integer, got 2.5"),
        ({"kappa": 2.5, "grid": "ab"}, "grid must be a pair of integers, got 'ab'"),
        ({"kappa": 2.5, "center": 3}, "center must be a pair of finite numbers, got 3"),
        ({"kappa": 2.5, "seed": "a"}, "seed must be an integer, got 'a'"),
    ])
    def test_wrongly_typed_value_is_one_line_error(self, tmp_path, capsys, fields, message):
        # before typed validation these ran the whole map with every cell
        # failed (exit 0) or escaped as a TypeError traceback
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(fields))
        code = main(["mi-map", "--config", str(path), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    def test_file_kind_must_match_the_subcommand(self, tmp_path, capsys):
        # a mismatched kind used to be dropped, running the subcommand's kind
        path = tmp_path / "run.json"
        fields = {"kappa": 2.5, "grid": [2, 2], "steps": 3}
        path.write_text(json.dumps({"kind": "lyapunov", **fields}))
        code = main(["phase-portrait", "--config", str(path), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            "error: config file kind 'lyapunov' does not match the subcommand 'phase-portrait'"
        ]
        assert not (tmp_path / "run").exists()
        path.write_text(json.dumps({"kind": "phase-portrait", **fields}))
        code = main(["phase-portrait", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run" / "phase-portrait.csv").is_file()

    def test_non_object_json_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        code = main(["mi-dynamics", "--config", str(path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestFailurePaths:
    def test_missing_required_parameter(self, tmp_path, capsys):
        code = main(["mi-dynamics", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "mi-dynamics requires kappa" in captured.err

    def test_invalid_parameter_value(self, tmp_path, capsys):
        code = main(["lyapunov", "--kappa", "-1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_numerical_failure_is_one_line_error(self, tmp_path, capsys):
        # at kappa 0 the MI series never equilibrates: NotEquilibratedError
        code = main(
            [
                "teq-scaling",
                "--kappa", "0",
                "--j-list", "10", "20",
                "--count", "20",
                "--steps", "20",
                "--out", str(tmp_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_entropy_map_with_a_drifting_unitary_is_one_line_error(self, tmp_path, capsys,
                                                                     monkeypatch):
        # every cell steps through one stacked kernel, whose norm check
        # still stops the run
        monkeypatch.setattr("kickedtop.experiments.floquet_unitary",
                            lambda j, kappa: 1.001 * floquet_unitary(j, kappa))
        code = main(["entropy-map", "--kappa", "2.5", "--j", "2", "--grid", "2", "2",
                     "--window", "2", "4", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: norm drifted to 1.00"), lines
        assert lines[0].endswith(" at step 1"), lines
        assert not (tmp_path / "run").exists()

    def test_teq_scaling_with_a_zero_teq_is_one_line_error(self, tmp_path, capsys):
        # the j=25 series starts at its equilibrium level, so log(T_eq) is
        # undefined; this used to warn and write NaN slopes into the meta
        argv = "teq-scaling --kappa 0.2 --j-list 25 50 --count 64 --steps 30 --seed 2"
        code = main(argv.split() + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            "error: T_eq is 0 at j=25.0: that series starts at its equilibrium level, "
            "so the log-log fit is undefined"
        ]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        ("mi-map --kappa 2.5 --grid 4 2 --count 5 --window 2 4",
         "all 8 cells of the mi-map failed; 4 with: count must be >= 8, got 5"),
        ("mi-map --kappa 2.5 --grid 4 2 --count 12 --k 11 --window 2 4",
         "all 8 cells of the mi-map failed; 4 with: need at least k + 2 = 13 samples, got 12"),
        ("mi-map --kappa 2.5 --j 0.7 --grid 4 2 --count 20 --window 2 4",
         "all 8 cells of the mi-map failed; 4 with: j must be a half-integer >= 1, got 0.7"),
        ("entropy-map --kappa 2.5 --j 0.3 --grid 4 2",
         "all 8 cells of the entropy-map failed; 8 with: j must be a positive half-integer, got 0.3"),
        # two north and two south cells: the tie goes to the first cell's reason
        ("thermo-map --kappa 2.5 --j 0.3 --grid 2 2 --count 20 --window 2 4",
         "all 4 cells of the thermo-map failed; 2 with: "
         "patch of width 2.1712 around theta=0.7854 overlaps a pole"),
        # thermo-map checks j as mi-map does, after the pole checks; it
        # used to write a map at both
        ("thermo-map --kappa 2.5 --j 0.7 --grid 4 2 --count 20 --window 2 4",
         "all 8 cells of the thermo-map failed; 4 with: j must be a half-integer >= 1, got 0.7"),
        ("thermo-map --kappa 2.5 --j 1e308 --grid 4 2 --count 20 --window 2 4",
         "all 8 cells of the thermo-map failed; 8 with: "
         "j must be a half-integer >= 1, got 1e+308"),
    ], ids=["mi-map-count", "mi-map-k", "mi-map-j", "entropy-map-j", "thermo-map-j",
            "thermo-map-j-0.7", "thermo-map-j-1e308"])
    def test_map_with_no_evaluable_cell_is_one_line_error(self, tmp_path, capsys, argv, message):
        # these used to write an all-NaN map and exit 0
        code = main(argv.split() + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        ("phase-portrait --kappa 2.5 --grid 2 2 --steps 3", "unrecognized arguments: --seed -3"),
        ("mi-dynamics --kappa 6 --count 30 --steps 4", "seed must be >= 0, got -3"),
    ], ids=["deterministic", "seeded"])
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys, argv, message):
        # the portrait used to record "seed": -3, and now takes no seed;
        # mi-dynamics failed in numpy with a message that did not name the field
        code = main(argv.split() + ["--seed", "-3", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        ("lyapunov --kappa 2.5", "tangent frame undefined within 1e-08 of a pole (theta=0.0)"),
        ("mi-dynamics --kappa 6 --count 30 --steps 4",
         "patch centre must avoid the poles, got theta=0.0"),
    ], ids=["lyapunov", "mi-dynamics"])
    def test_pole_center_is_one_line_error(self, tmp_path, capsys, argv, message):
        code = main(argv.split() + ["--center", "0", "0", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        ("entropy-dynamics --kappa 1e308 --j 4 --steps 3",
         "kick phase kappa m^2 / (2 j) overflows at kappa=1e+308, j=4.0"),
        ("lyapunov --kappa 1e17 --n-blocks 5",
         "leading tangent norm is inf at block 0: the tangent product overflowed"),
        ("lyapunov --kappa 1e308 --n-blocks 5",
         "leading tangent norm is nan at block 0: the tangent product overflowed"),
    ], ids=["entropy-dynamics", "lyapunov-1e17", "lyapunov-1e308"])
    def test_overflowing_kappa_is_one_line_error(self, tmp_path, capsys, argv, message):
        # these used to print RuntimeWarnings; entropy-dynamics then wrote
        # NaN rows and exited 0, lyapunov reported an underflow
        code = main(argv.split() + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        "phase-portrait --kappa 2.5 --steps 10000000000000",
        "lyapunov --kappa 6 --n-blocks 100000000000000000",
    ], ids=["phase-portrait", "lyapunov"])
    def test_allocation_numpy_refuses_is_one_line_error(self, tmp_path, capsys, argv):
        # about 200 PiB of records and 710 PiB of block series: larger than
        # any address space, so numpy refuses them without touching memory.
        # These used to end in a numpy MemoryError traceback.
        code = main(argv.split() + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "Traceback" not in captured.err
        assert not (tmp_path / "run").exists()

    def test_huge_portrait_grid_is_refused_before_it_grows(self, tmp_path):
        # 10^10 starts (1 TiB of records): the grid starts are one array,
        # which numpy refuses at once.  They used to be built as Python pairs
        # first, growing until the OS stopped the process.  The child's
        # address space is capped, so a host that grants the array cannot
        # fill it.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        argv = "phase-portrait --kappa 2.5 --grid 100000 100000 --steps 1".split()
        src = Path(kickedtop.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "kickedtop.cli", *argv, "--out", str(tmp_path / "run")],
            env={**os.environ, "PYTHONPATH": str(src)}, preexec_fn=cap_address_space,
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), lines
        assert not (tmp_path / "run").exists()

    def test_error_without_a_message_prints_its_type(self, tmp_path, capsys, monkeypatch):
        # a list that outgrows the memory limit raises a bare MemoryError,
        # which used to print "error: " and nothing else
        def exhausted(config):
            raise MemoryError

        monkeypatch.setattr("kickedtop.cli.run_experiment", exhausted)
        code = main(["phase-portrait", "--kappa", "2.5", "--out", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: MemoryError"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, message", [
        ("entropy-dynamics --kappa 1 --j 1e308 --steps 2",
         "j must be a positive half-integer, got 1e+308"),
        ("mi-dynamics --kappa 1 --j 1e308 --steps 2 --count 10",
         "j must be a half-integer >= 1, got 1e+308"),
        ("teq-scaling --kappa 2.5 --j-list 1e308 2 --count 10 --steps 5",
         "j must be a half-integer >= 1, got 1e+308"),
    ], ids=["entropy-dynamics", "mi-dynamics", "teq-scaling"])
    def test_j_whose_double_overflows_is_one_line_error(self, tmp_path, capsys, argv, message):
        # 2j is infinite, which round() refused with an OverflowError traceback
        code = main(argv.split() + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("j_list", [["25"], ["25", "25"]], ids=["one-j", "repeated-j"])
    def test_teq_scaling_with_one_distinct_j_is_one_line_error(self, tmp_path, capsys, j_list):
        # one distinct j used to give a fitted line through one point,
        # written as loglog_slope 0.3413 with loglog_r2 1.0
        argv = ["teq-scaling", "--kappa", "2.5", "--j-list", *j_list]
        code = main(argv + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        got = [float(j) for j in j_list]
        assert captured.err.splitlines() == [
            f"error: teq-scaling needs at least two distinct j values, got {got}"
        ]
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "fails, message",
    [
        (lambda: SpinState(1, [np.nan, 0.0, 0.0]), "state norm nan is not 1 within 1e-08"),
        (lambda: linear_entropy(np.array([1.0, 0.1, 0.0])),
         "Bloch vector norm 1.004987562112089 exceeds 1"),
        (lambda: evolve_expectations(coherent_state(1, 1.0, 1.0), np.full((3, 3), np.nan), 2),
         "norm drifted to nan at step 1"),
        (lambda: coherent_state(1, np.float64(4.0), 0.0), "theta0 must lie in [0, pi], got 4.0"),
        (lambda: floquet_unitary(np.float64(0.3), 1.0),
         "j must be a positive half-integer, got 0.3"),
        (lambda: floquet_unitary(1, np.float64(-1.0)), "kappa must be finite and >= 0, got -1.0"),
        (lambda: floquet_unitary(2, np.float64(1e308)),
         "kick phase kappa m^2 / (2 j) overflows at kappa=1e+308, j=2.0"),
        (lambda: KickParams(np.float64(-1.0)), "kappa must be finite and >= 0, got -1.0"),
        (lambda: CapDistribution(SphericalPoint(np.float64(0.0), 0.0), 0.1),
         "patch centre must avoid the poles, got theta=0.0"),
        (lambda: CapDistribution(SphericalPoint(1.0, 0.0), np.float64(-1.0)),
         "solid_angle must be in (0, 4*pi], got -1.0"),
        (lambda: fit_growth_rate([0.0, 1.0], np.float64(-1.0)),
         "equilibrium must be positive, got -1.0"),
        (lambda: fit_growth_rate([0.0, 0.1], np.float64(1.0), np.array([0.2, 0.8])),
         "series never reaches band (0.2, 0.8) of equilibrium 1.0"),
        (lambda: fit_growth_rate([0.0, 1.0], 1.0, np.array([0.8, 0.2])),
         "band must satisfy 0 <= lo < hi, got (0.8, 0.2)"),
        (lambda: ExperimentConfig("lyapunov", kappa=np.float64(-1.0)),
         "kappa must be >= 0, got -1.0"),
        (lambda: ExperimentConfig("entropy-dynamics", j=np.float64(-1.0)),
         "j must be positive, got -1.0"),
        (lambda: ExperimentConfig("lyapunov", center=(np.float64(4.0), 0.0)),
         "center theta must be in [0, pi], got 4.0"),
        (lambda: ExperimentConfig("mi-map", window=(np.int64(5), np.int64(5))),
         "window must satisfy 0 <= lo < hi, got (5, 5)"),
        (lambda: ExperimentConfig("mi-map", grid=(np.int64(0), np.int64(2))),
         "grid must be positive, got (0, 2)"),
    ],
)
def test_error_messages_print_numbers_as_python_numbers(fails, message):
    # a numpy scalar's repr (np.float64(nan)) would reach the one-line error
    # and, through a map's failed cells, the metadata
    with pytest.raises((ValueError, KickedTopError)) as caught:
        fails()
    assert str(caught.value) == message


def test_no_run_imports_scipy(tmp_path):
    # importing scipy costs about 0.4 s and 35 MB; the package needs none of
    # it, so neither the import nor a run of any kind may load a scipy module.
    # The worker processes are plain forks: no multiprocessing or
    # concurrent.futures either.  No kind but mi-selftest loads numpy.random
    # (about 11 ms of import and 6 MB): the seeded kinds draw their caps
    # from (seed, key) pairs without numpy's generators.
    child = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("scipy", "multiprocessing", "concurrent"))
import kickedtop
from kickedtop.cli import main
on_import = scipy_modules()
out = sys.argv[1]
for argv in (
    ["lyapunov", "--kappa", "6", "--n-blocks", "5", "--steps-per-block", "2"],
    ["phase-portrait", "--kappa", "2.5", "--steps", "3", "--grid", "2", "2"],
    ["entropy-dynamics", "--kappa", "2.5", "--j", "2", "--steps", "3"],
    ["entropy-map", "--kappa", "2.5", "--j", "2", "--grid", "2", "2"],
    ["vn-vs-linear"],
    ["thermo-map", "--kappa", "2.5", "--grid", "3", "2", "--count", "8", "--window", "1", "2"],
    ["mi-map", "--kappa", "2.5", "--grid", "3", "2", "--count", "20", "--window", "1", "2"],
    ["mi-dynamics", "--kappa", "2.5", "--j", "10", "--count", "20", "--steps", "3"],
    ["teq-scaling", "--kappa", "2.5", "--j-list", "5", "10", "--count", "20", "--steps", "30"],
):
    assert main(argv + ["--out", out]) == 0, argv
random_before_selftest = "numpy.random" in sys.modules
assert main(["mi-selftest", "--count", "50", "--out", out]) == 0
import numpy as np
kickedtop.ksg_mi(np.random.default_rng(0).normal(size=(50, 2)))
print(json.dumps({"on_import": on_import, "numpy.random before mi-selftest": random_before_selftest,
                  "after_runs": scipy_modules()}))
"""
    src = Path(kickedtop.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded == {"on_import": [], "numpy.random before mi-selftest": False,
                      "after_runs": []}


def test_failed_meta_write_leaves_no_csv(tmp_path, capsys):
    # a directory stands where the sidecar goes, so its write fails after
    # the CSV was written; the CSV used to stay behind
    (tmp_path / "lyapunov.meta.json").mkdir()
    assert main(["lyapunov", "--kappa", "6", "--n-blocks", "10", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert [path.name for path in tmp_path.iterdir()] == ["lyapunov.meta.json"]


def test_unconverged_eigh_is_one_line_error(tmp_path, capsys, monkeypatch):
    # zheevd's info > 0 raises eigh's LinAlgError, a ValueError
    monkeypatch.setattr(quantum, "_lapack_zheevd", lambda: lambda *args: 1)
    quantum._quarter_turn_y.cache_clear()
    try:
        code = main(["entropy-dynamics", "--kappa", "2.5", "--j", "3", "--steps", "2",
                     "--out", str(tmp_path)])
    finally:
        quantum._quarter_turn_y.cache_clear()
    assert code == 1
    assert capsys.readouterr().err == "error: Eigenvalues did not converge\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2,
                    reason="one CPU: the run here is already the one-CPU run")
def test_outputs_match_a_rerun_pinned_to_one_cpu(tmp_path, monkeypatch):
    # the CSV render (from 50,000 fields: this portrait has 70,700) and the
    # thermo-map and mi-map passes split over the CPUs this process may
    # use; a child pinned to one CPU runs them as one process and must
    # write the same bytes
    runs = [
        ["phase-portrait", "--kappa", "2.5", "--grid", "10", "10", "--steps", "100"],
        ["thermo-map", "--kappa", "2.5", "--grid", "4", "3", "--count", "20", "--window", "2", "6"],
        ["mi-map", "--kappa", "2.5", "--grid", "4", "3", "--count", "30", "--window", "2", "5"],
    ]
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "all")]) == 0
    assert len(forks) >= len(runs)
    child = """
import json, os, sys
from kickedtop.cli import main
runs = json.loads(sys.argv[2])
assert len(os.sched_getaffinity(0)) == 1
for argv in runs:
    assert main(argv + ["--out", sys.argv[1]]) == 0, argv
"""
    cpu = min(os.sched_getaffinity(0))
    src = Path(kickedtop.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "one"), json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    for argv in runs:
        for suffix in (".csv", ".meta.json"):
            name = argv[0] + suffix
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_each_subcommand_takes_exactly_its_kinds_fields():
    # the flags are built from the kind's row of _DEFAULTS; initials, a
    # list of pairs, is set only from a config file
    (kinds,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(kinds.choices) == set(_DEFAULTS)
    for kind, parser in kinds.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "out"}
        assert dests == set(_DEFAULTS[kind]) - {"initials"}, kind


@pytest.mark.parametrize("kind, field", NOT_TAKEN)
def test_a_field_its_kind_does_not_take_is_refused(tmp_path, capsys, kind, field):
    # as a flag, argparse does not know it; from a config file, the config refuses it
    value = SMALL[field]
    if field != "initials":  # no subcommand has an --initials flag
        argv = [kind, *_flag(field, value), "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unrecognized arguments: {' '.join(argv[1:-2])}"
        ]
    path = tmp_path / "run.json"
    path.write_text(json.dumps({field: value}))
    assert main([kind, "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {kind} does not take {field}"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    ("lyapunov --kappa abc", "argument --kappa: invalid float value: 'abc'"),
    ("lyapunov --kappa 1 --bogus 3", "unrecognized arguments: --bogus 3"),
    ("lyapunov --kappa 1 --count 3", "unrecognized arguments: --count 3"),
    ("entropy-map --kappa 2.5 --grid 1", "argument --grid: expected 2 arguments"),
    # no abbreviations: --k would otherwise set entropy-map's kappa
    ("entropy-map --kappa 2.5 --k 3", "unrecognized arguments: --k 3"),
    ("", "the following arguments are required: KIND"),
    # each used to exit 0 with the unused fields dropped, or recorded unused
    ("lyapunov --kappa 6 --n-blocks 10 --j 5 --count 3 --window 1 2",
     "unrecognized arguments: --j 5 --count 3 --window 1 2"),
    ("entropy-map --kappa 2.5 --j 2 --grid 2 2 --count 50 --spread1 0.1 --steps 3",
     "unrecognized arguments: --count 50 --spread1 0.1 --steps 3"),
], ids=["bad-float", "unknown-flag", "other-kinds-flag", "pair-arity", "abbreviation",
        "no-kind", "lyapunov-unused-fields", "entropy-map-unused-fields"])
def test_malformed_command_line_is_one_line_error(tmp_path, capsys, argv, message):
    # argparse used to print a usage block and exit 2
    code = main(argv.split() + ["--out", str(tmp_path / "run")] if argv else [])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        main(["lyapunov", "--help"])
    assert done.value.code == 0
    assert "--n-blocks" in capsys.readouterr().out


# fields whose unset value is a default too slow for the fuzz below
WORK_FIELDS = {"grid", "count", "steps", "window", "n_blocks", "steps_per_block"}

# values that are not a valid setting of most fields
CORRUPT = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.lists(st.lists(st.integers(-3, 3), max_size=2), max_size=2),
    st.integers(-10**20, -1),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324]),
)


@st.composite
def cli_calls(draw):
    """(argv without --out, config object or None) for one kind's run.

    Each field the kind takes gets a small valid value, then one key is
    set to a corrupted value, or to a valid one: a field the kind may not
    take, or an unknown key.  Each setting goes to a flag or the config.
    """
    kind = draw(st.sampled_from(sorted(_DEFAULTS)))
    row = _DEFAULTS[kind]
    fields = {name: SMALL[name] for name in row if name != "initials"}
    name = draw(st.one_of(st.sampled_from(sorted(SMALL)),
                          st.text(max_size=8).filter(lambda key: key not in SMALL)))
    corrupt = CORRUPT
    if name in row and name in WORK_FIELDS:
        # a JSON null leaves the field unset, and its default costs seconds
        corrupt = CORRUPT.filter(lambda value: value is not None)
    fields[name] = draw(st.one_of(corrupt, st.just(SMALL.get(name, 1))))
    argv, config = [kind], {}
    for key, value in fields.items():
        if draw(st.booleans()):
            argv += _flag(key, value)
        else:
            config[key] = value
    return argv, config


@settings(max_examples=150, deadline=None)
@given(call=cli_calls())
# argparse echoes an unknown argument as typed; its form feed used to split the error line
@example(call=(["mi-selftest", "--center", "\x0c"], {"count": 20, "k": 4, "seed": 1}))
def test_fuzzed_command_line_exits_zero_or_with_one_error_line(call):
    argv, config = call
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # anything a run writes lands here
        try:
            if config:
                Path("run.json").write_text(json.dumps(config))
                argv = argv + ["--config", "run.json"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", "run"])
            assert code in (0, 1)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
                assert sorted(os.listdir()) == (["run.json"] if config else [])
        finally:
            os.chdir(here)


def test_every_package_error_is_reported_by_the_cli():
    # each exception class the package defines is a ValueError (bad input)
    # or a KickedTopError (numerical failure), so the CLI's one-line error
    # covers any new failure type
    defined = []
    for info in pkgutil.iter_modules(kickedtop.__path__):
        module = importlib.import_module(f"kickedtop.{info.name}")
        defined += [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        ]
    assert len(defined) >= 5
    for cls in defined:
        assert issubclass(cls, (KickedTopError, ValueError)), cls
        assert issubclass(cls, _REPORTED_ERRORS), cls


def test_every_traced_place_resolves():
    # perfbench/tracer.py looks these names up to wrap them in traced
    # benchmark runs, so deleting or renaming one breaks those runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PLACES
    for owner, attr, label in tracer.PLACES:
        module_name, _, class_name = owner.partition(":")
        target = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name)
        assert callable(getattr(target, attr)), label
