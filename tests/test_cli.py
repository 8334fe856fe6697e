"""Tests for the command-line interface."""

import argparse
import importlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
)
from kickedtop.cli import _REPORTED_ERRORS, _build_parser, main
from kickedtop.experiments import ExperimentConfig


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
    ], ids=["mi-map-count", "mi-map-k", "mi-map-j", "entropy-map-j", "thermo-map-j"])
    def test_map_with_no_evaluable_cell_is_one_line_error(self, tmp_path, capsys, argv, message):
        # these used to write an all-NaN map and exit 0
        code = main(argv.split() + ["--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        "phase-portrait --kappa 2.5 --grid 2 2 --steps 3",
        "mi-dynamics --kappa 6 --count 30 --steps 4",
    ], ids=["deterministic", "seeded"])
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys, argv):
        # the portrait used to record "seed": -3; mi-dynamics failed in numpy
        # with a message that did not name the field
        code = main(argv.split() + ["--seed", "-3", "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == ["error: seed must be >= 0, got -3"]
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


def test_only_mi_estimates_import_the_kd_tree(tmp_path):
    # importing scipy costs about 0.3 s and 24 MB of every CLI call; only
    # the MI estimate's k-d tree needs it, so the kinds without an MI stage
    # must never load any of scipy, and the first MI estimate must find it
    child = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import kickedtop
from kickedtop.cli import main
on_import = scipy_modules()
out = sys.argv[1]
for argv in (
    ["lyapunov", "--kappa", "6", "--n-blocks", "5", "--steps-per-block", "2"],
    ["phase-portrait", "--kappa", "2.5", "--steps", "3", "--grid", "2", "2"],
    ["entropy-dynamics", "--kappa", "2.5", "--j", "2", "--steps", "3"],
    ["entropy-map", "--kappa", "2.5", "--j", "2", "--grid", "2", "2", "--steps", "3"],
    ["thermo-map", "--kappa", "2.5", "--grid", "3", "2", "--count", "8", "--window", "1", "2"],
    ["vn-vs-linear"],
):
    assert main(argv + ["--out", out]) == 0, argv
after_runs = scipy_modules()
import numpy as np
kickedtop.ksg_mi(np.random.default_rng(0).normal(size=(50, 2)))
print(json.dumps({"on_import": on_import, "after_runs": after_runs, "after_mi": scipy_modules()}))
"""
    src = Path(kickedtop.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["on_import"] == []
    assert loaded["after_runs"] == []
    assert "scipy.spatial" in loaded["after_mi"]


def test_every_flag_is_a_config_field():
    # _config_from_args copies flags by ExperimentConfig field name
    fields = set(ExperimentConfig.__dataclass_fields__)
    (kinds,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for kind, parser in kinds.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "out"}
        assert dests <= fields, (kind, dests - fields)


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
