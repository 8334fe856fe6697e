"""Tests for the command-line interface."""

import argparse
import json

import pytest

from kickedtop.cli import _build_parser, main
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


def test_every_flag_is_a_config_field():
    # _config_from_args copies flags by ExperimentConfig field name
    fields = set(ExperimentConfig.__dataclass_fields__)
    (kinds,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for kind, parser in kinds.choices.items():
        dests = {action.dest for action in parser._actions} - {"help", "config", "out"}
        assert dests <= fields, (kind, dests - fields)
