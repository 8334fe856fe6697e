"""Tests for the command-line interface."""

import json

import pytest

from kickedtop.cli import main


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
