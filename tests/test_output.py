"""Tests for Dataset's CSV and meta output, the split render, and the fork helper."""

import csv
import json
import os
import time

import numpy as np
import pytest

from kickedtop import (
    EXPERIMENT_KINDS,
    PORTRAIT_DTYPE,
    Dataset,
    ExperimentConfig,
    NotEquilibratedError,
    equilibrium_map,
    run_experiment,
)
from kickedtop.output import _SPLIT_WRITE_FIELDS, _WRITE_CHUNK_ROWS, _forked

from helpers import CPUS, SMALL_CONFIGS, assert_no_child_left, count_forks, needs_fork, on_cpus


# every kind's rows, and a portrait, a lyapunov and an entropy-dynamics
# run longer than one write chunk: 5,025, 5,000 and 1,101 rows
WRITER_CONFIGS = {
    **{kind: dict(kind=kind, **cfg) for kind, cfg in SMALL_CONFIGS.items()},
    "portrait-multi-chunk": dict(kind="phase-portrait", kappa=2.5, grid=(5, 5), steps=200),
    "lyapunov-multi-chunk": dict(kind="lyapunov", kappa=6.0, n_blocks=5000, steps_per_block=2),
    "entropy-dynamics-multi-chunk": dict(kind="entropy-dynamics", kappa=2.5, j=0.5, steps=1100),
}

# the field types and values no runner writes
HAND_BUILT = Dataset("probe", np.array([
    (True, -3, 1e-300, "gauss_rho_0.3"),
    (False, 0, float("nan"), ""),
    (True, np.iinfo(np.int64).max, float("-inf"), "a b"),
    (False, np.iinfo(np.int64).min, float("inf"), "tab\there"),
    (False, 7, -0.0, "x"),
], dtype=[("flag", bool), ("n", np.int64), ("x", np.float64), ("label", "U16")]), {})

# the columns a runner writes as int64
INT_COLUMNS = {"traj_id", "step", "block", "cell", "teq", "n", "k"}


def _render_probe(rows_kind: str, offset) -> Dataset:
    """A dataset `offset` rows away from the first row count at _SPLIT_WRITE_FIELDS fields.

    offset "3-row tail" asks for at least one more chunk, whose last one
    has 3 rows.  "wide" rows are portrait records (seven columns), "narrow"
    rows (int64, float64) records, as a lyapunov or mi-dynamics run writes.
    "portrait" is a phase-portrait run of 144 trajectories of 51 rows
    (51,408 fields) whatever the offset: its default group of 5
    trajectories does not divide them, and the second CPU's range starts
    inside a group.
    """
    if rows_kind == "portrait":
        return run_experiment(ExperimentConfig("phase-portrait", kappa=2.5, grid=(12, 12),
                                               steps=50))
    rng = np.random.default_rng(7)
    dtype = (PORTRAIT_DTYPE if rows_kind == "wide"
             else np.dtype([("block", np.int64), ("lambda_running", np.float64)]))
    count = -(-_SPLIT_WRITE_FIELDS // len(dtype.names))
    if offset == "3-row tail":
        count = (count // _WRITE_CHUNK_ROWS + 2) * _WRITE_CHUNK_ROWS + 3
    else:
        count += offset
    rows = np.zeros(count, dtype=dtype)
    for name in dtype.names:
        integer = name in INT_COLUMNS
        rows[name] = rng.integers(0, 10**6, count) if integer else rng.normal(size=count)
    return Dataset("probe", rows, {})


# (rows kind, offset) of each split-render case, by test id
SPLIT_CASES = {
    **{f"{name}-{rows_kind}": (rows_kind, offset)
       for name, offset in [("under", -1), ("at", 0), ("over", 1), ("short-tail", "3-row tail")]
       for rows_kind in ("wide", "narrow")},
    "grouped-portrait": ("portrait", None),
}


class TestDatasetOutput:
    def test_small_configs_cover_every_kind(self):
        assert set(SMALL_CONFIGS) == set(EXPERIMENT_KINDS)

    @pytest.mark.parametrize("kind", sorted(SMALL_CONFIGS))
    def test_rows_hold_native_scalars(self, kind):
        # the row contract of Dataset.write: one structured array whose
        # field names are the columns, and whose .tolist() gives native
        # scalars (str for int, repr for float)
        ds = run_experiment(ExperimentConfig(kind=kind, **SMALL_CONFIGS[kind]))
        records = ds.rows[:]
        assert isinstance(records, np.ndarray) and records.ndim == 1
        assert records.dtype.names == ds.columns
        for name in ds.columns:
            assert (records.dtype[name] == np.int64) == (name in INT_COLUMNS), name
        rows = records.tolist()
        assert rows
        for row in rows:
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

    @pytest.mark.parametrize("name", sorted(WRITER_CONFIGS) + ["hand-built"])
    def test_csv_bytes_equal_csv_writer(self, tmp_path, name):
        # csv.writer is the reference rendering of the row contract
        if name == "hand-built":
            ds = HAND_BUILT
        else:
            ds = run_experiment(ExperimentConfig(**WRITER_CONFIGS[name]))
        if name.endswith("multi-chunk"):
            assert len(ds.rows) > _WRITE_CHUNK_ROWS
        csv_path, _ = ds.write(tmp_path)
        with open(tmp_path / "oracle.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(ds.columns)
            writer.writerows(ds.rows[:].tolist())
        assert csv_path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_datasets_compare_by_identity(self):
        # a portrait's rows are a row source, and array rows' == is elementwise
        config = ExperimentConfig("phase-portrait", kappa=2.5, grid=(2, 2), steps=3)
        ds = run_experiment(config)
        assert ds == ds and ds != run_experiment(config)

    @pytest.mark.parametrize("special", [",", '"', "\r", "\n"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_field_needing_quotes_is_refused(self, tmp_path, special):
        # the bad row sits in the second chunk, after one chunk was written
        rows = np.rec.fromrecords([("ok", i) for i in range(_WRITE_CHUNK_ROWS)]
                                  + [(f"a{special}b", 1)], names="case,n")
        with pytest.raises(ValueError, match="CSV quoting"):
            Dataset("probe", rows, {}).write(tmp_path)
        assert list(tmp_path.iterdir()) == []

    @needs_fork
    @pytest.mark.parametrize("case", sorted(SPLIT_CASES))
    def test_split_render_has_the_bytes_of_one_process(self, tmp_path, monkeypatch, case):
        # from _SPLIT_WRITE_FIELDS fields on, a second CPU renders the later
        # rows; row counts just under and over that, none a whole number of
        # chunks, must give the bytes of one process.  The worker's last
        # chunk of 3 rows is smaller than a file buffer, so it reaches the
        # file only if the worker flushes before it exits.  A portrait's
        # worker steps the groups its rows fall in, here a last group
        # shorter than the others.
        rows_kind, offset = SPLIT_CASES[case]
        ds = _render_probe(rows_kind, offset)
        if rows_kind == "portrait":
            assert len(ds.meta["initials"]) % ds.rows.group != 0
        forks = count_forks(monkeypatch)
        on_cpus(monkeypatch, 1)
        one = ds.write(tmp_path / "one")[0].read_bytes()
        assert forks == []
        on_cpus(monkeypatch, 2)
        two = ds.write(tmp_path / "two")[0].read_bytes()
        assert len(forks) == (offset != -1)
        assert len(ds.rows) % _WRITE_CHUNK_ROWS != 0
        assert two == one
        assert_no_child_left()

    @needs_fork
    def test_field_needing_quotes_in_a_workers_rows_is_refused(self, tmp_path, monkeypatch):
        # one row over the split threshold; the last is in the worker's range.
        # It raises the one-process error in this process, and neither the
        # CSV nor a temporary file is left
        rows = np.zeros(_SPLIT_WRITE_FIELDS // 2 + 1, dtype=[("case", "U3"), ("x", np.float64)])
        rows["case"] = "ok"
        rows[-1] = ("a,b", 1.0)
        ds = Dataset("probe", rows, {})
        errors = []
        for cpus in (2, 1):
            on_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError, match="CSV quoting") as caught:
                ds.write(tmp_path)
            errors.append(str(caught.value))
            assert list(tmp_path.iterdir()) == []
            assert_no_child_left()
        assert errors[0] == errors[1]

    def test_one_cpu_never_forks(self, tmp_path, monkeypatch):
        def refused():
            raise AssertionError("os.fork called on one CPU")

        monkeypatch.setattr(os, "fork", refused, raising=False)
        on_cpus(monkeypatch, 1)
        _render_probe("wide", 1).write(tmp_path)
        equilibrium_map(ExperimentConfig("thermo-map", kappa=2.5, j=1, grid=(4, 2), count=20,
                                         window=(5, 15), seed=3))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_meta_is_refused_before_writing(self, tmp_path, value):
        # JSON has no NaN or infinity; nothing is written, not even the CSV
        ds = Dataset("probe", np.rec.fromrecords([("ok", 1)], names="case,n"), {"slope": value})
        with pytest.raises(ValueError, match="not JSON compliant"):
            ds.write(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_one_column_dataset_is_refused(self, tmp_path):
        # csv.writer writes this row as '""'; a bare line would be empty
        with pytest.raises(ValueError, match="at least two columns"):
            Dataset("probe", np.rec.fromrecords([("",)], names="case"), {}).write(tmp_path)
        assert list(tmp_path.iterdir()) == []

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


@needs_fork
class TestForked:
    # the fork helper behind the split map pass and CSV render; no test
    # asks for more parts than this process has CPUs
    def test_parts_run_in_separate_processes_and_return_in_order(self):
        parts = list(range(len(CPUS)))
        results = _forked(lambda part: (part, os.getpid()), parts)
        assert [part for part, _ in results] == parts
        assert results[0][1] == os.getpid()
        assert len({pid for _, pid in results}) == len(parts)
        assert_no_child_left()

    def test_a_workers_exception_is_raised_with_its_type_and_message(self):
        def run(part):
            if part:
                raise NotEquilibratedError(f"part {part} failed")
            return part

        with pytest.raises(NotEquilibratedError, match="^part 1 failed$"):
            _forked(run, list(range(len(CPUS))))
        assert_no_child_left()

    def test_a_worker_that_ends_without_a_result_is_an_error(self):
        def run(part):
            if part:
                os._exit(3)
            return part

        with pytest.raises(ChildProcessError, match="without a result"):
            _forked(run, list(range(len(CPUS))))
        assert_no_child_left()

    def test_an_interrupted_parent_kills_and_reaps_its_workers(self):
        # the workers would sleep for a minute; they are killed, not awaited
        def run(part):
            if part == 0:
                raise KeyboardInterrupt
            time.sleep(60)

        begin = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _forked(run, list(range(len(CPUS))))
        assert time.monotonic() - begin < 30
        assert_no_child_left()
