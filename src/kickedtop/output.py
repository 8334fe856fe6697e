"""Run output: a Dataset's CSV and .meta.json, and the fork helper that spreads work over CPUs.

A Dataset holds a run's rows (a structured array whose field names are
the columns, or a row source that slices into such arrays) and its
metadata.  Dataset.write renders the CSV one write chunk of rows at a
time, on several CPUs from _SPLIT_WRITE_FIELDS fields on, and writes the
metadata as a sorted JSON sidecar, so a rerun of the same config is
byte-identical.  _forked, which the split render and the map passes
share, runs independent parts in forked worker processes.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Dataset"]

# rows rendered per write call: for a portrait, 256 row tuples (about
# 58 KB) and their text (about 26 KB), at most about 0.1 MB while the
# text is joined.  A portrait also steps its trajectories in groups of
# about one chunk of rows (experiments._PortraitRows, which reads this
# at call time), so a chunk is the working set
_WRITE_CHUNK_ROWS = 256

# fields (rows x columns) from which Dataset.write renders its rows in
# several processes.  On a 2-core Xeon the split paid from about 17,000
# fields of portrait records, and from 20,000-36,000 (it moved between
# runs) of (int64, float64) records; a fork and reap cost 4-6 ms
_SPLIT_WRITE_FIELDS = 50_000

# characters that make csv.writer quote a field under QUOTE_MINIMAL
_CSV_SPECIALS = ',"\r\n'


def _worker_count(parts: int) -> int:
    """Processes for `parts` independent parts: the CPUs this process may use, at most `parts`.

    1 where os.fork or os.sched_getaffinity is missing, so the work stays
    one plain call.  CPU affinity is the control: `taskset -c 0` gives 1.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), parts)


def _forked(run, parts: list) -> list:
    """[run(part) for part in parts], each part after the first in a forked worker.

    The parent runs parts[0] itself while the workers run the rest.  A
    worker pickles its result, or the exception it raised, into a pipe and
    ends in os._exit, so it runs no exit handler and flushes no buffer it
    shares with the parent.  A worker's exception is raised again in the
    parent (same type and message), the first in part order, once parts[0]
    has succeeded.  Every worker is reaped before this returns or raises;
    when the parent fails or is interrupted, the workers still running are
    killed first.  One part is a plain call, with no fork.
    """
    if len(parts) == 1:
        return [run(parts[0])]
    pids, pipes = [], []
    try:
        for part in parts[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns when a process with threads forks.
                    # Here the only threads are OpenBLAS's pool, which
                    # OpenBLAS shuts down before a fork (pthread_atfork), so
                    # the worker holds no lock another thread took; it runs
                    # this package's numpy code and leaves through os._exit
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except BaseException:
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    try:
                        outcome = (True, run(part))
                    except BaseException as exc:
                        outcome = (False, exc)
                    payload = pickle.dumps(outcome)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            os.close(write_fd)
        outcomes = [(True, run(parts[0]))]
        for read_fd in pipes:
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            # a worker that ended without writing (killed, or its outcome
            # would not pickle) leaves an empty pipe
            outcomes.append(pickle.loads(data) if data else
                            (False, ChildProcessError("a worker process ended without a result")))
    except BaseException:
        import signal  # only this path needs it, so `import kickedtop` does not load it

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read_fd in pipes:
            os.close(read_fd)
        for pid in pids:
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


@dataclass(eq=False)
class Dataset:
    """Tabular result of a run plus everything needed to reproduce it.

    `rows` is a 1-d structured array, one field per column (at least two),
    or a row source (len(), a `dtype`, and contiguous slices that are such
    arrays), as a phase-portrait's _PortraitRows is; the dtype's field
    names are the columns.  Each field is an int, float or bool, or a str
    free of the CSV specials `,`, `"`, CR and LF.  write turns one chunk's
    slice at a time into row tuples of native scalars (`.tolist()`), and
    the CSV holds exactly what csv.writer(lineterminator="\n") would write
    for them: str() of each field, unquoted.  A row that would need
    quoting is refused.  Datasets compare by identity: `==` on array rows
    would be elementwise.
    """

    kind: str
    rows: np.ndarray  # or a row source, such as experiments._PortraitRows
    meta: dict

    @property
    def columns(self) -> tuple:
        """The column names: the field names of the rows' dtype."""
        return self.rows.dtype.names

    def write(self, outdir) -> tuple:
        """Write <kind>.csv and <kind>.meta.json under `outdir`; returns paths.

        ValueError, and no file left behind, if a row would need CSV quoting
        or the meta holds a NaN or an infinity (not valid JSON).  A failed
        meta write removes the CSV as well.

        From _SPLIT_WRITE_FIELDS fields (rows x columns) on, the rows are
        rendered on every CPU this process may use (os.sched_getaffinity;
        `taskset -c 0` gives one), in contiguous ranges on chunk
        boundaries.  This process writes the first range straight into the
        CSV; each forked worker (_forked) renders its range into an unlinked
        temporary file in `outdir`, which is then appended a bounded buffer
        at a time.  The bytes, and the error a bad row raises, do not
        depend on the CPU count; the workers' memory does not count in this
        process's ru_maxrss.
        """
        meta_text = json.dumps(self.meta, allow_nan=False, indent=2, sort_keys=True,
                               default=_json_safe)
        columns = self.columns
        if len(columns) < 2:
            # csv.writer quotes a lone empty field, which the checks below cannot see
            raise ValueError(f"a dataset needs at least two columns, got {columns!r}")
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / f"{self.kind}.csv"
        meta_path = outdir / f"{self.kind}.meta.json"
        line = ",".join(["%s"] * len(columns)) + "\n"
        rows = self.rows
        chunks = -(-len(rows) // _WRITE_CHUNK_ROWS)
        parts = (_worker_count(chunks) if len(rows) * len(columns) >= _SPLIT_WRITE_FIELDS
                 else 1)
        bounds = [min(len(rows), chunks * w // parts * _WRITE_CHUNK_ROWS)
                  for w in range(parts + 1)]

        def render(part):
            out, lo, hi = part
            for start in range(lo, hi, _WRITE_CHUNK_ROWS):
                chunk = rows[start:min(start + _WRITE_CHUNK_ROWS, hi)].tolist()
                out.write(_csv_text(line, chunk))
            out.flush()

        try:
            with open(csv_path, "w", newline="") as handle, contextlib.ExitStack() as temps:
                handle.write(_csv_text(line, [columns]))
                # unlinked, so a killed run leaves none behind
                outs = [handle] + [temps.enter_context(tempfile.TemporaryFile(
                    "w+", newline="", dir=outdir)) for _ in range(parts - 1)]
                _forked(render, list(zip(outs, bounds, bounds[1:])))
                handle.flush()
                for temp in outs[1:]:
                    # as bytes, 64 KiB at a time: no decoded copy
                    temp.seek(0)
                    shutil.copyfileobj(temp.buffer, handle.buffer)
            meta_path.write_text(meta_text + "\n")
        except BaseException:
            csv_path.unlink(missing_ok=True)
            raise
        return csv_path, meta_path


def _csv_text(line: str, rows: list) -> str:
    """`rows` rendered with the `line` format; ValueError if any needs quoting.

    `line` has no quote or CR and one comma between fields, so any extra
    comma, newline, quote or CR in the text came from a field.
    """
    text = "".join([line % row for row in rows])  # TypeError unless tuples of the right length
    if ('"' in text or "\r" in text or text.count("\n") != len(rows)
            or text.count(",") != len(rows) * line.count(",")):
        row = next(row for row in rows
                   if any(c in str(field) for field in row for c in _CSV_SPECIALS))
        raise ValueError(f"row {row!r} has a field with one of , \" CR LF; it would need CSV quoting")
    return text


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value)!r}")
