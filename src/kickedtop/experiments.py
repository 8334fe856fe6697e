"""Experiment runners: named, reproducible computations with CSV output.

run_experiment fills an ExperimentConfig's unset fields from its kind's
row of _DEFAULTS; the kind's runner then turns it into a Dataset (a
structured array whose field names are the columns, plus a metadata
dictionary).  The Dataset writes a CSV file and a .meta.json sidecar
capturing every parameter, the seed, the package version, and the unit
conventions, so a rerun of the same config is byte-identical.

Analysis helpers shared by the runners live here as well: the
equilibration-time estimator, the growth-rate fit, and the phase-space
equilibrium maps.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import pickle
import shutil
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .bipartite import CapDistribution, _cap_vectors, pair_x_steps, sample_pairs
from .classical import (
    PORTRAIT_DTYPE,
    KickedTopError,
    KickParams,
    SphericalPoint,
    classical_step,
    phase_portrait,
)
from .lyapunov import benettin_lyapunov
from .mutual_info import ksg_mi
from .quantum import (
    _BLOCH_NORM_SLACK,
    _bloch_norm_error,
    _evolve_blochs,
    coherent_state,
    evolve_expectations,
    floquet_unitary,
    linear_entropy,
    von_neumann_entropy_single_spin,
)

# perfbench's tracer still patches this name, so it must resolve here; no
# code calls it, and a call would break a traced run (the tracer's counter
# reads .count and .steps from the result)
evolve_ensemble = pair_x_steps

__all__ = [
    "NotEquilibratedError",
    "WindowTooShortError",
    "TeqResult",
    "GrowthFit",
    "estimate_teq",
    "fit_growth_rate",
    "grid_centers",
    "EquilibriumMap",
    "map_cell_value",
    "equilibrium_map",
    "ExperimentConfig",
    "Dataset",
    "run_experiment",
    "EXPERIMENT_KINDS",
]

DEFAULT_CENTER = (3.0 * np.pi / 4.0, 3.0 * np.pi / 4.0)

# subsystem patch sizes (steradians) in the bipartite sampling: the single
# spin-1/2 carries an O(1) angular uncertainty, the rest of the top the
# usual coherent-state spread 1/j
SPREAD_SINGLE_SPIN = 0.25

UNIT_CONVENTIONS = {
    "mutual_information": "nats",
    "von_neumann_entropy": "nats",
    "linear_entropy": "dimensionless, max 0.5 for one spin-1/2",
    "mi_estimator": "neighbour-counting variant 1, max norm",
    "mi_variables": "post-step normalised x components (x1, x2)",
    "patch_sampling": "area-uniform over a square patch",
    "teq_definition": "first step reaching 90% of the mean over the last 20% of the series",
}


class NotEquilibratedError(KickedTopError):
    """Raised when a series never reaches its equilibration threshold."""


class WindowTooShortError(KickedTopError):
    """Raised when a growth-rate fit window contains fewer than 4 points."""


@dataclass(frozen=True)
class TeqResult:
    """Equilibration time plus the tail statistics that defined it."""

    teq: int
    tail_mean: float
    threshold: float


def estimate_teq(series) -> TeqResult:
    """First step at which `series` reaches 90% of its tail mean.

    The tail is the last 20% of the samples (at least one).  The series is
    expected to grow towards a positive equilibrium; a constant positive
    series equilibrates at step 0.
    """
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("series must be 1d with at least 2 samples")
    tail = values[-max(1, int(round(0.2 * values.size))):]
    tail_mean = float(tail.mean())
    if tail_mean <= 0.0:
        raise NotEquilibratedError(f"tail mean {tail_mean!r} is not positive")
    level = 0.9 * tail_mean
    hits = np.nonzero(values >= level)[0]
    if hits.size == 0:
        raise NotEquilibratedError(f"series never reaches {level!r}")
    return TeqResult(teq=int(hits[0]), tail_mean=tail_mean, threshold=level)


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of the growth segment of a series.

    The window runs from the first crossing of band[0] * equilibrium to the
    first crossing of band[1] * equilibrium, inclusive.
    """

    slope: float
    start: int
    stop: int

    @property
    def n_points(self) -> int:
        return self.stop - self.start + 1


def fit_growth_rate(series, equilibrium: float, band=(0.2, 0.8)) -> GrowthFit:
    """Slope of `series` between fractional crossings of `equilibrium`.

    band selects the fit window as fractions of the equilibrium value;
    shifting it probes how the local growth rate changes along the rise
    (for logarithmic growth the slope falls with window position).  Raises
    WindowTooShortError if fewer than 4 samples land in the window.
    """
    values = np.asarray(series, dtype=np.float64)
    lo, hi = float(band[0]), float(band[1])
    if not 0.0 <= lo < hi:
        raise ValueError(f"band must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    if equilibrium <= 0.0:
        raise ValueError(f"equilibrium must be positive, got {float(equilibrium)}")
    above_lo = np.nonzero(values >= lo * equilibrium)[0]
    above_hi = np.nonzero(values >= hi * equilibrium)[0]
    if above_lo.size == 0 or above_hi.size == 0:
        raise ValueError(f"series never reaches band ({lo}, {hi}) of equilibrium {float(equilibrium)}")
    start, stop = int(above_lo[0]), int(above_hi[0])
    if stop - start + 1 < 4:
        raise WindowTooShortError(
            f"fit window [{start}, {stop}] has {stop - start + 1} points, need >= 4"
        )
    x = np.arange(start, stop + 1, dtype=np.float64)
    slope = float(np.polyfit(x, values[start : stop + 1], 1)[0])
    return GrowthFit(slope=slope, start=start, stop=stop)


def grid_centers(n_theta: int, n_phi: int):
    """Cell-centre coordinates of the standard phase-space grid.

    theta_i = (i + 1/2) pi / n_theta, phi_k = (k + 1/2) 2 pi / n_phi;
    cell_index = i * n_phi + k.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError(f"grid must be at least 1x1, got {n_theta}x{n_phi}")
    thetas = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phis = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    return thetas, phis


@dataclass(frozen=True)
class EquilibriumMap:
    """Late-time mean of an observable over a phase-space grid.

    values[i, k] belongs to cell centre (theta_i, phi_k); cells whose
    evaluation failed hold NaN and are listed in `failures`.
    """

    kind: str
    theta_centers: np.ndarray
    phi_centers: np.ndarray
    values: np.ndarray
    window: tuple
    failures: list = field(default_factory=list)


def _top_steps(states, params, steps):
    """Yield an (N, 3) ensemble of single tops after 0..steps periods."""
    yield states
    for _ in range(steps):
        states = classical_step(states, params)
        yield states


def _mi_start(center, spread1, j, count, seed):
    """Initial (n1, n2) of the bipartite ensemble around `center`."""
    point = SphericalPoint(*center)
    dist1 = CapDistribution(center=point, solid_angle=spread1)
    dist2 = CapDistribution(center=point, solid_angle=1.0 / j)
    return sample_pairs(dist1, dist2, j, count, seed)


def _mi_series(starts, params, j, window, k):
    """KSG MI (nats) of each bipartite ensemble at steps window[0]..window[1].

    starts holds one (n1, n2) pair of equal-sized ensembles per row; all
    of them step together as one stacked array, and only the current step
    is held, so memory stays O(rows * count + rows * window).  Each
    window step makes one `ksg_mi` call on the (rows, count, 2) stack, so
    its ValueError belongs to the whole stack and propagates.  Returns a
    (len(starts), window length) array.
    """
    lo, hi = window
    n1 = np.concatenate([n1 for n1, _ in starts])
    n2 = np.concatenate([n2 for _, n2 in starts])
    values = np.empty((len(starts), hi - lo + 1))
    steps = pair_x_steps(n1, n2, params, j, hi)
    for col, xs in enumerate(islice(steps, lo, None)):
        values[:, col] = ksg_mi(xs.T.reshape(len(starts), -1, 2), k=k).value
    return values


def _thermo_series(starts, params, window):
    """Linear entropy of each ensemble's mean vector at steps window[0]..window[1].

    All ensembles step together as one stacked array.  Each window step
    takes every ensemble's mean in one reduction, and its |r|^2 as a
    stacked matmul, whose rows have the bits of np.dot; so row i is
    thermo_limit_entropy(ensemble i).  Returns a (len(starts), window
    length) array and a list of (row, reason) pairs: a row whose mean
    vector is longer than 1 beyond roundoff stays NaN from then on.
    """
    lo, hi = window
    values = np.full((len(starts), hi - lo + 1), np.nan)
    live = np.ones(len(starts), dtype=bool)
    failed = []
    steps = _top_steps(np.concatenate(starts), params, hi)
    for col, states in enumerate(islice(steps, lo, None)):
        mean = states.reshape(len(starts), -1, 3).mean(axis=1)
        r2 = (mean[:, np.newaxis, :] @ mean[:, :, np.newaxis])[:, 0, 0]
        for row in np.flatnonzero(live & (r2 > 1.0 + _BLOCH_NORM_SLACK)):
            failed.append((int(row), str(_bloch_norm_error(np.sqrt(r2[row])))))
            live[row] = False
        values[live, col] = np.maximum(0.5 * (1.0 - r2[live]), 0.0)
    return values, failed


def _entropy_series(states, unitary, window):
    """Linear entropy of each coherent state's spin at steps window[0]..window[1].

    All states step together through `_evolve_blochs`.  It applies the
    unitary in row blocks of at least 2 rows, each one zgemv per state
    whose output rows do not depend on the block's height, so every state
    keeps the bits of evolving it alone; a zgemm over the states, or a
    1-row block (zdotu), would round differently.  Returns a
    (len(states), window length) array.
    """
    lo, hi = window
    bloch = _evolve_blochs([state.amplitudes for state in states], unitary, hi)
    return np.maximum(0.5 * (1.0 - np.einsum("bij,bij->bi", bloch, bloch)), 0.0)[:, lo:]


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


_MAP_KINDS = ("entropy-map", "thermo-map", "mi-map")


def _map_values(config: ExperimentConfig, cells=None, workers: int = 1):
    """Values of the listed grid cells (default all) of one map, and (cell, reason) failures.

    `config` must be resolved (see _resolved), so its grid and window are
    set and checked.  Every cell gets its own start: a coherent state, or an
    ensemble drawn from the child stream keyed by its index.  The started
    cells then go through their kind's series function together, and each
    value is the mean of its cell's window.  A failed cell keeps NaN; one
    `ksg_mi` call serves every started cell, so its ValueError fails them
    all.  The Floquet unitary is built only when some cell started, so a
    bad j fails every cell alike.

    With `workers` > 1 the cells are dealt out as cells[w::workers], one
    share per process (_forked), and each share runs the pass above on its
    own.  A `ksg_mi` refusal in any share fails the started cells of every
    share with its message, as one stacked call would (ksg_mi's refusal
    messages do not depend on which rows a stack holds), so the result
    does not depend on `workers`.
    """
    if config.kind not in _MAP_KINDS:
        raise ValueError(f"kind must be one of {_MAP_KINDS}, got {config.kind!r}")
    n_theta, n_phi = config.grid
    cells = range(n_theta * n_phi) if cells is None else cells
    shares = _forked(functools.partial(_map_share, config),
                     [cells[w::workers] for w in range(workers)])
    values, failures = np.full(len(cells), np.nan), []
    refusal = next((share[3] for share in shares if share[3] is not None), None)
    for w, (share_values, share_failures, started, _) in enumerate(shares):
        failures += share_failures
        if refusal is None:
            values[w::workers] = share_values
        else:
            share_cells = cells[w::workers]
            failures += [(share_cells[row], refusal) for row in started]
    return values, failures


def _map_share(config: ExperimentConfig, cells):
    """One share of a map pass: (values, failures, started rows, ksg_mi refusal or None).

    The pass of _map_values on `cells`, except that a `ksg_mi` ValueError
    is returned as its message instead of failing the started cells.
    """
    kind, j = config.kind, config.j
    n_theta, n_phi = config.grid
    thetas, phis = grid_centers(n_theta, n_phi)
    started, starts, failures = [], [], []
    for row, cell in enumerate(cells):
        if not 0 <= cell < n_theta * n_phi:
            raise IndexError(f"cell_index {cell} out of range for {n_theta}x{n_phi}")
        center = (float(thetas[cell // n_phi]), float(phis[cell % n_phi]))
        try:
            if kind == "entropy-map":
                # takes no seed, so the run never loads numpy.random
                start = coherent_state(j, *center)
            else:
                cell_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(cell,))
                if kind == "thermo-map":
                    cap = CapDistribution(center=SphericalPoint(*center), solid_angle=1.0 / j)
                    start = _cap_vectors(cap, config.count, cell_seed)
                else:
                    start = _mi_start(center, config.spread1, j, config.count, cell_seed)
        except ValueError as exc:
            failures.append((cell, str(exc)))
            continue
        started.append(row)
        starts.append(start)
    values = np.full(len(cells), np.nan)
    if not starts:
        return values, failures, started, None
    params = KickParams(config.kappa)
    if kind == "entropy-map":
        windows = _entropy_series(starts, floquet_unitary(j, config.kappa), config.window)
    elif kind == "thermo-map":
        windows, failed = _thermo_series(starts, params, config.window)
        failures += [(cells[started[row]], reason) for row, reason in failed]
    else:
        try:
            windows = _mi_series(starts, params, j, config.window, config.k)
        except ValueError as exc:
            return values, failures, started, str(exc)
    for row, series in zip(started, windows):
        values[row] = float(np.mean(series))
    return values, failures, started, None


def map_cell_value(config: ExperimentConfig, cell_index: int) -> float:
    """Evaluate one grid cell of the map `config` describes.

    Unset fields take the kind's defaults, as in run_experiment.  Cells
    are independent: each draws from its own child stream keyed by
    cell_index, so evaluating any subset in any order (or in parallel)
    reproduces the full map's values; equilibrium_map relies on this when
    it splits a thermo-map or mi-map over worker processes.  This runs the
    full map's kernel on a one-cell list, in this process; a failed cell
    raises ValueError with its recorded reason.
    """
    values, failures = _map_values(_resolved(config), [cell_index])
    if failures:
        raise ValueError(failures[0][1])
    return float(values[0])


def equilibrium_map(config: ExperimentConfig) -> EquilibriumMap:
    """Late-time observable over the full grid; cell failures do not abort.

    Unset fields take the kind's defaults, as in run_experiment.  A cell
    whose patch overlaps a pole (or any other per-cell ValueError) is
    recorded in `failures`, in cell order, and left as NaN.  A kind that
    is not a map kind raises.

    A thermo-map or mi-map runs on every CPU this process may use
    (os.sched_getaffinity; `taskset -c 0` gives one): its cells are dealt
    out interleaved to forked workers, whose memory does not count in this
    process's ru_maxrss.  The values and failures are those of one pass,
    bit for bit, whatever the CPU count.  An entropy-map stays one pass in
    this process: OpenBLAS already runs its products and its `eigh` on
    every CPU, and the `eigh` bits depend on the BLAS thread count.
    """
    config = _resolved(config)
    split = config.kind in ("thermo-map", "mi-map")
    workers = _worker_count(math.prod(config.grid)) if split else 1
    values, failures = _map_values(config, workers=workers)
    n_theta, n_phi = config.grid
    thetas, phis = grid_centers(n_theta, n_phi)
    return EquilibriumMap(
        kind=config.kind, theta_centers=thetas, phi_centers=phis,
        values=values.reshape(n_theta, n_phi), window=config.window,
        failures=sorted(failures),
    )


# --------------------------------------------------------------------------
# configuration and dispatch


def _spec(element: type, arity: str, help: str, default=None, low=None):
    """A config field: default, element type, arity, least value and flag help (see _checked)."""
    return field(default=default, metadata=dict(type=element, arity=arity, low=low, help=help))


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.

    A field its kind does not take (see _DEFAULTS) must keep its default.
    run_experiment resolves unset (None) fields to their kind's _DEFAULTS
    before the runner sees them; the metadata records the resolved values.
    """

    kind: str
    kappa: float | None = _spec(float, "scalar", "kick strength")
    j: float | None = _spec(float, "scalar", "spin magnitude")
    j_list: tuple | None = _spec(float, "list", "spin magnitudes")
    center: tuple = _spec(float, "pair", "initial/centre point (theta, phi)", DEFAULT_CENTER)
    initials: tuple | None = _spec(float, "pairs", "initial points (theta, phi)")
    grid: tuple | None = _spec(int, "pair", "grid resolution (n_theta, n_phi)")
    count: int | None = _spec(int, "scalar", "ensemble size / sample count", low=1)
    steps: int | None = _spec(int, "scalar", "number of map periods", low=1)
    k: int = _spec(int, "scalar", "nearest-neighbour order for MI", 3, low=1)
    window: tuple | None = _spec(int, "pair", "averaging window (lo, hi) in steps")
    n_blocks: int | None = _spec(int, "scalar", "Benettin blocks", low=1)
    steps_per_block: int | None = _spec(int, "scalar", "steps per Benettin block", low=1)
    spread1: float = _spec(float, "scalar", "subsystem-1 patch solid angle", SPREAD_SINGLE_SPIN)
    seed: int = _spec(int, "scalar", "base RNG seed", 0, low=0)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {sorted(EXPERIMENT_KINDS)}")
        for spec in fields(self)[1:]:  # every field but kind
            value = getattr(self, spec.name)
            if value is None:
                if spec.default is not None:  # a JSON null reaches a field with a set default
                    raise ValueError(f"{spec.name} must not be null")
                continue
            value = _checked(spec.name, value, spec.metadata["type"], spec.metadata["arity"])
            setattr(self, spec.name, value)
            if spec.name not in _DEFAULTS[self.kind] and value != spec.default:
                raise ValueError(f"{self.kind} does not take {spec.name}")
            if spec.metadata["low"] is not None and value < spec.metadata["low"]:
                raise ValueError(f"{spec.name} must be >= {spec.metadata['low']}, got {value}")
        if self.grid is not None and self.initials is not None:
            raise ValueError(f"{self.kind} takes grid or initials, not both")
        if self.kappa is not None and self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {float(self.kappa)}")
        for j in (self.j,) + (self.j_list or ()):
            if j is not None and j <= 0:
                raise ValueError(f"j must be positive, got {float(j)}")
        if not 0.0 <= float(self.center[0]) <= np.pi:
            raise ValueError(f"center theta must be in [0, pi], got {float(self.center[0])}")
        if self.window is not None:
            lo, hi = self.window
            if not 0 <= lo < hi:
                raise ValueError(f"window must satisfy 0 <= lo < hi, got ({lo}, {hi})")
        if self.grid is not None:
            n_theta, n_phi = self.grid
            if n_theta < 1 or n_phi < 1:
                raise ValueError(f"grid must be positive, got ({n_theta}, {n_phi})")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # JSON booleans are ints to Python; a config never means them as numbers
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _checked(name: str, value, element: type, arity: str):
    """`value`, lists as tuples, if it has the field's element type and arity; ValueError otherwise.

    element is int or float (finite); arity is "scalar", "pair", "list" or
    "pairs", a non-empty list of pairs (which only a config file sets).
    """
    check, one, many = ((_is_int, "an integer", "integers") if element is int
                        else (_is_real, "a finite number", "finite numbers"))
    is_list = isinstance(value, (list, tuple))
    if arity == "scalar":
        ok, want = check(value), one
    elif arity == "pair":
        ok, want = is_list and len(value) == 2 and all(map(check, value)), f"a pair of {many}"
    elif arity == "list":
        ok, want = is_list and len(value) > 0 and all(map(check, value)), f"a non-empty list of {many}"
    elif is_list and value:  # a non-empty list of pairs
        return tuple(_checked(name, point, element, "pair") for point in value)
    else:
        ok, want = False, "a non-empty list of pairs"
    if not ok:
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return tuple(value) if is_list else value


# rows rendered per write call: for a portrait, 1024 row tuples (about
# 0.23 MB) and their text (about 0.11 MB), at most about 0.5 MB while the
# text is joined, so a chunk stays small next to the 56 B-a-row records
_WRITE_CHUNK_ROWS = 1024

# fields (rows x columns) from which Dataset.write renders its rows in
# several processes.  On a 2-core Xeon the split paid from about 17,000
# fields of portrait records, and from 20,000-36,000 (it moved between
# runs) of (int64, float64) records; a fork and reap cost 4-6 ms
_SPLIT_WRITE_FIELDS = 50_000

# characters that make csv.writer quote a field under QUOTE_MINIMAL
_CSV_SPECIALS = ',"\r\n'


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
    rows: np.ndarray | _PortraitRows
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


def _meta(config: ExperimentConfig, *names, **extras) -> dict:
    """Version, units, seed, the named config fields (tuples as lists) and `extras`."""
    from . import __version__

    meta = {"kind": config.kind, "version": __version__, "units": UNIT_CONVENTIONS}
    for name in ("seed",) + names:
        value = getattr(config, name)
        meta[name] = list(value) if isinstance(value, tuple) else value
    meta.update(extras)
    return meta


def _run_phase_portrait(config: ExperimentConfig) -> Dataset:
    if config.initials is not None:
        initials = np.array(config.initials, dtype=np.float64)
    else:
        # the grid starts as one array, not nθ·nφ Python pairs, so numpy
        # refuses a grid too large to hold before anything grows
        thetas, phis = grid_centers(*config.grid)
        initials = np.empty((thetas.size, phis.size, 2))
        initials[..., 0] = thetas[:, np.newaxis]
        initials[..., 1] = phis
        initials = initials.reshape(-1, 2)
    rows = _PortraitRows(initials, KickParams(config.kappa), config.steps)
    meta = _meta(config, "kappa", "steps", initials=initials.tolist(),
                 note="grid defaults reconstruct the portrait; initials override it")
    return Dataset(config.kind, rows, meta)


# bytes of records a portrait holds at a time: its rows are computed one
# group of consecutive trajectories at a time, as many as fit (at least
# one).  Each trajectory steps alone, so the group sets the memory held,
# not the stepping rate
_PORTRAIT_GROUP_BYTES = 1 << 20


class _PortraitRows:
    """The records of phase_portrait(initials, params, steps), one group of trajectories at a time.

    A Dataset row source: len() is the row count, and a contiguous slice
    gives those rows as a PORTRAIT_DTYPE array.  A group is one
    phase_portrait call on its starts, with traj_id offset by its first
    trajectory.  Each trajectory steps alone and the angle ufuncs work
    element by element, so the rows have the bits of one call over all
    starts.  Only the current group is held.  Group 0 is computed here, so
    an allocation numpy refuses fails before anything is written.
    """

    dtype = PORTRAIT_DTYPE

    def __init__(self, initials: np.ndarray, params: KickParams, steps: int):
        self.initials, self.params, self.steps = initials, params, steps
        self.group = max(1, _PORTRAIT_GROUP_BYTES // ((steps + 1) * PORTRAIT_DTYPE.itemsize))
        self._load(0)

    def __len__(self) -> int:
        return len(self.initials) * (self.steps + 1)

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError(f"portrait rows are read by contiguous slices, not {rows!r}")
        lo, hi, _ = rows.indices(len(self))
        hi = max(lo, hi)
        size = self.group * (self.steps + 1)  # rows per group
        # a slice within one group is a view of it; one across groups a copy
        out = None if lo // size == max(lo, hi - 1) // size else np.empty(hi - lo, PORTRAIT_DTYPE)
        at = lo
        while True:
            group, offset = divmod(at, size)
            if group != self._group:
                self._load(group)
            stop = min(offset + hi - at, size)
            if out is None:
                return self._records[offset:stop]
            # no view of this group outlives the copy, so _load can free it
            out[at - lo:at - lo + stop - offset] = self._records[offset:stop]
            at += stop - offset
            if at == hi:
                return out

    def _load(self, group: int):
        # the old group goes first, so two are never held at once
        self._group = self._records = None
        first = group * self.group
        # looked up at call time, where perfbench's tracer patches it
        records = phase_portrait(self.initials[first:first + self.group], self.params,
                                 self.steps)
        records["traj_id"] += first
        self._group, self._records = group, records


def _run_lyapunov(config: ExperimentConfig) -> Dataset:
    estimate = benettin_lyapunov(SphericalPoint(*config.center), KickParams(config.kappa),
                                 config.n_blocks, config.steps_per_block)
    rows = np.empty(config.n_blocks, dtype=[("block", np.int64), ("lambda_running", np.float64)])
    rows["block"] = 1
    np.cumsum(rows["block"], out=rows["block"])  # 1..n in place, with no arange beside it
    rows["lambda_running"] = estimate.block_series
    meta = _meta(config, "kappa", "center", "n_blocks", "steps_per_block",
                 **{"lambda": estimate.lam})
    return Dataset(config.kind, rows, meta)


def _run_entropy_dynamics(config: ExperimentConfig) -> Dataset:
    state = coherent_state(config.j, *config.center)
    bloch = evolve_expectations(state, floquet_unitary(config.j, config.kappa), config.steps)
    s_lin = np.fromiter(map(linear_entropy, bloch), np.float64, len(bloch))
    s_vn = np.fromiter(map(von_neumann_entropy_single_spin, bloch), np.float64, len(bloch))
    rows = np.rec.fromarrays([np.arange(len(bloch)), *bloch.T, s_lin, s_vn],
                             names="step,rx,ry,rz,s_linear,s_vn")
    meta = _meta(config, "kappa", "j", "steps", "center")
    try:
        teq = estimate_teq(s_lin)
        meta["teq"] = teq.teq
        meta["tail_mean"] = teq.tail_mean
    except NotEquilibratedError as exc:
        meta["teq"] = None
        meta["teq_note"] = str(exc)
    return Dataset(config.kind, rows, meta)


def _run_mi_dynamics(config: ExperimentConfig) -> Dataset:
    start = _mi_start(config.center, config.spread1, config.j, config.count, config.seed)
    mi = _mi_series([start], KickParams(config.kappa), config.j, (0, config.steps), config.k)[0]
    rows = np.rec.fromarrays([np.arange(len(mi)), mi], names="step,mi")
    meta = _meta(config, "kappa", "j", "count", "steps", "center", "k", "spread1",
                 spread2=1.0 / config.j)
    try:
        teq = estimate_teq(mi)
        fit = fit_growth_rate(mi, teq.tail_mean)
        meta.update({
            "teq": teq.teq, "equilibrium": teq.tail_mean,
            "growth_slope": fit.slope, "fit_window": [fit.start, fit.stop],
        })
    except (NotEquilibratedError, WindowTooShortError, ValueError) as exc:
        meta["fit_note"] = str(exc)
    return Dataset(config.kind, rows, meta)


def _run_teq_scaling(config: ExperimentConfig) -> Dataset:
    js = [float(j) for j in config.j_list]
    if len(set(js)) < 2:
        # a line through one distinct point is undetermined; polyfit would warn
        raise ValueError(f"teq-scaling needs at least two distinct j values, got {list(config.j_list)}")
    params = KickParams(config.kappa)
    teqs = []
    for index, j in enumerate(js):
        seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
        start = _mi_start(config.center, config.spread1, j, config.count, seed)
        mi = _mi_series([start], params, j, (0, config.steps), config.k)[0]
        teq = estimate_teq(mi).teq
        if teq == 0:
            raise NotEquilibratedError(f"T_eq is 0 at j={j}: that series starts at its "
                                       "equilibrium level, so the log-log fit is undefined")
        teqs.append(teq)
    rows = np.rec.fromarrays([js, teqs], names="j,teq")
    log_j = np.log(js)
    teqs = rows["teq"].astype(np.float64)
    loglog = np.polyfit(log_j, np.log(teqs), 1)
    linlog = np.polyfit(log_j, teqs, 1)
    meta = _meta(config, "kappa", "count", "steps", "center", "k", "spread1", j_list=js,
                 loglog_slope=float(loglog[0]), loglog_r2=_r_squared(log_j, np.log(teqs), loglog),
                 linlog_slope=float(linlog[0]), linlog_r2=_r_squared(log_j, teqs, linlog))
    return Dataset(config.kind, rows, meta)


def _r_squared(x, y, coeffs) -> float:
    residual = y - np.polyval(coeffs, x)
    total = y - np.mean(y)
    denom = float(total @ total)
    if denom == 0.0:
        return 1.0
    return float(1.0 - (residual @ residual) / denom)


def _run_map(config: ExperimentConfig) -> Dataset:
    result = equilibrium_map(config)
    if len(result.failures) == result.values.size:
        # Counter keeps first-seen order among equal counts: ties go to the
        # reason of the lowest cell
        reason, cells = Counter(reason for _, reason in result.failures).most_common(1)[0]
        raise ValueError(
            f"all {result.values.size} cells of the {config.kind} failed; {cells} with: {reason}"
        )
    n_theta, n_phi = result.values.shape
    rows = np.rec.fromarrays([np.arange(result.values.size), np.repeat(result.theta_centers, n_phi),
                              np.tile(result.phi_centers, n_theta), result.values.ravel()],
                             names="cell,theta,phi,value")
    # an entropy-map cell is one coherent state: it takes no count, and records 1
    meta = _meta(config, "kappa", "j", "grid", "window", "k", "spread1", count=config.count or 1,
                 spread2=None if config.kind == "entropy-map" else 1.0 / config.j,
                 failed_cells=[{"cell": c, "reason": reason} for c, reason in result.failures])
    return Dataset(config.kind, rows, meta)


def _run_vn_vs_linear(config: ExperimentConfig) -> Dataset:
    # closed-form comparison of the two single-spin entropy measures
    blochs = np.zeros((101, 3))
    blochs[:, 2] = np.linspace(0.0, 1.0, 101)
    rows = np.rec.fromrecords(
        [(r[2], linear_entropy(r), von_neumann_entropy_single_spin(r)) for r in blochs],
        names="bloch_norm,s_linear,s_vn")
    return Dataset(config.kind, rows, _meta(config))


def _run_mi_selftest(config: ExperimentConfig) -> Dataset:
    rng = np.random.default_rng(config.seed)
    cases = []
    for rho in (0.0, 0.3, 0.6, 0.9):
        cov = [[1.0, rho], [rho, 1.0]]
        samples = rng.multivariate_normal([0.0, 0.0], cov, size=config.count)
        expected = -0.5 * np.log(1.0 - rho * rho)
        for k in (config.k, 10):
            est = ksg_mi(samples, k=k)
            cases.append((f"gauss_rho_{rho}", rho, est.n, k, float(est.value), float(expected)))
    rows = np.rec.fromrecords(cases, names="case,rho,n,k,estimate,expected")
    return Dataset(config.kind, rows, _meta(config, "count", "k"))


EXPERIMENT_KINDS = {
    "phase-portrait": _run_phase_portrait,
    "lyapunov": _run_lyapunov,
    "entropy-dynamics": _run_entropy_dynamics,
    "mi-dynamics": _run_mi_dynamics,
    "teq-scaling": _run_teq_scaling,
    "entropy-map": _run_map,
    "thermo-map": _run_map,
    "mi-map": _run_map,
    "vn-vs-linear": _run_vn_vs_linear,
    "mi-selftest": _run_mi_selftest,
}

_REQUIRED = object()  # a field the kind cannot run without

# the fields each kind reads, each required or with its default for when
# it is unset (None), which a callable computes from the config.  center,
# k, spread1 and seed are never unset; their defaults here are
# ExperimentConfig's.  A field not in its kind's row must keep that default.
_MI = {"k": 3, "spread1": SPREAD_SINGLE_SPIN, "seed": 0}
_MAP = {"kappa": _REQUIRED, "j": 100, "grid": (32, 32), "count": 200, "window": (400, 500)}
_DEFAULTS = {
    # explicit initials replace the grid
    "phase-portrait": {"kappa": _REQUIRED, "steps": 200, "initials": None,
                       "grid": lambda config: (20, 20) if config.initials is None else None},
    "lyapunov": {"kappa": _REQUIRED, "center": DEFAULT_CENTER, "n_blocks": 1000,
                 "steps_per_block": 10},
    "entropy-dynamics": {"kappa": _REQUIRED, "j": 20, "steps": 100, "center": DEFAULT_CENTER},
    "mi-dynamics": {"kappa": _REQUIRED, "j": 100, "count": 1000, "steps": 100,
                    "center": DEFAULT_CENTER, **_MI},
    "teq-scaling": {"kappa": _REQUIRED, "j_list": _REQUIRED, "count": 500, "steps": 500,
                    "center": DEFAULT_CENTER, **_MI},
    # weak kicking grows entropy logarithmically, so it gets a late window
    "entropy-map": {"kappa": _REQUIRED, "j": 20, "grid": (32, 32),
                    "window": lambda config: (20, 40) if config.kappa >= 1.5 else (60, 100)},
    "thermo-map": {**_MAP, "seed": 0},
    "mi-map": {**_MAP, **_MI},
    "vn-vs-linear": {},
    "mi-selftest": {"count": 5000, "k": 3, "seed": 0},
}


def _resolved(config: ExperimentConfig) -> ExperimentConfig:
    """`config` with its kind's defaults filled in; ValueError if a required field is unset."""
    unset = {}
    for name, default in _DEFAULTS[config.kind].items():
        if getattr(config, name) is None:
            if default is _REQUIRED:
                raise ValueError(f"{config.kind} requires {name}")
            unset[name] = default(config) if callable(default) else default
    return replace(config, **unset)


def run_experiment(config: ExperimentConfig) -> Dataset:
    """Resolve a config's defaults and run it; see EXPERIMENT_KINDS for the names."""
    return EXPERIMENT_KINDS[config.kind](_resolved(config))
