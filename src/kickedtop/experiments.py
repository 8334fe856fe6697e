"""Experiment runners: named, reproducible computations with CSV output.

run_experiment fills an ExperimentConfig's unset fields from its kind's
row of _DEFAULTS (module config); the kind's runner then turns it into a
Dataset (module output: a structured array whose field names are the
columns, plus a metadata dictionary).  The Dataset writes a CSV file and
a .meta.json sidecar capturing every parameter, the seed, the package
version, and the unit conventions, so a rerun of the same config is
byte-identical.

Analysis helpers shared by the runners live here as well: the
equilibration-time estimator, the growth-rate fit, and the phase-space
equilibrium maps.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import mutual_info, output
from .bipartite import (
    CapDistribution,
    _cap_vectors,
    _pair_checks,
    _unit_j,
    pair_x_steps,
    sample_pairs,
)
from .classical import (
    PORTRAIT_DTYPE,
    KickedTopError,
    KickParams,
    SphericalPoint,
    classical_step,
    phase_portrait,
)
from .config import ExperimentConfig, _is_int, _resolved
from .lyapunov import benettin_lyapunov
from .mutual_info import ksg_mi
from .output import Dataset, _forked, _worker_count
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
    "run_experiment",
    "EXPERIMENT_KINDS",
]

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
    if not (_is_int(n_theta) and _is_int(n_phi) and n_theta >= 1 and n_phi >= 1):
        raise ValueError(f"grid must be integers of at least 1x1, got {n_theta!r}x{n_phi!r}")
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


def _mi_caps(center, spread1, j):
    """The two caps, (spread1, 1/j) steradians, of the bipartite ensemble around `center`."""
    point = SphericalPoint(*center)
    return [CapDistribution(center=point, solid_angle=spread1),
            CapDistribution(center=point, solid_angle=1.0 / j)]


def _mi_start(center, spread1, j, count, seed, key=()):
    """Initial (n1, n2) of the bipartite ensemble around `center`, drawn under (seed, key)."""
    return sample_pairs(*_mi_caps(center, spread1, j), j, count, seed, key)


def _mi_series(starts, params, j, window, k):
    """KSG MI (nats) of each bipartite ensemble at steps window[0]..window[1].

    starts holds one (n1, n2) pair of equal-sized ensembles per row; all
    of them step together as one stacked array.  Consecutive window steps
    are gathered into one `ksg_mi` call on a (steps * rows, count, 2)
    stack, as many steps as keep it within mutual_info._KNN_CHUNK samples
    (read at call time), at least one; each entry of a stack has the bits
    of a lone call, so the values do not depend on how the steps are
    grouped.  Memory stays O(rows * count + rows * window) plus one stack.
    A `ksg_mi` ValueError propagates with the message a per-step call gives
    (it does not depend on the rows a stack holds; maps check the size per
    cell).  Returns a (len(starts), window length) array.
    """
    lo, hi = window
    rows, count = len(starts), len(starts[0][0])
    n1 = np.concatenate([n1 for n1, _ in starts])
    n2 = np.concatenate([n2 for _, n2 in starts])
    values = np.empty((rows, hi - lo + 1))
    group = max(1, mutual_info._KNN_CHUNK // (rows * count))  # window steps per ksg_mi call
    stack = np.empty((min(group, hi - lo + 1), rows * count, 2))
    steps = pair_x_steps(n1, n2, params, j, hi)
    for col, xs in enumerate(islice(steps, lo, None)):
        stack[col % group] = xs.T
        if col % group == group - 1 or col == hi - lo:
            first = col - col % group
            mi = ksg_mi(stack[:col + 1 - first].reshape(-1, count, 2), k=k).value
            values[:, first:col + 1] = mi.reshape(-1, rows).T
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
    states = np.concatenate(starts)
    for _ in range(lo):
        states = classical_step(states, params)
    for col in range(hi - lo + 1):
        if col:
            states = classical_step(states, params)
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


_MAP_KINDS = ("entropy-map", "thermo-map", "mi-map")


def _map_values(config: ExperimentConfig, cells=None, workers: int = 1):
    """Values of the listed grid cells (default all) of one map, and (cell, reason) failures.

    `config` must be resolved (see _resolved), so its grid and window are
    set and checked.  Every cell gets its own start: a coherent state, or an
    ensemble drawn from the child streams keyed by its index.  The per-cell
    checks (the poles, then j, and for mi-map the ensemble size and ksg_mi's
    k and sample count) run in cell order; then one vectorised draw
    (bipartite._cap_vectors) gives the ensembles of every started cell.
    The started cells go through their kind's series function together,
    and each value is the mean of its cell's window.  A failed cell keeps
    NaN; any other `ksg_mi` ValueError fails the run.  The Floquet unitary
    is built only when some cell started, so a bad j fails every cell alike.

    With `workers` > 1 the cells are dealt out as cells[w::workers], one
    share per process (_forked), and each share runs the pass above on its
    own.  ksg_mi's messages do not depend on which rows a stack holds, so
    the result, or the error, does not depend on `workers`.
    """
    if config.kind not in _MAP_KINDS:
        raise ValueError(f"kind must be one of {_MAP_KINDS}, got {config.kind!r}")
    n_theta, n_phi = config.grid
    cells = range(n_theta * n_phi) if cells is None else cells
    shares = _forked(functools.partial(_map_share, config),
                     [cells[w::workers] for w in range(workers)])
    values, failures = np.full(len(cells), np.nan), []
    for w, (share_values, share_failures) in enumerate(shares):
        values[w::workers] = share_values
        failures += share_failures
    return values, failures


def _map_share(config: ExperimentConfig, cells):
    """One share of a map pass: the (values, failures) of _map_values on `cells`."""
    kind, j = config.kind, config.j
    n_theta, n_phi = config.grid
    thetas, phis = grid_centers(n_theta, n_phi)
    started, starts, caps, failures = [], [], [], []
    for row, cell in enumerate(cells):
        if not _is_int(cell):
            raise ValueError(f"cell_index must be an integer, got {cell!r}")
        if not 0 <= cell < n_theta * n_phi:
            raise IndexError(f"cell_index {cell} out of range for {n_theta}x{n_phi}")
        center = (float(thetas[cell // n_phi]), float(phis[cell % n_phi]))
        try:
            if kind == "entropy-map":
                starts.append(coherent_state(j, *center))
            elif kind == "thermo-map":
                cap = CapDistribution(center=SphericalPoint(*center), solid_angle=1.0 / j)
                _unit_j(j)
                caps.append(((cell,), cap))
            else:
                cap1, cap2 = _mi_caps(center, config.spread1, j)
                _pair_checks(j, config.count)
                mutual_info._ksg_checks(config.count, config.k)
                caps += [((cell, 0), cap1), ((cell, 1), cap2)]
        except ValueError as exc:
            failures.append((cell, str(exc)))
            continue
        started.append(row)
    values = np.full(len(cells), np.nan)
    if not started:
        return values, failures
    if caps:
        # one draw for every started cell, each cap from the streams of its spawn key
        keys, dists = zip(*caps)
        vectors = _cap_vectors(dists, config.count, config.seed, keys)
        starts = list(vectors) if kind == "thermo-map" else list(zip(vectors[::2], vectors[1::2]))
    params = KickParams(config.kappa)
    if kind == "entropy-map":
        windows = _entropy_series(starts, floquet_unitary(j, config.kappa), config.window)
    elif kind == "thermo-map":
        windows, failed = _thermo_series(starts, params, config.window)
        failures += [(cells[started[row]], reason) for row, reason in failed]
    else:
        windows = _mi_series(starts, params, j, config.window, config.k)
    for row, series in zip(started, windows):
        values[row] = float(np.mean(series))
    return values, failures


def map_cell_value(config: ExperimentConfig, cell_index: int) -> float:
    """Evaluate one grid cell of the map `config` describes.

    Unset fields take the kind's defaults, as in run_experiment.  Cells
    are independent: each draws from its own child stream keyed by
    cell_index, so evaluating any subset in any order (or in parallel)
    reproduces the full map's values; equilibrium_map relies on this when
    it splits a thermo-map or mi-map over worker processes.  This runs the
    full map's kernel on a one-cell list, in this process; a failed cell
    raises ValueError with its recorded reason.  A cell_index that is a
    bool or not an integer raises ValueError, one out of range IndexError.
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
    is not a map kind, or any other `ksg_mi` error, raises.

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
# the runners


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


class _PortraitRows:
    """The records of phase_portrait(initials, params, steps), one group of trajectories at a time.

    A Dataset row source: len() is the row count, and a contiguous slice
    gives those rows as a PORTRAIT_DTYPE array.  A group is as many
    consecutive trajectories as fit in one write chunk of rows
    (output._WRITE_CHUNK_ROWS, read at call time), at least one, so the records held are at most a
    chunk's, or one trajectory's if that is longer.  It is one
    phase_portrait call on its starts, with traj_id offset by its first
    trajectory.  Each trajectory steps alone and the angle ufuncs work
    element by element, so the rows have the bits of one call over all
    starts, whatever the group size.  Only the current group is held.
    Group 0 is computed here, so an allocation numpy refuses fails before
    anything is written.
    """

    dtype = PORTRAIT_DTYPE

    def __init__(self, initials: np.ndarray, params: KickParams, steps: int):
        self.initials, self.params, self.steps = initials, params, steps
        self.group = max(1, output._WRITE_CHUNK_ROWS // (steps + 1))
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
        start = _mi_start(config.center, config.spread1, j, config.count, config.seed, (index,))
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


def run_experiment(config: ExperimentConfig) -> Dataset:
    """Resolve a config's defaults and run it; see EXPERIMENT_KINDS for the names."""
    return EXPERIMENT_KINDS[config.kind](_resolved(config))
