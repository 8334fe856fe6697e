"""Experiment runners: named, reproducible computations with CSV output.

Each runner takes an ExperimentConfig, resolves per-kind defaults, and
returns a Dataset (fixed column schema plus a metadata dictionary).  The
Dataset writes a CSV file and a .meta.json sidecar capturing every
parameter, the seed, the package version, and the unit conventions, so a
rerun of the same config is byte-identical.

Analysis helpers shared by the runners live here as well: the
equilibration-time estimator, the growth-rate fit, and the phase-space
equilibrium maps.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .bipartite import (  # evolve_ensemble: perfbench's tracer patches it here
    CapDistribution,
    evolve_ensemble,
    pair_x_steps,
    sample_cap,
    sample_pairs,
)
from .classical import (
    KickedTopError,
    KickParams,
    SphericalPoint,
    classical_step,
    phase_portrait,
    spherical_to_cartesian,
)
from .lyapunov import benettin_lyapunov
from .mutual_info import ksg_mi
from .quantum import (
    _BLOCH_NORM_SLACK,
    _bloch_norm_error,
    coherent_state,
    evolve_expectations,
    floquet_unitary,
    linear_entropy,
    von_neumann_entropy_single_spin,
)

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


def estimate_teq(series, tail_frac: float = 0.2, threshold: float = 0.9) -> TeqResult:
    """First step at which `series` reaches `threshold` times its tail mean.

    The tail is the last `tail_frac` of the samples (at least one).  The
    series is expected to grow towards a positive equilibrium; a constant
    positive series equilibrates at step 0.
    """
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("series must be 1d with at least 2 samples")
    if not 0.0 < tail_frac <= 1.0:
        raise ValueError(f"tail_frac must be in (0, 1], got {tail_frac!r}")
    tail = values[-max(1, int(round(tail_frac * values.size))):]
    tail_mean = float(tail.mean())
    if tail_mean <= 0.0:
        raise NotEquilibratedError(f"tail mean {tail_mean!r} is not positive")
    level = threshold * tail_mean
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
        raise ValueError(f"band must satisfy 0 <= lo < hi, got {band!r}")
    if equilibrium <= 0.0:
        raise ValueError(f"equilibrium must be positive, got {equilibrium!r}")
    above_lo = np.nonzero(values >= lo * equilibrium)[0]
    above_hi = np.nonzero(values >= hi * equilibrium)[0]
    if above_lo.size == 0 or above_hi.size == 0:
        raise ValueError(f"series never reaches band {band!r} of equilibrium {equilibrium!r}")
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


def _record(failures, cell, exc: ValueError):
    """Note a cell's failure, or re-raise it when the caller keeps no list."""
    if failures is None:
        raise exc
    failures.append((cell, str(exc)))


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


def _mi_series(starts, cells, params, j, window, k, failures=None):
    """KSG MI (nats) of each bipartite ensemble at steps window[0]..window[1].

    starts holds one (n1, n2) pair of equal-sized ensembles per cell; all
    of them step together as one stacked array, and only the current step
    is held, so memory stays O(cells * count + cells * window).  Each
    window step makes one `ksg_mi` call on the (cells, count, 2) stack; a
    ValueError from it fails every cell, in cell order.  Returns a
    (len(cells), window length) array.
    """
    lo, hi = window
    n1 = np.concatenate([n1 for n1, _ in starts])
    n2 = np.concatenate([n2 for _, n2 in starts])
    values = np.full((len(cells), hi - lo + 1), np.nan)
    steps = pair_x_steps(n1, n2, params, j, hi)
    for col, xs in enumerate(islice(steps, lo, None)):
        try:
            values[:, col] = ksg_mi(xs.T.reshape(len(cells), -1, 2), k=k).value
        except ValueError as exc:
            for cell in cells:
                _record(failures, cell, exc)
            break
    return values


def _thermo_series(starts, cells, params, window, failures=None):
    """Linear entropy of each ensemble's mean vector at steps window[0]..window[1].

    All ensembles step together as one stacked array.  Each window step
    takes every ensemble's mean in one reduction, and its |r|^2 as a
    stacked matmul, whose rows have the bits of np.dot; so row i is
    thermo_limit_entropy(ensemble i).  A row whose mean vector is longer
    than 1 beyond roundoff stays NaN from then on and goes to `failures`.
    Returns a (len(cells), window length) array.
    """
    lo, hi = window
    values = np.full((len(cells), hi - lo + 1), np.nan)
    live = np.ones(len(cells), dtype=bool)
    steps = _top_steps(np.concatenate(starts), params, hi)
    for col, states in enumerate(islice(steps, lo, None)):
        mean = states.reshape(len(cells), -1, 3).mean(axis=1)
        r2 = (mean[:, np.newaxis, :] @ mean[:, :, np.newaxis])[:, 0, 0]
        for row in np.flatnonzero(live & (r2 > 1.0 + _BLOCH_NORM_SLACK)):
            _record(failures, cells[row], _bloch_norm_error(np.sqrt(r2[row])))
            live[row] = False
        values[live, col] = np.maximum(0.5 * (1.0 - r2[live]), 0.0)
    return values


_MAP_KINDS = ("entropy-map", "thermo-map", "mi-map")


def _map_values(kind, cells, *, kappa, j, grid, count, window, spread1, k, seed,
                failures=None):
    """Values of the listed grid cells of one map, computed in one pass.

    The map-wide set-up (kind, window, kick strength, Floquet unitary) is
    checked and built once.  Every cell then gets its own start: a coherent
    state, or an ensemble drawn from the child stream keyed by its index.
    Ensembles of all cells step together as one stacked array.  A cell
    that raises ValueError keeps NaN and goes to `failures`.
    """
    if kind not in _MAP_KINDS:
        raise ValueError(f"kind must be one of {_MAP_KINDS}, got {kind!r}")
    lo, hi = int(window[0]), int(window[1])
    if not 0 <= lo < hi:
        raise ValueError(f"window must satisfy 0 <= lo < hi, got {window!r}")
    params = KickParams(kappa)
    n_theta, n_phi = grid
    thetas, phis = grid_centers(n_theta, n_phi)
    for cell in cells:
        if not 0 <= cell < n_theta * n_phi:
            raise IndexError(f"cell_index {cell} out of range for {n_theta}x{n_phi}")
    centers = [(float(thetas[cell // n_phi]), float(phis[cell % n_phi])) for cell in cells]
    values = np.full(len(cells), np.nan)
    if kind == "entropy-map":
        unitary = None  # built at the first valid state, so a bad j fails per cell
        for row, cell in enumerate(cells):
            try:
                state = coherent_state(j, *centers[row])
                if unitary is None:
                    unitary = floquet_unitary(j, kappa)
                bloch = evolve_expectations(state, unitary, hi)
            except ValueError as exc:
                _record(failures, cell, exc)
                continue
            s_lin = np.maximum(0.5 * (1.0 - np.einsum("ij,ij->i", bloch, bloch)), 0.0)
            values[row] = float(np.mean(s_lin[lo : hi + 1]))
        return values
    rows, starts = [], []
    for row, cell in enumerate(cells):
        cell_seed = np.random.SeedSequence(entropy=seed, spawn_key=(cell,))
        try:
            if kind == "thermo-map":
                cap = CapDistribution(center=SphericalPoint(*centers[row]), solid_angle=1.0 / j)
                start = spherical_to_cartesian(sample_cap(cap, count, cell_seed))
            else:
                start = _mi_start(centers[row], spread1, j, count, cell_seed)
        except ValueError as exc:
            _record(failures, cell, exc)
            continue
        rows.append(row)
        starts.append(start)
    if not starts:
        return values
    started = [cells[row] for row in rows]
    if kind == "thermo-map":
        windows = _thermo_series(starts, started, params, (lo, hi), failures)
    else:
        windows = _mi_series(starts, started, params, j, (lo, hi), k, failures)
    for row, series in zip(rows, windows):
        values[row] = float(np.mean(series))
    return values


def map_cell_value(kind: str, cell_index: int, *, kappa, j, grid, count, window,
                   spread1=SPREAD_SINGLE_SPIN, k=3, seed=0) -> float:
    """Evaluate one grid cell of an equilibrium map.

    Cells are independent: each draws from its own child stream keyed by
    cell_index, so evaluating any subset in any order (or in parallel)
    reproduces the full map's values.  This runs the full map's kernel on
    a one-cell list; a cell failure raises its ValueError.
    """
    values = _map_values(
        kind, [cell_index], kappa=kappa, j=j, grid=grid, count=count, window=window,
        spread1=spread1, k=k, seed=seed,
    )
    return float(values[0])


def equilibrium_map(kind: str, *, kappa, j, grid, count, window,
                    spread1=SPREAD_SINGLE_SPIN, k=3, seed=0) -> EquilibriumMap:
    """Late-time observable over the full grid; cell failures do not abort.

    A cell whose patch overlaps a pole (or any other per-cell ValueError)
    is recorded in `failures`, in cell order, and left as NaN.  Map-wide
    parameters (kind, window, kappa) are checked once and raise.
    """
    n_theta, n_phi = grid
    thetas, phis = grid_centers(n_theta, n_phi)
    failures = []
    values = _map_values(
        kind, range(n_theta * n_phi), kappa=kappa, j=j, grid=grid, count=count,
        window=window, spread1=spread1, k=k, seed=seed, failures=failures,
    )
    return EquilibriumMap(
        kind=kind, theta_centers=thetas, phi_centers=phis,
        values=values.reshape(n_theta, n_phi), window=(int(window[0]), int(window[1])),
        failures=sorted(failures),
    )


# --------------------------------------------------------------------------
# configuration and dispatch


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.

    Unset (None) fields are resolved to per-kind defaults by the runner;
    the resolved values are recorded in the output metadata.
    """

    kind: str
    kappa: float | None = None
    j: float | None = None
    j_list: tuple | None = None
    center: tuple = DEFAULT_CENTER
    initials: tuple | None = None
    grid: tuple | None = None
    count: int | None = None
    steps: int | None = None
    k: int = 3
    window: tuple | None = None
    n_blocks: int | None = None
    steps_per_block: int | None = None
    spread1: float = SPREAD_SINGLE_SPIN
    seed: int = 0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown kind {self.kind!r}; choose from {sorted(EXPERIMENT_KINDS)}"
            )
        for name in ("kappa", "j", "spread1"):
            value = getattr(self, name)
            if value is not None and not _is_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("count", "steps", "k", "n_blocks", "steps_per_block", "seed"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, check in (("center", _is_real), ("grid", _is_int), ("window", _is_int)):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, _pair(name, value, check))
        if self.j_list is not None:
            if not isinstance(self.j_list, (list, tuple)) or not self.j_list or not all(
                _is_real(j) for j in self.j_list
            ):
                raise ValueError(f"j_list must be a non-empty list of finite numbers, got {self.j_list!r}")
            self.j_list = tuple(self.j_list)
        if self.initials is not None:
            if not isinstance(self.initials, (list, tuple)):
                raise ValueError(f"initials must be a list of pairs, got {self.initials!r}")
            self.initials = tuple(_pair("initials", point, _is_real) for point in self.initials)
        if self.kappa is not None and self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa!r}")
        for j in (self.j,) + (self.j_list or ()):
            if j is not None and j <= 0:
                raise ValueError(f"j must be positive, got {j!r}")
        theta, phi = self.center
        if not 0.0 <= float(theta) <= np.pi:
            raise ValueError(f"center theta must be in [0, pi], got {theta!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("count", "steps", "n_blocks", "steps_per_block"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.window is not None:
            lo, hi = self.window
            if not 0 <= lo < hi:
                raise ValueError(f"window must satisfy 0 <= lo < hi, got {self.window!r}")
        if self.grid is not None:
            n_theta, n_phi = self.grid
            if n_theta < 1 or n_phi < 1:
                raise ValueError(f"grid must be positive, got {self.grid!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # JSON booleans are ints to Python; a config never means them as numbers
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _pair(name: str, value, check) -> tuple:
    """`value` as a tuple of two items passing `check`; ValueError otherwise."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(check, value)):
        what = "integers" if check is _is_int else "finite numbers"
        raise ValueError(f"{name} must be a pair of {what}, got {value!r}")
    return tuple(value)


@dataclass
class Dataset:
    """Tabular result of a run plus everything needed to reproduce it."""

    kind: str
    columns: tuple
    rows: list
    meta: dict

    def write(self, outdir) -> tuple:
        """Write <kind>.csv and <kind>.meta.json under `outdir`; returns paths."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / f"{self.kind}.csv"
        meta_path = outdir / f"{self.kind}.meta.json"
        with open(csv_path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        with open(meta_path, "w") as handle:
            json.dump(self.meta, handle, indent=2, sort_keys=True, default=_json_safe)
            handle.write("\n")
        return csv_path, meta_path


def _json_safe(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value)!r}")


def _base_meta(kind: str, resolved: dict) -> dict:
    from . import __version__

    meta = {"kind": kind, "version": __version__, "units": UNIT_CONVENTIONS}
    meta.update(resolved)
    return meta


def _require(config: ExperimentConfig, name: str):
    value = getattr(config, name)
    if value is None:
        raise ValueError(f"{config.kind} requires {name}")
    return value


def _default_entropy_window(kappa: float) -> tuple:
    # weak kicking grows entropy logarithmically; give it a late window
    return (20, 40) if kappa >= 1.5 else (60, 100)


def _run_phase_portrait(config: ExperimentConfig) -> Dataset:
    kappa = _require(config, "kappa")
    steps = config.steps if config.steps is not None else 200
    if config.initials is not None:
        initials = [tuple(map(float, point)) for point in config.initials]
    else:
        grid = config.grid if config.grid is not None else (20, 20)
        thetas, phis = grid_centers(*grid)
        initials = [(float(t), float(p)) for t in thetas for p in phis]
    records = phase_portrait(initials, KickParams(kappa), steps)
    rows = records.tolist()
    meta = _base_meta(config.kind, {
        "kappa": kappa, "steps": steps, "initials": initials, "seed": config.seed,
        "note": "grid defaults reconstruct the portrait; initials override it",
    })
    return Dataset(config.kind, ("traj_id", "step", "theta", "phi", "x", "y", "z"), rows, meta)


def _run_lyapunov(config: ExperimentConfig) -> Dataset:
    kappa = _require(config, "kappa")
    n_blocks = config.n_blocks if config.n_blocks is not None else 1000
    steps_per_block = config.steps_per_block if config.steps_per_block is not None else 10
    estimate = benettin_lyapunov(
        SphericalPoint(*config.center), KickParams(kappa), n_blocks, steps_per_block
    )
    rows = list(enumerate(estimate.block_series.tolist(), start=1))
    meta = _base_meta(config.kind, {
        "kappa": kappa, "center": list(config.center),
        "n_blocks": estimate.n, "steps_per_block": estimate.s,
        "lambda": estimate.lam, "seed": config.seed,
    })
    return Dataset(config.kind, ("block", "lambda_running"), rows, meta)


def _run_entropy_dynamics(config: ExperimentConfig) -> Dataset:
    kappa = _require(config, "kappa")
    j = config.j if config.j is not None else 20
    steps = config.steps if config.steps is not None else 100
    state = coherent_state(j, *config.center)
    bloch = evolve_expectations(state, floquet_unitary(j, kappa), steps)
    rows = [
        (step, *r.tolist(), linear_entropy(r), von_neumann_entropy_single_spin(r))
        for step, r in enumerate(bloch)
    ]
    s_lin = np.array([row[4] for row in rows])
    meta = _base_meta(config.kind, {
        "kappa": kappa, "j": j, "steps": steps, "center": list(config.center),
        "seed": config.seed,
    })
    try:
        teq = estimate_teq(s_lin)
        meta["teq"] = teq.teq
        meta["tail_mean"] = teq.tail_mean
    except NotEquilibratedError as exc:
        meta["teq"] = None
        meta["teq_note"] = str(exc)
    return Dataset(
        config.kind, ("step", "rx", "ry", "rz", "s_linear", "s_vn"), rows, meta
    )


def _run_mi_dynamics(config: ExperimentConfig) -> Dataset:
    kappa = _require(config, "kappa")
    j = config.j if config.j is not None else 100
    count = config.count if config.count is not None else 1000
    steps = config.steps if config.steps is not None else 100
    start = _mi_start(config.center, config.spread1, j, count, config.seed)
    mi = _mi_series([start], [0], KickParams(kappa), j, (0, steps), config.k)[0]
    rows = list(enumerate(mi.tolist()))
    meta = _base_meta(config.kind, {
        "kappa": kappa, "j": j, "count": count, "steps": steps,
        "center": list(config.center), "k": config.k,
        "spread1": config.spread1, "spread2": 1.0 / j, "seed": config.seed,
    })
    try:
        teq = estimate_teq(mi)
        fit = fit_growth_rate(mi, teq.tail_mean)
        meta.update({
            "teq": teq.teq, "equilibrium": teq.tail_mean,
            "growth_slope": fit.slope, "fit_window": [fit.start, fit.stop],
        })
    except (NotEquilibratedError, WindowTooShortError, ValueError) as exc:
        meta["fit_note"] = str(exc)
    return Dataset(config.kind, ("step", "mi"), rows, meta)


def _run_teq_scaling(config: ExperimentConfig) -> Dataset:
    kappa = _require(config, "kappa")
    j_list = _require(config, "j_list")
    if len({float(j) for j in j_list}) < 2:
        # a line through one distinct point is undetermined; polyfit would warn
        raise ValueError(f"teq-scaling needs at least two distinct j values, got {list(j_list)}")
    count = config.count if config.count is not None else 500
    steps = config.steps if config.steps is not None else 500
    params = KickParams(kappa)
    rows = []
    for index, j in enumerate(j_list):
        seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
        start = _mi_start(config.center, config.spread1, float(j), count, seed)
        mi = _mi_series([start], [index], params, float(j), (0, steps), config.k)[0]
        rows.append((float(j), estimate_teq(mi).teq))
    js = np.array([row[0] for row in rows])
    teqs = np.array([row[1] for row in rows], dtype=np.float64)
    loglog = np.polyfit(np.log(js), np.log(teqs), 1)
    linlog = np.polyfit(np.log(js), teqs, 1)
    meta = _base_meta(config.kind, {
        "kappa": kappa, "j_list": [float(j) for j in j_list], "count": count,
        "steps": steps, "center": list(config.center), "k": config.k,
        "spread1": config.spread1, "seed": config.seed,
        "loglog_slope": float(loglog[0]),
        "loglog_r2": _r_squared(np.log(js), np.log(teqs), loglog),
        "linlog_slope": float(linlog[0]),
        "linlog_r2": _r_squared(np.log(js), teqs, linlog),
    })
    return Dataset(config.kind, ("j", "teq"), rows, meta)


def _r_squared(x, y, coeffs) -> float:
    residual = y - np.polyval(coeffs, x)
    total = y - np.mean(y)
    denom = float(total @ total)
    if denom == 0.0:
        return 1.0
    return float(1.0 - (residual @ residual) / denom)


def _run_map(config: ExperimentConfig) -> Dataset:
    kappa = _require(config, "kappa")
    if config.kind == "entropy-map":
        j = config.j if config.j is not None else 20
        window = config.window if config.window is not None else _default_entropy_window(kappa)
        count = 1
    else:
        j = config.j if config.j is not None else 100
        window = config.window if config.window is not None else (400, 500)
        count = config.count if config.count is not None else 200
    grid = config.grid if config.grid is not None else (32, 32)
    result = equilibrium_map(
        config.kind, kappa=kappa, j=j, grid=grid, count=count, window=window,
        spread1=config.spread1, k=config.k, seed=config.seed,
    )
    if len(result.failures) == result.values.size:
        # Counter keeps first-seen order among equal counts: ties go to the
        # reason of the lowest cell
        reason, cells = Counter(reason for _, reason in result.failures).most_common(1)[0]
        raise ValueError(
            f"all {result.values.size} cells of the {config.kind} failed; {cells} with: {reason}"
        )
    thetas = result.theta_centers.tolist()
    phis = result.phi_centers.tolist()
    values = result.values.ravel().tolist()
    rows = [
        (cell_index, thetas[cell_index // grid[1]], phis[cell_index % grid[1]], value)
        for cell_index, value in enumerate(values)
    ]
    meta = _base_meta(config.kind, {
        "kappa": kappa, "j": j, "grid": list(grid), "count": count,
        "window": list(result.window), "k": config.k,
        "spread1": config.spread1,
        "spread2": None if config.kind == "entropy-map" else 1.0 / j,
        "seed": config.seed,
        "failed_cells": [{"cell": c, "reason": reason} for c, reason in result.failures],
    })
    return Dataset(config.kind, ("cell", "theta", "phi", "value"), rows, meta)


def _run_vn_vs_linear(config: ExperimentConfig) -> Dataset:
    # closed-form comparison of the two single-spin entropy measures
    rows = []
    for r in np.linspace(0.0, 1.0, 101).tolist():
        bloch = np.array([0.0, 0.0, r])
        rows.append((r, linear_entropy(bloch), von_neumann_entropy_single_spin(bloch)))
    meta = _base_meta(config.kind, {"seed": config.seed})
    return Dataset(config.kind, ("bloch_norm", "s_linear", "s_vn"), rows, meta)


def _run_mi_selftest(config: ExperimentConfig) -> Dataset:
    count = config.count if config.count is not None else 5000
    rng = np.random.default_rng(config.seed)
    rows = []
    for rho in (0.0, 0.3, 0.6, 0.9):
        cov = [[1.0, rho], [rho, 1.0]]
        samples = rng.multivariate_normal([0.0, 0.0], cov, size=count)
        expected = -0.5 * np.log(1.0 - rho * rho)
        for k in (config.k, 10):
            est = ksg_mi(samples, k=k)
            rows.append((f"gauss_rho_{rho}", rho, est.n, k, float(est.value), float(expected)))
    meta = _base_meta(config.kind, {"count": count, "k": config.k, "seed": config.seed})
    return Dataset(
        config.kind, ("case", "rho", "n", "k", "estimate", "expected"), rows, meta
    )


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
    """Dispatch a config to its runner; see EXPERIMENT_KINDS for the names."""
    return EXPERIMENT_KINDS[config.kind](config)
