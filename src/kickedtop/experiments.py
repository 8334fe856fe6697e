"""Experiment runners: named, reproducible computations with CSV output.

run_experiment fills an ExperimentConfig's unset fields from its kind's
row of _DEFAULTS; the kind's runner then turns it into a Dataset (fixed
column schema plus a metadata dictionary).  The Dataset writes a CSV file
and a .meta.json sidecar capturing every parameter, the seed, the package
version, and the unit conventions, so a rerun of the same config is
byte-identical.

Analysis helpers shared by the runners live here as well: the
equilibration-time estimator, the growth-rate fit, and the phase-space
equilibrium maps.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .bipartite import CapDistribution, _cap_vectors, pair_x_steps, sample_pairs
from .classical import (
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


_MAP_KINDS = ("entropy-map", "thermo-map", "mi-map")


def _map_values(config: ExperimentConfig, cells):
    """Values of the listed grid cells of one map, and (cell, reason) failures.

    `config` must be resolved (see _resolved), so its grid and window are
    set and checked.  Every cell gets its own start: a coherent state, or an
    ensemble drawn from the child stream keyed by its index.  The started
    cells then go through their kind's series function together, and each
    value is the mean of its cell's window.  A failed cell keeps NaN; one
    `ksg_mi` call serves every started cell, so its ValueError fails them
    all.  The Floquet unitary is built only when some cell started, so a
    bad j fails every cell alike.
    """
    kind, j = config.kind, config.j
    if kind not in _MAP_KINDS:
        raise ValueError(f"kind must be one of {_MAP_KINDS}, got {kind!r}")
    n_theta, n_phi = config.grid
    thetas, phis = grid_centers(n_theta, n_phi)
    started, starts, failures = [], [], []
    for row, cell in enumerate(cells):
        if not 0 <= cell < n_theta * n_phi:
            raise IndexError(f"cell_index {cell} out of range for {n_theta}x{n_phi}")
        center = (float(thetas[cell // n_phi]), float(phis[cell % n_phi]))
        cell_seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(cell,))
        try:
            if kind == "entropy-map":
                start = coherent_state(j, *center)
            elif kind == "thermo-map":
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
        return values, failures
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
            return values, failures + [(cells[row], str(exc)) for row in started]
    for row, series in zip(started, windows):
        values[row] = float(np.mean(series))
    return values, failures


def map_cell_value(config: ExperimentConfig, cell_index: int) -> float:
    """Evaluate one grid cell of the map `config` describes.

    Unset fields take the kind's defaults, as in run_experiment.  Cells
    are independent: each draws from its own child stream keyed by
    cell_index, so evaluating any subset in any order (or in parallel)
    reproduces the full map's values.  This runs the full map's kernel on
    a one-cell list; a failed cell raises ValueError with its recorded reason.
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
    """
    config = _resolved(config)
    n_theta, n_phi = config.grid
    thetas, phis = grid_centers(n_theta, n_phi)
    values, failures = _map_values(config, range(n_theta * n_phi))
    return EquilibriumMap(
        kind=config.kind, theta_centers=thetas, phi_centers=phis,
        values=values.reshape(n_theta, n_phi), window=config.window,
        failures=sorted(failures),
    )


# --------------------------------------------------------------------------
# configuration and dispatch


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run.

    run_experiment resolves unset (None) fields to their kind's _DEFAULTS
    before the runner sees them; the metadata records the resolved values.
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
        for name in ("center", "k", "spread1", "seed"):
            if getattr(self, name) is None:  # fields with a set default; a JSON null reaches them
                raise ValueError(f"{name} must not be null")
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
            raise ValueError(f"kappa must be >= 0, got {float(self.kappa)}")
        for j in (self.j,) + (self.j_list or ()):
            if j is not None and j <= 0:
                raise ValueError(f"j must be positive, got {float(j)}")
        theta, phi = self.center
        if not 0.0 <= float(theta) <= np.pi:
            raise ValueError(f"center theta must be in [0, pi], got {float(theta)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("count", "steps", "n_blocks", "steps_per_block"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
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


def _pair(name: str, value, check) -> tuple:
    """`value` as a tuple of two items passing `check`; ValueError otherwise."""
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(check, value)):
        what = "integers" if check is _is_int else "finite numbers"
        raise ValueError(f"{name} must be a pair of {what}, got {value!r}")
    return tuple(value)


# rows rendered per write call: for a portrait, 1024 row tuples (about
# 0.23 MB) and their text (about 0.11 MB), at most about 0.5 MB while the
# text is joined, so a chunk stays small next to the 56 B-a-row records
_WRITE_CHUNK_ROWS = 1024

# characters that make csv.writer quote a field under QUOTE_MINIMAL
_CSV_SPECIALS = ',"\r\n'


@dataclass(eq=False)
class Dataset:
    """Tabular result of a run plus everything needed to reproduce it.

    Row contract: each row is a tuple with one field per column (at least
    two columns), and each field is a native int, float or bool, or a str
    free of the CSV specials `,`, `"`, CR and LF.  The CSV then holds
    exactly what csv.writer(lineterminator="\n") would write: str() of
    each field, unquoted.  A row that would need quoting is refused.

    `rows` is a list of such tuples, or a 1-d structured array of int and
    float fields, one per column (phase-portrait); write turns the array
    into row tuples one chunk at a time (`_as_tuples`), so a long array
    never exists as Python objects all at once.  Datasets compare by
    identity: `==` on array rows would be ambiguous.
    """

    kind: str
    columns: tuple
    rows: list | np.ndarray
    meta: dict

    def write(self, outdir) -> tuple:
        """Write <kind>.csv and <kind>.meta.json under `outdir`; returns paths.

        ValueError, and no file left behind, if a row would need CSV quoting
        or the meta holds a NaN or an infinity (not valid JSON).
        """
        meta_text = json.dumps(self.meta, allow_nan=False, indent=2, sort_keys=True,
                               default=_json_safe)
        if len(self.columns) < 2:
            # csv.writer quotes a lone empty field, which the checks below cannot see
            raise ValueError(f"a dataset needs at least two columns, got {self.columns!r}")
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / f"{self.kind}.csv"
        meta_path = outdir / f"{self.kind}.meta.json"
        line = ",".join(["%s"] * len(self.columns)) + "\n"
        try:
            with open(csv_path, "w", newline="") as handle:
                handle.write(_csv_text(line, [tuple(self.columns)]))
                for start in range(0, len(self.rows), _WRITE_CHUNK_ROWS):
                    chunk = _as_tuples(self.rows[start:start + _WRITE_CHUNK_ROWS])
                    handle.write(_csv_text(line, chunk))
        except BaseException:
            csv_path.unlink(missing_ok=True)
            raise
        meta_path.write_text(meta_text + "\n")
        return csv_path, meta_path


def _as_tuples(rows) -> list:
    """Dataset rows as row tuples: `.tolist()` of an array (native ints and floats), a list as is."""
    return rows.tolist() if isinstance(rows, np.ndarray) else rows


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
    records = phase_portrait(initials, KickParams(config.kappa), config.steps)
    meta = _meta(config, "kappa", "steps", initials=initials.tolist(),
                 note="grid defaults reconstruct the portrait; initials override it")
    return Dataset(config.kind, records.dtype.names, records, meta)


def _run_lyapunov(config: ExperimentConfig) -> Dataset:
    estimate = benettin_lyapunov(SphericalPoint(*config.center), KickParams(config.kappa),
                                 config.n_blocks, config.steps_per_block)
    rows = list(enumerate(estimate.block_series.tolist(), start=1))
    meta = _meta(config, "kappa", "center", "n_blocks", "steps_per_block",
                 **{"lambda": estimate.lam})
    return Dataset(config.kind, ("block", "lambda_running"), rows, meta)


def _run_entropy_dynamics(config: ExperimentConfig) -> Dataset:
    state = coherent_state(config.j, *config.center)
    bloch = evolve_expectations(state, floquet_unitary(config.j, config.kappa), config.steps)
    rows = [
        (step, *r.tolist(), linear_entropy(r), von_neumann_entropy_single_spin(r))
        for step, r in enumerate(bloch)
    ]
    s_lin = np.array([row[4] for row in rows])
    meta = _meta(config, "kappa", "j", "steps", "center")
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
    start = _mi_start(config.center, config.spread1, config.j, config.count, config.seed)
    mi = _mi_series([start], KickParams(config.kappa), config.j, (0, config.steps), config.k)[0]
    rows = list(enumerate(mi.tolist()))
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
    return Dataset(config.kind, ("step", "mi"), rows, meta)


def _run_teq_scaling(config: ExperimentConfig) -> Dataset:
    js = [float(j) for j in config.j_list]
    if len(set(js)) < 2:
        # a line through one distinct point is undetermined; polyfit would warn
        raise ValueError(f"teq-scaling needs at least two distinct j values, got {list(config.j_list)}")
    params = KickParams(config.kappa)
    rows = []
    for index, j in enumerate(js):
        seed = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
        start = _mi_start(config.center, config.spread1, j, config.count, seed)
        mi = _mi_series([start], params, j, (0, config.steps), config.k)[0]
        teq = estimate_teq(mi).teq
        if teq == 0:
            raise NotEquilibratedError(f"T_eq is 0 at j={j}: that series starts at its "
                                       "equilibrium level, so the log-log fit is undefined")
        rows.append((j, teq))
    log_j = np.log(js)
    teqs = np.array([teq for _, teq in rows], dtype=np.float64)
    loglog = np.polyfit(log_j, np.log(teqs), 1)
    linlog = np.polyfit(log_j, teqs, 1)
    meta = _meta(config, "kappa", "count", "steps", "center", "k", "spread1", j_list=js,
                 loglog_slope=float(loglog[0]), loglog_r2=_r_squared(log_j, np.log(teqs), loglog),
                 linlog_slope=float(linlog[0]), linlog_r2=_r_squared(log_j, teqs, linlog))
    return Dataset(config.kind, ("j", "teq"), rows, meta)


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
    thetas = result.theta_centers.tolist()
    phis = result.phi_centers.tolist()
    n_phi = config.grid[1]
    rows = [
        (cell_index, thetas[cell_index // n_phi], phis[cell_index % n_phi], value)
        for cell_index, value in enumerate(result.values.ravel().tolist())
    ]
    meta = _meta(config, "kappa", "j", "grid", "count", "window", "k", "spread1",
                 spread2=None if config.kind == "entropy-map" else 1.0 / config.j,
                 failed_cells=[{"cell": c, "reason": reason} for c, reason in result.failures])
    return Dataset(config.kind, ("cell", "theta", "phi", "value"), rows, meta)


def _run_vn_vs_linear(config: ExperimentConfig) -> Dataset:
    # closed-form comparison of the two single-spin entropy measures
    rows = []
    for r in np.linspace(0.0, 1.0, 101).tolist():
        bloch = np.array([0.0, 0.0, r])
        rows.append((r, linear_entropy(bloch), von_neumann_entropy_single_spin(bloch)))
    return Dataset(config.kind, ("bloch_norm", "s_linear", "s_vn"), rows, _meta(config))


def _run_mi_selftest(config: ExperimentConfig) -> Dataset:
    rng = np.random.default_rng(config.seed)
    rows = []
    for rho in (0.0, 0.3, 0.6, 0.9):
        cov = [[1.0, rho], [rho, 1.0]]
        samples = rng.multivariate_normal([0.0, 0.0], cov, size=config.count)
        expected = -0.5 * np.log(1.0 - rho * rho)
        for k in (config.k, 10):
            est = ksg_mi(samples, k=k)
            rows.append((f"gauss_rho_{rho}", rho, est.n, k, float(est.value), float(expected)))
    meta = _meta(config, "count", "k")
    return Dataset(config.kind, ("case", "rho", "n", "k", "estimate", "expected"), rows, meta)


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

# each kind's defaults for its unset (None) fields; a field a kind does
# not list is used as the config holds it.  entropy-map's window depends
# on kappa and its count is always 1 (see _resolved).
_MAP_DEFAULTS = {"kappa": _REQUIRED, "j": 100, "grid": (32, 32), "count": 200,
                 "window": (400, 500)}
_DEFAULTS = {
    "phase-portrait": {"kappa": _REQUIRED, "steps": 200, "grid": (20, 20)},
    "lyapunov": {"kappa": _REQUIRED, "n_blocks": 1000, "steps_per_block": 10},
    "entropy-dynamics": {"kappa": _REQUIRED, "j": 20, "steps": 100},
    "mi-dynamics": {"kappa": _REQUIRED, "j": 100, "count": 1000, "steps": 100},
    "teq-scaling": {"kappa": _REQUIRED, "j_list": _REQUIRED, "count": 500, "steps": 500},
    "entropy-map": {"kappa": _REQUIRED, "j": 20, "grid": (32, 32)},
    "thermo-map": _MAP_DEFAULTS,
    "mi-map": _MAP_DEFAULTS,
    "vn-vs-linear": {},
    "mi-selftest": {"count": 5000},
}


def _resolved(config: ExperimentConfig) -> ExperimentConfig:
    """`config` with its kind's defaults filled in; ValueError if a required field is unset."""
    unset = {}
    for name, default in _DEFAULTS[config.kind].items():
        if getattr(config, name) is None:
            if default is _REQUIRED:
                raise ValueError(f"{config.kind} requires {name}")
            unset[name] = default
    config = replace(config, **unset)
    if config.kind == "entropy-map":
        # one coherent state per cell; weak kicking grows entropy
        # logarithmically, so it gets a late window
        late = (20, 40) if config.kappa >= 1.5 else (60, 100)
        config = replace(config, count=1, window=config.window or late)
    return config


def run_experiment(config: ExperimentConfig) -> Dataset:
    """Resolve a config's defaults and run it; see EXPERIMENT_KINDS for the names."""
    return EXPERIMENT_KINDS[config.kind](_resolved(config))
