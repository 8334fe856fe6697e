"""Experiment configuration: the field table, each kind's defaults, and their resolution.

Each ExperimentConfig field declares its default, element type, arity,
least value and flag help once (_spec).  Each kind's row of _DEFAULTS
lists exactly the fields its runner reads, with the default an unset
field takes; the CLI builds each subcommand's flags from that row, and
_resolved fills a config's unset fields from it before a runner sees it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

__all__ = ["ExperimentConfig"]

DEFAULT_CENTER = (3.0 * math.pi / 4.0, 3.0 * math.pi / 4.0)

# subsystem patch sizes (steradians) in the bipartite sampling: the single
# spin-1/2 carries an O(1) angular uncertainty, the rest of the top the
# usual coherent-state spread 1/j
SPREAD_SINGLE_SPIN = 0.25


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
        # _DEFAULTS has a row for every kind of experiments.EXPERIMENT_KINDS
        if self.kind not in _DEFAULTS:
            raise ValueError(f"unknown kind {self.kind!r}; choose from {sorted(_DEFAULTS)}")
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
        if not 0.0 <= float(self.center[0]) <= math.pi:
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
