"""Tests for ExperimentConfig, each kind's defaults, and their resolution."""

import pytest

from kickedtop import EXPERIMENT_KINDS, ExperimentConfig, run_experiment
from kickedtop.config import _DEFAULTS, _REQUIRED, _resolved

from helpers import SMALL_CONFIGS

# a valid value for every config field, none of them its declared default
VALID = {
    "kappa": 2.5, "j": 4, "j_list": (4, 8), "center": (1.0, 2.0), "initials": ((1.0, 2.0),),
    "grid": (2, 1), "count": 20, "steps": 5, "k": 4, "window": (1, 3), "n_blocks": 5,
    "steps_per_block": 2, "spread1": 0.1, "seed": 1,
}

# every (kind, field) pair the kind does not take
NOT_TAKEN = [(kind, name) for kind, row in _DEFAULTS.items()
             for name in ExperimentConfig.__dataclass_fields__ if name not in {"kind", *row}]

# every field a kind cannot run without
REQUIRED_FIELDS = [
    (kind, "kappa") for kind in (
        "phase-portrait", "lyapunov", "entropy-dynamics", "mi-dynamics", "teq-scaling",
        "entropy-map", "thermo-map", "mi-map",
    )
] + [("teq-scaling", "j_list")]


class TestExperimentConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="spectral-form-factor")

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="lyapunov", kappa=1.0, center=(4.0, 0.0))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="entropy-map", kappa=1.0, window=(40, 20))

    @pytest.mark.parametrize("field, value", [
        ("kappa", "x"), ("kappa", True), ("kappa", float("nan")), ("j", "100"),
        ("count", 2.5), ("steps", "5"), ("n_blocks", 1.0), ("steps_per_block", 2.5),
        ("seed", "a"), ("k", 3.0), ("grid", "ab"), ("grid", (2, 2.5)), ("window", (1, 2, 3)),
        ("center", 3), ("j_list", ()), ("j_list", (25, "a")), ("initials", ()),
        ("initials", ((0.3,),)),
        ("seed", None), ("k", None), ("center", None), ("spread1", None),
    ])
    def test_rejects_wrongly_typed_fields(self, field, value):
        # on a kind that takes the field, so the type check speaks, not the refusal
        kind = next(kind for kind, row in _DEFAULTS.items() if field in row and "kappa" in row)
        with pytest.raises(ValueError, match=f"^{field} must "):
            ExperimentConfig(kind=kind, **{"kappa": 2.5, field: value})

    @pytest.mark.parametrize("kind, field", NOT_TAKEN)
    def test_refuses_a_field_its_kind_does_not_take(self, kind, field):
        # the value is valid, and only the declared default passes
        with pytest.raises(ValueError, match=f"^{kind} does not take {field}$"):
            ExperimentConfig(kind=kind, **{field: VALID[field]})
        ExperimentConfig(kind=kind, **{field: ExperimentConfig.__dataclass_fields__[field].default})

    def test_row_defaults_of_set_fields_are_the_declared_ones(self):
        # center, k, spread1 and seed are never unset, so a row's default for
        # them documents ExperimentConfig's rather than replacing it
        for row in _DEFAULTS.values():
            for name, default in row.items():
                declared = ExperimentConfig.__dataclass_fields__[name].default
                if declared is not None:
                    assert default == declared, name

    @pytest.mark.parametrize("kind", sorted(EXPERIMENT_KINDS))
    def test_a_resolved_config_resolves_to_itself(self, kind):
        # a map run resolves its config twice (run_experiment, equilibrium_map)
        once = _resolved(ExperimentConfig(kind=kind, **SMALL_CONFIGS[kind]))
        assert _resolved(once) == once

    def test_portrait_refuses_grid_with_initials(self):
        # initials used to override the grid silently
        with pytest.raises(ValueError, match="^phase-portrait takes grid or initials, not both$"):
            ExperimentConfig(kind="phase-portrait", kappa=2.5, grid=(2, 2), initials=((0.3, 0.4),))
        resolved = _resolved(ExperimentConfig(kind="phase-portrait", kappa=2.5,
                                              initials=((0.3, 0.4),)))
        assert resolved.grid is None

    def test_lists_become_tuples_and_keep_their_numbers(self):
        ensemble = ExperimentConfig(kind="teq-scaling", kappa=2, center=[1, 2],
                                    j_list=[25, 50.0])
        assert ensemble.center == (1, 2) and type(ensemble.center[0]) is int
        assert ensemble.j_list == (25, 50.0)
        grid = ExperimentConfig(kind="entropy-map", kappa=2, grid=[2, 3], window=[0, 4])
        assert (grid.grid, grid.window) == ((2, 3), (0, 4))
        portrait = ExperimentConfig(kind="phase-portrait", kappa=2, initials=[[0.3, 0.4]])
        assert portrait.initials == ((0.3, 0.4),)

    def test_rejects_negative_kappa_and_nonpositive_j(self):
        with pytest.raises(ValueError, match="kappa"):
            ExperimentConfig(kind="mi-map", kappa=-1.0)
        with pytest.raises(ValueError, match="j must be positive"):
            ExperimentConfig(kind="mi-map", kappa=1.0, j=0)
        with pytest.raises(ValueError, match="j must be positive"):
            ExperimentConfig(kind="teq-scaling", kappa=1.0, j_list=(10, -5))

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mi-dynamics", kappa=1.0, count=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="mi-dynamics", kappa=1.0, k=0)

    def test_required_fields_match_the_defaults_table(self):
        assert sorted(REQUIRED_FIELDS) == sorted(
            (kind, name) for kind, defaults in _DEFAULTS.items()
            for name, default in defaults.items() if default is _REQUIRED
        )

    @pytest.mark.parametrize("kind, name", REQUIRED_FIELDS)
    def test_missing_required_field_raises(self, kind, name):
        # kappa is set unless it is the field under test
        settings = {} if name == "kappa" else {"kappa": 2.5}
        with pytest.raises(ValueError, match=f"^{kind} requires {name}$"):
            run_experiment(ExperimentConfig(kind=kind, **settings))
