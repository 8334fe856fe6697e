"""Source hygiene: exports resolve, public names are exported, private names are used.

These checks read the package source with `ast`, so a deletion cannot
leave a stale export or a dead private helper behind.  The package
namespace is checked against the library modules' `__all__` lists, which
`kickedtop/__init__.py` re-exports.
"""

import ast
import importlib
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import kickedtop

SOURCE_DIR = Path(kickedtop.__file__).resolve().parent
MODULE_PATHS = sorted(SOURCE_DIR.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULE_PATHS}
# every module but the command-line entry point is re-exported by the package
LIBRARY = sorted(set(TREES) - {"__init__", "cli"})


def _module(stem: str):
    return kickedtop if stem == "__init__" else importlib.import_module(f"kickedtop.{stem}")


def _defined_names(tree: ast.Module) -> list:
    """Names bound by module-level def, class and assignment statements."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _used_names() -> set:
    """Every name read, attribute taken or name imported anywhere in the package."""
    used = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_package_has_its_modules():
    assert {"__init__", "cli", "config", "experiments", "output", "quantum"} <= set(TREES)


@pytest.mark.parametrize("path", MODULE_PATHS, ids=lambda path: path.stem)
def test_every_module_compiles_under_2_mib(path):
    # without a bytecode cache (PYTHONDONTWRITEBYTECODE) every CLI run
    # compiles the package, and the largest module's compile sets the
    # import's high-water RSS; a 1,002-line experiments.py peaked at 2.55 MiB
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("stem", sorted(TREES))
def test_every_export_resolves(stem):
    module = _module(stem)
    assert module.__all__, stem
    assert len(set(module.__all__)) == len(module.__all__), stem
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], (stem, missing)


@pytest.mark.parametrize("stem", sorted(TREES))
def test_every_public_definition_is_exported(stem):
    tree = TREES[stem]
    public = [
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    unexported = [name for name in public if name not in _module(stem).__all__]
    assert unexported == [], (stem, unexported)


def test_every_private_module_name_is_used():
    used = _used_names()
    dead = [
        f"{stem}.{name}"
        for stem, tree in TREES.items()
        for name in _defined_names(tree)
        if name.startswith("_") and not name.endswith("__") and name not in used
    ]
    assert dead == []


@pytest.mark.parametrize("stem", LIBRARY)
def test_package_reexports_every_module_export(stem):
    module = _module(stem)
    missing = object()
    differ = [name for name in module.__all__
              if vars(kickedtop).get(name, missing) is not getattr(module, name)]
    assert differ == [], (stem, differ)


def test_module_exports_are_disjoint():
    # a name in two lists would leave the later star import's object in place
    owners = Counter(name for stem in LIBRARY for name in _module(stem).__all__)
    assert [name for name, count in owners.items() if count > 1] == []


def test_package_exports_exactly_the_module_exports():
    exported = [name for stem in LIBRARY for name in _module(stem).__all__]
    assert sorted(kickedtop.__all__) == sorted(exported + ["__version__"])


def test_version_is_declared_once():
    # pyproject.toml reads the version from kickedtop.__version__; a string
    # literal there lets setuptools read it without importing the package
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = tomllib.loads((SOURCE_DIR.parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "kickedtop.__version__"
    }
    literals = [
        node.value.value for node in TREES["__init__"].body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
    ]
    assert literals == [kickedtop.__version__]


def test_no_module_spawns_seed_sequences():
    # SeedSequence.spawn advances the root's spawn counter, so a reused
    # root would draw differently; child streams come from explicit
    # (entropy, spawn_key) pairs only
    spawns = [
        f"{stem}:{node.lineno}"
        for stem, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "spawn"
    ]
    assert spawns == []


def test_sampler_builds_no_numpy_generator():
    # bipartite draws every cap point from numpy's seeding and PCG64
    # algorithms as array arithmetic; a per-point generator lives only in
    # the oracle of tests/test_bipartite.py
    calls = [
        node.lineno for node in ast.walk(TREES["bipartite"])
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "default_rng"
    ]
    assert calls == []


def test_tracer_only_alias_is_never_read():
    # experiments.evolve_ensemble exists only for perfbench's tracer to patch;
    # a read anywhere would route a runner's calls through that alias
    binds, reads = [], []
    for stem, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "evolve_ensemble":
                (reads if isinstance(node.ctx, ast.Load) else binds).append(stem)
            elif isinstance(node, ast.Attribute) and node.attr == "evolve_ensemble":
                reads.append(stem)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                reads.extend(stem for alias in node.names
                             if "evolve_ensemble" in (alias.name, alias.asname))
    assert binds == ["experiments"]
    assert reads == []


def test_traced_experiments_names_are_read_in_experiments():
    # perfbench's tracer patches these names on kickedtop.experiments, so
    # they trace only while code defined in experiments.py looks them up
    # there; a runner moved to another module would leave its label at zero
    tracer = ast.parse((SOURCE_DIR.parents[1] / "perfbench" / "tracer.py").read_text())
    (places,) = [ast.literal_eval(node.value) for node in tracer.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["PLACES"]]
    # the owner's first name after kickedtop.experiments: a function, or a class
    names = {(attr if owner == "kickedtop.experiments" else owner.partition(":")[2])
             for owner, attr, _ in places if owner.partition(":")[0] == "kickedtop.experiments"}
    names.discard("evolve_ensemble")  # never read; test_tracer_only_alias_is_never_read
    read = {node.id for definition in TREES["experiments"].body
            if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
            for node in ast.walk(definition)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert "Dataset" in names and len(names) >= 7
    assert sorted(names - read) == []
