"""Checks on the repository's files that run none of its code beyond importing it.

The CI workflow is read as text (CI installs no YAML parser), so a workload
added to the benchmark cannot silently miss the CI smoke run.  Each package
module and each file under ``tests/`` is parsed with ``ast``, so an import
or a private helper left behind by a refactor, or a function defined in two
of them, fails here.  Every code name the README cites must resolve, so
deleting a public function cannot leave the README naming it.  The
environment presets are read by signature, so a named option cannot creep
back into one of them, and matched against the golden table, so a preset
cannot be added or retired without its golden row.
"""

import ast
import builtins
import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import re

import pytest

import mfglearn
from mfglearn import envs
from test_golden_envs import GOLDEN

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ci_benchmark_checks_run_every_benchmark_workload():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    # the step's lines, up to the next step of the job
    step = workflow.split("      - name: Benchmark checks\n", 1)[1].split("\n      - ", 1)[0]
    loops = re.findall(r"^\s*for workload in ([^;\n]*); do$", step, re.M)
    assert len(loops) == 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(loops[0].split()) == sorted(w["name"] for w in bench["workloads"])


def _env_presets() -> dict:
    """The public ``*_env`` functions of ``mfglearn.envs``, by name."""
    return {name: f for name, f in vars(envs).items()
            if name.endswith("_env") and not name.startswith("_") and inspect.isfunction(f)}


def test_env_presets_take_only_envspec_fields():
    # a reward parameter is set on its reward class; a named option on a
    # preset would be a second place to set it
    presets = _env_presets()
    assert presets
    for name, preset in presets.items():
        params = list(inspect.signature(preset).parameters.values())
        assert [p.kind for p in params] == [inspect.Parameter.VAR_KEYWORD], name


def test_every_env_preset_has_one_golden_row():
    assert set(GOLDEN) == {name[:-len("_env")] for name in _env_presets()}


def _unused_imports(source: str) -> list:
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_a_dead_import():
    source = "import os.path\nimport sys as system\nfrom math import pi, tau\nsystem.exit(pi)\n"
    assert _unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "mfglearn").glob("*.py") if p.name != "__init__.py"))
def test_package_module_uses_every_import(module):
    source = (ROOT / "src" / "mfglearn" / module).read_text()
    assert _unused_imports(source) == []


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "tests").glob("*.py")))
def test_test_file_uses_every_import(name):
    source = (ROOT / "tests" / name).read_text()
    assert _unused_imports(source) == []


def _unread_private_names(source: str) -> list:
    """Private top-level names of a module (functions, classes and assigned
    constants whose names start with ``_``, dunders aside) that the module
    never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read
                  if name.startswith("_") and not name.endswith("__"))


def test_unread_private_names_finds_a_dead_helper():
    source = ("__all__ = ['f']\n_LIMIT = 3\n_SPARE: int = 4\n"
              "def _used(x):\n    return x\n"
              "def _left_behind(x):\n    return x\n"
              "class _Gone:\n    pass\n"
              "def f():\n    _left_behind = 0\n    return _used(_LIMIT)\n")
    assert _unread_private_names(source) == ["_Gone", "_SPARE", "_left_behind"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in (ROOT / "src" / "mfglearn").glob("*.py") if p.name != "__init__.py"))
def test_package_module_reads_every_private_name(module):
    # a private helper is for its own module; one that nothing there reads
    # is left behind by a refactor
    source = (ROOT / "src" / "mfglearn" / module).read_text()
    assert _unread_private_names(source) == []


def _defined_twice(paths) -> dict:
    """Top-level function names defined in more than one of ``paths``, with their files."""
    homes = {}
    for path in sorted(paths):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(path.name)
    return {name: files for name, files in homes.items() if len(files) > 1}


def test_no_function_is_defined_in_two_package_modules():
    # a helper copied into a second module drifts from the first; shared
    # rules live once, in mfglearn._checks
    assert _defined_twice((ROOT / "src" / "mfglearn").glob("*.py")) == {}


def test_no_function_is_defined_in_two_test_files():
    # the same rule for tests: a copied helper or a copied test drifts from
    # the first, so a shared helper lives in one file and the others import it
    assert _defined_twice((ROOT / "tests").glob("*.py")) == {}


def _unresolved_names(markdown: str) -> list:
    """Backticked dotted identifiers in ``markdown`` (fenced blocks aside)
    that are no attribute of ``mfglearn`` or of one of its modules, no
    builtin, no test function under ``tests/``, no path from the repository
    root and no importable top-level module."""
    homes = [mfglearn] + [importlib.import_module("mfglearn." + m.name)
                          for m in pkgutil.iter_modules(mfglearn.__path__)]
    tests = {node.name for path in (ROOT / "tests").rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}

    def resolves(name):
        for home in homes:
            obj = home
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return (hasattr(builtins, name) or name in tests or (ROOT / name).exists()
                or ("." not in name and importlib.util.find_spec(name) is not None))

    text = re.sub(r"```.*?```", "", markdown, flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", text)
    return sorted({name for name in names if not resolves(name)})


def test_readme_names_finds_a_made_up_name():
    text = "`oracle.no_such_solver`, `Mlp.init`, `ValueError`, `ROADMAP.md`, `numpy`, `no_such_module`"
    assert _unresolved_names(text) == ["no_such_module", "oracle.no_such_solver"]


def test_readme_names_only_what_exists():
    assert _unresolved_names((ROOT / "README.md").read_text()) == []
