"""Checks on the repository's files that run none of its code.

The CI workflow is read as text (CI installs no YAML parser), so a workload
added to the benchmark cannot silently miss the CI smoke run.  Each package
module and each file under ``tests/`` is parsed with ``ast``, so an import
left behind by a refactor fails here.
"""

import ast
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ci_benchmark_checks_run_every_benchmark_workload():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    # the step's lines, up to the next step of the job
    step = workflow.split("      - name: Benchmark checks\n", 1)[1].split("\n      - ", 1)[0]
    loops = re.findall(r"^\s*for workload in ([^;\n]*); do$", step, re.M)
    assert len(loops) == 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(loops[0].split()) == sorted(w["name"] for w in bench["workloads"])


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


def test_no_function_is_defined_in_two_package_modules():
    # a helper copied into a second module drifts from the first; shared
    # rules live once, in mfglearn._checks
    homes = {}
    for path in sorted((ROOT / "src" / "mfglearn").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(path.name)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}
