"""The CI workflow, read as text (CI installs no YAML parser), so a workload
added to the benchmark cannot silently miss the CI smoke run."""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_ci_benchmark_checks_run_every_benchmark_workload():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    # the step's lines, up to the next step of the job
    step = workflow.split("      - name: Benchmark checks\n", 1)[1].split("\n      - ", 1)[0]
    loops = re.findall(r"^\s*for workload in ([^;\n]*); do$", step, re.M)
    assert len(loops) == 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(loops[0].split()) == sorted(w["name"] for w in bench["workloads"])
