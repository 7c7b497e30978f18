"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
from mfglearn import approx, learner  # noqa: E402
from workloads import TINY  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)


def test_every_benchmark_workload_is_defined():
    assert {w["name"] for w in BENCH["workloads"]} <= set(TINY) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_without_failed_ops(name, trace):
    original_backward = approx.Mlp.__dict__["backward"]
    metrics, details, tally = run.run(name, 3, 0.3, trace, workloads=TINY)
    assert tally.attempted >= run.SETUP_REPS + 1
    assert tally.failed == 0, details["failures"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert all(np.isfinite(metrics[m["name"]]) for m in declared)
    assert approx.Mlp.__dict__["backward"] is original_backward  # tracing removed
    if trace and name != "oracle-ring":
        wl = TINY[name]
        n, t = wl.n_agents, wl.make_spec().horizon
        assert metrics["approx.mlp_forward.rows"] == 2 * (t + 1) * n + 2 * t * n
        assert metrics["approx.mlp_backward.rows"] == (t + 1) * n + t * n
        assert metrics["approx.mlp_backward.zero_upstream_frac"] == n / ((t + 1) * n + t * n)


@pytest.mark.parametrize("name", ["demand-n10k", "congestion-n100"])
def test_same_seed_same_episode_returns(name):
    wl = TINY[name]

    def returns(seed):
        ctx = wl.setup(seed)
        return [wl.op(ctx).mean_return for _ in range(4)]

    assert returns(5) == returns(5)
    assert returns(5) != returns(6)


def test_same_seed_same_oracle_results():
    wl = TINY["oracle-ring"]

    def job(seed):
        ctx = wl.setup(seed)
        _, payoff, gap = wl.op(ctx)
        return payoff, gap

    assert job(5) == job(5)


def test_broken_backward_counts_as_failed_ops(monkeypatch):
    original = approx.Mlp.backward

    def off_by_a_bit(self, x, upstream, hidden=None):
        grads, dx = original(self, x, upstream, hidden)
        grads["b1"] = 1.01 * grads["b1"]
        return grads, dx

    monkeypatch.setattr(approx.Mlp, "backward", off_by_a_bit)
    _, details, tally = run.run("congestion-n100", 3, 0.2, False, workloads=TINY)
    assert tally.attempted > 0 and tally.failed == tally.attempted
    assert any("backward" in msg for msg in details["failures"])


def _shifted_return(original):
    def rollout(*args, **kw):
        log = original(*args, **kw)
        log.mean_return += 1.0
        return log
    return rollout


def _raising_every_other(original):
    calls = []

    def rollout(*args, **kw):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise FloatingPointError("injected")
        return original(*args, **kw)
    return rollout


@pytest.mark.parametrize("breakage, message", [(_shifted_return, "mean_return"),
                                               (_raising_every_other, "op raised")])
def test_wrong_or_raising_episodes_count_as_failed_ops(monkeypatch, breakage, message):
    monkeypatch.setattr(learner, "rollout", breakage(learner.rollout))
    _, details, tally = run.run("congestion-n100", 3, 0.2, False, workloads=TINY)
    assert tally.failed > 0
    assert any(message in msg for msg in details["failures"])
