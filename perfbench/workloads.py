"""The benchmark's workloads: what one operation (op) is, how its inputs are
made from the seed, and how its outputs are checked.

Each workload exposes ``setup(seed) -> ctx``, ``op(ctx) -> result`` and
``check(ctx, result) -> list of failure messages``.  ``op`` is the timed
call into the program; ``setup`` and ``check`` run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from mfglearn import envs, learner, oracle
from mfglearn.meanfield import GridSpec

import checks


def _rngs(seed: int, k: int):
    """k independent generators derived from the workload seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


@dataclass(frozen=True)
class LearnerWorkload:
    """One op is one training episode: ``train(spec, state, N, episodes=1, rng)``."""

    env: str            # name of the mfglearn.envs factory
    n_agents: int
    env_kw: tuple = ()  # (name, value) pairs passed to the factory
    hidden: int = 64
    resolution: int = 50
    tail_pct: float = 99.0

    def params(self) -> dict:
        return {"kind": "learner", "env": self.env, "env_kw": dict(self.env_kw),
                "n_agents": self.n_agents, "horizon": self.make_spec().horizon,
                "grid": self.resolution, "hidden": self.hidden,
                "schedules": "paper (Schedules() defaults)", "tail_pct": self.tail_pct}

    def make_spec(self):
        return getattr(envs, self.env)(**dict(self.env_kw))

    def setup(self, seed: int):
        state_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
        spec = self.make_spec()
        grid = GridSpec(resolution=self.resolution)
        state = learner.init_train_state(spec, grid, state_seed, hidden=self.hidden)
        rng, check_rng = _rngs(seed, 2)
        return {"spec": spec, "grid": grid, "state": state, "rng": rng, "check_rng": check_rng,
                "belief_ref": checks.BeliefReference(spec.horizon, grid)}

    def op(self, ctx):
        _, _, log = learner.train(ctx["spec"], ctx["state"], self.n_agents, 1, ctx["rng"])
        return log

    def check(self, ctx, log) -> list:
        return checks.check_episode(ctx["spec"], ctx["grid"], ctx["state"], log,
                                    self.n_agents, ctx["belief_ref"])

    def agent_steps(self) -> int:
        return self.n_agents * self.make_spec().horizon

    def run_checks(self, ctx) -> list:
        """Once-per-run checks: gradients against finite differences."""
        return checks.gradient_check(ctx["state"], ctx["check_rng"])


@dataclass(frozen=True)
class OracleWorkload:
    """One op is one oracle job: fictitious play on a large ring, the exact
    N-player payoff of seeded random policies, and the finite-N value gap of
    the small ring's fictitious-play policy."""

    fp_states: int = 50
    fp_horizon: int = 30
    fp_iterations: int = 200
    payoff_agents: int = 6
    gap_agents: int = 1000
    gap_trials: int = 50
    tail_pct: float = 90.0

    def params(self) -> dict:
        return {"kind": "oracle", "fp_game": "ring_game(%d, %d)" % (self.fp_states, self.fp_horizon),
                "fp_iterations": self.fp_iterations, "payoff_game": "ring_game()",
                "payoff_agents": self.payoff_agents, "gap_agents": self.gap_agents,
                "gap_trials": self.gap_trials, "tail_pct": self.tail_pct}

    def agent_steps(self) -> int:
        return 0

    def run_checks(self, ctx) -> list:
        return []

    def setup(self, seed: int):
        rng, check_rng = _rngs(seed, 2)
        small = oracle.ring_game()
        small_policy, _, _ = oracle.fictitious_play(small, self.fp_iterations)
        return {"big": oracle.ring_game(self.fp_states, self.fp_horizon), "small": small,
                "small_policy": small_policy, "rng": rng, "check_rng": check_rng}

    def op(self, ctx):
        big, small, rng = ctx["big"], ctx["small"], ctx["rng"]
        fp = oracle.fictitious_play(big, self.fp_iterations)
        policies = [oracle.random_policy(small, rng) for _ in range(self.payoff_agents)]
        payoff = oracle.nplayer_payoff(small, policies, 0)
        gap = oracle.nplayer_gap(small, ctx["small_policy"], self.gap_agents, self.gap_trials, rng)
        return fp, payoff, gap

    def check(self, ctx, result) -> list:
        fp, payoff, gap = result
        return checks.check_oracle_job(ctx["big"], ctx["small"], fp, payoff, gap, ctx["check_rng"])


WORKLOADS = {
    "demand-n10k": LearnerWorkload("demand_env", 10_000, (("horizon", 30),), tail_pct=90.0),
    "congestion-n100": LearnerWorkload("congestion_env", 100, tail_pct=99.0),
    "oracle-ring": OracleWorkload(),
}

# Same code paths at a size that runs in well under a second per op.
TINY = {
    "demand-n10k": replace(WORKLOADS["demand-n10k"], n_agents=50, env_kw=(("horizon", 3),),
                            hidden=8, resolution=10),
    "congestion-n100": replace(WORKLOADS["congestion-n100"], n_agents=20, hidden=8, resolution=10),
    "oracle-ring": OracleWorkload(fp_states=6, fp_horizon=5, fp_iterations=10, payoff_agents=3,
                                  gap_agents=50, gap_trials=5),
}
