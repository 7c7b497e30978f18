"""Memory bounds: an episode holds its log and a fixed margin beyond it.

Measured with ``tracemalloc`` at N = 20,000 agents and T = 10 steps, where
the episode log is about 10 MB.  The blocks run on two workers whatever the
machine (the private worker count is forced to 2), so two blocks are in
flight at once.  The margin covers one block of actor activations per worker
(UPDATE_BLOCK x 64 floats, about 1 MB each), a few per-step (N, 2)
temporaries of 0.32 MB each, and the small update blocks.  Two separate
(T, N, 2) noise arrays would add 6.4 MB, a full (N, 64) hidden layer 10 MB,
and a second episode log another 10 MB, so each of them breaks the bound.
"""

import numpy as np
import pytest

from mfglearn import learner
from mfglearn.envs import demand_env
from mfglearn.learner import UPDATE_BLOCK, evaluate, init_train_state, rollout, train
from mfglearn.meanfield import GridSpec
from tracemem import traced_peak

N_AGENTS, HORIZON = 20_000, 10
MARGIN = 3 * 2 ** 20   # bytes allowed beyond the episode log


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(learner, "_WORKERS", 2)


def log_bytes(log) -> int:
    return (log.states.nbytes + log.actions.nbytes + log.rewards.nbytes + log.densities.nbytes
            + log.agent_ids.nbytes + sum(m.mass.nbytes for m in log.measures))


def _spec_and_state(hidden):
    spec = demand_env(horizon=HORIZON)
    return spec, init_train_state(spec, GridSpec(resolution=20), seed=0, hidden=hidden)


@pytest.mark.parametrize("run", [
    lambda spec, state, rng: rollout(spec, state, N_AGENTS, rng),
    lambda spec, state, rng: evaluate(spec, state, N_AGENTS, rng),
    lambda spec, state, rng: evaluate(spec, state, N_AGENTS, rng, deterministic=False),
], ids=["rollout", "evaluate", "evaluate noisy"])
def test_episode_holds_only_its_log(run):
    assert N_AGENTS > 2 * UPDATE_BLOCK   # the actor runs over several blocks
    spec, state = _spec_and_state(hidden=64)
    log, peak = traced_peak(run, spec, state, np.random.default_rng(0))
    assert peak < log_bytes(log) + MARGIN


def test_train_holds_one_log_at_a_time():
    # a narrow network keeps the update blocks' hidden layers well inside the margin
    spec, state = _spec_and_state(hidden=8)
    (_, trace, log), peak = traced_peak(train, spec, state, N_AGENTS, 3, np.random.default_rng(0))
    assert len(trace) == 3 and log.states.shape == (HORIZON + 1, N_AGENTS, 2)
    assert peak < log_bytes(log) + MARGIN
