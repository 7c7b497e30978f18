"""The rollout and evaluation loops against a plain reference, bit for bit.

The reference below is the plain population loop: it draws each kind of
noise as a separate (T, N, 2) array, the policy noise first, and runs the
actor over all N agents in one call per step, on float32 rows as the learner
does.  ``rollout`` and ``evaluate`` draw the noise into the episode log and
run the actor over blocks of agents, but they must consume the generator in
the same order and so return the same floats (compared with ``==``) and
leave the generator in the same state.
"""

import numpy as np
import pytest

from mfglearn.envs import congestion_env, demand_env, reward, sample_initial, step
from mfglearn.learner import UPDATE_BLOCK, evaluate, init_train_state, rollout, train
from mfglearn.meanfield import GridSpec, build_empirical_measure, density_at


def ref_simulate(spec, state, rng, pol_noise, dyn_noise, realized):
    """(states, actions, rewards, densities, measure masses, mean return)."""
    T, n, _ = dyn_noise.shape
    states = np.zeros((T + 1, n, 2))
    actions = np.zeros((T, n, 2))
    rewards = np.zeros((T, n))
    densities = np.zeros((T + 1, n))
    states[0] = sample_initial(spec, rng, n)
    measures = [build_empirical_measure(states[0], state.grid)]

    def grid_for(k):
        return measures[k] if realized else state.beliefs[k].average

    densities[0] = density_at(grid_for(0), states[0])
    for k in range(T):
        mu = state.actor.mean_net.forward(states[k].astype(np.float32))
        actions[k] = mu + state.actor.sigma * pol_noise[k]
        states[k + 1] = step(spec, states[k], actions[k], dyn_noise[k])
        measures.append(build_empirical_measure(states[k + 1], state.grid))
        densities[k + 1] = density_at(grid_for(k + 1), states[k + 1])
        rewards[k] = reward(spec, k + 1, states[k + 1], actions[k], densities[k + 1])
    mean_return = float((spec.gamma ** np.arange(T) @ rewards).mean())
    return states, actions, rewards, densities, [m.mass for m in measures], mean_return


def ref_episode(spec, state, n, rng, noise, realized):
    """The one noise order: policy noise (zeros when off), then dynamics noise."""
    shape = (spec.horizon, n, 2)
    pol_noise = rng.standard_normal(shape) if noise else np.zeros(shape)
    dyn_noise = rng.standard_normal(shape)
    return ref_simulate(spec, state, rng, pol_noise, dyn_noise, realized)


def _trained_state(make_env):
    """A state whose actor and belief grids have moved off their initial values."""
    spec = make_env()
    state = init_train_state(spec, GridSpec(resolution=20), seed=3)
    train(spec, state, 200, 2, np.random.default_rng(3))
    return spec, state


SETUPS = {"demand T=4": lambda: _trained_state(lambda: demand_env(horizon=4)),
          "congestion": lambda: _trained_state(congestion_env)}
# one agent, one block, exactly one full block, and populations whose last
# block is short: N = UPDATE_BLOCK + 1 and 2 * UPDATE_BLOCK + 1 end in a
# 1-row block
N_AGENTS = [1, 50, UPDATE_BLOCK, UPDATE_BLOCK + 1, 2 * UPDATE_BLOCK + 1, 10_000]
# (function, its keywords, the reference's noise and realized flags)
RUNS = {
    "rollout": (rollout, {}, (True, False)),
    "evaluate": (evaluate, {}, (False, True)),
    "evaluate noisy": (evaluate, {"deterministic": False}, (True, True)),
}


@pytest.fixture(scope="module", params=sorted(SETUPS))
def setup(request):
    return SETUPS[request.param]()


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("n", N_AGENTS)
def test_loop_matches_reference_bit_for_bit(setup, run, n):
    spec, state = setup
    fn, kw, flags = RUNS[run]
    seed = 1000 + n
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    log = fn(spec, state, n, got_rng, **kw)
    states, actions, rewards, densities, masses, mean_return = ref_episode(spec, state, n, want_rng, *flags)

    assert np.array_equal(log.states, states)
    assert np.array_equal(log.actions, actions)
    assert np.array_equal(log.rewards, rewards)
    assert np.array_equal(log.densities, densities)
    assert all(np.array_equal(m.mass, want) for m, want in zip(log.measures, masses))
    assert log.mean_return == mean_return
    assert got_rng.random() == want_rng.random()
