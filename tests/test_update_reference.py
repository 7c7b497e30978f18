"""Reference for the critic and actor updates: one full-batch backward.

The gradients, TD loss and gradient norm that ``td_update`` and
``pg_update`` produce are compared with plain formulas that push every
(step, agent) row through one float64 ``Mlp.backward``.  The updates run
their rows in float32 and sum per-block gradients, so each gradient is
compared to a bound scaled by its largest entry.  The run spans several
blocks of agents plus a remainder.
"""

import copy
import math

import numpy as np
import pytest

from mfglearn import learner
from mfglearn.envs import demand_env, lqr_env
from mfglearn.learner import Schedules, init_train_state, rollout
from mfglearn.meanfield import GridSpec

HORIZON = 4
N_AGENTS = 1500   # (T+1)N = 7,500 critic rows and TN = 6,000 actor rows
# about 84 float32 epsilons; the largest gap measured over three seeds of
# both environments was 1.6e-6 of the largest entry (loss and norm: 3e-7)
TOL = 1e-5


def _critic_inputs(log, uses_density):
    """(x, log1p(density)) rows, or x alone where the reward ignores the density."""
    if not uses_density:
        return log.states.reshape(-1, 2)
    return np.concatenate([log.states, np.log1p(log.densities)[..., None]], axis=-1).reshape(-1, 3)


def _full_batch_td(spec, state, log):
    """(critic gradients, TD loss, TD errors) from one pass over all rows."""
    T, n = log.rewards.shape
    gamma = spec.gamma
    feats = _critic_inputs(log, spec.uses_density)
    out, hidden = state.critic.forward_with_hidden(feats)
    v = out.reshape(T + 1, n)
    v_next = np.concatenate([v[1:T], np.zeros((1, n))])
    delta = log.rewards + gamma * v_next - v[:T]
    upstream = np.concatenate([-delta, np.zeros((1, n))]).reshape(-1, 1)
    grads, _ = state.critic.backward(feats, upstream, hidden)
    return grads, 0.5 * float((delta * delta).sum()), delta


def _full_batch_pg(spec, state, log):
    """Actor score gradients weighted by the current critic's TD errors."""
    T, n = log.rewards.shape
    _, _, delta = _full_batch_td(spec, state, log)
    return state.actor.logprob_grad(log.states[:T].reshape(-1, 2), log.actions.reshape(-1, 2),
                                    weights=delta.reshape(-1))


def _assert_grads_close(got, want):
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k].dtype == np.float64, k
        assert np.abs(got[k] - want[k]).max() <= TOL * np.abs(want[k]).max(), k


# a 3-input critic (demand reads the density) and a 2-input one (lqr does not)
@pytest.mark.parametrize("make_env", [demand_env, lqr_env], ids=lambda f: f.__name__)
def test_updates_match_full_batch_gradients(monkeypatch, make_env):
    full, rest = divmod(N_AGENTS, max(1, learner.UPDATE_BLOCK // (HORIZON + 1)))
    assert full >= 3 and rest > 0   # several blocks of agents plus a remainder
    spec = make_env(horizon=HORIZON)
    state = init_train_state(spec, GridSpec(resolution=20), seed=3, hidden=8,
                             schedules=Schedules(actor_lr=1e-2, critic_lr=1e-2))
    assert state.critic.in_dim == (3 if spec.uses_density else 2)
    log = rollout(spec, state, N_AGENTS, np.random.default_rng(4))

    seen = []
    original = learner.adam_step

    def spy(opt, params, grads, lr_scale=1.0):
        seen.append({k: g.copy() for k, g in grads.items()})
        return original(opt, params, grads, lr_scale)

    monkeypatch.setattr(learner, "adam_step", spy)

    want_critic, want_loss, _ = _full_batch_td(spec, copy.deepcopy(state), log)
    loss = learner.td_update(state, log)
    _assert_grads_close(seen[0], want_critic)
    assert loss == pytest.approx(want_loss, rel=TOL, abs=0)

    # the actor's advantage comes from the critic after its Adam step
    want_actor = _full_batch_pg(spec, copy.deepcopy(state), log)
    norm = learner.pg_update(state, log)
    _assert_grads_close(seen[1], {k: -g for k, g in want_actor.items()})
    want_norm = math.sqrt(sum(float((g * g).sum()) for g in want_actor.values()))
    assert norm == pytest.approx(want_norm, rel=TOL, abs=0)
    assert len(seen) == 2


def _cosine(got, want):
    """Cosine between two gradients taken as one flat vector each."""
    g = np.concatenate([got[k].ravel() for k in sorted(want)])
    w = np.concatenate([want[k].ravel() for k in sorted(want)])
    return float(g @ w) / (np.linalg.norm(g) * np.linalg.norm(w))


# bounds fixed before the first run; at T = 30, hidden 64 and N = 10^4 the
# capped gradients read cosine 1.000 (critic) and 0.997-1.000 (actor)
CRITIC_COSINE, ACTOR_COSINE = 0.99, 0.95


def test_capped_updates_point_along_the_full_gradients(monkeypatch):
    # the updates read the lowest-id UPDATE_AGENTS of 4 * UPDATE_AGENTS
    # agents; demand only: congestion and lqr dip near stationary points
    n = 4 * learner.UPDATE_AGENTS
    spec = demand_env(horizon=HORIZON)
    state = init_train_state(spec, GridSpec(resolution=20), seed=3, hidden=8,
                             schedules=Schedules(actor_lr=1e-2, critic_lr=1e-2))
    log = rollout(spec, state, n, np.random.default_rng(4))

    seen = []
    original = learner.adam_step

    def spy(opt, params, grads, lr_scale=1.0):
        seen.append(grads)
        return original(opt, params, grads, lr_scale)

    monkeypatch.setattr(learner, "adam_step", spy)
    learner.td_update(copy.deepcopy(state), log)
    learner.pg_update(copy.deepcopy(state), log)   # the same critic as the full gradient's
    critic, actor = seen

    assert _cosine(critic, _full_batch_td(spec, state, log)[0]) >= CRITIC_COSINE
    full_actor = _full_batch_pg(spec, state, log)
    assert _cosine(actor, {k: -g for k, g in full_actor.items()}) >= ACTOR_COSINE
