import copy
import math

import numpy as np
import pytest

from mfglearn.approx import DivergenceError, Mlp
from mfglearn.envs import bimodal_env, congestion_env, demand_env, lqr_env
from mfglearn.learner import (UPDATE_BLOCK, Schedules, evaluate, init_train_state, pg_update,
                              rollout, td_update, train)
from mfglearn.meanfield import BeliefState, DensityGrid, GridSpec, belief_update, density_at

GRID = GridSpec(resolution=20)


def bandit_spec(**kw):
    """One-shot quadratic bandit: reward -(x0 + u - target)^2 with x0 pinned."""
    kw.setdefault("horizon", 1)
    kw.setdefault("sigma1", 0.0)
    kw.setdefault("eta", 0.0)
    kw.setdefault("init_mean", (0.0, 0.0))
    kw.setdefault("init_std", 0.0)
    return lqr_env(**kw)


def fresh_state(spec, seed=0, **kw):
    kw.setdefault("schedules", Schedules(actor_lr=3e-3, critic_lr=3e-3))
    return init_train_state(spec, GRID, seed=seed, **kw)


def kw_id(kw):
    return ",".join("%s=%s" % item for item in kw.items())


# T = 4 and N = 1,500 give 7,500 critic rows: several update blocks plus a
# remainder (checked by multi_block_counts)
MULTI_BLOCK_HORIZON, MULTI_BLOCK_AGENTS = 4, 1500


def multi_block_counts():
    """(full blocks, agents in the last partial block) of the multi-block case."""
    per_block = max(1, UPDATE_BLOCK // (MULTI_BLOCK_HORIZON + 1))
    return divmod(MULTI_BLOCK_AGENTS, per_block)


# --- schedules ----------------------------------------------------------------

def test_belief_schedule_conditions():
    Schedules(belief_exponent=1.0)
    Schedules(mode="theory", belief_exponent=0.6)
    for bad in (0.5, 0.3, 1.2):
        with pytest.raises(ValueError, match="exponent"):
            Schedules(belief_exponent=bad)


@pytest.mark.parametrize("kw", [
    {"mode": "theory", "belief_scale": 0.0}, {"belief_scale": -1.0}, {"belief_scale": math.inf},
    {"actor_lr": -1.0}, {"actor_lr": 0.0}, {"actor_lr": math.nan},
    {"critic_lr": 0.0}, {"critic_lr": math.inf},
    {"actor_exponent": -0.5}, {"actor_exponent": math.nan}, {"actor_exponent": math.inf},
], ids=kw_id)
def test_schedule_rates_must_be_finite_and_positive(kw):
    with pytest.raises(ValueError, match="must be finite"):
        Schedules(**kw)
    Schedules(mode="theory", actor_exponent=0.0)  # a constant actor rate is allowed


def test_paper_schedule_is_exact_running_mean():
    sched = Schedules()
    assert sched.belief_step(0) is None
    assert sched.lr_scale(100) == 1.0
    # the paper steps fold five measures into their plain mean
    rng = np.random.default_rng(0)
    masses = [rng.random((GRID.resolution, GRID.resolution)) for _ in range(5)]
    masses = [m / m.sum() for m in masses]
    belief = BeliefState.initial(GRID)
    for n, m in enumerate(masses):
        belief = belief_update(belief, DensityGrid(GRID, m), sched.belief_step(n))
    np.testing.assert_allclose(belief.average.mass, np.mean(masses, axis=0), rtol=1e-12)


def test_theory_schedule_rate_ratio_decays():
    sched = Schedules(mode="theory", actor_lr=1e-3, belief_exponent=0.6, actor_exponent=1.0)
    ratios = [sched.actor_lr * sched.lr_scale(n) / sched.belief_step(n)
              for n in (1, 10, 100, 1000, 10000)]
    assert all(r1 < r0 for r0, r1 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-4


# --- rollout ------------------------------------------------------------------

def test_rollout_single_agent_hand_check():
    spec = bandit_spec(init_mean=(0.3, -0.2))
    state = fresh_state(spec)
    log = rollout(spec, state, 1, np.random.default_rng(5))
    # replay the same draws by hand
    rng = np.random.default_rng(5)
    pol_noise = rng.standard_normal((1, 1, 2))
    rng.standard_normal((1, 1, 2))  # dynamics noise, unused at sigma1=0
    x0 = np.array([0.3, -0.2]) + 0.0 * rng.standard_normal((1, 2))
    mu = state.actor.mean_net.forward(x0)
    a = mu + 0.1 * pol_noise[0]
    x1 = x0 + a
    np.testing.assert_array_equal(log.states[0], x0)
    np.testing.assert_array_equal(log.actions[0], a)
    np.testing.assert_array_equal(log.states[1], x1)
    r = -((x1 - np.array([0.5, -0.5])) ** 2).sum()
    assert log.rewards[0, 0] == pytest.approx(r)


def test_rollout_symmetric_population_is_dirac():
    spec = bandit_spec(init_mean=(0.4, 0.1))
    state = fresh_state(spec)
    state.actor.sigma = 1e-154  # negligible exploration noise, squares stay finite
    log = rollout(spec, state, 50, np.random.default_rng(6))
    term = log.terminal_positions
    assert np.all(term == term[0])
    assert log.measures[-1].mass.max() == 1.0


def test_rollout_mean_return_recomputed():
    spec = congestion_env(alpha=1.5)
    state = fresh_state(spec)
    log = rollout(spec, state, 200, np.random.default_rng(7))
    disc = spec.gamma ** np.arange(log.horizon)
    by_hand = np.mean([float(disc @ log.rewards[:, i]) for i in range(200)])
    assert log.mean_return == pytest.approx(by_hand, abs=1e-12)
    assert log.actions.shape[0] == spec.horizon
    assert log.rewards.shape[0] == spec.horizon


def test_rollout_bit_reproducible():
    spec = congestion_env()
    state = fresh_state(spec)
    a = rollout(spec, state, 64, np.random.default_rng(8))
    b = rollout(spec, state, 64, np.random.default_rng(8))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.actions, b.actions)


def test_rollout_rejects_empty_population():
    spec = congestion_env()
    state = fresh_state(spec)
    with pytest.raises(ValueError):
        rollout(spec, state, 0, np.random.default_rng(9))


# --- critic update ------------------------------------------------------------

def test_td_zero_rewards_zero_critic():
    spec = bandit_spec()
    state = fresh_state(spec)
    for k in state.critic.params:
        state.critic.params[k] = np.zeros_like(state.critic.params[k])
    log = rollout(spec, state, 8, np.random.default_rng(10))
    log.rewards[:] = 0.0
    before = {k: v.copy() for k, v in state.critic.params.items()}
    loss = td_update(state, log, spec.gamma)
    assert loss == 0.0
    for k in before:
        assert np.array_equal(state.critic.params[k], before[k])


def test_td_single_transition_is_regression():
    # gamma=0 and one transition: TD gradient equals the regression gradient
    # of 0.5*(r - v(x0))^2; the lqr critic sees the position alone
    spec = bandit_spec()
    state = fresh_state(spec)
    log = rollout(spec, state, 1, np.random.default_rng(11))
    log.rewards[0, 0] = 2.5
    feats = log.states[0, 0]
    v0 = state.critic.forward(feats).item()
    expected_upstream = -(2.5 - v0)
    grads, _ = state.critic.backward(feats, np.array([expected_upstream]))
    state2 = copy.deepcopy(state)
    td_update(state2, log, gamma=0.0)
    # reproduce the adam step on a fresh copy with the regression gradient
    state3 = copy.deepcopy(state)
    from mfglearn.approx import adam_step
    full = {k: np.zeros_like(v) for k, v in state3.critic.params.items()}
    # terminal feature row contributes zero upstream; regression grads only
    for k in grads:
        full[k] += grads[k]
    adam_step(state3.critic_opt, state3.critic.params, full)
    for k in state2.critic.params:
        np.testing.assert_allclose(state2.critic.params[k], state3.critic.params[k],
                                   rtol=0, atol=1e-15)


def test_td_loss_decreases_on_frozen_task():
    spec = congestion_env(alpha=2.0)
    state = fresh_state(spec, schedules=Schedules(actor_lr=1e-3, critic_lr=1e-2))
    log = rollout(spec, state, 256, np.random.default_rng(12))  # frozen dataset
    first = td_update(state, log, spec.gamma)
    last = first
    for _ in range(199):
        last = td_update(state, log, spec.gamma)
    assert last <= 0.1 * first


# --- actor update ---------------------------------------------------------------

def test_pg_zero_advantage_no_change():
    spec = bandit_spec()
    state = fresh_state(spec)
    log = rollout(spec, state, 16, np.random.default_rng(13))
    log.rewards[:] = 0.0
    for k in state.critic.params:
        state.critic.params[k] = np.zeros_like(state.critic.params[k])
    before = {k: v.copy() for k, v in state.actor.mean_net.params.items()}
    pg_update(state, log, spec.gamma)
    for k in before:
        assert np.array_equal(state.actor.mean_net.params[k], before[k])


def test_pg_bandit_convergence():
    spec = bandit_spec()
    state = fresh_state(spec)
    rng = np.random.default_rng(14)
    state, _, _ = train(spec, state, n_agents=64, episodes=2000, rng=rng)
    mu = state.actor.mean(np.array([0.0, 0.0]))
    assert np.abs(mu - np.array([0.5, -0.5])).max() < 0.05


def test_pg_single_step_ascends_on_average():
    spec = bandit_spec()
    target = np.array([0.5, -0.5])
    base = fresh_state(spec)
    x0 = np.array([0.0, 0.0])
    sigma = base.actor.sigma

    def expected_reward(mu):
        return -float(((mu - target) ** 2).sum()) - 2.0 * sigma ** 2

    improvements = []
    for seed in range(100):
        state = copy.deepcopy(base)
        rng = np.random.default_rng(1000 + seed)
        log = rollout(spec, state, 32, rng)
        before = expected_reward(state.actor.mean(x0))
        td_update(state, log, spec.gamma)
        pg_update(state, log, spec.gamma)
        improvements.append(expected_reward(state.actor.mean(x0)) - before)
    assert np.mean(improvements) > 0.0


# --- train loop -----------------------------------------------------------------

def test_train_zero_episodes_leaves_state():
    spec = bandit_spec()
    state = fresh_state(spec)
    before = copy.deepcopy(state.actor.mean_net.params)
    state, trace, log = train(spec, state, n_agents=4, episodes=0, rng=np.random.default_rng(15))
    assert len(trace) == 0 and log is None
    for k in before:
        assert np.array_equal(state.actor.mean_net.params[k], before[k])


def test_train_belief_contraction_bound():
    spec = congestion_env()
    state = fresh_state(spec)
    state, trace, _ = train(spec, state, n_agents=64, episodes=40, rng=np.random.default_rng(16))
    for i in range(len(trace)):
        n = trace.episode[i]
        assert trace.belief_drift[i] <= 2.0 / (n + 1) + 1e-12
    assert state.episode == 40
    assert all(b.count == 40 for b in state.beliefs)


def test_train_divergence_attaches_partial_trace():
    spec = bandit_spec()
    state = fresh_state(spec, schedules=Schedules(actor_lr=1e-3, critic_lr=1e-3))
    ran = {"n": 0}
    original = state.actor.mean_net.forward

    def poisoned(x):
        ran["n"] += 1
        out = original(x)
        return out + (np.inf if ran["n"] > 6 else 0.0)

    state.actor.mean_net.forward = poisoned
    with pytest.raises(DivergenceError) as info:
        train(spec, state, n_agents=4, episodes=50, rng=np.random.default_rng(17))
    assert len(info.value.trace) > 0


def test_evaluate_divergence_raises():
    spec = bandit_spec()
    state = fresh_state(spec)
    state.actor.mean_net.forward = lambda x: np.full((len(x), 2), np.inf)
    with pytest.raises(DivergenceError):
        evaluate(spec, state, 4, np.random.default_rng(22))


def test_evaluate_rejects_empty_population():
    spec = congestion_env()
    with pytest.raises(ValueError):
        evaluate(spec, fresh_state(spec), 0, np.random.default_rng(23))


@pytest.mark.parametrize("kw", [
    {"sigma": 0.0}, {"sigma": -0.1}, {"sigma": math.nan}, {"sigma": math.inf},
    {"hidden": 0}, {"hidden": -3}, {"hidden": 2.5},
], ids=kw_id)
def test_init_train_state_rejects_bad_sigma_and_hidden(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        fresh_state(congestion_env(), **kw)


@pytest.mark.parametrize("make_env, width", [(demand_env, 3), (congestion_env, 3),
                                             (bimodal_env, 3), (lqr_env, 2)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_critic_width_follows_the_environment(make_env, width):
    spec = make_env()
    state = fresh_state(spec, hidden=8)
    assert state.critic.in_dim == width   # the density input only where the reward reads it
    _, trace, _ = train(spec, state, 8, 1, np.random.default_rng(27))
    assert len(trace) == 1 and np.isfinite(trace.critic_loss[0])


def test_train_passes_cached_hidden_to_every_backward(monkeypatch):
    original = Mlp.backward
    hiddens = []

    def spy(self, x, upstream, hidden=None):
        hiddens.append(hidden)
        return original(self, x, upstream, hidden)

    monkeypatch.setattr(Mlp, "backward", spy)
    spec = congestion_env()
    train(spec, fresh_state(spec), 16, 2, np.random.default_rng(25))
    assert len(hiddens) == 4  # one critic and one actor backward per episode
    assert all(h is not None for h in hiddens)


def test_update_rows_across_blocks(monkeypatch):
    spec = demand_env(horizon=MULTI_BLOCK_HORIZON)
    T, n = MULTI_BLOCK_HORIZON, MULTI_BLOCK_AGENTS
    full, rest = multi_block_counts()
    assert full >= 3 and rest > 0
    forward_rows, backward = [], []
    forward, backward_pass = Mlp.forward_with_hidden, Mlp.backward

    def forward_spy(self, x):
        forward_rows.append(np.atleast_2d(x).shape[0])
        return forward(self, x)

    def backward_spy(self, x, upstream, hidden=None):
        up = np.atleast_2d(upstream)
        backward.append((up.shape[0], int(np.count_nonzero(~up.any(axis=1))), hidden is not None))
        return backward_pass(self, x, upstream, hidden)

    monkeypatch.setattr(Mlp, "forward_with_hidden", forward_spy)
    monkeypatch.setattr(Mlp, "backward", backward_spy)
    train(spec, fresh_state(spec, hidden=8), n, 1, np.random.default_rng(26))
    # rollout actor TN, critic (T+1)N in each update, actor TN in pg_update
    assert sum(forward_rows) == 2 * (T + 1) * n + 2 * T * n
    assert sum(rows for rows, _, _ in backward) == (T + 1) * n + T * n
    assert sum(zero for _, zero, _ in backward) == n   # the critic's terminal rows
    assert all(cached for _, _, cached in backward)
    assert len(backward) == 2 * (full + 1)   # one critic and one actor backward per block


def test_updates_bit_identical_under_agent_permutation():
    # one update block, then several blocks plus a remainder
    cases = [(congestion_env(alpha=1.5), 100, {}),
             (demand_env(horizon=MULTI_BLOCK_HORIZON), MULTI_BLOCK_AGENTS, {"hidden": 8})]
    for spec, n, kw in cases:
        state = fresh_state(spec, **kw)
        log = rollout(spec, state, n, np.random.default_rng(18))
        perm = np.random.default_rng(19).permutation(n)
        shuffled = log.permuted(perm)

        s1, s2 = copy.deepcopy(state), copy.deepcopy(state)
        td_update(s1, log, spec.gamma)
        pg_update(s1, log, spec.gamma)
        td_update(s2, shuffled, spec.gamma)
        pg_update(s2, shuffled, spec.gamma)
        for k in s1.critic.params:
            assert np.array_equal(s1.critic.params[k], s2.critic.params[k])
        for k in s1.actor.mean_net.params:
            assert np.array_equal(s1.actor.mean_net.params[k], s2.actor.mean_net.params[k])


def test_instantaneous_coupling_mode():
    # evaluate couples to the crowd it realizes, training rollouts to the beliefs
    spec = demand_env(horizon=3)
    state = fresh_state(spec)
    train(spec, state, 64, 2, np.random.default_rng(20))
    evaluated = evaluate(spec, state, 128, np.random.default_rng(21))
    trained = rollout(spec, state, 128, np.random.default_rng(21))
    for k in range(spec.horizon + 1):
        np.testing.assert_array_equal(evaluated.densities[k],
                                      density_at(evaluated.measures[k], evaluated.states[k]))
        np.testing.assert_array_equal(trained.densities[k],
                                      density_at(state.beliefs[k].average, trained.states[k]))
    assert not np.array_equal(evaluated.densities, trained.densities)
