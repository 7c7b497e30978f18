import copy
import dataclasses
import math

import numpy as np
import pytest

from mfglearn import learner
from mfglearn.approx import DivergenceError, GaussianPolicy, Mlp
from mfglearn.envs import CongestionReward, EnvError, congestion_env, demand_env, lqr_env
from mfglearn.learner import (UPDATE_AGENTS, UPDATE_BLOCK, Schedules, evaluate, fp_update_state,
                              init_train_state, pg_update, rollout, td_update, train)
from mfglearn.meanfield import GridError, GridSpec, density_at

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
# more agents than an update reads: at T = 4 the updates' UPDATE_AGENTS are
# again several blocks plus a remainder, and blocks cut over all N agents
# would reach past UPDATE_AGENTS
PAST_CAP_AGENTS = 2 * UPDATE_AGENTS


def multi_block_counts(n):
    """(full blocks, agents in the last partial block) of an update on n
    agents at the multi-block horizon."""
    per_block = max(1, UPDATE_BLOCK // (MULTI_BLOCK_HORIZON + 1))
    return divmod(min(n, UPDATE_AGENTS), per_block)


# --- schedules ----------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    {"actor_lr": -1.0}, {"actor_lr": 0.0}, {"actor_lr": math.nan},
    {"critic_lr": 0.0}, {"critic_lr": math.inf},
    # a bool rate trained at 1.0, and a string or None raised a bare TypeError
    {"actor_lr": True}, {"actor_lr": "a"}, {"actor_lr": None},
], ids=kw_id)
def test_schedule_rates_must_be_finite_and_positive(kw):
    with pytest.raises(ValueError, match="must be finite"):
        Schedules(**kw)


def test_schedules_hold_the_two_adam_rates():
    assert [f.name for f in dataclasses.fields(Schedules)] == ["actor_lr", "critic_lr"]
    assert Schedules().mode == "paper"   # a constant, not a setting
    with pytest.raises(TypeError):
        Schedules(mode="paper")


def test_trained_beliefs_are_the_mean_of_the_logged_measures():
    spec = demand_env(horizon=3)
    state = fresh_state(spec, hidden=8)
    rng = np.random.default_rng(31)
    logs = [train(spec, state, 50, 1, rng)[2] for _ in range(5)]
    for k, belief in enumerate(state.beliefs):
        mean = np.mean([log.measures[k].mass for log in logs], axis=0)
        np.testing.assert_allclose(belief.average.mass, mean, rtol=0, atol=1e-12)
        assert belief.count == 5


def test_replacing_schedules_changes_the_next_adam_step():
    # the rates are read from state.schedules at every step, not copied at init
    spec = congestion_env()
    state = fresh_state(spec)
    train(spec, state, 32, 1, np.random.default_rng(29))
    fast = copy.deepcopy(state)
    fast.schedules = Schedules(actor_lr=1000 * state.schedules.actor_lr,
                               critic_lr=1000 * state.schedules.critic_lr)
    before = copy.deepcopy(state.critic.params)
    train(spec, state, 32, 1, np.random.default_rng(30))
    train(spec, fast, 32, 1, np.random.default_rng(30))
    # the same gradient and moments, so the critic's Adam step is 1000 times longer
    for k in before:
        np.testing.assert_allclose(fast.critic.params[k] - before[k],
                                   1000 * (state.critic.params[k] - before[k]), rtol=1e-6)
    assert not np.array_equal(fast.actor.mean_net.params["w1"], state.actor.mean_net.params["w1"])


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
    mu = state.actor.mean_net.forward(x0.astype(np.float32))   # the actor runs on float32 rows
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
    # negligible exploration noise, squares stay finite
    state.actor = GaussianPolicy(state.actor.mean_net, 1e-154)
    log = rollout(spec, state, 50, np.random.default_rng(6))
    term = log.states[-1]
    assert np.all(term == term[0])
    assert log.measures[-1].mass.max() == 1.0


def test_rollout_mean_return_recomputed():
    spec = congestion_env(reward=CongestionReward(alpha=1.5))
    state = fresh_state(spec)
    log = rollout(spec, state, 200, np.random.default_rng(7))
    disc = spec.gamma ** np.arange(log.actions.shape[0])
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
    loss = td_update(state, log)
    assert loss == 0.0
    for k in before:
        assert np.array_equal(state.critic.params[k], before[k])


def test_td_single_transition_is_regression():
    # one transition of a horizon-1 bandit: the discount multiplies only the
    # zeroed terminal value, so the TD gradient equals the regression gradient
    # of 0.5*(r - v(x0))^2; the lqr critic sees the position alone
    spec = bandit_spec()
    state = fresh_state(spec)
    log = rollout(spec, state, 1, np.random.default_rng(11))
    log.rewards[0, 0] = 2.5
    feats = log.states[0]
    v0 = state.critic.forward(feats).item()
    expected_upstream = -(2.5 - v0)
    grads, _ = state.critic.backward(feats, np.array([[expected_upstream]]))
    state2 = copy.deepcopy(state)
    td_update(state2, log)
    # reproduce the adam step on a fresh copy with the regression gradient
    state3 = copy.deepcopy(state)
    from mfglearn.approx import adam_step
    full = {k: np.zeros_like(v) for k, v in state3.critic.params.items()}
    # terminal feature row contributes zero upstream; regression grads only
    for k in grads:
        full[k] += grads[k]
    adam_step(state3.critic_opt, state3.critic.params, full, state3.schedules.critic_lr)
    for k in state2.critic.params:
        np.testing.assert_allclose(state2.critic.params[k], state3.critic.params[k],
                                   rtol=0, atol=1e-15)


def test_td_loss_decreases_on_frozen_task():
    spec = congestion_env(reward=CongestionReward(alpha=2.0))
    state = fresh_state(spec, schedules=Schedules(actor_lr=1e-3, critic_lr=1e-2))
    log = rollout(spec, state, 256, np.random.default_rng(12))  # frozen dataset
    first = td_update(state, log)
    last = first
    for _ in range(199):
        last = td_update(state, log)
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
    pg_update(state, log)
    for k in before:
        assert np.array_equal(state.actor.mean_net.params[k], before[k])


def test_pg_bandit_convergence():
    spec = bandit_spec()
    state = fresh_state(spec)
    rng = np.random.default_rng(14)
    state, _, _ = train(spec, state, n_agents=64, episodes=2000, rng=rng)
    mu = state.actor.mean(np.array([[0.0, 0.0]]))
    assert np.abs(mu - np.array([0.5, -0.5])).max() < 0.05


def test_pg_single_step_ascends_on_average():
    spec = bandit_spec()
    target = np.array([0.5, -0.5])
    base = fresh_state(spec)
    x0 = np.array([[0.0, 0.0]])
    sigma = base.actor.sigma

    def expected_reward(mu):
        return -float(((mu - target) ** 2).sum()) - 2.0 * sigma ** 2

    improvements = []
    for seed in range(100):
        state = copy.deepcopy(base)
        rng = np.random.default_rng(1000 + seed)
        log = rollout(spec, state, 32, rng)
        before = expected_reward(state.actor.mean(x0))
        td_update(state, log)
        pg_update(state, log)
        improvements.append(expected_reward(state.actor.mean(x0)) - before)
    assert np.mean(improvements) > 0.0


# --- each update steps and checks its own network ------------------------------

def _network_snapshot(net, opt):
    """Copies of a network's parameters and of its Adam step count and moments."""
    return (opt.t, *({k: a.copy() for k, a in d.items()} for d in (net.params, opt.m, opt.v)))


@pytest.mark.parametrize("update", [td_update, pg_update], ids=["td", "pg"])
def test_each_update_leaves_the_other_network_and_its_moments_alone(update):
    spec = demand_env(horizon=3)
    state = fresh_state(spec, hidden=8)
    # one episode first, so both networks have nonzero Adam moments
    train(spec, state, 32, 1, np.random.default_rng(28))
    log = rollout(spec, state, 32, np.random.default_rng(29))
    actor, critic = (state.actor.mean_net, state.actor_opt), (state.critic, state.critic_opt)
    stepped, other = (critic, actor) if update is td_update else (actor, critic)
    t, before = stepped[1].t, _network_snapshot(*other)
    update(state, log)
    after = _network_snapshot(*other)
    assert after[0] == before[0] and stepped[1].t == t + 1
    for was, now in zip(before[1:], after[1:]):
        assert all(np.array_equal(was[k], now[k]) for k in was)


def test_each_update_checks_only_the_network_it_steps():
    spec = bandit_spec()
    log = rollout(spec, fresh_state(spec), 8, np.random.default_rng(30))
    critic_out = fresh_state(spec)
    critic_out.critic.params["b2"][:] = 2.0 * learner.PARAM_LIMIT
    with pytest.raises(DivergenceError):
        td_update(critic_out, log)
    # the actor past the limit is pg_update's to catch, not td_update's
    actor_out = fresh_state(spec)
    actor_out.actor.mean_net.params["b2"][:] = 2.0 * learner.PARAM_LIMIT
    td_update(actor_out, log)
    with pytest.raises(DivergenceError):
        pg_update(actor_out, log)


@pytest.mark.parametrize("update", [td_update, pg_update], ids=["td", "pg"])
def test_update_on_no_agents_raises_and_changes_nothing(update):
    # a log of 0 agents used to reach adam_step with no gradients and fail
    # with a bare TypeError
    spec = congestion_env()
    state = fresh_state(spec, hidden=8)
    train(spec, state, 10, 1, np.random.default_rng(32))   # nonzero Adam moments
    log = rollout(spec, state, 10, np.random.default_rng(33))
    nets = [(state.critic, state.critic_opt), (state.actor.mean_net, state.actor_opt)]
    before = [_network_snapshot(*net) for net in nets]
    with pytest.raises(ValueError, match="at least one agent"):
        update(state, log.agents(slice(0, 0)))
    for was, now in zip(before, [_network_snapshot(*net) for net in nets]):
        assert was[0] == now[0]
        for d0, d1 in zip(was[1:], now[1:]):
            assert all(np.array_equal(d0[k], d1[k]) for k in d0)


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


def count_scoring_calls(monkeypatch):
    """Count the learner's calls of the functions that score a step."""
    calls = dict.fromkeys(("build_empirical_measure", "density_at", "reward"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(learner, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(learner, name, counted)
    return calls


def test_rollout_and_evaluate_score_each_step_once(monkeypatch):
    spec = demand_env(horizon=3)
    state = fresh_state(spec)
    calls = count_scoring_calls(monkeypatch)
    for simulate in (rollout, evaluate):
        calls.update(dict.fromkeys(calls, 0))
        simulate(spec, state, 20, np.random.default_rng(25))
        assert calls == {"build_empirical_measure": 4, "density_at": 4, "reward": 3}


def test_evaluate_divergence_raises(monkeypatch):
    spec = bandit_spec()
    state = fresh_state(spec)
    state.actor.mean_net.forward = lambda x: np.full((len(x), 2), np.inf)
    calls = count_scoring_calls(monkeypatch)
    with pytest.raises(DivergenceError, match="^diverged: actions$"):
        evaluate(spec, state, 4, np.random.default_rng(22))
    assert not any(calls.values())   # no step was scored


def test_rollout_divergence_raises_on_a_non_finite_next_state(monkeypatch):
    # the actor saturates, so the actions stay finite, but x + sigma1 * noise overflows
    spec = lqr_env(sigma1=1e308, init_mean=(1e308, 0.0), init_std=0.0)
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=4)
    calls = count_scoring_calls(monkeypatch)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="^diverged: states$"):
        rollout(spec, state, 4, np.random.default_rng(24))
    assert not any(calls.values())   # no step was scored


def test_evaluate_rejects_empty_population():
    spec = congestion_env()
    with pytest.raises(ValueError):
        evaluate(spec, fresh_state(spec), 0, np.random.default_rng(23))


@pytest.mark.parametrize("kw", [
    {"hidden": 0}, {"hidden": -3}, {"hidden": 2.5},
    # an unseeded state could not be rebuilt, and numpy's own errors for the
    # others did not say which argument was wrong
    {"seed": None}, {"seed": -1}, {"seed": 1.5},
], ids=kw_id)
def test_init_train_state_rejects_bad_seed_and_hidden(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        fresh_state(congestion_env(), **kw)


@pytest.mark.parametrize("call, error", [
    (lambda spec, state, rng: GridSpec(resolution=True), GridError),
    (lambda spec, state, rng: lqr_env(horizon=True), EnvError),
    (lambda spec, state, rng: fresh_state(spec, hidden=True), ValueError),
    (lambda spec, state, rng: rollout(spec, state, True, rng), ValueError),
    (lambda spec, state, rng: rollout(spec, state, 2.0, rng), ValueError),
    (lambda spec, state, rng: evaluate(spec, state, True, rng), ValueError),
    (lambda spec, state, rng: evaluate(spec, state, 2.0, rng), ValueError),
    (lambda spec, state, rng: train(spec, state, 4, -1, rng), ValueError),
    (lambda spec, state, rng: train(spec, state, 4, 2.5, rng), ValueError),
], ids=["grid resolution=True", "horizon=True", "hidden=True", "rollout n_agents=True",
        "rollout n_agents=2.0", "evaluate n_agents=True", "evaluate n_agents=2.0",
        "train episodes=-1", "train episodes=2.5"])
def test_counts_must_be_ints_not_bools(call, error):
    spec = congestion_env()
    with pytest.raises(error, match="must be an int"):
        call(spec, fresh_state(spec), np.random.default_rng(31))


@pytest.mark.parametrize("make_env, width", [(demand_env, 3), (congestion_env, 3), (lqr_env, 2)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_critic_width_follows_the_environment(make_env, width):
    spec = make_env()
    state = fresh_state(spec, hidden=8)
    assert state.critic.in_dim == width   # the density input only where the reward reads it
    _, trace, _ = train(spec, state, 8, 1, np.random.default_rng(27))
    assert len(trace) == 1 and np.isfinite(trace.critic_loss[0])


@pytest.mark.parametrize("built_for, trained_on", [(5, 3), (3, 5)],
                         ids=["more beliefs than steps", "fewer beliefs than steps"])
def test_train_rejects_a_state_built_for_another_horizon(built_for, trained_on):
    state = fresh_state(demand_env(horizon=built_for), hidden=8)
    with pytest.raises(ValueError, match="beliefs"):
        train(demand_env(horizon=trained_on), state, 8, 3, np.random.default_rng(28))
    assert len(state.beliefs) == built_for + 1


def test_fp_update_rejects_a_log_of_another_horizon():
    spec = demand_env(horizon=3)
    log = rollout(spec, fresh_state(spec, hidden=8), 8, np.random.default_rng(29))
    state = fresh_state(demand_env(horizon=5), hidden=8)
    with pytest.raises(ValueError):
        fp_update_state(state, log)
    assert len(state.beliefs) == 6


@pytest.mark.parametrize("built_for, trained_on", [(lqr_env, demand_env), (demand_env, lqr_env)],
                         ids=["lqr state on demand", "demand state on lqr"])
def test_train_rejects_a_critic_built_for_another_environment(built_for, trained_on):
    state = fresh_state(built_for(), hidden=8)
    with pytest.raises(ValueError, match="critic takes"):
        train(trained_on(), state, 8, 1, np.random.default_rng(30))


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


@pytest.mark.parametrize("make_env", [demand_env, lqr_env], ids=lambda f: f.__name__)
def test_network_batches_are_float32_and_everything_kept_is_float64(monkeypatch, make_env):
    # demand's critic reads the density (3 inputs), lqr's does not (2)
    spec = make_env(horizon=3)
    forward, backward, adam = Mlp.forward_with_hidden, Mlp.backward, learner.adam_step
    batches, hiddens, grads = [], [], []

    def forward_spy(self, x):
        batches.append(x.dtype)
        return forward(self, x)

    def backward_spy(self, x, upstream, hidden=None):
        batches.append(x.dtype)
        hiddens.append(hidden.dtype)
        return backward(self, x, upstream, hidden)

    def adam_spy(opt, params, step_grads, rate):
        grads.extend(g.dtype for g in step_grads.values())
        return adam(opt, params, step_grads, rate)

    monkeypatch.setattr(Mlp, "forward_with_hidden", forward_spy)
    monkeypatch.setattr(Mlp, "backward", backward_spy)
    monkeypatch.setattr(learner, "adam_step", adam_spy)
    state = fresh_state(spec, hidden=8)
    rng = np.random.default_rng(27)
    _, _, log = train(spec, state, 40, 2, rng)
    trained = len(batches)
    ev = evaluate(spec, state, 40, rng)
    assert len(batches) > trained and len(hiddens) == 4 and len(grads) == 16

    assert set(batches) == set(hiddens) == {np.dtype(np.float32)}
    assert set(grads) == {np.dtype(np.float64)}
    for net, opt in ((state.actor.mean_net, state.actor_opt), (state.critic, state.critic_opt)):
        for k in net.params:
            assert net.params[k].dtype == opt.m[k].dtype == opt.v[k].dtype == np.float64
    for episode in (log, ev):
        assert all(a.dtype == np.float64 for a in (episode.states, episode.actions,
                                                   episode.rewards, episode.densities))
        assert all(m.mass.dtype == np.float64 for m in episode.measures)
    assert all(b.average.mass.dtype == np.float64 for b in state.beliefs)


def test_update_rows_across_blocks(monkeypatch):
    spec = demand_env(horizon=MULTI_BLOCK_HORIZON)
    T = MULTI_BLOCK_HORIZON
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
    for n in (MULTI_BLOCK_AGENTS, PAST_CAP_AGENTS):
        m = min(n, UPDATE_AGENTS)   # the agents an update reads
        full, rest = multi_block_counts(n)
        assert full >= 3 and rest > 0
        forward_rows.clear()
        backward.clear()
        train(spec, fresh_state(spec, hidden=8), n, 1, np.random.default_rng(26))
        # rollout actor TN, critic (T+1)M in each update, actor TM in pg_update
        assert sum(forward_rows) == T * n + 2 * (T + 1) * m + T * m
        assert sum(rows for rows, _, _ in backward) == (T + 1) * m + T * m
        assert sum(zero for _, zero, _ in backward) == m   # the critic's terminal rows
        assert all(cached for _, _, cached in backward)
        assert len(backward) == 2 * (full + 1)   # one critic and one actor backward per block


def test_updates_bit_identical_under_agent_permutation():
    # one update block, several blocks plus a remainder, and more agents than
    # an update reads: there the lowest-id UPDATE_AGENTS alone give the same bits
    cases = [(congestion_env(reward=CongestionReward(alpha=1.5)), 100, {}),
             (demand_env(horizon=MULTI_BLOCK_HORIZON), MULTI_BLOCK_AGENTS, {"hidden": 8}),
             (demand_env(horizon=MULTI_BLOCK_HORIZON), PAST_CAP_AGENTS, {"hidden": 8})]
    for spec, n, kw in cases:
        state = fresh_state(spec, **kw)
        log = rollout(spec, state, n, np.random.default_rng(18))
        perm = np.random.default_rng(19).permutation(n)
        logs = [log, log.agents(perm)]
        if n > UPDATE_AGENTS:
            logs.append(learner._canonical(log).agents(slice(0, UPDATE_AGENTS)))

        results = []
        for each in logs:
            s = copy.deepcopy(state)
            results.append((td_update(s, each), pg_update(s, each), s))
        loss, norm, s1 = results[0]
        for other_loss, other_norm, s2 in results[1:]:
            assert other_loss == loss and other_norm == norm
            for k in s1.critic.params:
                assert np.array_equal(s1.critic.params[k], s2.critic.params[k])
            for k in s1.actor.mean_net.params:
                assert np.array_equal(s1.actor.mean_net.params[k], s2.actor.mean_net.params[k])


def test_episode_log_agents_views_a_slice_and_copies_an_index_array():
    spec = demand_env(horizon=3)
    log = rollout(spec, fresh_state(spec), 10, np.random.default_rng(27))
    perm = np.random.default_rng(28).permutation(10)
    for cols, shared in ((slice(2, 7), True), (perm, False)):
        part = log.agents(cols)
        assert np.array_equal(part.agent_ids, log.agent_ids[cols])
        assert np.shares_memory(part.agent_ids, log.agent_ids) == shared
        for name in ("states", "actions", "rewards", "densities"):
            assert np.array_equal(getattr(part, name), getattr(log, name)[:, cols]), name
            assert np.shares_memory(getattr(part, name), getattr(log, name)) == shared, name
        assert part.measures is log.measures
        assert part.mean_return == log.mean_return
        assert part.gamma == log.gamma == spec.gamma


def test_evaluate_reads_the_realized_crowd_and_rollout_the_beliefs():
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


def test_noisy_evaluate_and_rollout_share_one_noise_stream():
    # equal seeds move the crowd alike, so a belief arm and a realized-crowd
    # arm can be paired on one stream; only the densities they score against differ
    spec = demand_env(horizon=3)
    state = fresh_state(spec)
    train(spec, state, 64, 2, np.random.default_rng(20))
    evaluated = evaluate(spec, state, 128, np.random.default_rng(21), deterministic=False)
    trained = rollout(spec, state, 128, np.random.default_rng(21))
    assert np.array_equal(evaluated.states, trained.states)
    assert np.array_equal(evaluated.actions, trained.actions)
    assert not np.array_equal(evaluated.densities, trained.densities)
