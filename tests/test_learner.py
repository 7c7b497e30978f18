import copy
import math
import time

import numpy as np
import pytest

from mfglearn.approx import DivergenceError, Mlp
from mfglearn.envs import congestion_env, lqr_env
from mfglearn.learner import (PAIR_BLOCK, EpisodeLog, Schedules, TrainState, TrainTrace,
                              belief_crossover, convergence_metrics, evaluate,
                              init_train_state, mean_pairwise_distance, pg_update, rollout,
                              td_update, train, validate_belief_schedule, write_trace)
from mfglearn.meanfield import GridSpec, grid_distance

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


# --- schedules ----------------------------------------------------------------

def test_belief_schedule_conditions():
    validate_belief_schedule(1.0)
    validate_belief_schedule(0.6)
    for bad in (0.5, 0.3, 1.2):
        with pytest.raises(ValueError):
            validate_belief_schedule(bad)


def test_paper_schedule_is_exact_running_mean():
    sched = Schedules()
    assert sched.belief_step(0) is None
    assert sched.belief_step_value(4) == pytest.approx(0.2)
    assert sched.lr_scale(100) == 1.0


def test_theory_schedule_rate_ratio_decays():
    sched = Schedules(mode="theory", actor_lr=1e-3, belief_exponent=0.6, actor_exponent=1.0)
    ratios = [sched.actor_lr * sched.lr_scale(n) / sched.belief_step_value(n)
              for n in (1, 10, 100, 1000, 10000)]
    assert all(r1 < r0 for r0, r1 in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-4


def test_belief_crossover():
    sched = Schedules(actor_lr=1e-2)
    n0 = belief_crossover(sched)
    assert sched.belief_step_value(n0) < sched.actor_lr
    assert sched.belief_step_value(n0 - 1) >= sched.actor_lr
    for n in range(n0, n0 + 500):
        assert sched.belief_step_value(n) < sched.actor_lr


def test_belief_crossover_theory_boundary():
    sched = Schedules(mode="theory", actor_lr=1e-2, belief_exponent=1.0, actor_exponent=0.5)
    n0 = belief_crossover(sched)
    assert n0 == 10 ** 4  # (n+1)^(1 - 0.5) = 1/actor_lr
    rate = lambda n: sched.actor_lr * sched.lr_scale(n)
    assert sched.belief_step_value(n0) < rate(n0)
    assert sched.belief_step_value(n0 - 1) >= rate(n0 - 1)


@pytest.mark.parametrize("actor_exponent", [1.0, 0.999])  # the default; a crossing past 1e308
def test_belief_crossover_theory_defaults_never_cross(actor_exponent):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="actor rate"):
        belief_crossover(Schedules(mode="theory", actor_exponent=actor_exponent))
    assert time.perf_counter() - start < 1.0


def test_belief_crossover_beyond_float_resolution_raises():
    # the rates cross at (1/1e-3)^(1/0.1) = 1e30 steps, where n and n - 1 are one float
    sched = Schedules(mode="theory", actor_lr=1e-3, belief_exponent=0.6, actor_exponent=0.5)
    with pytest.raises(ValueError, match="float resolution"):
        belief_crossover(sched)


def test_belief_crossover_near_float_resolution():
    # crossing near 3.7e14, 0.7 of the limit: the closed form is two steps off
    sched = Schedules(mode="theory", actor_lr=10 ** -6.7, belief_exponent=0.62, actor_exponent=0.16)
    n0 = belief_crossover(sched)
    rate = lambda n: sched.actor_lr * sched.lr_scale(n)
    assert sched.belief_step_value(n0 - 1) >= rate(n0 - 1)
    assert all(sched.belief_step_value(n) < rate(n) for n in range(n0, n0 + 100))


def test_belief_crossover_raises_when_belief_step_rises_above_later():
    # starts below the actor rate, but the belief exponent is the smaller one,
    # so from n = 4 on the belief step stays above for good
    sched = Schedules(mode="theory", actor_lr=0.2013, belief_exponent=0.6266,
                      belief_scale=0.119, actor_exponent=0.9934)
    rate = lambda n: sched.actor_lr * sched.lr_scale(n)
    assert sched.belief_step_value(0) < rate(0)
    assert all(sched.belief_step_value(n) >= rate(n) for n in range(4, 10 ** 4))
    with pytest.raises(ValueError, match="never drops"):
        belief_crossover(sched)


def test_belief_crossover_after_capped_start():
    # the min(1, .) cap holds the belief step at 1 below an actor rate of 2, which
    # falls under it at n = 3; the uncapped step 10/(n+1) then falls back under at 25
    sched = Schedules(mode="theory", actor_lr=2.0, actor_exponent=0.5, belief_exponent=1.0,
                      belief_scale=10.0)
    assert belief_crossover(sched) == 25


def _scan_above(sched, limit):
    """The crossover predicate at n = 0..limit-1, evaluated as one array."""
    m = np.arange(1, limit + 1, dtype=float)
    if sched.mode == "paper":
        return 1.0 / m >= sched.actor_lr
    belief = np.minimum(1.0, sched.belief_scale * m ** -sched.belief_exponent)
    return belief >= sched.actor_lr * m ** -sched.actor_exponent


def test_belief_crossover_matches_brute_force_scan():
    limit = 2 * 10 ** 5
    rng = np.random.default_rng(0)
    above = lambda s, n: s.belief_step_value(n) >= s.actor_lr * s.lr_scale(n)
    shown = late = 0
    for _ in range(200):
        lr = float(10 ** rng.uniform(-3, 1))
        if rng.random() < 0.15:
            sched = Schedules(actor_lr=lr)
        else:
            sched = Schedules(mode="theory", actor_lr=lr,
                              belief_scale=float(10 ** rng.uniform(-2, 1.5)),
                              belief_exponent=float(rng.uniform(0.51, 1.0)),
                              actor_exponent=float(rng.uniform(-0.1, 1.2)))
        scan = _scan_above(sched, limit)
        try:
            n0 = belief_crossover(sched)
        except ValueError:
            n0 = None
        if scan.any() and not scan[-1]:
            # the above-set is one interval, and its end shows inside the scan
            expected = int(np.flatnonzero(scan)[-1]) + 1
            assert n0 == expected, sched
            shown += 1
            late += int(not scan[0])
        elif n0 is not None and n0 > 0:
            # the scan cannot show the end: any answer must lie beyond it and be exact
            assert n0 >= limit and above(sched, n0 - 1), sched
            assert not any(above(sched, n) for n in range(n0, n0 + 100)), sched
        else:
            assert n0 is None or not scan.any(), sched
    assert shown >= 50 and late >= 2


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
    assert np.array_equal(a.logprobs, b.logprobs)


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
    # of 0.5*(r - v(x0))^2
    spec = bandit_spec()
    state = fresh_state(spec)
    log = rollout(spec, state, 1, np.random.default_rng(11))
    log.rewards[0, 0] = 2.5
    feats = np.concatenate([log.states[0, 0], [math.log1p(log.densities[0, 0])]])
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


def test_unknown_coupling_rejected_by_state_and_evaluate():
    spec = congestion_env()
    message = "belief coupling must be averaged or instantaneous"
    with pytest.raises(ValueError, match=message):
        fresh_state(spec, belief_coupling="instantanous")
    with pytest.raises(ValueError, match=message):
        evaluate(spec, fresh_state(spec), 4, np.random.default_rng(23), coupling="instantanous")


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


def test_snapshot_hook_fires_every_n_episodes():
    spec = bandit_spec()
    state = fresh_state(spec)
    calls = []

    def hook(live, log):
        calls.append((live.episode, live is state, log.mean_return))

    state, trace, _ = train(spec, state, n_agents=4, episodes=5, rng=np.random.default_rng(24),
                            snapshot_every=2, snapshot_hook=hook)
    assert [(ep, live) for ep, live, _ in calls] == [(2, True), (4, True)]
    assert [ret for _, _, ret in calls] == [trace.mean_return[1], trace.mean_return[3]]


def test_updates_bit_identical_under_agent_permutation():
    spec = congestion_env(alpha=1.5)
    state = fresh_state(spec)
    log = rollout(spec, state, 100, np.random.default_rng(18))
    perm = np.random.default_rng(19).permutation(100)
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
    spec = congestion_env(alpha=2.0)
    state = fresh_state(spec, belief_coupling="instantaneous")
    log = rollout(spec, state, 128, np.random.default_rng(20))
    # under self-coupling, the density column must match the episode's own measure
    from mfglearn.meanfield import density_at
    np.testing.assert_array_equal(log.densities[1],
                                  density_at(log.measures[1], log.states[1]))


# --- diagnostics ----------------------------------------------------------------

def test_convergence_metrics_constant_trace():
    trace = TrainTrace(np.arange(10), np.full(10, 1.5), np.zeros(10), np.zeros(10), np.zeros(10))
    out = convergence_metrics(trace, window=5)
    assert out["window_std"] == 0.0
    assert out["stabilization_ratio"] == 0.0
    assert out["final_belief_drift"] == 0.0


def test_dispersion_unit_square_corners():
    corners = [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert mean_pairwise_distance(corners) == pytest.approx((4 + 2 * math.sqrt(2)) / 6)


def test_dispersion_matches_direct_formula_across_blocks():
    pts = np.random.default_rng(25).standard_normal((2 * PAIR_BLOCK + 5, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    direct = dist[np.triu_indices(len(pts), k=1)].mean()
    assert mean_pairwise_distance(pts) == pytest.approx(direct, rel=1e-12)


def test_dispersion_degenerate():
    assert mean_pairwise_distance([[1.0, 2.0]]) == 0.0
    assert mean_pairwise_distance([[1.0, 2.0], [1.0, 2.0]]) == 0.0


def test_trace_csv(tmp_path):
    spec = bandit_spec()
    state = fresh_state(spec)
    state, trace, _ = train(spec, state, n_agents=4, episodes=5, rng=np.random.default_rng(21))
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,mean_return,belief_drift,actor_grad_norm,critic_loss"
    assert len(lines) == 6
