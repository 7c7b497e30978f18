import dataclasses
import itertools
import math
import types

import numpy as np
import pytest

from mfglearn import envs, oracle
from mfglearn.envs import LqrReward, congestion_env, demand_env, lqr_env
from mfglearn.oracle import (DiscreteMFG, OracleError, _cdf_table, _draw, _joint_states, _Sweeps,
                             best_response, exploitability, fictitious_play, induced_flow,
                             lqr_analytic, nplayer_gap, nplayer_payoff, nplayer_payoff_enumerated,
                             policy_value, random_policy, ring_game, simulate_population_value,
                             two_state_congestion, uniform_policy)
from tracemem import traced_peak


def random_game(rng, n_states=3, n_actions=2, horizon=3, coupled=True):
    trans = rng.random((n_states, n_actions, n_states)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    mu0 = rng.random(n_states) + 0.1
    mu0 /= mu0.sum()
    table = rng.standard_normal((n_states, n_actions))
    if coupled:
        coef = rng.uniform(0.2, 1.0, n_states)
        reward = lambda s, m, a: table[np.asarray(s), a] - coef[np.asarray(s)] * np.asarray(m)
    else:
        reward = lambda s, m, a: table[np.asarray(s), a] + 0.0 * np.asarray(m)
    return DiscreteMFG(n_states, n_actions, horizon, trans, reward, mu0)


def single_state_game(rewards=(1.0, 0.0)):
    trans = np.ones((1, len(rewards), 1))
    table = np.asarray(rewards, dtype=float)
    return DiscreteMFG(1, len(rewards), 1, trans,
                       lambda s, m, a: table[a] + 0.0 * np.asarray(m), np.array([1.0]))


def enumerate_deterministic_policies(game):
    """All (T, S, A) one-hot policies; exponential, for tiny games only."""
    T, S, A = game.horizon, game.n_states, game.n_actions
    for choice in itertools.product(range(A), repeat=T * S):
        pol = np.zeros((T, S, A))
        for i, a in enumerate(choice):
            pol[i // S, i % S, a] = 1.0
        yield pol


# --- reward table ---------------------------------------------------------------

def _contract_games():
    rng = np.random.default_rng(21)
    return [ring_game(), ring_game(6, 5), two_state_congestion(3),
            random_game(rng, n_states=4, n_actions=3, horizon=4),
            random_game(rng, n_states=3, n_actions=2, horizon=3, coupled=False),
            single_state_game((1.0, 0.0, 0.25)),
            DiscreteMFG(3, 2, 2, ring_game(3).transitions, lambda s, m, a: 0.0,
                        np.array([0.2, 0.3, 0.5]))]


def _per_step_table(game, flow_t):
    """The reward table as one reward call per action and time step.  Each call
    is broadcast over states so that a scalar reward gives a table too."""
    s = np.arange(game.n_states)
    return np.stack([np.broadcast_to(np.asarray(game.reward(s, flow_t[s], a), dtype=float),
                                     (game.n_states,)) for a in range(game.n_actions)], axis=1)


@pytest.mark.parametrize("index", range(7))
def test_reward_table_matches_per_step_stack(index):
    game = _contract_games()[index]
    rng = np.random.default_rng(index)
    flow = induced_flow(game, random_policy(game, rng))
    table = game.reward_table(flow[:game.horizon])
    assert table.shape == (game.horizon, game.n_states, game.n_actions)
    assert table.dtype == np.float64
    for t in range(game.horizon):
        expected = _per_step_table(game, flow[t])
        assert np.array_equal(table[t], expected)
        assert np.array_equal(game.reward_table(flow[t]), expected)


@pytest.mark.parametrize("flow", [np.ones(1), np.ones(3) / 3, np.ones((2, 5)) / 5, np.float64(1.0)],
                         ids=["one state", "three states", "five states", "scalar"])
def test_reward_table_rejects_flows_of_another_width(flow):
    with pytest.raises(OracleError, match="does not end in the 4 states"):
        ring_game().reward_table(flow)


_REWARD_CALLERS = {
    "best_response": lambda g, f, p: best_response(g, f),
    "policy_value": lambda g, f, p: policy_value(g, p, f),
    "exploitability": lambda g, f, p: exploitability(g, p),
    "fictitious_play": lambda g, f, p: fictitious_play(g, 2),
    "nplayer_payoff": lambda g, f, p: nplayer_payoff(g, [p] * 2, 0),
    "nplayer_payoff_enumerated": lambda g, f, p: nplayer_payoff_enumerated(g, [p] * 2, 0),
    "simulate_population_value": lambda g, f, p: simulate_population_value(
        g, p, 10, np.random.default_rng(0)),
    "nplayer_gap": lambda g, f, p: nplayer_gap(g, p, 10, 2, np.random.default_rng(0)),
}


def _every_reward_caller_raises(game, message):
    """``game.reward_table`` and every solver of ``_REWARD_CALLERS`` raise
    OracleError matching ``message`` on ``game``'s uniform policy and its flow."""
    policy = uniform_policy(game)
    flow = induced_flow(game, policy)
    with pytest.raises(OracleError, match=message):
        game.reward_table(flow[:game.horizon])
    for solver in _REWARD_CALLERS.values():
        with pytest.raises(OracleError, match=message):
            solver(game, flow, policy)


@pytest.mark.parametrize("bad", [lambda s, m, a: np.zeros(7),
                                 lambda s, m, a: np.zeros((4, 2, 2)),
                                 lambda s, m, a: np.zeros((3, 1, 1, 1, 1))])
def test_reward_table_rejects_non_broadcasting_reward(bad):
    _every_reward_caller_raises(dataclasses.replace(ring_game(), reward=bad), "broadcast")


def _nan_weight(s, m, a):
    return np.array([np.nan, 1.0])[np.asarray(s)] / (1.0 + np.asarray(m))


def _nan_when_crowded(s, m, a):
    m = np.asarray(m)
    return np.where(m > 0.6, np.nan, 1.0 / (1.0 + m))


@pytest.mark.parametrize("make", [
    lambda: dataclasses.replace(ring_game(), reward=lambda s, m, a: np.full(np.shape(m), np.nan)),
    lambda: dataclasses.replace(ring_game(), reward=lambda s, m, a: np.full(np.shape(m), np.inf)),
    lambda: dataclasses.replace(ring_game(), reward=lambda s, m, a: np.full(np.shape(m), -np.inf)),
    # two_state_congestion rejects a NaN weight, so the reward is swapped in
    lambda: dataclasses.replace(two_state_congestion(3), reward=_nan_weight),
    # every agent starts in state 0, so each solver meets a mass above 0.6
    lambda: dataclasses.replace(two_state_congestion(3), reward=_nan_when_crowded),
], ids=["nan", "inf", "-inf", "nan weight", "nan when crowded"])
def test_reward_table_rejects_non_finite_reward(make):
    _every_reward_caller_raises(make(), "reward must be finite")


# a string flow or reward used to reach numpy's float cast and raise its bare ValueError
def test_reward_table_rejects_a_flow_that_is_not_numbers():
    with pytest.raises(OracleError, match="flow must be an array of numbers"):
        ring_game().reward_table(["a", "b", "c", "d"])


def test_solvers_reject_a_reward_that_is_not_numbers():
    game = dataclasses.replace(ring_game(), reward=lambda s, m, a: np.full(np.shape(m), "a"))
    _every_reward_caller_raises(game, "reward must be an array of numbers")


@pytest.mark.parametrize("reward", [None, 1.0, np.zeros((4, 2))], ids=["None", "number", "array"])
def test_game_rejects_a_reward_that_is_not_callable(reward):
    with pytest.raises(OracleError, match="reward must be callable"):
        dataclasses.replace(ring_game(), reward=reward)


def _counting(game):
    calls = []

    def reward(s, m, a):
        calls.append(1)
        return game.reward(s, m, a)
    return dataclasses.replace(game, reward=reward), calls


@pytest.mark.parametrize("make", [lambda: ring_game(6, 5), two_state_congestion])
def test_reward_called_once_per_flow(make):
    game, calls = _counting(make())
    flow = induced_flow(game, uniform_policy(game))
    best_response(game, flow)
    assert len(calls) == 1
    policy_value(game, uniform_policy(game), flow)
    assert len(calls) == 2
    exploitability(game, uniform_policy(game))
    assert len(calls) == 3  # one sweep gives the best response's and the policy's values
    calls.clear()
    for n in (1, 4, 10):
        fictitious_play(game, n)
        assert len(calls) == n + 1  # the first best response, then one sweep per iteration
        calls.clear()


@pytest.mark.parametrize("n_agents", [1, 2, 3])
def test_nplayer_payoffs_call_the_reward_once(n_agents):
    game, calls = _counting(ring_game())
    policies = [uniform_policy(game)] * n_agents
    nplayer_payoff(game, policies, 0)
    assert len(calls) == 1  # one (S^N, A) table for every step and action
    nplayer_payoff_enumerated(game, policies, 0)
    assert len(calls) == 2


def test_population_value_calls_the_reward_once_per_step():
    game, calls = _counting(ring_game(6, 5))
    simulate_population_value(game, uniform_policy(game), 50, np.random.default_rng(0))
    assert len(calls) == game.horizon  # one (trials, S, A) table per step


def test_best_response_single_decision():
    game = single_state_game((1.0, 0.0))
    flow = np.ones((2, 1))
    policy, values = best_response(game, flow)
    assert policy[0, 0, 0] == 1.0
    assert values[0, 0] == pytest.approx(1.0)


def test_best_response_action_independent_reward():
    rng = np.random.default_rng(0)
    table = rng.standard_normal(3)
    row = rng.random((3, 3)) + 0.1
    row /= row.sum(axis=1, keepdims=True)
    trans = np.stack([row, row], axis=1)  # actions do not matter at all
    game = DiscreteMFG(3, 2, 3, trans, lambda s, m, a: table[np.asarray(s)] + 0.0 * np.asarray(m),
                       np.array([1.0, 0.0, 0.0]))
    flow = induced_flow(game, uniform_policy(game))
    policy, values = best_response(game, flow)
    assert np.all(policy[:, :, 0] == 1.0)  # ties break to the lowest action
    # value equals expected reward accumulated under any policy
    v_uniform = policy_value(game, uniform_policy(game), flow)
    np.testing.assert_allclose(values, v_uniform, atol=1e-12)


def test_best_response_matches_brute_force():
    rng = np.random.default_rng(1)
    game = random_game(rng, n_states=3, n_actions=2, horizon=3)
    flow = induced_flow(game, random_policy(game, rng))
    _, values = best_response(game, flow)
    start = float(game.mu0 @ values[0])
    best = max(float(game.mu0 @ policy_value(game, pol, flow)[0])
               for pol in enumerate_deterministic_policies(game))
    assert start == pytest.approx(best, abs=1e-12)


def test_best_response_upper_bounds_random_policies():
    rng = np.random.default_rng(2)
    game = random_game(rng)
    flow = induced_flow(game, random_policy(game, rng))
    _, values = best_response(game, flow)
    for _ in range(1000):
        pol = random_policy(game, rng)
        v = policy_value(game, pol, flow)
        assert np.all(values[0] >= v[0] - 1e-10)


def test_induced_flow_identity_transitions():
    trans = np.zeros((3, 2, 3))
    for s in range(3):
        trans[s, :, s] = 1.0
    game = DiscreteMFG(3, 2, 4, trans, lambda s, m, a: 0.0 * np.asarray(m),
                       np.array([0.2, 0.5, 0.3]))
    flow = induced_flow(game, uniform_policy(game))
    for t in range(5):
        np.testing.assert_allclose(flow[t], game.mu0)


def test_induced_flow_two_cycle():
    trans = np.zeros((2, 1, 2))
    trans[0, 0, 1] = 1.0
    trans[1, 0, 0] = 1.0
    game = DiscreteMFG(2, 1, 4, trans, lambda s, m, a: 0.0 * np.asarray(m), np.array([1.0, 0.0]))
    flow = induced_flow(game, uniform_policy(game))
    np.testing.assert_allclose(flow[::2, 0], 1.0)
    np.testing.assert_allclose(flow[1::2, 1], 1.0)


def test_induced_flow_matches_monte_carlo():
    rng = np.random.default_rng(3)
    game = random_game(rng, n_states=3, n_actions=2, horizon=3)
    policy = random_policy(game, rng)
    flow = induced_flow(game, policy)
    n = 10 ** 6
    s = rng.choice(game.n_states, size=n, p=game.mu0)
    counts = [np.bincount(s, minlength=game.n_states) / n]
    for t in range(game.horizon):
        a = np.zeros(n, dtype=int)
        for state in range(game.n_states):
            mask = s == state
            a[mask] = rng.choice(game.n_actions, size=mask.sum(), p=policy[t, state])
        nxt = np.zeros(n, dtype=int)
        for state in range(game.n_states):
            for act in range(game.n_actions):
                mask = (s == state) & (a == act)
                nxt[mask] = rng.choice(game.n_states, size=mask.sum(), p=game.transitions[state, act])
        s = nxt
        counts.append(np.bincount(s, minlength=game.n_states) / n)
    assert np.abs(np.array(counts) - flow).max() < 3e-3


def test_induced_flow_of_a_stack_matches_per_policy_calls():
    # the K-column forward pass fictitious play runs on a workspace's policy stack
    rng = np.random.default_rng(22)
    for _ in range(20):
        game = random_game(rng, n_states=int(rng.integers(1, 8)),
                           n_actions=int(rng.integers(1, 4)), horizon=int(rng.integers(1, 6)))
        stack = np.stack([random_policy(game, rng) for _ in range(int(rng.integers(1, 4)))])
        sweeps = _Sweeps(game, len(stack))
        sweeps.policies[...] = stack.swapaxes(0, 1)
        sweeps.forward()
        flows = sweeps.flows.swapaxes(0, 1)
        assert flows.shape == (len(stack), game.horizon + 1, game.n_states)
        for policy, flow in zip(stack, flows):
            np.testing.assert_allclose(flow, induced_flow(game, policy), rtol=0, atol=1e-12)


def _malformed_policies():
    """Policies for ring_game(6, 4) that are not (T, S, A) action distributions."""
    uniform = uniform_policy(ring_game(6, 4))
    negative = uniform.copy()
    negative[1, 2] = [1.5, -0.5]
    off_sum = uniform.copy()
    off_sum[3, 5, 1] += 1e-9
    not_a_number = uniform.copy()
    not_a_number[0, 0] = np.nan
    ragged = uniform.tolist()
    ragged[2][3] = [1.0]
    return {"no time axis": np.full((6, 2), 0.5), "stacked": uniform[None],
            "negative entry": negative, "row sum off": off_sum, "nan entry": not_a_number,
            "strings": [[["a", "b"]] * 6] * 4, "ragged": ragged}


_POLICY_ENTRY_POINTS = {
    "policy_value": lambda g, p: policy_value(g, p, induced_flow(g, uniform_policy(g))),
    "induced_flow": induced_flow,
    "exploitability": exploitability,
    "nplayer_payoff": lambda g, p: nplayer_payoff(g, [uniform_policy(g), p], 0),
    "nplayer_payoff_enumerated": lambda g, p: nplayer_payoff_enumerated(g, [uniform_policy(g), p], 0),
    "simulate_population_value": lambda g, p: simulate_population_value(
        g, p, 10, np.random.default_rng(0)),
    "nplayer_gap": lambda g, p: nplayer_gap(g, p, 10, 2, np.random.default_rng(0)),
}


@pytest.mark.parametrize("entry, case", [(entry, case) for case in sorted(_malformed_policies())
                                         for entry in sorted(_POLICY_ENTRY_POINTS)])
def test_malformed_policy_fails_loudly(entry, case):
    game = ring_game(6, 4)
    policy = _malformed_policies()[case]
    with pytest.raises(OracleError, match="policy"):
        _POLICY_ENTRY_POINTS[entry](game, policy)


def _malformed_flows():
    """Flows for ring_game() that are not (T+1, S) distributions over states."""
    uniform = induced_flow(ring_game(), uniform_policy(ring_game()))
    negative = uniform.copy()
    negative[2] = [0.5, -0.25, 0.5, 0.25]
    off_sum = uniform.copy()
    off_sum[4, 1] += 1e-8
    not_a_number = uniform.copy()
    not_a_number[1, 3] = np.nan
    ragged = uniform.tolist()
    ragged[1] = [0.5, 0.5]
    return {"no time axis": np.full(4, 0.25), "stacked": uniform[None],
            "negative entry": negative, "row sum off": off_sum, "nan entry": not_a_number,
            "strings": [["a"] * 4] * 5, "ragged": ragged}


_FLOW_ENTRY_POINTS = {
    "best_response": best_response,
    "policy_value": lambda g, f: policy_value(g, uniform_policy(g), f),
}


@pytest.mark.parametrize("entry, case", [(entry, case) for case in sorted(_malformed_flows())
                                         for entry in sorted(_FLOW_ENTRY_POINTS)])
def test_malformed_flow_fails_loudly(entry, case):
    with pytest.raises(OracleError, match="flow"):
        _FLOW_ENTRY_POINTS[entry](ring_game(), _malformed_flows()[case])


# 0.5 and 1.0 used to fail as numpy IndexErrors, and True became a boolean
# mask that failed as a reward of the wrong shape
@pytest.mark.parametrize("agent", [-1, 2, 3, 0.5, 1.0, True])
def test_nplayer_payoff_rejects_agent_out_of_range(agent):
    game = ring_game()
    for payoff in (nplayer_payoff, nplayer_payoff_enumerated):
        with pytest.raises(OracleError, match="agent"):
            payoff(game, [uniform_policy(game)] * 2, agent)


_COUNTS_BELOW_ONE = {
    "simulate_population_value no agents": lambda g, p: simulate_population_value(
        g, p, 0, np.random.default_rng(0)),
    "nplayer_gap no agents": lambda g, p: nplayer_gap(g, p, 0, 5, np.random.default_rng(0)),
    "nplayer_gap negative agents": lambda g, p: nplayer_gap(g, p, -3, 5, np.random.default_rng(0)),
    "nplayer_gap no trials": lambda g, p: nplayer_gap(g, p, 10, 0, np.random.default_rng(0)),
}


@pytest.mark.parametrize("case", sorted(_COUNTS_BELOW_ONE))
def test_population_counts_below_one_fail_loudly(case, monkeypatch):
    game = ring_game()
    # the stub fails a case that builds the sweeps' workspace before it checks the count
    monkeypatch.setattr(oracle, "_Sweeps", _never_called)
    with pytest.raises(OracleError, match=">= 1"):
        _COUNTS_BELOW_ONE[case](game, uniform_policy(game))


_COUNTS_NOT_INTS = {
    "horizon 0": lambda g: dataclasses.replace(g, horizon=0),
    "horizon -1": lambda g: dataclasses.replace(g, horizon=-1),
    "horizon 2.5": lambda g: dataclasses.replace(g, horizon=2.5),
    "horizon nan": lambda g: dataclasses.replace(g, horizon=math.nan),
    "iterations 0": lambda g: fictitious_play(g, 0),
    "iterations 2.5": lambda g: fictitious_play(g, 2.5),
    "iterations True": lambda g: fictitious_play(g, True),
    "trials 2.5": lambda g: nplayer_gap(g, uniform_policy(g), 10, 2.5, np.random.default_rng(0)),
    "agents 2.5": lambda g: nplayer_gap(g, uniform_policy(g), 2.5, 3, np.random.default_rng(0)),
}


@pytest.mark.parametrize("case", sorted(_COUNTS_NOT_INTS))
def test_counts_must_be_ints_of_at_least_one(case):
    with pytest.raises(OracleError, match="must be an int >= 1"):
        _COUNTS_NOT_INTS[case](ring_game())


# A = 9 is past numpy's 8-element pairwise summation block, where adding
# action columns one by one sums in another order than a reduction would
@pytest.mark.parametrize("n_actions", [1, 2, 3, 9])
@pytest.mark.parametrize("entry", sorted(_POLICY_ENTRY_POINTS))
def test_policy_row_sum_tolerance_verdicts(entry, n_actions):
    rng = np.random.default_rng(30 + n_actions)
    game = random_game(rng, n_states=2, n_actions=n_actions, horizon=2)
    policy = random_policy(game, rng)
    for off in (5e-13, -5e-13):
        near = policy.copy()
        near[1, 0, -1] += off
        _POLICY_ENTRY_POINTS[entry](game, near)
    for off in (2e-12, -2e-12):
        far = policy.copy()
        far[1, 0, -1] += off
        with pytest.raises(OracleError, match="sum to 1"):
            _POLICY_ENTRY_POINTS[entry](game, far)


def test_induced_flow_conserves_mass():
    rng = np.random.default_rng(4)
    for _ in range(20):
        game = random_game(rng, n_states=int(rng.integers(2, 5)),
                           n_actions=int(rng.integers(2, 4)), horizon=int(rng.integers(1, 5)))
        flow = induced_flow(game, random_policy(game, rng))
        np.testing.assert_allclose(flow.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(flow >= -1e-15)


def test_exploitability_decoupled_equilibrium():
    rng = np.random.default_rng(5)
    game = random_game(rng, coupled=False)
    flow = induced_flow(game, uniform_policy(game))
    policy, _ = best_response(game, flow)
    assert exploitability(game, policy) == pytest.approx(0.0, abs=1e-12)


def test_exploitability_uniform_two_action():
    game = single_state_game((1.0, 0.0))
    uniform = uniform_policy(game)
    assert exploitability(game, uniform) == pytest.approx(0.5)


def test_exploitability_shift_invariant():
    rng = np.random.default_rng(6)
    base = random_game(rng)
    shifted = DiscreteMFG(base.n_states, base.n_actions, base.horizon, base.transitions,
                          lambda s, m, a: base.reward(s, m, a) + 7.5, base.mu0)
    for _ in range(10):
        pol = random_policy(base, rng)
        assert exploitability(base, pol) == pytest.approx(exploitability(shifted, pol), abs=1e-9)


def test_exploitability_nonnegative_and_br_fixed_point():
    rng = np.random.default_rng(7)
    game = random_game(rng)
    for _ in range(50):
        pol = random_policy(game, rng)
        assert exploitability(game, pol) >= 0.0


def test_exploitability_is_exactly_zero_where_every_policy_is_optimal():
    # both actions move s -> s+1 on a 3-state cycle, so every policy is a
    # best response: each advantage is exactly 0, and so is their sum
    trans = np.zeros((3, 2, 3))
    for s in range(3):
        trans[s, :, (s + 1) % 3] = 1.0
    reward = lambda s, m, a: np.where(np.asarray(s) == 0, 1.0 / (1.0 + np.asarray(m)), 0.0)
    game = DiscreteMFG(3, 2, 4, trans, reward, np.full(3, 1.0 / 3.0))
    rng = np.random.default_rng(0)
    gaps = [exploitability(game, random_policy(game, rng)) for _ in range(2000)]
    assert gaps == [0.0] * 2000


def test_fictitious_play_decoupled_converges_immediately():
    rng = np.random.default_rng(8)
    game = random_game(rng, coupled=False)
    _, _, trace = fictitious_play(game, 5)
    # the average policy plays only best actions, so every advantage term is 0
    assert trace.tolist() == [0.0] * 5


@pytest.mark.parametrize("coupled", [True, False])
def test_fictitious_play_trace_is_nonnegative_without_tolerance(coupled):
    # each term of the certificate is a nonnegative mass times a nonnegative
    # advantage, so no rounding can take the sum below 0
    rng = np.random.default_rng(40 + coupled)
    for _ in range(25):
        game = random_game(rng, n_states=int(rng.integers(1, 9)), n_actions=int(rng.integers(1, 10)),
                           horizon=int(rng.integers(1, 7)), coupled=coupled)
        _, _, trace = fictitious_play(game, 30)
        assert np.all(trace >= 0.0)


def test_fictitious_play_two_state_certificate_falls_below_a_thousandth():
    game = two_state_congestion()
    _, _, trace = fictitious_play(game, 500)
    # entry 7 is exactly 0, so only the tail shows that the certificate stays small
    assert trace[-100:].max() < 1e-3


def test_fictitious_play_flow_average_recomputed():
    rng = np.random.default_rng(9)
    game = two_state_congestion()
    n_iter = 40
    _, avg_flow, _ = fictitious_play(game, n_iter)
    # replay the iteration while recording induced flows, then average post hoc
    belief = induced_flow(game, uniform_policy(game))
    flows = []
    for n in range(1, n_iter + 1):
        pol, _ = best_response(game, belief)
        flows.append(induced_flow(game, pol))
        belief = np.mean(flows, axis=0)
    np.testing.assert_allclose(avg_flow, np.mean(flows, axis=0), atol=1e-12)


def test_monotone_uniqueness_from_multiple_starts():
    game = two_state_congestion()
    finals = []
    rng = np.random.default_rng(10)
    # perturb the initial belief: fictitious play should still land on the
    # same average flow (unique equilibrium under strict monotonicity)
    for k in range(5):
        belief = induced_flow(game, random_policy(game, rng))
        flows = []
        for n in range(1, 800):
            pol, _ = best_response(game, belief)
            flows.append(induced_flow(game, pol))
            belief = np.mean(flows, axis=0)
        finals.append(belief)
    for a, b in itertools.combinations(finals, 2):
        assert np.abs(a - b).sum(axis=1).max() < 1e-2


@pytest.mark.parametrize("index", range(7))
def test_fictitious_play_starts_from_the_best_response_to_the_uniform_flow(index):
    # the first best response comes from the two-column workspace's own sweeps
    game = _contract_games()[index]
    policy, _, _ = fictitious_play(game, 1)
    expected, _ = best_response(game, induced_flow(game, uniform_policy(game)))
    assert np.array_equal(policy, expected)


def test_fictitious_play_meets_only_flows_that_are_distributions():
    # -log(m) is finite wherever a flow has full support, as it does on this
    # kernel, but a column of zero mass would make it infinite
    rng = np.random.default_rng(34)
    game = dataclasses.replace(random_game(rng, n_states=4, n_actions=3, horizon=4),
                               reward=lambda s, m, a: -np.log(np.asarray(m)) + 0.0 * a)
    _, _, trace = fictitious_play(game, 20)
    assert np.all(np.isfinite(trace)) and np.all(trace >= 0.0)


# --- sweep workspaces ------------------------------------------------------------
# Each call runs on its own workspace and copies out what it returns, so a
# second call gives the same bits and writing into a result changes nothing.

def _workspace_games():
    rng = np.random.default_rng(31)
    return [two_state_congestion(3), ring_game(6, 5),
            random_game(rng, n_states=5, n_actions=3, horizon=4),
            random_game(rng, n_states=4, n_actions=9, horizon=3)]


@pytest.mark.parametrize("game", _workspace_games(), ids=["two-state", "ring", "A=3", "A=9"])
def test_fictitious_play_twice_on_one_game_is_identical(game):
    first = fictitious_play(game, 15)
    second = fictitious_play(game, 15)
    for a, b in zip(first, second):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(first + second, 2))


@pytest.mark.parametrize("game", _workspace_games(), ids=["two-state", "ring", "A=3", "A=9"])
def test_writing_into_results_changes_no_later_call(game):
    policy = random_policy(game, np.random.default_rng(32))
    policy_before = policy.copy()
    calls = {
        "best_response": lambda: best_response(game, induced_flow(game, uniform_policy(game))),
        "policy_value": lambda: (policy_value(game, policy, induced_flow(game, policy)),),
        "induced_flow": lambda: (induced_flow(game, policy),),
        "fictitious_play": lambda: fictitious_play(game, 6),
    }
    expected = {name: [a.copy() for a in call()] for name, call in calls.items()}
    for call in calls.values():
        for result in call():
            result[...] = np.nan  # every result is a writable array of its own
    for name, call in calls.items():
        for a, b in zip(call(), expected[name]):
            assert np.array_equal(a, b), name
    exploitability(game, policy)
    assert np.array_equal(policy, policy_before)  # inputs are copied in, never written


_SWEEPING_CALLS = dict({name: _REWARD_CALLERS[name] for name in
                        ("best_response", "policy_value", "exploitability", "fictitious_play",
                         "nplayer_gap")}, induced_flow=lambda g, f, p: induced_flow(g, p))


@pytest.mark.parametrize("entry", sorted(_SWEEPING_CALLS))
def test_every_sweeping_entry_point_builds_one_workspace(entry, monkeypatch):
    game = ring_game(6, 5)
    policy = random_policy(game, np.random.default_rng(33))
    flow = induced_flow(game, policy)
    built = []
    init = _Sweeps.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Sweeps, "__init__", counting_init)
    _SWEEPING_CALLS[entry](game, flow, policy)
    assert len(built) == 1


# --- exact N-player payoff ------------------------------------------------------

@pytest.mark.parametrize("n_states,n_agents", [(4, 6), (3, 5), (2, 1)])
def test_joint_states_match_product_order(n_states, n_agents):
    expected = np.array(list(itertools.product(range(n_states), repeat=n_agents)), dtype=int)
    joint = _joint_states(n_states, n_agents)
    assert joint.dtype == expected.dtype
    assert joint.shape == expected.shape
    assert np.array_equal(joint, expected)


def _never_called(*args, **kwargs):
    raise AssertionError("joint states built past the limit")


@pytest.mark.parametrize("payoff", [nplayer_payoff, nplayer_payoff_enumerated])
def test_payoff_rejects_joint_states_past_the_limit(payoff, monkeypatch):
    # 4^11 joint states, one agent past the 2^20 limit; the stubs keep a
    # missing check from building the 4^11-row tables
    monkeypatch.setattr(oracle, "_joint_states", _never_called)
    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=_never_called))
    game = ring_game()
    with pytest.raises(OracleError, match="4194304 joint states"):
        payoff(game, [uniform_policy(game)] * 11, 0)


@pytest.mark.parametrize("payoff", [nplayer_payoff, nplayer_payoff_enumerated])
def test_payoff_caps_the_policy_count_at_63(payoff):
    # one state makes a single joint state for any N, under the 2^20 limit;
    # the DP's joint-state table takes one numpy axis per agent plus one
    game = DiscreteMFG(1, 1, 1, np.ones((1, 1, 1)), lambda s, m, a: np.ones(np.shape(s)), np.ones(1))
    policy = uniform_policy(game)
    assert payoff(game, [policy] * 63, 0) == 1.0
    with pytest.raises(OracleError, match="64 policies, more than 63"):
        payoff(game, [policy] * 64, 0)


def test_payoff_invariant_under_permuting_others():
    rng = np.random.default_rng(14)
    game = random_game(rng, n_states=2, n_actions=2, horizon=2)
    pi = random_policy(game, rng)
    others = [random_policy(game, rng) for _ in range(2)]
    a = nplayer_payoff(game, [pi] + others, 0)
    b = nplayer_payoff(game, [pi] + others[::-1], 0)
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize(
    "n_agents, n_states, n_actions, horizon, agent, seed, games",
    [(3, 2, 2, 2, 1, 15, 5), (2, 2, 2, 1, 0, 12, 5), (3, 2, 2, 2, 0, 13, 5),
     (4, 3, 3, 3, 2, 16, 3), (5, 3, 2, 3, 4, 17, 2), (5, 3, 2, 3, 1, 18, 1)],
    ids=["3 agents T=2 agent 1", "2 agents T=1 agent 0", "3 agents T=2 agent 0",
         "4 agents S=3 A=3 T=3 agent 2", "5 agents S=3 A=2 T=3 agent 4",
         "5 agents S=3 A=2 T=3 agent 1"])
def test_dp_and_enumeration_agree(n_agents, n_states, n_actions, horizon, agent, seed, games):
    rng = np.random.default_rng(seed)
    for _ in range(games):
        game = random_game(rng, n_states=n_states, n_actions=n_actions, horizon=horizon)
        pols = [random_policy(game, rng) for _ in range(n_agents)]
        dp = nplayer_payoff(game, pols, agent)
        enum = nplayer_payoff_enumerated(game, pols, agent)
        assert dp == pytest.approx(enum, abs=1e-12)


@pytest.mark.parametrize("index", range(7))
def test_enumeration_takes_every_contract_reward(index):
    # one reward call on (S^N, 1) states and shares and (A^N,) actions, for
    # rewards that are scalars, ignore the mass or index a table by action
    game = _contract_games()[index]
    rng = np.random.default_rng(30 + index)
    pols = [random_policy(game, rng) for _ in range(2)]
    assert nplayer_payoff_enumerated(game, pols, 1) == pytest.approx(nplayer_payoff(game, pols, 1),
                                                                      abs=1e-12)


def _three_agent_draw(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, n_states=4, n_actions=2, horizon=3)
    return game, [random_policy(game, rng) for _ in range(3)]


@pytest.mark.parametrize("rows", [64, 4, 3, 1])
def test_enumeration_in_row_chunks_matches_the_dp(rows, monkeypatch):
    # 3 agents over 4 states and 2 actions: 64 joint states, each with a
    # table of 8 joint actions by 64 successors; 3 rows a chunk leaves a
    # one-row remainder
    game, pols = _three_agent_draw(19)
    dp = nplayer_payoff(game, pols, 1)
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", rows * 8 * 64)
    assert nplayer_payoff_enumerated(game, pols, 1) == pytest.approx(dp, abs=1e-12)


_ONE_ACTION = DiscreteMFG(2, 1, 1, np.ones((2, 1, 2)) / 2, lambda s, m, a: m, np.ones(2) / 2)


@pytest.mark.parametrize("game, budget, n_agents, entries", [
    (ring_game(), oracle.ENUMERATION_BUDGET, 7, 2 ** 7 * 4 ** 7),  # 2^7 joint actions by 4^7 successors
    (ring_game(), 8 * 64 - 1, 3, 8 * 64),
    (_ONE_ACTION, oracle.ENUMERATION_BUDGET, 17, 17 * 2 ** 17),  # the (2^17, 17) index table
], ids=["7 agents", "budget one entry short", "one action"])
def test_enumeration_rejects_tables_past_the_budget(game, budget, n_agents, entries, monkeypatch):
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", budget)
    monkeypatch.setattr(oracle, "itertools", types.SimpleNamespace(product=_never_called))
    with pytest.raises(OracleError, match="make %d-entry tables, more than %d" % (entries, budget)):
        nplayer_payoff_enumerated(game, [uniform_policy(game)] * n_agents, 0)


def test_enumeration_tables_stay_within_the_budget(monkeypatch):
    # 4 agents over 3 states and 2 actions: 81 joint states by 16 joint
    # actions by 81 successors, 0.8 MB of transition products in one table;
    # a 2^12-entry budget (32 KB) walks it 3 joint states at a time, so the
    # reward table, a chunk's transition products and the agent factor
    # multiplied into them fit in four budgets
    rng = np.random.default_rng(22)
    game = random_game(rng, n_states=3, n_actions=2, horizon=2)
    pols = [random_policy(game, rng) for _ in range(4)]
    budget = 2 ** 12
    monkeypatch.setattr(oracle, "ENUMERATION_BUDGET", budget)
    value, peak = traced_peak(nplayer_payoff_enumerated, game, pols, 0)
    assert value == pytest.approx(nplayer_payoff(game, pols, 0), abs=1e-12)
    assert peak < 4 * 8 * budget


def _raises(*args, **kwargs):
    raise AssertionError("the enumerated reference called into the DP")


def test_enumeration_is_independent_of_the_dp(monkeypatch):
    game, pols = _three_agent_draw(23)
    dp = nplayer_payoff(game, pols, 2)
    expected = nplayer_payoff_enumerated(game, pols, 2)
    for name in ("nplayer_payoff", "_joint_states"):
        monkeypatch.setattr(oracle, name, _raises)
    for name in ("einsum", "tensordot"):  # the DP's per-agent kernel contraction
        monkeypatch.setattr(np, name, _raises)
    assert nplayer_payoff_enumerated(game, pols, 2) == expected
    assert expected == pytest.approx(dp, abs=1e-12)


# --- finite-population gap ----------------------------------------------------

def test_draw_never_lands_past_the_last_index():
    # the first row sums to 1 - 5e-13, which the policy and kernel checks accept
    cdf = _cdf_table(np.array([[0.1, 0.2, 0.7 - 5e-13], [0.5, 0.5, 0.0]]))
    u = np.array([1.0 - 2.0 ** -53, 0.05, 0.15, 0.31, 1.0 - 2.0 ** -53, 0.7])
    rows = np.array([0, 0, 0, 0, 1, 1])
    assert _draw(cdf, rows, u).tolist() == [2, 0, 1, 2, 1, 1]


class _TopDraws:
    """A generator stand-in whose every uniform is the largest double below 1."""

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0 ** -53)


def test_population_value_never_plays_an_action_past_the_last():
    game = DiscreteMFG(1, 3, 2, np.ones((1, 3, 1)), lambda s, m, a: np.asarray(a, dtype=float),
                       np.array([1.0]))
    policy = np.tile([0.1, 0.2, 0.7 - 5e-13], (2, 1, 1))
    # every agent draws the last action, 2, at both steps
    assert simulate_population_value(game, policy, 4, _TopDraws()) == 4.0
    j_inf = float(game.mu0 @ policy_value(game, policy, induced_flow(game, policy))[0])
    assert nplayer_gap(game, policy, 4, 3, _TopDraws()) == (abs(4.0 - j_inf), 0.0)


@pytest.mark.parametrize("index", range(7))
def test_gap_takes_every_contract_reward(index):
    # one reward call per step on (S, 1) states and each trial's (S, 1)
    # masses, for rewards that are scalars, ignore the mass or index a table
    # by action; the per-agent reference calls it on (N,) arrays
    from test_gap_reference import ref_gap
    game = _contract_games()[index]
    policy = random_policy(game, np.random.default_rng(50 + index))
    rng, ref_rng = np.random.default_rng(index), np.random.default_rng(index)
    assert nplayer_gap(game, policy, 30, 7, rng) == ref_gap(game, policy, 30, 7, ref_rng)


def _mass_free_game_and_best_response(rng):
    game = random_game(rng, coupled=False, horizon=2)
    return game, best_response(game, induced_flow(game, uniform_policy(game)))[0]


def _ring_and_fictitious_play(rng):
    game = ring_game()
    return game, fictitious_play(game, 50)[0]


@pytest.mark.parametrize("make, seed, n_few, trials", [
    (_mass_free_game_and_best_response, 16, 64, 400),
    (_ring_and_fictitious_play, 17, 8, 200),
], ids=["mass-free", "ring"])
def test_gap_noise_falls_with_population_with_or_without_coupling(make, seed, n_few, trials):
    # |J_N - J_inf| is mostly one trial's O(1/sqrt(N)) noise, so it falls
    # with N whether or not the reward reads the mass: this checks the noise,
    # not a mean-field effect
    rng = np.random.default_rng(seed)
    game, policy = make(rng)
    gap_few, _ = nplayer_gap(game, policy, n_few, trials, rng)
    gap_many, _ = nplayer_gap(game, policy, 4096, trials, rng)
    assert gap_many < gap_few


# --- Riccati ------------------------------------------------------------------

def riccati_gain(a, b, q, r, gamma=1.0, tol=1e-12, max_iter=10 ** 5):
    """Scalar discounted Riccati fixed point for the textbook convention
    cost = sum gamma^k (q*x_k^2 + r*u_k^2), the scalar reference for
    lqr_analytic.  Returns (gain, fixed point)."""
    p = q
    for _ in range(max_iter):
        k = gamma * p * a * b / (r + gamma * p * b * b)
        p_new = q + r * k * k + gamma * p * (a - b * k) ** 2
        if abs(p_new - p) < tol:
            return gamma * p_new * a * b / (r + gamma * p_new * b * b), p_new
        p = p_new
    raise AssertionError("Riccati iteration did not converge")


def test_riccati_scalar_golden_role():
    gain, p = riccati_gain(1.0, 1.0, 1.0, 1.0, gamma=1.0)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert p == pytest.approx(golden, abs=1e-10)
    assert gain == pytest.approx(golden / (1.0 + golden), abs=1e-10)


def test_riccati_matches_scipy_dare():
    # imported here, so a missing scipy fails this test alone and not the
    # collection of this module and of those that import from it
    import scipy.linalg
    rng = np.random.default_rng(19)
    for _ in range(10):
        a, b = rng.uniform(0.3, 1.2, 2)
        q, r = rng.uniform(0.2, 2.0, 2)
        gamma = rng.uniform(0.8, 1.0)
        gain, p = riccati_gain(a, b, q, r, gamma)
        # discounted problem == undiscounted with dynamics scaled by sqrt(gamma)
        p_ref = scipy.linalg.solve_discrete_are(np.array([[math.sqrt(gamma) * a]]),
                                                np.array([[math.sqrt(gamma) * b]]),
                                                np.array([[q]]), np.array([[r]]))[0, 0]
        assert p == pytest.approx(p_ref, rel=1e-8)


def test_lqr_analytic_noiseless():
    spec = lqr_env(sigma1=0.0)
    sol = lqr_analytic(spec)
    np.testing.assert_allclose(sol.mean, [0.5, -0.5], atol=1e-9)
    np.testing.assert_allclose(sol.covariance, 0.0, atol=1e-12)


def test_lqr_analytic_gain_matches_textbook_reduction():
    # arrival-state cost q*z'^2 + (eta/2)*u^2 with a=1 equals the textbook
    # current-state problem with q -> q/gamma, r -> eta/2
    spec = lqr_env()
    sol = lqr_analytic(spec)
    gain_ref, _ = riccati_gain(1.0, 1.0, 1.0 / spec.gamma, spec.eta / 2.0, spec.gamma)
    np.testing.assert_allclose(np.diag(sol.gain), gain_ref, rtol=1e-9)
    assert abs(sol.gain[0, 1]) < 1e-12


def test_lqr_analytic_stationary_moments():
    spec = lqr_env()
    sol = lqr_analytic(spec)
    np.testing.assert_allclose(sol.mean, [0.5, -0.5], atol=1e-9)
    f = 1.0 - sol.gain[0, 0]
    expected_var = spec.sigma1 ** 2 / (1.0 - f ** 2)
    variance = np.diag(sol.covariance).mean()
    assert variance == pytest.approx(expected_var, rel=1e-9)
    # simulate the closed loop as an independent check on the moments
    rng = np.random.default_rng(20)
    x = np.tile(np.array(spec.reward.target), (20000, 1))
    for _ in range(200):
        u = -(x @ sol.gain.T) + sol.offset
        x = x + u + spec.sigma1 * rng.standard_normal(x.shape)
    assert np.abs(x.mean(axis=0) - sol.mean).max() < 0.01
    assert np.abs(x.var(axis=0).mean() - variance) < 0.15 * variance


def test_lqr_analytic_policy_played_through_the_environment_returns_the_exact_value():
    # ties the oracle's reward convention (the arrival state, 0.5*eta*|u|^2)
    # to envs.reward: its deterministic policy u = offset - gain x, played for
    # the horizon through envs' sampler, step and reward, against the exact
    # mean-and-covariance recursion of the same play
    spec = lqr_env()
    sol = lqr_analytic(spec)
    q, target = spec.reward.q_matrix, np.asarray(spec.reward.target)
    f = np.eye(2) - sol.gain
    mean, cov = np.asarray(spec.init_mean), spec.init_std ** 2 * np.eye(2)
    exact = 0.0
    for k in range(spec.horizon):
        u_mean, u_cov = sol.offset - sol.gain @ mean, sol.gain @ cov @ sol.gain.T
        mean, cov = f @ mean + sol.offset, f @ cov @ f.T + spec.sigma1 ** 2 * np.eye(2)
        tracking = (mean - target) @ q @ (mean - target) + np.trace(q @ cov)
        movement = 0.5 * spec.eta * (u_mean @ u_mean + np.trace(u_cov))
        exact -= spec.gamma ** k * (tracking + movement)
    assert exact == pytest.approx(-0.89345, abs=5e-6)

    n = 200_000
    rng = np.random.default_rng(0)
    x = envs.sample_initial(spec, rng, n)
    returns, density = np.zeros(n), np.zeros(n)
    for k in range(spec.horizon):
        u = sol.offset - x @ sol.gain.T
        x = envs.step(spec, x, u, rng.standard_normal((n, 2)))
        returns += spec.gamma ** k * envs.reward(spec, k + 1, x, u, density)
    assert abs(returns.mean() - exact) < 4.0 * returns.std() / math.sqrt(n)


@pytest.mark.parametrize("spec", [congestion_env(), demand_env()], ids=["congestion", "demand"])
def test_lqr_analytic_needs_a_quadratic_reward(spec):
    with pytest.raises(OracleError, match="needs an lqr environment"):
        lqr_analytic(spec)


def test_lqr_analytic_rejects_unstable():
    # no state cost: the gain stays zero, so the closed loop x' = x has
    # eigenvalue 1 and never settles
    zero_q = ((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(OracleError, match="non-stabilizable"):
        lqr_analytic(lqr_env(reward=LqrReward((0.0, 0.0), zero_q), eta=1.0))
    # no state cost and no control cost: the gain's linear system is singular
    with pytest.raises(OracleError, match="singular control weight"):
        lqr_analytic(lqr_env(reward=LqrReward(q=zero_q), eta=0.0))


def test_game_validation():
    trans = np.ones((2, 2, 2))  # rows sum to 2
    with pytest.raises(OracleError):
        DiscreteMFG(2, 2, 1, trans, lambda s, m, a: 0.0, np.array([0.5, 0.5]))
    with pytest.raises(OracleError, match="kernel shape"):
        DiscreteMFG(2, 2, 1, np.full((2, 2, 3), 1.0 / 3.0), lambda s, m, a: 0.0,
                    np.array([0.5, 0.5]))
    with pytest.raises(OracleError, match="transitions must be an array of numbers"):
        DiscreteMFG(2, 2, 1, "abc", lambda s, m, a: 0.0, np.array([0.5, 0.5]))
    with pytest.raises(OracleError, match="mu0 must be an array of numbers"):
        DiscreteMFG(2, 2, 1, np.full((2, 2, 2), 0.5), lambda s, m, a: 0.0, "ab")
    with pytest.raises(OracleError):
        ring = ring_game()
        best_response(ring, np.ones((2, 4)))


_SIZES_NOT_COUNTS = {
    "n_states 0": lambda g: DiscreteMFG(0, 2, 2, np.zeros((0, 2, 0)), g.reward, np.zeros(0)),
    "n_actions 0": lambda g: DiscreteMFG(2, 0, 2, np.zeros((2, 0, 2)), g.reward, g.mu0),
    "n_states -1": lambda g: dataclasses.replace(g, n_states=-1),
    "n_states 2.0": lambda g: dataclasses.replace(g, n_states=2.0),
    "n_actions 2.0": lambda g: dataclasses.replace(g, n_actions=2.0),
    "n_states '2'": lambda g: dataclasses.replace(g, n_states="2"),
    "n_actions None": lambda g: dataclasses.replace(g, n_actions=None),
    "n_actions True": lambda g: DiscreteMFG(2, True, 2, np.ones((2, 1, 2)) / 2, g.reward, g.mu0),
}


@pytest.mark.parametrize("case", sorted(_SIZES_NOT_COUNTS))
def test_game_sizes_must_be_ints_of_at_least_one(case):
    field = case.split()[0]
    with pytest.raises(OracleError, match="%s must be an int >= 1" % field):
        _SIZES_NOT_COUNTS[case](two_state_congestion())


_BAD_BUILT_IN_GAMES = {
    "ring no states": (lambda: ring_game(0), "n_states must be an int >= 1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_BUILT_IN_GAMES))
def test_built_in_games_check_their_parameters(case):
    make, message = _BAD_BUILT_IN_GAMES[case]
    with pytest.raises(OracleError, match=message):
        make()


def test_game_sizes_accept_numpy_ints():
    game = dataclasses.replace(two_state_congestion(), n_states=np.int64(2), n_actions=np.int32(2))
    assert fictitious_play(game, 3)[2].shape == (3,)


@pytest.mark.parametrize("field", ["transitions", "mu0"])
def test_game_rejects_nan_distributions(field):
    game = two_state_congestion()
    bad = getattr(game, field).copy()
    bad.flat[0] = np.nan
    with pytest.raises(OracleError, match="distribution"):
        dataclasses.replace(game, **{field: bad})
