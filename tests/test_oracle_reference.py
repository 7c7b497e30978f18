"""Finite-game oracles against a plain-loop reference, to a fixed tolerance.

The reference below evaluates every quantity with explicit per-state,
per-action loops and sequential sums, one scalar reward call per entry.  The
oracles may sum in another order (one matrix product over all states and
actions), so values are compared to ``ATOL`` rather than bit for bit, on
seeded games whose kernels are not 0/1.  Best-response policies, which come
from an argmax, must be identical.
"""

import itertools
import math

import numpy as np
import pytest

from mfglearn.oracle import (DiscreteMFG, best_response, exploitability, fictitious_play,
                             induced_flow, nplayer_payoff_enumerated, policy_value, random_policy)

ATOL = 1e-12
GAMES = 60
NPLAYER_GAMES = 24
FP_ITERATIONS = 6


def make_game(index, max_states=12, max_actions=4, max_horizon=6):
    """Seeded game with S, A and T drawn from 1 up to their maxima (12, 4 and
    6 by default), a dense random kernel and a reward that is mass-coupled
    for even indices and uncoupled for odd ones."""
    rng = np.random.default_rng(1000 + index)
    S = int(rng.integers(1, max_states + 1))
    A = int(rng.integers(1, max_actions + 1))
    T = int(rng.integers(1, max_horizon + 1))
    trans = rng.random((S, A, S)) + 0.05
    trans /= trans.sum(axis=2, keepdims=True)
    mu0 = rng.random(S) + 0.1
    mu0 /= mu0.sum()
    table = rng.standard_normal((S, A))
    if index % 2 == 0:
        coef = rng.uniform(0.2, 1.0, S)
        reward = lambda s, m, a: table[np.asarray(s), a] - coef[np.asarray(s)] * np.asarray(m)
    else:
        reward = lambda s, m, a: table[np.asarray(s), a] + 0.0 * np.asarray(m)
    return DiscreteMFG(S, A, T, trans, reward, mu0), rng


# --- plain-loop reference ---------------------------------------------------------

def ref_flow(game, policy):
    S, A = game.n_states, game.n_actions
    p = game.transitions.tolist()
    flow = [game.mu0.tolist()]
    for t in range(game.horizon):
        nxt = [0.0] * S
        for s in range(S):
            for a in range(A):
                w = flow[t][s] * float(policy[t, s, a])
                for s2 in range(S):
                    nxt[s2] += w * p[s][a][s2]
        flow.append(nxt)
    return np.array(flow)


def ref_q(game, flow_t, v_next):
    S, A = game.n_states, game.n_actions
    p = game.transitions.tolist()
    q = [[0.0] * A for _ in range(S)]
    for s in range(S):
        for a in range(A):
            future = 0.0
            for s2 in range(S):
                future += p[s][a][s2] * v_next[s2]
            q[s][a] = float(game.reward(s, flow_t[s], a)) + future
    return q


def ref_best_response(game, flow):
    T, S, A = game.horizon, game.n_states, game.n_actions
    policy = np.zeros((T, S, A))
    values = [[0.0] * S for _ in range(T + 1)]
    for t in range(T - 1, -1, -1):
        q = ref_q(game, flow[t], values[t + 1])
        for s in range(S):
            best = 0
            for a in range(1, A):
                if q[s][a] > q[s][best]:
                    best = a
            policy[t, s, best] = 1.0
            values[t][s] = q[s][best]
    return policy, np.array(values)


def ref_policy_value(game, policy, flow):
    T, S, A = game.horizon, game.n_states, game.n_actions
    values = [[0.0] * S for _ in range(T + 1)]
    for t in range(T - 1, -1, -1):
        q = ref_q(game, flow[t], values[t + 1])
        for s in range(S):
            total = 0.0
            for a in range(A):
                total += float(policy[t, s, a]) * q[s][a]
            values[t][s] = total
    return np.array(values)


def ref_exploitability(game, policy):
    flow = ref_flow(game, policy)
    _, v_best = ref_best_response(game, flow)
    gap = v_best[0] - ref_policy_value(game, policy, flow)[0]
    return sum(m * g for m, g in zip(game.mu0.tolist(), gap.tolist()))


def ref_fictitious_play(game, iterations):
    """Fictitious play from the uniform policy's flow, averaging policies and
    flows; returns the average policy, average flow and the reference
    exploitability of each iteration's average policy."""
    T, S, A = game.horizon, game.n_states, game.n_actions
    belief = ref_flow(game, np.full((T, S, A), 1.0 / A))
    pols, flows, trace = [], [], []
    for n in range(1, iterations + 1):
        pol, _ = ref_best_response(game, belief)
        pols.append(pol)
        flows.append(ref_flow(game, pol))
        belief = np.mean(flows, axis=0)
        trace.append(ref_exploitability(game, np.mean(pols, axis=0)))
    return np.mean(pols, axis=0), belief, np.array(trace)


def ref_nplayer_payoff(game, policies, agent):
    """The tracked agent's exact payoff by memoized recursion over joint
    states, joint actions and joint successors, one tuple at a time."""
    n, S, A, T = len(policies), game.n_states, game.n_actions, game.horizon
    p = game.transitions.tolist()
    pols = [pol.tolist() for pol in policies]
    actions = list(itertools.product(range(A), repeat=n))
    states = list(itertools.product(range(S), repeat=n))
    cache = {}

    def tail(t, js):
        if t == T:
            return 0.0
        if (t, js) not in cache:
            share = sum(1 for s in js if s == js[agent]) / float(n)
            value = 0.0
            for ja in actions:
                w = 1.0
                for i in range(n):
                    w *= pols[i][t][js[i]][ja[i]]
                future = 0.0
                for ns in states:
                    pr = 1.0
                    for i in range(n):
                        pr *= p[js[i]][ja[i]][ns[i]]
                    future += pr * tail(t + 1, ns)
                value += w * (float(game.reward(js[agent], share, ja[agent])) + future)
            cache[t, js] = value
        return cache[t, js]

    mu0 = game.mu0.tolist()
    return sum(math.prod(mu0[s] for s in js) * tail(0, js) for js in states)


# --- the oracles against the reference ---------------------------------------------

@pytest.mark.parametrize("index", range(GAMES))
def test_induced_flow_matches_reference(index):
    game, rng = make_game(index)
    policy = random_policy(game, rng)
    np.testing.assert_allclose(induced_flow(game, policy), ref_flow(game, policy), rtol=0, atol=ATOL)


@pytest.mark.parametrize("index", range(GAMES))
def test_best_response_matches_reference(index):
    game, rng = make_game(index)
    flow = ref_flow(game, random_policy(game, rng))
    policy, values = best_response(game, flow)
    ref_policy, ref_values = ref_best_response(game, flow)
    assert np.array_equal(policy, ref_policy)
    np.testing.assert_allclose(values, ref_values, rtol=0, atol=ATOL)


@pytest.mark.parametrize("index", range(GAMES))
def test_policy_value_matches_reference(index):
    game, rng = make_game(index)
    flow = ref_flow(game, random_policy(game, rng))
    policy = random_policy(game, rng)
    np.testing.assert_allclose(policy_value(game, policy, flow),
                               ref_policy_value(game, policy, flow), rtol=0, atol=ATOL)


@pytest.mark.parametrize("index", range(GAMES))
def test_exploitability_matches_reference(index):
    game, rng = make_game(index)
    policy = random_policy(game, rng)
    assert exploitability(game, policy) == pytest.approx(ref_exploitability(game, policy),
                                                         rel=0, abs=ATOL)


@pytest.mark.parametrize("index", range(GAMES))
def test_fictitious_play_matches_reference_replay(index):
    game, _ = make_game(index)
    avg_policy, avg_flow, trace = fictitious_play(game, FP_ITERATIONS)
    ref_policy, ref_avg_flow, ref_trace = ref_fictitious_play(game, FP_ITERATIONS)
    np.testing.assert_allclose(avg_policy, ref_policy, rtol=0, atol=ATOL)
    np.testing.assert_allclose(avg_flow, ref_avg_flow, rtol=0, atol=ATOL)
    # trace[n-1] certifies the average policy after iteration n
    np.testing.assert_allclose(trace, ref_trace, rtol=0, atol=ATOL)


@pytest.mark.parametrize("index", range(NPLAYER_GAMES))
def test_nplayer_payoff_enumerated_matches_reference(index):
    game, rng = make_game(index, max_states=3, max_actions=3, max_horizon=3)
    n = int(rng.integers(1, 4))
    policies = [random_policy(game, rng) for _ in range(n)]
    agent = int(rng.integers(0, n))
    assert nplayer_payoff_enumerated(game, policies, agent) == pytest.approx(
        ref_nplayer_payoff(game, policies, agent), rel=0, abs=ATOL)
