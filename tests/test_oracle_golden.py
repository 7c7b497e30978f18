"""Golden oracle outputs: seeded finite-game solves pinned to exact values.

Refactors of the finite-game oracles (the reward table, the backward passes,
the flow propagation, the N-player evaluator) must leave these results
bit-identical.  The digests cover fictitious play's average policy, average
flow and exploitability trace on four games, the value table of a seeded
random policy, and the exact N-player payoff of seeded random policies.

The ring game's certificate is exactly 0 at every iteration: its best
response does not depend on the flow.  The moving ring and the dense game
below are games where fictitious play moves at every iteration, so their
digests also pin the averaging, the best-response changes and the
certificate arithmetic.

Fictitious play's trace was re-pinned once, when its certificate became the
flow-weighted advantage sum of the sweeps it already runs (the
performance-difference lemma's form) in place of a third backward column
holding the average policy's own value.  The two are the same
exploitability summed in another order, so only trace bits moved, by at
most 1.9e-14: TWO_STATE_TRACE, MOVING_RING_TRACE_SHA, MOVING_RING_LAST_GAP,
DENSE_TRACE_SHA, DENSE_FIRST_GAP and DENSE_LAST_GAP.  The ring's trace and
entry 7 of the two-state trace stay exactly 0, and every policy, flow,
value, exploitability and gap pin is unchanged.

exploitability was re-pinned once, when it became that same advantage sum
read off one one-column workspace in place of mu0 @ (V* - V^pi) from
per-state values: DENSE_RANDOM_EXPLOITABILITY and
DENSE_AVERAGE_EXPLOITABILITY moved in their last bits.
"""

import numpy as np

from mfglearn.oracle import (DiscreteMFG, best_response, exploitability, fictitious_play,
                             induced_flow, nplayer_gap, nplayer_payoff, policy_value,
                             random_policy, ring_game, two_state_congestion)
from test_golden_envs import _digest

RING_POLICY_SHA = "5d025f355dbca7c1aa7635392c53b47fb373986e4b044a25cc4711f16fc9e77c"
RING_FLOW_SHA = "9ac6e867ad459a1ba846462f9a334cadf277a0697b1d3a6d9d4ea31f8e5fcb54"
RING_TRACE_SHA = "7b6436b0c98f62380866d9432c2af0ee08ce16a171bda6951aecd95ee1307d61"

TWO_STATE_TRACE = [
    0.19999999999999996, 0.2666666666666666, 0.1000000000000001, 0.04571428571428571,
    0.02222222222222227, 0.010389610389610395, 0.0038461538461538334, 0.0,
    0.010438369679855725, 0.026509895417613265, 0.018473705983987572, 0.012666740533826297,
    0.008376726161235748, 0.00514998740075745, 0.002687188851673058, 0.0007848795267638639,
    0.00522146570655979, 0.01187772617486042, 0.009019856147612658, 0.006660425329966156,
]
TWO_STATE_POLICY_SHA = "91bfd07de7ec8a55b0fd948a129f96b1d1cd8c5da51d2c7355326301c7d7afa1"
TWO_STATE_FLOW_SHA = "8e5a03aebc17988853f123ededef27c456e9aeac9f91f988000ca64171e84036"

RANDOM_POLICY_START_VALUE = 0.508437142124746
RANDOM_POLICY_VALUES_SHA = "8a38e8b701528c0ad275179d2b225bb625f1791a21f9835104f4124f78a21a62"
RANDOM_POLICY_EXPLOITABILITY = 2.3254494876888185

NPLAYER_PAYOFF = 0.7992859248740692

MOVING_RING_POLICY_SHA = "de9113ff046bfe663a473dfd2f777caff2d4b548c7f24c1268c2f3dc70c84318"
MOVING_RING_FLOW_SHA = "e11a2ea7b433aa8f7ca40f5756f36d43032d3c386176bc2ba3f2b8a8fa0dca3e"
MOVING_RING_TRACE_SHA = "12895e22f49e2258afcd0c64c82e5f7bb96890595fdc057a22b344169195691a"
MOVING_RING_FIRST_GAP = 8.906895627322847
MOVING_RING_LAST_GAP = 3.2961827358160978

DENSE_POLICY_SHA = "538a64fdec002759be9ef61d7b4f0e907a03b5597153a416bc6060ec45e378e4"
DENSE_FLOW_SHA = "0c7b0d2326e6d0700d5ed346f255afe7a5bf29f4d7dabf41332d17292ded0f4b"
DENSE_TRACE_SHA = "fdc0702afcc138730499b6b1ee49749bb44db16a9da8741bc4b7315743ba7c50"
DENSE_FIRST_GAP = 0.557448485341733
DENSE_LAST_GAP = 0.00983273816733725
DENSE_BEST_RESPONSE_SHA = "145f742e126cb99d908c69e675b61a09f15b0cbf40d658048b951bc776dacbc7"
DENSE_BEST_VALUES_SHA = "e60e0ed015e8fec5d96c65a06a5ae29605253c13f37602a9eb596da2b2317052"
DENSE_RANDOM_VALUES_SHA = "fa97513cd84df596f51eb9295412f4d15cf8ec70c9c11c4c04f05b4d912df2a6"
DENSE_RANDOM_EXPLOITABILITY = 9.691264450949438
# the average policy's certificate recomputed on its own: the same advantage
# sum as the trace's last entry, but a one-column workspace's products take
# numpy's matrix-vector route, whose bits can differ from a row of fictitious
# play's two-column products; here the last bits do
DENSE_AVERAGE_EXPLOITABILITY = 0.009832738167339754
DENSE_GAP = (1.212520938999263, 0.6681680065140856)


def moving_ring(n_states=50, horizon=30):
    """The ring's stay/clockwise kernel with a crowding reward at every
    state, w_s/(1 + S*m), w_s = 1 + 0.5*cos(2*pi*s/S): the best response
    depends on the flow, so fictitious play moves at every iteration."""
    base = ring_game(n_states, horizon)
    weight = 1.0 + 0.5 * np.cos(2.0 * np.pi * np.arange(n_states) / n_states)
    reward = lambda s, m, a: (weight[np.asarray(s)] / (1.0 + n_states * np.asarray(m))
                              + 0.0 * np.asarray(a))
    return DiscreteMFG(n_states, 2, horizon, base.transitions, reward, base.mu0)


def dense_game(n_states=7, n_actions=9, horizon=6):
    """Seeded game with a dense random kernel, nine actions and a strongly
    mass-coupled reward."""
    rng = np.random.default_rng(15)
    trans = rng.random((n_states, n_actions, n_states)) + 0.05
    trans /= trans.sum(axis=2, keepdims=True)
    mu0 = rng.random(n_states) + 0.1
    mu0 /= mu0.sum()
    table = rng.standard_normal((n_states, n_actions))
    coef = rng.uniform(5.0, 15.0, n_states) * n_states
    reward = lambda s, m, a: table[np.asarray(s), a] - coef[np.asarray(s)] * np.asarray(m)
    return DiscreteMFG(n_states, n_actions, horizon, trans, reward, mu0)


def test_ring_fictitious_play_is_bit_identical():
    policy, flow, trace = fictitious_play(ring_game(12, 8), 40)
    # every state that can reach the rewarding state does so: the certificate is exactly 0
    assert trace.tolist() == [0.0] * 40
    assert _digest(policy) == RING_POLICY_SHA
    assert _digest(flow) == RING_FLOW_SHA
    assert _digest(trace) == RING_TRACE_SHA


def test_two_state_fictitious_play_is_bit_identical():
    policy, flow, trace = fictitious_play(two_state_congestion(3), 20)
    assert trace.tolist() == TWO_STATE_TRACE
    assert _digest(policy) == TWO_STATE_POLICY_SHA
    assert _digest(flow) == TWO_STATE_FLOW_SHA


def test_random_policy_value_and_exploitability_are_bit_identical():
    game = ring_game(12, 8)
    policy = random_policy(game, np.random.default_rng(0))
    values = policy_value(game, policy, induced_flow(game, policy))
    assert float(game.mu0 @ values[0]) == RANDOM_POLICY_START_VALUE
    assert _digest(values) == RANDOM_POLICY_VALUES_SHA
    assert exploitability(game, policy) == RANDOM_POLICY_EXPLOITABILITY


def test_nplayer_payoff_is_bit_identical():
    game = ring_game()
    rng = np.random.default_rng(1)
    policies = [random_policy(game, rng) for _ in range(5)]
    assert nplayer_payoff(game, policies, 0) == NPLAYER_PAYOFF


def test_moving_ring_fictitious_play_is_bit_identical():
    policy, flow, trace = fictitious_play(moving_ring(), 50)
    assert len(set(trace.tolist())) == 50  # the certificate moves at every iteration
    assert trace[0] == MOVING_RING_FIRST_GAP
    assert trace[-1] == MOVING_RING_LAST_GAP
    assert exploitability(moving_ring(), policy) == MOVING_RING_LAST_GAP
    assert _digest(policy) == MOVING_RING_POLICY_SHA
    assert _digest(flow) == MOVING_RING_FLOW_SHA
    assert _digest(trace) == MOVING_RING_TRACE_SHA


def test_dense_game_oracles_are_bit_identical():
    game = dense_game()
    policy, flow, trace = fictitious_play(game, 30)
    assert len(set(trace.tolist())) == 30
    assert trace[0] == DENSE_FIRST_GAP
    assert trace[-1] == DENSE_LAST_GAP
    assert _digest(policy) == DENSE_POLICY_SHA
    assert _digest(flow) == DENSE_FLOW_SHA
    assert _digest(trace) == DENSE_TRACE_SHA
    best, best_values = best_response(game, flow)
    assert _digest(best) == DENSE_BEST_RESPONSE_SHA
    assert _digest(best_values) == DENSE_BEST_VALUES_SHA
    random = random_policy(game, np.random.default_rng(3))
    assert _digest(policy_value(game, random, flow)) == DENSE_RANDOM_VALUES_SHA
    assert exploitability(game, random) == DENSE_RANDOM_EXPLOITABILITY
    assert exploitability(game, policy) == DENSE_AVERAGE_EXPLOITABILITY
    assert nplayer_gap(game, policy, 300, 12, np.random.default_rng(4)) == DENSE_GAP


def test_last_trace_entry_is_the_average_policys_exploitability_to_rounding():
    # both are the same advantage sum, but exploitability's sweeps run one
    # column and fictitious play's two, and the products' bits can differ
    for game, iterations in ((moving_ring(), 50), (dense_game(), 30)):
        policy, _, trace = fictitious_play(game, iterations)
        assert abs(trace[-1] - exploitability(game, policy)) <= 1e-12
