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
"""

import hashlib

import numpy as np

from mfglearn.oracle import (DiscreteMFG, best_response, exploitability, fictitious_play,
                             induced_flow, nplayer_gap, nplayer_payoff, policy_value,
                             random_policy, ring_game, two_state_congestion)

RING_POLICY_SHA = "5d025f355dbca7c1aa7635392c53b47fb373986e4b044a25cc4711f16fc9e77c"
RING_FLOW_SHA = "9ac6e867ad459a1ba846462f9a334cadf277a0697b1d3a6d9d4ea31f8e5fcb54"
RING_TRACE_SHA = "7b6436b0c98f62380866d9432c2af0ee08ce16a171bda6951aecd95ee1307d61"

TWO_STATE_TRACE = [
    0.19999999999999996, 0.2666666666666666, 0.10000000000000009, 0.04571428571428582,
    0.022222222222222143, 0.010389610389610393, 0.0038461538461533884, 0.0,
    0.010438369679855786, 0.026509895417613505, 0.018473705983987676, 0.012666740533826548,
    0.008376726161235748, 0.005149987400757894, 0.0026871888516735165, 0.0007848795267642039,
    0.005221465706560124, 0.011877726174860825, 0.009019856147612915, 0.006660425329966468,
]
TWO_STATE_POLICY_SHA = "91bfd07de7ec8a55b0fd948a129f96b1d1cd8c5da51d2c7355326301c7d7afa1"
TWO_STATE_FLOW_SHA = "8e5a03aebc17988853f123ededef27c456e9aeac9f91f988000ca64171e84036"

RANDOM_POLICY_START_VALUE = 0.508437142124746
RANDOM_POLICY_VALUES_SHA = "8a38e8b701528c0ad275179d2b225bb625f1791a21f9835104f4124f78a21a62"
RANDOM_POLICY_EXPLOITABILITY = 2.3254494876888185
RANDOM_POLICY_WORST_CASE = 5.498735344455913

NPLAYER_PAYOFF = 0.7992859248740692

MOVING_RING_POLICY_SHA = "de9113ff046bfe663a473dfd2f777caff2d4b548c7f24c1268c2f3dc70c84318"
MOVING_RING_FLOW_SHA = "e11a2ea7b433aa8f7ca40f5756f36d43032d3c386176bc2ba3f2b8a8fa0dca3e"
MOVING_RING_TRACE_SHA = "f0ac6860567eb694530a9ab11a8a97574e17a345a58a05653999006af0a31059"
MOVING_RING_FIRST_GAP = 8.906895627322847
MOVING_RING_LAST_GAP = 3.2961827358161138

DENSE_POLICY_SHA = "538a64fdec002759be9ef61d7b4f0e907a03b5597153a416bc6060ec45e378e4"
DENSE_FLOW_SHA = "0c7b0d2326e6d0700d5ed346f255afe7a5bf29f4d7dabf41332d17292ded0f4b"
DENSE_TRACE_SHA = "f361b309c207553b7bb9749bc1f03b4ac58f09a8d13a51adbc11302b205184ee"
DENSE_FIRST_GAP = 0.5574484853417319
DENSE_LAST_GAP = 0.009832738167338862
DENSE_BEST_RESPONSE_SHA = "145f742e126cb99d908c69e675b61a09f15b0cbf40d658048b951bc776dacbc7"
DENSE_BEST_VALUES_SHA = "e60e0ed015e8fec5d96c65a06a5ae29605253c13f37602a9eb596da2b2317052"
DENSE_RANDOM_VALUES_SHA = "fa97513cd84df596f51eb9295412f4d15cf8ec70c9c11c4c04f05b4d912df2a6"
DENSE_RANDOM_EXPLOITABILITY = 9.69126445094944
DENSE_RANDOM_WORST_CASE = 11.065449834706385
# the average policy's certificate recomputed on its own: its forward pass
# runs alone, not stacked with a best response, so the last bits differ
DENSE_AVERAGE_EXPLOITABILITY = 0.009832738167341955
DENSE_GAP = (1.212520938999263, 0.6681680065140856)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


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
    assert exploitability(game, policy, worst_case=True) == RANDOM_POLICY_WORST_CASE


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
    assert exploitability(game, random, worst_case=True) == DENSE_RANDOM_WORST_CASE
    assert exploitability(game, policy) == DENSE_AVERAGE_EXPLOITABILITY
    assert nplayer_gap(game, policy, 300, 12, np.random.default_rng(4)) == DENSE_GAP
