"""Golden oracle outputs: seeded finite-game solves pinned to exact values.

Refactors of the finite-game oracles (the reward table, the backward passes,
the flow propagation, the N-player evaluator) must leave these results
bit-identical.  The digests cover fictitious play's average policy, average
flow and exploitability trace on two games, the value table of a seeded
random policy, and the exact N-player payoff of seeded random policies.
"""

import hashlib

import numpy as np

from mfglearn.oracle import (exploitability, fictitious_play, induced_flow, nplayer_payoff,
                             policy_value, random_policy, ring_game, two_state_congestion)

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


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


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
