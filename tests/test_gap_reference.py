"""The finite-N gap simulator against a one-trial-at-a-time reference, bit for bit.

The reference below is the plain simulator: one Python loop per trial, and
per step one uniform draw per agent for its action and one for its
successor, each sampled by counting how many cumulative probabilities lie
below the draw.  ``nplayer_gap`` and ``simulate_population_value`` may run
trials side by side, but they must consume the generator in the same order
and so return the same floats (compared with ``==``) and leave the generator
in the same state.
"""

import numpy as np
import pytest

from mfglearn.oracle import (fictitious_play, induced_flow, nplayer_gap, policy_value,
                             random_policy, ring_game, simulate_population_value,
                             two_state_congestion)
from test_oracle import random_game


def ref_sample_rows(prob_rows, rng):
    """One index per row of a (n, k) stack of distributions."""
    cdf = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    return (u[:, None] > cdf).sum(axis=1)


def ref_population_value(game, policy, n_agents, rng):
    s = ref_sample_rows(np.tile(game.mu0, (n_agents, 1)), rng)
    total = np.zeros(n_agents)
    for t in range(game.horizon):
        mass = np.bincount(s, minlength=game.n_states) / float(n_agents)
        a = ref_sample_rows(policy[t, s], rng)
        total += game.reward(s, mass[s], a)
        s = ref_sample_rows(game.transitions[s, a], rng)
    return float(total.mean())


def ref_gap(game, policy, n_agents, trials, rng):
    j_inf = float(game.mu0 @ policy_value(game, policy, induced_flow(game, policy))[0])
    gaps = np.array([abs(ref_population_value(game, policy, n_agents, rng) - j_inf)
                     for _ in range(trials)])
    return float(gaps.mean()), float(gaps.std())


def _fp_ring():
    game = ring_game()
    return game, fictitious_play(game, 200)[0]


def _fp_two_state(horizon=3):
    def make():
        game = two_state_congestion(horizon)
        return game, fictitious_play(game, 30)[0]
    return make


def _random(coupled, n_states, n_actions, horizon):
    def make():
        rng = np.random.default_rng(40 + n_states + 10 * n_actions)
        game = random_game(rng, n_states=n_states, n_actions=n_actions, horizon=horizon,
                           coupled=coupled)
        return game, random_policy(game, rng)
    return make


# (game and policy, N, trials): the benchmark's case, trial counts that fill no
# whole number of chunks, trials far larger than any chunk, N = 1, and
# populations above numpy's 8192-element summation block
CASES = {
    "ring N=1000 x50": (_fp_ring, 1000, 50),
    "ring N=3000 x5": (_fp_ring, 3000, 5),
    "ring N=37 x23": (_fp_ring, 37, 23),
    "ring N=20000 x3": (_fp_ring, 20000, 3),
    "ring N=70000 x2": (_fp_ring, 70000, 2),
    "ring N=1 x40": (_fp_ring, 1, 40),
    "coupled random S=3 A=2 N=200 x30": (_random(True, 3, 2, 3), 200, 30),
    "coupled random S=5 A=3 N=1 x7": (_random(True, 5, 3, 4), 1, 7),
    "uncoupled random S=4 A=3 N=500 x11": (_random(False, 4, 3, 2), 500, 11),
    "two-state N=500 x20": (_fp_two_state(), 500, 20),
    "two-state T=1 N=10000 x3": (_fp_two_state(1), 10000, 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_nplayer_gap_matches_per_trial_reference(case):
    make, n_agents, trials = CASES[case]
    game, policy = make()
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    assert nplayer_gap(game, policy, n_agents, trials, rng) == ref_gap(
        game, policy, n_agents, trials, ref_rng)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_population_value_matches_per_trial_reference(case):
    make, n_agents, _ = CASES[case]
    game, policy = make()
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(2):
        assert simulate_population_value(game, policy, n_agents, rng) == ref_population_value(
            game, policy, n_agents, ref_rng)
    assert rng.random() == ref_rng.random()
