"""Golden traces of the congestion, bimodal and LQR environments.

The same small seeded train-then-evaluate run as ``test_golden_trace`` (which
pins the demand game), once per remaining environment.  Refactors of the
rewards, the dynamics or the learner must leave every digest unchanged: the
final actor and critic parameters, every time-indexed belief, and the states
and rewards of the last training episode and of the evaluation episode.
"""

import hashlib

import numpy as np
import pytest

from mfglearn.envs import bimodal_env, congestion_env, lqr_env
from mfglearn.learner import evaluate, init_train_state, train
from mfglearn.meanfield import GridSpec

# (params, beliefs, last training log, evaluation log)
GOLDEN = {
    "congestion": (congestion_env, {}, (
        "02c09709d22cbd174378061fbd0bf583c432d99c78fd7819c43102a91e4ce1bf",
        "d0eed7f5e1a6c48324d568eaf329e29db28e6b66edc8870d2a00b42db257f8ae",
        "fa75c9cc1aaf992df81a7fe54e9d656c62c47220f71acfee20d344f13eaf5acc",
        "d83d16cd02045fc45b8b7c509241d420406fe32ba74122d307f4b2aea41bc2ca")),
    "bimodal": (bimodal_env, {}, (
        "2f707f7c1631345719d4c21885cb7ab98ae7ef24b7797ad9bb23036a30946f7e",
        "d0eed7f5e1a6c48324d568eaf329e29db28e6b66edc8870d2a00b42db257f8ae",
        "71ffefa5984f885fe76ec3629e32bf5855e66c57a7a647f26185509a1baa15c2",
        "268a395bf092c575b984a4bff9a7679c24fa9d78333308ce6b8edcdde9456af5")),
    "lqr": (lqr_env, {"horizon": 3}, (
        "10e999f75ed8256d5eda11c85f3c85cc131f5eab1fe7a692841215316e99e332",
        "584b54ebb036661c13c2e62f1ef1d08eb32997eb2ef10f3a2bb6aae6a6bbfe53",
        "76da25c1b0b2f04fa3be078642c5df4be3230ed64dfc4df4a4d3c0483dc638bb",
        "314547ac4cc9a4c0478e473428abc10fc13bc7cc5fd2c8b85c0ca5766cc1441f")),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_train_and_evaluate_are_bit_identical(name):
    make_env, kw, expected = GOLDEN[name]
    spec = make_env(**kw)
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=8)
    rng = np.random.default_rng(0)
    state, _, log = train(spec, state, 50, 3, rng)
    ev = evaluate(spec, state, 50, rng)

    actor, critic = state.actor.mean_net.params, state.critic.params
    got = (_digest(*[actor[k] for k in sorted(actor)], *[critic[k] for k in sorted(critic)]),
           _digest(*[b.average.mass for b in state.beliefs]),
           _digest(log.states, log.rewards),
           _digest(ev.states, ev.rewards))
    assert got == expected
