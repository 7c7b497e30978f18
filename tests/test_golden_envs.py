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
        "16f190600d2f5a7a90cdd92c8926d8a23feb67b6cbde9944fef0ca609c848efc",
        "d0eed7f5e1a6c48324d568eaf329e29db28e6b66edc8870d2a00b42db257f8ae",
        "082b9f01441becb0e438fb7651a4290f459d64db5c3b761240e3bcc6fe212e95",
        "3457d1bcac20fd86838332498c633766d93e6b4d9061d6e1afe828a8ac730c19")),
    "bimodal": (bimodal_env, {}, (
        "de2d188c74c879714b48d780fed2a945b11451d330554725c1dd1b3b0538110b",
        "d0eed7f5e1a6c48324d568eaf329e29db28e6b66edc8870d2a00b42db257f8ae",
        "b4b7801ff1249ab99eafe31db40ffb087fbbd149117754a0d8d625cfd4952391",
        "7a48acf0fbeba35247e719e608db1e8d31b330747bf78a0ffdf433cda8091d93")),
    "lqr": (lqr_env, {"horizon": 3}, (
        "5e92be2109d4eb526fb43c5d10dd36ff839d87afcd4137eb258a657717a97c33",
        "584b54ebb036661c13c2e62f1ef1d08eb32997eb2ef10f3a2bb6aae6a6bbfe53",
        "906085c5bfceca05251daf0bb2b86948feea4cff5bb417cbc6f94f9a5ecb5017",
        "a374cb8fef6d41e32d479d96f6dda4166b88bdf829fdec993f00d35f041dfa3f")),
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
