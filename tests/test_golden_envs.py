"""Golden traces: one small seeded train-then-evaluate run per environment.

Refactors of the learner, the rewards, the dynamics, the belief update or the
network stack must leave every row's eight values bit-identical: the training
trace's per-episode ``mean_return``, ``critic_loss`` and ``actor_grad_norm``,
the evaluation return, and the digests of the final actor and critic
parameters, of every time-indexed belief, and of the states and rewards of
the last training episode and of the evaluation episode.
"""

import hashlib

import numpy as np
import pytest

from mfglearn.envs import congestion_env, demand_env, lqr_env
from mfglearn.learner import evaluate, init_train_state, train
from mfglearn.meanfield import GridSpec

# (make, kwargs, training trace, evaluation return,
#  (params, beliefs, last training log, evaluation log) digests)
GOLDEN = {
    "demand": (demand_env, {"horizon": 3}, {
        "mean_return": [0.09769729194616086, 0.06420447111046652, 0.06474588675704517],
        "critic_loss": [20.784698762657104, 21.45503449029196, 19.361823497285354],
        "actor_grad_norm": [361.2879731704349, 238.3404086672857, 130.86364616767258]},
        0.2907141915714121, (
        "1a351c9ce66b21631ab30c586b548eb612e3616171a498ff01f42c1e939e47f7",
        "4d5f37527083b9a1574fd21f7d5dc3d88bace9f31afe643c33b0b604146aa142",
        "a53b4c4367bcdc80ea2d90e4f076f02006b1d4b7e9e8ecf442036b32dd14edf9",
        "5e23eae74b6d3a3f1cd5f705aae6b27b14455139364704a3b74be51469e9bf9c")),
    "congestion": (congestion_env, {}, {
        "mean_return": [0.011667663999306568, 0.005316765262805032, 0.0049479091764771015],
        "critic_loss": [7.881251018994346, 7.782059521791979, 7.708271474895734],
        "actor_grad_norm": [101.53687908892869, 129.12279793331567, 24.821191788143132]},
        0.004474429936700646, (
        "02c09709d22cbd174378061fbd0bf583c432d99c78fd7819c43102a91e4ce1bf",
        "d0eed7f5e1a6c48324d568eaf329e29db28e6b66edc8870d2a00b42db257f8ae",
        "fa75c9cc1aaf992df81a7fe54e9d656c62c47220f71acfee20d344f13eaf5acc",
        "d83d16cd02045fc45b8b7c509241d420406fe32ba74122d307f4b2aea41bc2ca")),
    "lqr": (lqr_env, {"horizon": 3}, {
        "mean_return": [-3.1302877617977973, -3.2142511860446286, -2.296802689893521],
        "critic_loss": [173.8464895614975, 174.3881474456161, 95.59088399407068],
        "actor_grad_norm": [1169.1741502918708, 1157.8278948196219, 119.48134229543446]},
        -1.8900845777647868, (
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
    make_env, kw, expected_trace, expected_eval, expected = GOLDEN[name]
    spec = make_env(**kw)
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=8)
    rng = np.random.default_rng(0)
    state, trace, log = train(spec, state, 50, 3, rng)
    ev = evaluate(spec, state, 50, rng)

    assert {k: trace[k].tolist() for k in expected_trace} == expected_trace
    assert ev.mean_return == expected_eval
    actor, critic = state.actor.mean_net.params, state.critic.params
    got = (_digest(*[actor[k] for k in sorted(actor)], *[critic[k] for k in sorted(critic)]),
           _digest(*[b.average.mass for b in state.beliefs]),
           _digest(log.states, log.rewards),
           _digest(ev.states, ev.rewards))
    assert got == expected
