"""Golden trace: a small seeded train-then-evaluate run pinned to exact values.

Refactors of the learner, the environments, the belief update or the network
stack must leave this run bit-identical.  The digests cover the final actor
and critic parameters, every time-indexed belief, and the states and rewards
of the last training episode and of the evaluation episode.
"""

import hashlib

import numpy as np

from mfglearn.envs import demand_env
from mfglearn.learner import evaluate, init_train_state, train
from mfglearn.meanfield import GridSpec

RETURNS = [0.09769729194616086, 0.06420447111046652, 0.06474588675704517]
CRITIC_LOSS = [20.784698762657104, 21.45503449029196, 19.361823497285354]
ACTOR_GRAD_NORM = [361.2879731704349, 238.3404086672857, 130.86364616767258]
EVAL_RETURN = 0.2907141915714121
PARAMS_SHA = "1a351c9ce66b21631ab30c586b548eb612e3616171a498ff01f42c1e939e47f7"
BELIEFS_SHA = "4d5f37527083b9a1574fd21f7d5dc3d88bace9f31afe643c33b0b604146aa142"
TRAIN_LOG_SHA = "a53b4c4367bcdc80ea2d90e4f076f02006b1d4b7e9e8ecf442036b32dd14edf9"
EVAL_LOG_SHA = "5e23eae74b6d3a3f1cd5f705aae6b27b14455139364704a3b74be51469e9bf9c"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_seeded_train_and_evaluate_are_bit_identical():
    spec = demand_env(horizon=3)
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=8)
    rng = np.random.default_rng(0)
    state, trace, log = train(spec, state, 50, 3, rng)
    ev = evaluate(spec, state, 50, rng)

    assert trace.mean_return.tolist() == RETURNS
    assert trace.critic_loss.tolist() == CRITIC_LOSS
    assert trace.actor_grad_norm.tolist() == ACTOR_GRAD_NORM
    assert ev.mean_return == EVAL_RETURN
    actor, critic = state.actor.mean_net.params, state.critic.params
    assert _digest(*[actor[k] for k in sorted(actor)],
                   *[critic[k] for k in sorted(critic)]) == PARAMS_SHA
    assert _digest(*[b.average.mass for b in state.beliefs]) == BELIEFS_SHA
    assert _digest(log.states, log.rewards) == TRAIN_LOG_SHA
    assert _digest(ev.states, ev.rewards) == EVAL_LOG_SHA
