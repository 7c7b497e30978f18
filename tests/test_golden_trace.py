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

RETURNS = [0.09769737684843223, 0.06420449503092325, 0.06474587045562594]
CRITIC_LOSS = [20.784697061612086, 21.45503428323212, 19.361823496281268]
ACTOR_GRAD_NORM = [361.2879437241172, 238.34039559733554, 130.8636643366375]
EVAL_RETURN = 0.29071416013785845
PARAMS_SHA = "f9b63e1c2fdfb41f636047c7d84be565727437223803e4f803cd0a81b54334b6"
BELIEFS_SHA = "4d5f37527083b9a1574fd21f7d5dc3d88bace9f31afe643c33b0b604146aa142"
TRAIN_LOG_SHA = "6533755cb92c350ef537b0148b9dc4d23559dda6ce97098ec4fda49a300e0541"
EVAL_LOG_SHA = "98bf39072477eae95f719ccbcab3f5645b685e072c104d7b08bfa23cda04db5b"


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
