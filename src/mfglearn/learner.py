"""Actor-critic fictitious-play training for a shared population policy.

Each episode rolls out the whole population under one Gaussian policy,
folds the realized per-step empirical measures into time-indexed belief
averages, then takes one Adam step on the critic (TD(0)) and one on the
actor (advantage-weighted policy gradient).  Training rewards are evaluated
against the averaged belief, so the population optimizes against the
fictitious-play estimate of itself rather than the instantaneous crowd;
:func:`evaluate` scores a policy against the crowd it realizes.  The critic
sees the belief density at an agent's state only when the environment's
reward reads it (``EnvSpec.uses_density``).

An episode holds its log and little else.  Trained and evaluated episodes
draw their noise straight into the log in one order (the policy noise, when
on, into the action array, then the dynamics noise into the state slots it
will become, then the initial states), move the crowd, then score each step.
Every network pass, the rollout's actor and both updates, runs over
consecutive blocks of agents with at most ``UPDATE_BLOCK`` rows each, so the
hidden layers stay cache-sized and do not grow with N.  One helper serves
both updates: it walks the log in ascending-agent-id order, reads only the
first ``UPDATE_AGENTS`` agents of it, adds the per-block gradients (and the
TD loss) in block order, takes the one Adam step and checks the stepped
network, so permuting an episode log's agents leaves every update
bit-identical.  Agents are i.i.d. given the belief, so the lowest ids are a
uniform sample, and an update's cost stops growing with N past
``UPDATE_AGENTS``; the rollout, measures, beliefs and returns still use all
N agents.

The networks read float32 copies of their rows (the rollout's actor blocks,
the critic's features and the policy-gradient actor rows) and so run in
float32, while the parameters, Adam moments, episode log, TD errors,
returns, measures and beliefs stay float64: mixed-precision training in the
form of Micikevicius et al. (2018), float32 activations on float64 master
weights.

Agents are independent given the mean field, so the blocks of one pass run
on every core the process may use: the calling thread and a pool of helper
threads each take one block at a time (numpy's kernels release the
interpreter lock).  They share no lock: each runs its share of the blocks
to its own first failure, and the earliest failing block's error is raised,
as a plain loop would raise it.  One block of activations is alive per
worker; an update keeps each block's parameter-sized gradient until its
last block is done (about 3 KB per block at width 64).  The blocks and the order their
results are added in do not depend on the number of workers, so neither
does any result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .approx import AdamState, DivergenceError, GaussianPolicy, Mlp, adam_step, check_finite
from ._checks import check_count, check_positive
from .envs import EnvSpec, reward, sample_initial, step
from .meanfield import BeliefState, GridSpec, belief_update, build_empirical_measure, density_at, grid_distance

PARAM_LIMIT = 1e6
# the most network rows per block of agents (see _agent_blocks): a rollout
# step's actor pass and each update block of td_update and pg_update; each
# worker of _map_blocks holds one block's activations at a time
UPDATE_BLOCK = 2048
# the most agents td_update and pg_update read, the lowest ids of the log
# (see _adam_over_agent_blocks)
UPDATE_AGENTS = 2048
# workers for the blocks: the calling thread plus _WORKERS - 1 pool threads
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
_pool = None   # the ThreadPoolExecutor of _WORKERS - 1 threads, made on first use


@dataclass(frozen=True)
class Schedules:
    """The two Adam rates, fixed for the whole run.  The beliefs take no
    step size: each is the exact running mean of the measures seen so far."""

    # a read-only constant, not a field: the benchmark's belief check reads it
    mode: ClassVar[str] = "paper"
    actor_lr: float = 1e-4
    critic_lr: float = 1e-4

    def __post_init__(self):
        for name in ("actor_lr", "critic_lr"):
            check_positive(getattr(self, name), name, ValueError)


@dataclass
class TrainState:
    """Actor/critic parameters, optimizer moments, and time-indexed beliefs."""

    actor: GaussianPolicy
    critic: Mlp
    actor_opt: AdamState
    critic_opt: AdamState
    beliefs: list
    schedules: Schedules
    episode: int = 0   # episodes trained so far: the trace's counter

    @property
    def grid(self) -> GridSpec:
        return self.beliefs[0].average.spec


def _critic_inputs(spec: EnvSpec) -> int:
    """Critic input width: the position, plus the density when the reward reads it."""
    return 3 if spec.uses_density else 2


def init_train_state(spec: EnvSpec, grid: GridSpec, seed: int,
                     schedules: Schedules | None = None, hidden: int = 64) -> TrainState:
    check_count(seed, "seed", ValueError, least=0)
    sched = schedules or Schedules()
    rng = np.random.default_rng(np.random.PCG64(seed))
    actor_net = Mlp.init(2, hidden, 2, rng)
    critic = Mlp.init(_critic_inputs(spec), hidden, 1, rng)
    return TrainState(
        actor=GaussianPolicy(actor_net),
        critic=critic,
        actor_opt=AdamState.for_params(actor_net.params),
        critic_opt=AdamState.for_params(critic.params),
        beliefs=[BeliefState.initial(grid) for _ in range(spec.horizon + 1)],
        schedules=sched,
    )


@dataclass
class EpisodeLog:
    """Per-step record of one population rollout: states, actions, rewards,
    the densities agents saw and the realized measures.  No log-probabilities
    are kept; :func:`pg_update` takes the score from states and actions.
    The rollout's noise is drawn into ``states`` and ``actions`` and turned
    into states and actions in place, so no separate noise arrays exist.

    Arrays are indexed [step, agent].  :meth:`agents` selects columns, which
    ``agent_ids`` identify so consumers can reduce in id order; a selection
    shares the whole crowd's ``measures``, ``mean_return`` and ``gamma``.
    """

    states: np.ndarray       # (T+1, N, 2)
    actions: np.ndarray      # (T, N, 2)
    rewards: np.ndarray      # (T, N)
    densities: np.ndarray    # (T+1, N) density each agent saw at its state
    measures: list           # T+1 DensityGrids of the realized population
    agent_ids: np.ndarray    # (N,)
    mean_return: float       # discounted return averaged over agents
    gamma: float             # the discount the episode was scored with

    def agents(self, cols) -> "EpisodeLog":
        """The log of the agents in columns ``cols``, in that order: views of
        this log's arrays for a slice, reordered copies for an index array."""
        return EpisodeLog(self.states[:, cols], self.actions[:, cols],
                          self.rewards[:, cols], self.densities[:, cols],
                          self.measures, self.agent_ids[cols], self.mean_return, self.gamma)


def _agent_blocks(n: int, rows_per_agent: int) -> list:
    """Consecutive slices of max(1, UPDATE_BLOCK // rows_per_agent) agents
    covering agents 0..n; the last one may be shorter.

    A float32 row's network outputs do not depend on the batch it sits in
    (tests/test_approx.py pins it), so the blocks give the same floats as
    one pass over all n agents.
    """
    per_block = max(1, UPDATE_BLOCK // rows_per_agent)
    return [slice(lo, lo + per_block) for lo in range(0, n, per_block)]


def _helper_pool():
    """The pool of max(1, _WORKERS - 1) helper threads, made on first use."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="mfglearn-block")
    return _pool


def _map_blocks(fn, items) -> list:
    """[fn(item) for item in items], run on up to ``_WORKERS`` threads.

    Worker j takes items j, j + W, j + 2W, ... in turn; worker 0 is the
    calling thread and the others come from a module thread pool, made only
    when W > 1.  The results come back in item order, so a caller that
    reduces them in that order gets the same floats for any W.  Each worker
    stops at its own first failing item; once every helper is done, the
    failure with the smallest index is raised.  Every item before a
    worker's first failure passed, so that is the error a plain loop raises.
    """
    items = list(items)
    workers = max(1, min(_WORKERS, len(items)))
    results = [None] * len(items)

    def run_share(first):
        """(index, error) of this share's first failing item, or (len(items), None)."""
        for i in range(first, len(items), workers):
            try:
                results[i] = fn(items[i])
            except Exception as err:
                return i, err
        return len(items), None

    helpers = [_helper_pool().submit(run_share, j) for j in range(1, workers)]
    try:
        own = run_share(0)
    finally:
        shares = [helper.result() for helper in helpers]   # waits for every helper
    _, error = min([own] + shares, key=lambda share: share[0])
    if error is not None:
        raise error
    return results


def rollout(spec: EnvSpec, state: TrainState, n_agents: int, rng) -> EpisodeLog:
    """Simulate the whole population for one episode under the current policy.

    Noise is drawn up front into the log in :func:`_simulate`'s one order and
    by agent index, and per-step measures are built by exact counting, so the
    result does not depend on any processing order.  Rewards and densities
    come from the fictitious-play belief grids, one per step 0..T, so a state
    without ``spec.horizon + 1`` beliefs raises ValueError.
    """
    if len(state.beliefs) != spec.horizon + 1:
        raise ValueError("state has %d beliefs, a horizon-%d environment needs %d"
                         % (len(state.beliefs), spec.horizon, spec.horizon + 1))
    return _simulate(spec, state, n_agents, rng, noise=True, realized=False)


def _simulate(spec: EnvSpec, state: TrainState, n_agents: int, rng, noise: bool,
              realized: bool) -> EpisodeLog:
    """The population loop shared by :func:`rollout` and :func:`evaluate`.

    It allocates the log and draws into it in one order: standard-normal
    policy noise into ``actions`` if ``noise`` (else zeros), dynamics noise
    into ``states[1:]``, then the initial states.  Both noise arrays are
    overwritten step by step with the episode.  An action slot becomes
    noise * sigma + mean, bit for bit the mean + sigma * noise of a separate
    noise array.  The actor runs over the
    agent blocks of :func:`_agent_blocks`, one row per agent, side by side
    (:func:`_map_blocks`), each block writing its own slice of ``actions``.
    The crowd moves first and is scored after, so a divergence raises before
    any score; density k is read from measure k if ``realized``, else belief k.
    """
    check_count(n_agents, "n_agents", ValueError)
    T = spec.horizon
    states, actions = np.zeros((T + 1, n_agents, 2)), np.zeros((T, n_agents, 2))
    if noise:
        rng.standard_normal(out=actions)
    rng.standard_normal(out=states[1:])
    states[0] = sample_initial(spec, rng, n_agents)
    blocks = _agent_blocks(n_agents, 1)
    for k in range(T):
        def act(rows):
            a = actions[k, rows]
            a *= state.actor.sigma
            a += state.actor.mean_net.forward(states[k, rows].astype(np.float32))
        _map_blocks(act, blocks)
        check_finite({"actions": actions[k]})
        # the dynamics noise is read from the slot before the step overwrites it
        states[k + 1] = step(spec, states[k], actions[k], states[k + 1])
        check_finite({"states": states[k + 1]})

    rewards, densities = np.empty((T, n_agents)), np.empty((T + 1, n_agents))
    measures = []
    for k in range(T + 1):
        measures.append(build_empirical_measure(states[k], state.grid))
        grid = measures[k] if realized else state.beliefs[k].average
        densities[k] = density_at(grid, states[k])
        if k:
            rewards[k - 1] = reward(spec, k, states[k], actions[k - 1], densities[k])

    mean_return = float((spec.gamma ** np.arange(T) @ rewards).mean())
    return EpisodeLog(states, actions, rewards, densities, measures,
                      np.arange(n_agents), mean_return, spec.gamma)


def fp_update_state(state: TrainState, log: EpisodeLog):
    """Fold the episode's per-step measures into the belief averages; a log
    whose step count differs from the beliefs' raises ValueError."""
    state.beliefs = [belief_update(b, m)
                     for b, m in zip(state.beliefs, log.measures, strict=True)]


def _critic_features(state: TrainState, states: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Stack critic inputs over all steps and agents as float32 rows:
    (x, log1p(density)), or x alone for a 2-input critic (an environment
    whose reward ignores the density).

    The crowding discount is exactly linear in log1p(density), so the log
    keeps the feature on the same scale as the coordinates.
    """
    if state.critic.in_dim == 2:
        return states.reshape(-1, 2).astype(np.float32)
    feat = np.log1p(densities)[..., None]
    return np.concatenate([states, feat], axis=-1, dtype=np.float32).reshape(-1, states.shape[-1] + 1)


def _canonical(log: EpisodeLog) -> EpisodeLog:
    """The log in ascending agent-id order (as is when already sorted)."""
    if np.all(log.agent_ids[1:] > log.agent_ids[:-1]):
        return log
    return log.agents(np.argsort(log.agent_ids))


def _td_errors(state: TrainState, log: EpisodeLog):
    """Critic inputs, the critic's hidden layer on them, and the (T, n)
    float64 TD errors r + gamma * V(x') - V(x) of the log's n agents under
    the current critic, with the log's own discount."""
    T, n = log.rewards.shape
    feats = _critic_features(state, log.states, log.densities)
    out, hidden = state.critic.forward_with_hidden(feats)
    v = out.reshape(T + 1, n)
    v_next = v[1:].astype(float)
    v_next[T - 1] = 0.0  # terminal value is zero at episode end
    return feats, hidden, log.rewards + log.gamma * v_next - v[:T]


def _adam_over_agent_blocks(log: EpisodeLog, block_terms, opt, params, rate):
    """One Adam step on ``params`` down the sum of ``block_terms(block) ->
    (grads, value)`` over consecutive blocks of the first ``UPDATE_AGENTS``
    agents of the canonical log, then a check of the stepped network;
    returns the summed (grads, value).

    Given the belief the agents of one episode are i.i.d., so the lowest ids
    are a uniform sample: the update costs at most ``UPDATE_AGENTS`` agents'
    rows whatever N is, draws no random number and selects by a view.  The
    selection comes before the blocks are cut, so no block reaches past it.
    An agent has T+1 critic rows, so the blocks are :func:`_agent_blocks`
    of T+1 rows per agent.  They run side by side (:func:`_map_blocks`);
    their gradients and values are added in block order.  A log of no
    agents raises ValueError, changing nothing.
    """
    T, n = log.rewards.shape
    if n == 0:
        raise ValueError("an update needs a log of at least one agent, got 0")
    n = min(n, UPDATE_AGENTS)
    log = _canonical(log).agents(slice(0, n))
    terms = _map_blocks(lambda cols: block_terms(log.agents(cols)), _agent_blocks(n, T + 1))
    grads, total = None, 0.0
    for block_grads, value in terms:
        total += value
        grads = block_grads if grads is None else {k: grads[k] + block_grads[k] for k in grads}
    adam_step(opt, params, grads, rate)
    check_finite(params, PARAM_LIMIT)
    return grads, total


def td_update(state: TrainState, log: EpisodeLog) -> float:
    """One Adam step on the summed TD(0) loss; returns the pre-update loss.

    The loss and the critic gradient are summed over the lowest-id
    ``UPDATE_AGENTS`` agents of the log at most, in blocks of agents in
    ascending id order (see :func:`_adam_over_agent_blocks`).
    """
    def block_terms(block):
        feats, hidden, delta = _td_errors(state, block)
        T, n = delta.shape
        upstream = np.zeros((T + 1, n))
        upstream[:T] = -delta  # semi-gradient: targets held fixed
        grads, _ = state.critic.backward(feats, upstream.reshape(-1, 1), hidden)
        return grads, 0.5 * float((delta * delta).sum())

    return _adam_over_agent_blocks(log, block_terms, state.critic_opt, state.critic.params,
                                   state.schedules.critic_lr)[1]


def pg_update(state: TrainState, log: EpisodeLog) -> float:
    """Advantage-weighted policy-gradient ascent step; returns the gradient norm.

    The advantage is the TD error under the current critic.  The scores are
    weighted by minus the advantage, so their sum over blocks of the
    lowest-id ``UPDATE_AGENTS`` agents at most, in ascending id order, is the
    descent direction (see :func:`_adam_over_agent_blocks`).
    """
    def block_terms(block):
        # only the TD errors are kept: the critic's inputs and hidden layer
        # are let go before the actor pass
        delta = _td_errors(state, block)[2]
        x = block.states[:-1].reshape(-1, 2).astype(np.float32)
        a = block.actions.reshape(-1, 2)
        return state.actor.logprob_grad(x, a, weights=-delta.reshape(-1)), 0.0

    descent, _ = _adam_over_agent_blocks(log, block_terms, state.actor_opt,
                                         state.actor.mean_net.params, state.schedules.actor_lr)
    return math.sqrt(sum(float((g * g).sum()) for g in descent.values()))


# one row of the training trace per episode
_TRACE_DTYPE = [("episode", int), ("mean_return", float), ("belief_drift", float),
                ("actor_grad_norm", float), ("critic_loss", float)]


def train(spec: EnvSpec, state: TrainState, n_agents: int, episodes: int, rng):
    """Run the full loop: rollout, belief update, critic update, actor update.

    Returns (state, trace, last episode log); the trace is a record array
    with one row of ``_TRACE_DTYPE`` per episode.  Its ``mean_return`` and
    ``belief_drift`` read all ``n_agents``, while ``critic_loss`` and
    ``actor_grad_norm`` (the norm of a summed gradient) are sums over the
    updates' at most ``UPDATE_AGENTS`` agents, so they stop growing with N
    past that size.  One episode log is alive at a time: the previous one is
    let go before the next rollout.
    Divergence raises DivergenceError carrying the partial trace as its
    ``trace``; ``state`` is trained in place up to the failing episode.
    Calling it k episodes at a time continues the same run, so checkpoints go
    between calls; ``state.episode`` counts the episodes trained.  A state
    built for another environment raises ValueError: its critic must read
    the density (3 inputs) exactly when ``spec.uses_density``, and its
    beliefs must cover the horizon (see :func:`rollout`).
    """
    check_count(episodes, "episodes", ValueError, least=0)
    if state.critic.in_dim != _critic_inputs(spec):
        raise ValueError("state's critic takes %d inputs, this environment's takes %d"
                         % (state.critic.in_dim, _critic_inputs(spec)))
    rows = []
    log = None
    try:
        for _ in range(episodes):
            log = None   # let the previous log go before the rollout allocates the next
            log = rollout(spec, state, n_agents, rng)
            old_terminal = state.beliefs[-1].average
            fp_update_state(state, log)
            drift = grid_distance(old_terminal, state.beliefs[-1].average)
            loss = td_update(state, log)
            norm = pg_update(state, log)
            rows.append((state.episode, log.mean_return, drift, norm, loss))
            state.episode += 1
    except DivergenceError as err:
        err.trace = np.rec.fromrecords(rows, dtype=_TRACE_DTYPE)
        raise
    return state, np.rec.fromrecords(rows, dtype=_TRACE_DTYPE), log


def evaluate(spec: EnvSpec, state: TrainState, n_agents: int, rng,
             deterministic: bool = True) -> EpisodeLog:
    """Roll out the current policy for measurement, exploration noise off by
    default and rewards and densities driven by the realized population.

    The noise is drawn in :func:`rollout`'s order, so with
    ``deterministic=False`` and an equally seeded generator both return the
    same states and actions and differ only in the densities and rewards."""
    return _simulate(spec, state, n_agents, rng, noise=not deterministic, realized=True)
