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

An episode holds its log and little else.  The rollout draws its noise
straight into the log (policy noise into the action array, dynamics noise
into the state slots it will become), and runs the actor over near-equal
blocks of at most ``UPDATE_BLOCK`` agents.  Both updates walk the episode
log in consecutive blocks of agents, in ascending-agent-id order, with about
``UPDATE_BLOCK`` network rows per block, so the hidden layers stay
cache-sized and do not grow with N.  The per-block gradients (and the TD
loss) are added in block order before the one Adam step.  Block contents
and order depend only on agent ids, so permuting the agent order of an
episode log leaves every parameter update bit-identical.

Agents are independent given the mean field, so the blocks of one actor
pass or one update run on every core the process may use: the calling
thread and a pool of helper threads each take one block at a time (numpy's
kernels release the interpreter lock).  One block of activations is alive
per worker; an update keeps each block's parameter-sized gradient until its
last block is done (about 3 KB per block at width 64).  The blocks and the
order their results are added in do not depend on the number of workers, so
neither does any result.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .approx import AdamState, DivergenceError, GaussianPolicy, Mlp, adam_step, check_finite, params_flat_norm
from .envs import EnvSpec, reward, sample_initial, step
from .meanfield import BeliefState, DensityGrid, GridSpec, belief_update, build_empirical_measure, density_at, grid_distance

PARAM_LIMIT = 1e6
# network rows per block: the most agents per actor pass in a rollout step,
# and about the critic rows per block of agents in td_update and pg_update;
# each worker of _map_blocks holds one block's activations at a time
UPDATE_BLOCK = 2048
# workers for the blocks: the calling thread plus _WORKERS - 1 pool threads
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
_pool = None   # (ThreadPoolExecutor, its thread count), made on first use


@dataclass(frozen=True)
class Schedules:
    """Step-size schedules for the two-timescale loop.

    ``paper`` mode: fixed Adam rates, belief step 1/(n+1) (the exact running
    mean).  ``theory`` mode: Adam rates scaled by (n+1)^-actor_exponent and
    belief step belief_scale*(n+1)^-belief_exponent, so the rate ratio decays
    like n^(belief_exponent - actor_exponent).
    """

    mode: str = "paper"
    actor_lr: float = 1e-4
    critic_lr: float = 1e-4
    belief_exponent: float = 1.0
    belief_scale: float = 1.0
    actor_exponent: float = 1.0   # theory mode only

    def __post_init__(self):
        if self.mode not in ("paper", "theory"):
            raise ValueError("schedule mode must be paper or theory")
        # belief steps b*(n+1)^-e have divergent sum iff e <= 1 and summable
        # squares iff e > 1/2; both are required
        if not 0.5 < self.belief_exponent <= 1.0:
            raise ValueError("belief step exponent must lie in (0.5, 1], got %r" % self.belief_exponent)
        for name in ("actor_lr", "critic_lr", "belief_scale"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0, got %r" % (name, value))
        if not (np.isfinite(self.actor_exponent) and self.actor_exponent >= 0):
            raise ValueError("actor exponent must be finite and >= 0, got %r" % self.actor_exponent)

    def belief_step(self, n: int):
        """Step for the n-th (0-indexed) belief update; None = exact mean."""
        if self.mode == "paper":
            return None
        return min(1.0, self.belief_scale * (n + 1) ** (-self.belief_exponent))

    def lr_scale(self, n: int) -> float:
        if self.mode == "paper":
            return 1.0
        return (n + 1) ** (-self.actor_exponent)


@dataclass
class TrainState:
    """Actor/critic parameters, optimizer moments, and time-indexed beliefs."""

    actor: GaussianPolicy
    critic: Mlp
    actor_opt: AdamState
    critic_opt: AdamState
    beliefs: list
    schedules: Schedules
    episode: int = 0
    seed: int = 0

    @property
    def belief(self) -> BeliefState:
        """The terminal-step belief (the only one for one-shot games)."""
        return self.beliefs[-1]

    @property
    def grid(self) -> GridSpec:
        return self.beliefs[0].average.spec

    def check_finite(self):
        check_finite(self.actor.mean_net.params, PARAM_LIMIT)
        check_finite(self.critic.params, PARAM_LIMIT)


def init_train_state(spec: EnvSpec, grid: GridSpec, seed: int,
                     schedules: Schedules | None = None, hidden: int = 64,
                     sigma: float = 0.1) -> TrainState:
    if not (isinstance(hidden, (int, np.integer)) and hidden >= 1):
        raise ValueError("hidden width must be an int >= 1, got %r" % (hidden,))
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError("policy sigma must be finite and > 0, got %r" % (sigma,))
    sched = schedules or Schedules()
    rng = np.random.default_rng(np.random.PCG64(seed))
    actor_net = Mlp.init(2, hidden, 2, rng)
    critic = Mlp.init(3 if spec.uses_density else 2, hidden, 1, rng)
    return TrainState(
        actor=GaussianPolicy(actor_net, sigma),
        critic=critic,
        actor_opt=AdamState.for_params(actor_net.params, sched.actor_lr),
        critic_opt=AdamState.for_params(critic.params, sched.critic_lr),
        beliefs=[BeliefState.initial(grid) for _ in range(spec.horizon + 1)],
        schedules=sched,
        seed=seed,
    )


@dataclass
class EpisodeLog:
    """Per-step record of one population rollout: states, actions, rewards,
    the densities agents saw and the realized measures.  No log-probabilities
    are kept; :func:`pg_update` takes the score from states and actions.
    The rollout's noise is drawn into ``states`` and ``actions`` and turned
    into states and actions in place, so no separate noise arrays exist.

    Arrays are indexed [step, agent]; ``agent_ids`` identifies columns so
    consumers can reduce in canonical id order.
    """

    states: np.ndarray       # (T+1, N, 2)
    actions: np.ndarray      # (T, N, 2)
    rewards: np.ndarray      # (T, N)
    densities: np.ndarray    # (T+1, N) density each agent saw at its state
    measures: list           # T+1 DensityGrids of the realized population
    agent_ids: np.ndarray    # (N,)
    mean_return: float       # discounted return averaged over agents

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]

    @property
    def terminal_positions(self) -> np.ndarray:
        return self.states[-1]

    def returns(self, gamma: float) -> np.ndarray:
        disc = gamma ** np.arange(self.horizon)
        return disc @ self.rewards

    def permuted(self, perm) -> "EpisodeLog":
        """Episode log with agents presented in a different order."""
        return self._agents(np.asarray(perm))

    def _agents(self, cols) -> "EpisodeLog":
        """The log of the agents in columns ``cols`` (views for a slice)."""
        return EpisodeLog(self.states[:, cols], self.actions[:, cols],
                          self.rewards[:, cols], self.densities[:, cols],
                          self.measures, self.agent_ids[cols], self.mean_return)


def _log_arrays(horizon: int, n_agents: int):
    """Zeroed (T+1, N, 2) state and (T, N, 2) action arrays for one episode."""
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return np.zeros((horizon + 1, n_agents, 2)), np.zeros((horizon, n_agents, 2))


def _row_blocks(n: int) -> list:
    """ceil(n / UPDATE_BLOCK) consecutive (lo, hi) ranges covering 0..n whose
    sizes differ by at most one.

    Near-equal blocks keep every block at least UPDATE_BLOCK / 2 rows long
    once n > UPDATE_BLOCK.  At those sizes the blocked actor pass gives the
    same floats as one pass over all n rows (tests/test_rollout_reference.py
    pins it); a small remainder block's 64 -> 2 product can differ in the
    last bits.
    """
    k = -(-n // UPDATE_BLOCK)
    bounds = [i * n // k for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _helper_pool(threads: int):
    """A thread pool with at least ``threads`` threads, made on first use."""
    global _pool
    if _pool is None or _pool[1] < threads:
        from concurrent.futures import ThreadPoolExecutor
        # a smaller pool left behind ends its threads when it is collected
        _pool = (ThreadPoolExecutor(threads, thread_name_prefix="mfglearn-block"), threads)
    return _pool[0]


def _map_blocks(fn, items) -> list:
    """[fn(item) for item in items], run on up to ``_WORKERS`` threads.

    Worker j takes items j, j + W, j + 2W, ... in turn; worker 0 is the
    calling thread and the others come from a module thread pool.  The
    results come back in item order, so a caller that reduces them in that
    order gets the same floats for any W.  When fn raises, no later item
    starts, every item that did start is waited for, and the error of the
    earliest failing item is raised: the one a plain loop would raise.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()

    def run_share(first):
        for i in range(first, len(items), workers):
            with lock:
                if errors and i > min(errors):
                    return
            try:
                results[i] = fn(items[i])
            except Exception as err:
                with lock:
                    errors[i] = err
                return

    pool = _helper_pool(workers - 1)
    helpers = [pool.submit(run_share, j) for j in range(1, workers)]
    try:
        run_share(0)
    finally:
        for helper in helpers:
            helper.result()   # waits; run_share keeps what fn raises in ``errors``
    if errors:
        raise errors[min(errors)]
    return results


def rollout(spec: EnvSpec, state: TrainState, n_agents: int, rng) -> EpisodeLog:
    """Simulate the whole population for one episode under the current policy.

    Noise is drawn up front, straight into the log: the policy noise into
    ``actions`` and then the dynamics noise into ``states[1:]``, before the
    initial states.  It is assigned by agent index, and per-step empirical
    measures are built by exact counting, so the result does not depend on
    any processing order.  Rewards and the densities agents see come from the
    fictitious-play belief grids.
    """
    states, actions = _log_arrays(spec.horizon, n_agents)
    rng.standard_normal(out=actions)
    rng.standard_normal(out=states[1:])
    return _simulate(spec, state, rng, states, actions, realized=False)


def _simulate(spec: EnvSpec, state: TrainState, rng, states, actions,
              realized: bool) -> EpisodeLog:
    """The population loop shared by :func:`rollout` and :func:`evaluate`.

    ``actions`` holds the standard-normal policy noise and ``states[1:]`` the
    dynamics noise; both are overwritten step by step with the episode.  An
    action slot becomes noise * sigma + mean, which is bit for bit the
    mean + sigma * noise of a separate noise array.  The actor runs over the
    near-equal agent blocks of :func:`_row_blocks`, side by side
    (:func:`_map_blocks`), each block writing its own slice of ``actions``.
    ``realized`` picks the grid rewards and densities see: the step's
    realized measure (evaluation) or its belief average (training).
    """
    T, n_agents, _ = actions.shape
    rewards = np.zeros((T, n_agents))
    densities = np.zeros((T + 1, n_agents))
    measures = []

    states[0] = sample_initial(spec, rng, n_agents)
    measures.append(build_empirical_measure(states[0], state.grid))

    def grid_for(k: int) -> DensityGrid:
        if realized:
            return measures[k]
        return state.beliefs[k].average

    densities[0] = density_at(grid_for(0), states[0])
    sigma = state.actor.sigma
    blocks = _row_blocks(n_agents)
    for k in range(T):
        def act(block):
            lo, hi = block
            a = actions[k, lo:hi]
            a *= sigma
            a += state.actor.mean_net.forward(states[k, lo:hi])
        _map_blocks(act, blocks)
        a = actions[k]
        if not np.all(np.isfinite(a)):
            raise DivergenceError("diverged")
        # the dynamics noise is read from the slot before the step overwrites it
        nxt = step(spec, states[k], a, states[k + 1])
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError("diverged")
        states[k + 1] = nxt
        measures.append(build_empirical_measure(nxt, state.grid))
        densities[k + 1] = density_at(grid_for(k + 1), nxt)
        rewards[k] = reward(spec, k + 1, nxt, a, densities[k + 1])

    log = EpisodeLog(states, actions, rewards, densities, measures,
                     np.arange(n_agents), 0.0)
    log.mean_return = float(log.returns(spec.gamma).mean())
    return log


def fp_update_state(state: TrainState, log: EpisodeLog):
    """Fold the episode's per-step measures into the belief averages."""
    step_size = state.schedules.belief_step(state.episode)
    state.beliefs = [belief_update(b, m, step_size)
                     for b, m in zip(state.beliefs, log.measures)]
    state.episode += 1


def _critic_features(state: TrainState, states: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Stack critic inputs over all steps and agents: (x, log1p(density)),
    or x alone for a 2-input critic (an environment whose reward ignores
    the density).

    The crowding discount is exactly linear in log1p(density), so the log
    keeps the feature on the same scale as the coordinates.
    """
    if state.critic.in_dim == 2:
        return states.reshape(-1, 2)
    feat = np.log1p(densities)[..., None]
    return np.concatenate([states, feat], axis=-1).reshape(-1, states.shape[-1] + 1)


def _canonical(log: EpisodeLog) -> EpisodeLog:
    """The log in ascending agent-id order (as is when already sorted)."""
    if np.all(log.agent_ids[1:] > log.agent_ids[:-1]):
        return log
    return log.permuted(np.argsort(log.agent_ids))


def _td_errors(state: TrainState, log: EpisodeLog, gamma: float):
    """Critic inputs, the critic's hidden layer on them, and the (T, n) TD
    errors r + gamma * V(x') - V(x) of the log's n agents under the current
    critic."""
    T, n = log.rewards.shape
    feats = _critic_features(state, log.states, log.densities)
    out, hidden = state.critic.forward_with_hidden(feats)
    v = out.reshape(T + 1, n)
    v_next = v[1:].copy()
    v_next[T - 1] = 0.0  # terminal value is zero at episode end
    return feats, hidden, log.rewards + gamma * v_next - v[:T]


def _sum_over_agent_blocks(log: EpisodeLog, block_terms):
    """Sum ``block_terms(block) -> (grads, value)`` over consecutive blocks
    of agents of the canonical log.

    A block holds UPDATE_BLOCK // (T+1) agents (at least one).  The blocks
    run side by side (:func:`_map_blocks`); their gradients and values are
    added in block order.
    """
    log = _canonical(log)
    T, n = log.rewards.shape
    per_block = max(1, UPDATE_BLOCK // (T + 1))
    terms = _map_blocks(lambda lo: block_terms(log._agents(slice(lo, lo + per_block))),
                        range(0, n, per_block))
    grads, total = None, 0.0
    for block_grads, value in terms:
        total += value
        grads = block_grads if grads is None else {k: grads[k] + block_grads[k] for k in grads}
    return grads, total


def td_update(state: TrainState, log: EpisodeLog, gamma: float) -> float:
    """One Adam step on the summed TD(0) loss; returns the pre-update loss.

    The loss and the critic gradient are summed over blocks of agents in
    ascending id order (see :func:`_sum_over_agent_blocks`).
    """
    def block_terms(block):
        feats, hidden, delta = _td_errors(state, block, gamma)
        T, n = delta.shape
        upstream = np.zeros((T + 1, n))
        upstream[:T] = -delta  # semi-gradient: targets held fixed
        grads, _ = state.critic.backward(feats, upstream.reshape(-1, 1), hidden)
        return grads, 0.5 * float((delta * delta).sum())

    grads, loss = _sum_over_agent_blocks(log, block_terms)
    adam_step(state.critic_opt, state.critic.params, grads,
              state.schedules.lr_scale(state.episode))
    state.check_finite()
    return loss


def pg_update(state: TrainState, log: EpisodeLog, gamma: float) -> float:
    """Advantage-weighted policy-gradient ascent step; returns the gradient norm.

    The advantage is the TD error under the current critic.  The gradient
    is summed over blocks of agents in ascending id order (see
    :func:`_sum_over_agent_blocks`).
    """
    def block_terms(block):
        # only the TD errors are kept: the critic's inputs and hidden layer
        # are let go before the actor pass
        delta = _td_errors(state, block, gamma)[2]
        T, n = delta.shape
        x = block.states[:T].reshape(T * n, 2)
        a = block.actions.reshape(T * n, 2)
        return state.actor.logprob_grad(x, a, weights=delta.reshape(-1)), 0.0

    grads, _ = _sum_over_agent_blocks(log, block_terms)
    norm = params_flat_norm(grads)
    descent = {k: -g for k, g in grads.items()}
    adam_step(state.actor_opt, state.actor.mean_net.params, descent,
              state.schedules.lr_scale(state.episode))
    state.check_finite()
    return norm


@dataclass
class TrainTrace:
    """Per-episode diagnostics collected during training."""

    episode: np.ndarray
    mean_return: np.ndarray
    belief_drift: np.ndarray
    actor_grad_norm: np.ndarray
    critic_loss: np.ndarray

    def __len__(self):
        return len(self.episode)

    @classmethod
    def from_rows(cls, rows) -> "TrainTrace":
        if not rows:
            empty = np.zeros(0)
            return cls(np.zeros(0, dtype=int), empty, empty.copy(), empty.copy(), empty.copy())
        cols = list(zip(*rows))
        return cls(np.array(cols[0], dtype=int), *(np.array(c) for c in cols[1:]))


def train(spec: EnvSpec, state: TrainState, n_agents: int, episodes: int, rng):
    """Run the full loop: rollout, belief update, critic update, actor update.

    Returns (state, trace, last episode log).  One episode log is alive at a
    time: the previous one is let go before the next rollout.  Divergence
    aborts with the partial trace attached to the raised error.  Calling it
    k episodes at a time continues the same run, so checkpoints go between
    calls.
    """
    rows = []
    log = None
    try:
        for _ in range(episodes):
            log = None   # let the previous log go before the rollout allocates the next
            log = rollout(spec, state, n_agents, rng)
            old_terminal = state.belief.average
            n_ep = state.episode
            fp_update_state(state, log)
            drift = grid_distance(old_terminal, state.belief.average)
            loss = td_update(state, log, spec.gamma)
            norm = pg_update(state, log, spec.gamma)
            rows.append((n_ep, log.mean_return, drift, norm, loss))
    except DivergenceError as err:
        err.trace = TrainTrace.from_rows(rows)
        err.state = state
        raise
    return state, TrainTrace.from_rows(rows), log


def evaluate(spec: EnvSpec, state: TrainState, n_agents: int, rng,
             deterministic: bool = True) -> EpisodeLog:
    """Roll out the current policy for measurement, exploration noise off by
    default and rewards and densities driven by the realized population.

    The dynamics noise is drawn first, then the policy noise (when on), into
    the log as in :func:`rollout`."""
    states, actions = _log_arrays(spec.horizon, n_agents)
    rng.standard_normal(out=states[1:])
    if not deterministic:
        rng.standard_normal(out=actions)
    return _simulate(spec, state, rng, states, actions, realized=True)
