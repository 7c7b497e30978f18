"""Actor-critic fictitious-play training for a shared population policy.

Each episode rolls out the whole population under one Gaussian policy,
folds the realized per-step empirical measures into time-indexed belief
averages, then takes one Adam step on the critic (TD(0)) and one on the
actor (advantage-weighted policy gradient).  Rewards are evaluated against
the averaged belief by default, so the population optimizes against the
fictitious-play estimate of itself rather than the instantaneous crowd.

All cross-agent reductions in the updates run in ascending-agent-id order,
so permuting the agent order of an episode log leaves every parameter
update bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .approx import AdamState, DivergenceError, GaussianPolicy, Mlp, adam_step, check_finite, params_flat_norm
from .envs import EnvSpec, reward, sample_initial, step
from .meanfield import BeliefState, DensityGrid, GridSpec, belief_update, build_empirical_measure, density_at, grid_distance

PARAM_LIMIT = 1e6
PAIR_BLOCK = 128   # rows per block in mean_pairwise_distance


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
    critic_uses_density: bool = True
    belief_coupling: str = "averaged"   # averaged | instantaneous

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


def _check_coupling(coupling: str):
    if coupling not in ("averaged", "instantaneous"):
        raise ValueError("belief coupling must be averaged or instantaneous")


def init_train_state(spec: EnvSpec, grid: GridSpec, seed: int,
                     schedules: Schedules | None = None, hidden: int = 64,
                     sigma: float = 0.1, critic_uses_density: bool = True,
                     belief_coupling: str = "averaged") -> TrainState:
    _check_coupling(belief_coupling)
    sched = schedules or Schedules()
    rng = np.random.default_rng(np.random.PCG64(seed))
    actor_net = Mlp.init(2, hidden, 2, rng)
    critic = Mlp.init(3 if critic_uses_density else 2, hidden, 1, rng)
    return TrainState(
        actor=GaussianPolicy(actor_net, sigma),
        critic=critic,
        actor_opt=AdamState.for_params(actor_net.params, sched.actor_lr),
        critic_opt=AdamState.for_params(critic.params, sched.critic_lr),
        beliefs=[BeliefState.initial(grid) for _ in range(spec.horizon + 1)],
        schedules=sched,
        seed=seed,
        critic_uses_density=critic_uses_density,
        belief_coupling=belief_coupling,
    )


@dataclass
class EpisodeLog:
    """Per-step record of one population rollout: states, actions, rewards,
    the densities agents saw and the realized measures.  No log-probabilities
    are kept; :func:`pg_update` takes the score from states and actions.

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
        perm = np.asarray(perm)
        return EpisodeLog(self.states[:, perm], self.actions[:, perm],
                          self.rewards[:, perm], self.densities[:, perm],
                          self.measures, self.agent_ids[perm], self.mean_return)


def _noise(rng, horizon: int, n_agents: int) -> np.ndarray:
    if n_agents < 1:
        raise ValueError("need at least one agent")
    return rng.standard_normal((horizon, n_agents, 2))


def rollout(spec: EnvSpec, state: TrainState, n_agents: int, rng) -> EpisodeLog:
    """Simulate the whole population for one episode under the current policy.

    Noise is drawn up front and assigned by agent index, and per-step
    empirical measures are built by exact counting, so the result does not
    depend on any processing order.  Rewards and critic features use the
    fictitious-play belief grids unless the state couples instantaneously.
    """
    pol_noise = _noise(rng, spec.horizon, n_agents)
    dyn_noise = _noise(rng, spec.horizon, n_agents)
    return _simulate(spec, state, rng, pol_noise, dyn_noise, state.belief_coupling)


def _simulate(spec: EnvSpec, state: TrainState, rng, pol_noise, dyn_noise,
              coupling: str) -> EpisodeLog:
    """The population loop shared by :func:`rollout` and :func:`evaluate`.

    ``coupling`` picks the grid rewards and densities see: the realized
    measure of the step (``instantaneous``) or the belief average.
    """
    _check_coupling(coupling)
    T, n_agents, _ = dyn_noise.shape
    states = np.zeros((T + 1, n_agents, 2))
    actions = np.zeros((T, n_agents, 2))
    rewards = np.zeros((T, n_agents))
    densities = np.zeros((T + 1, n_agents))
    measures = []

    states[0] = sample_initial(spec, rng, n_agents)
    measures.append(build_empirical_measure(states[0], state.grid))

    def grid_for(k: int) -> DensityGrid:
        if coupling == "instantaneous":
            return measures[k]
        return state.beliefs[k].average

    densities[0] = density_at(grid_for(0), states[0])
    sigma = state.actor.sigma
    for k in range(T):
        mu = state.actor.mean_net.forward(states[k])
        a = mu + sigma * pol_noise[k]
        if not np.all(np.isfinite(a)):
            raise DivergenceError("diverged")
        actions[k] = a
        nxt = step(spec, states[k], a, dyn_noise[k])
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
    """Stack critic inputs over all steps and agents: (x, log1p(density)).

    The crowding discount is exactly linear in log1p(density), so the log
    keeps the feature on the same scale as the coordinates.
    """
    if not state.critic_uses_density:
        return states.reshape(-1, 2)
    feat = np.log1p(densities)[..., None]
    return np.concatenate([states, feat], axis=-1).reshape(-1, states.shape[-1] + 1)


def _canonical(log: EpisodeLog) -> EpisodeLog:
    """The log in ascending agent-id order (as is when already sorted)."""
    if np.all(log.agent_ids[1:] > log.agent_ids[:-1]):
        return log
    return log.permuted(np.argsort(log.agent_ids))


def _td_errors(state: TrainState, log: EpisodeLog, gamma: float):
    """Critic inputs, the critic's hidden layer on them, and the (T, N) TD
    errors r + gamma * V(x') - V(x) under the current critic."""
    T, n = log.rewards.shape
    feats = _critic_features(state, log.states, log.densities)
    out, hidden = state.critic.forward_with_hidden(feats)
    v = out.reshape(T + 1, n)
    v_next = v[1:].copy()
    v_next[T - 1] = 0.0  # terminal value is zero at episode end
    return feats, hidden, log.rewards + gamma * v_next - v[:T]


def td_update(state: TrainState, log: EpisodeLog, gamma: float) -> float:
    """One Adam step on the summed TD(0) loss; returns the pre-update loss."""
    log = _canonical(log)
    T, n = log.rewards.shape
    feats, hidden, delta = _td_errors(state, log, gamma)
    loss = 0.5 * float((delta * delta).sum())
    upstream = np.zeros((T + 1, n))
    upstream[:T] = -delta  # semi-gradient: targets held fixed
    grads, _ = state.critic.backward(feats, upstream.reshape(-1, 1), hidden)
    adam_step(state.critic_opt, state.critic.params, grads,
              state.schedules.lr_scale(state.episode))
    state.check_finite()
    return loss


def pg_update(state: TrainState, log: EpisodeLog, gamma: float) -> float:
    """Advantage-weighted policy-gradient ascent step; returns the gradient norm."""
    log = _canonical(log)
    T, n = log.rewards.shape
    adv = _td_errors(state, log, gamma)[2]
    x = log.states[:T].reshape(T * n, 2)
    a = log.actions.reshape(T * n, 2)
    grads = state.actor.logprob_grad(x, a, weights=adv.reshape(-1))
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


def train(spec: EnvSpec, state: TrainState, n_agents: int, episodes: int, rng,
          snapshot_every: int = 0, snapshot_hook=None):
    """Run the full loop: rollout, belief update, critic update, actor update.

    Returns (state, trace, last episode log).  Divergence aborts with the
    partial trace attached to the raised error.
    """
    rows = []
    last_log = None
    try:
        for _ in range(episodes):
            log = rollout(spec, state, n_agents, rng)
            old_terminal = state.belief.average
            n_ep = state.episode
            fp_update_state(state, log)
            drift = grid_distance(old_terminal, state.belief.average)
            loss = td_update(state, log, spec.gamma)
            norm = pg_update(state, log, spec.gamma)
            rows.append((n_ep, log.mean_return, drift, norm, loss))
            last_log = log
            if snapshot_every and snapshot_hook and state.episode % snapshot_every == 0:
                snapshot_hook(state, log)
    except DivergenceError as err:
        err.trace = TrainTrace.from_rows(rows)
        err.state = state
        raise
    return state, TrainTrace.from_rows(rows), last_log


def evaluate(spec: EnvSpec, state: TrainState, n_agents: int, rng,
             deterministic: bool = True, coupling: str = "instantaneous") -> EpisodeLog:
    """Roll out the current policy for measurement, exploration noise off by
    default and rewards driven by the realized population."""
    dyn_noise = _noise(rng, spec.horizon, n_agents)
    pol_noise = np.zeros_like(dyn_noise) if deterministic else _noise(rng, spec.horizon, n_agents)
    return _simulate(spec, state, rng, pol_noise, dyn_noise, coupling)


def mean_pairwise_distance(points) -> float:
    """Mean Euclidean distance over unordered distinct pairs.

    Distances are summed PAIR_BLOCK rows at a time, so memory stays linear
    in the number of points.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 2:
        return 0.0
    total = 0.0
    for lo in range(0, n - 1, PAIR_BLOCK):
        rows = pts[lo:lo + PAIR_BLOCK]
        dist = np.hypot(rows[:, None, 0] - pts[None, lo:, 0], rows[:, None, 1] - pts[None, lo:, 1])
        total += float(np.triu(dist, k=1).sum())  # column j > row i only
    return total / (n * (n - 1) / 2)


def convergence_metrics(trace: TrainTrace, terminal_positions=None, window: int = 200) -> dict:
    """Stabilization-window statistics plus terminal dispersion.

    ``window_std`` is the standard deviation of mean returns over the last
    ``window`` episodes; ``return_range`` spans the whole run; their ratio is
    the stabilization score (small = settled).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    w = min(window, len(trace))
    returns = trace.mean_return
    window_std = float(returns[-w:].std())
    rng_span = float(returns.max() - returns.min())
    out = {
        "window": w,
        "window_std": window_std,
        "return_range": rng_span,
        "stabilization_ratio": window_std / rng_span if rng_span > 0 else 0.0,
        "final_belief_drift": float(trace.belief_drift[-1]),
        "max_belief_drift": float(trace.belief_drift.max()),
    }
    if terminal_positions is not None:
        out["dispersion"] = mean_pairwise_distance(terminal_positions)
    return out


def write_trace(trace: TrainTrace, path):
    lines = ["episode,mean_return,belief_drift,actor_grad_norm,critic_loss"]
    for i in range(len(trace)):
        lines.append("%d,%s,%s,%s,%s" % (trace.episode[i], repr(float(trace.mean_return[i])),
                                         repr(float(trace.belief_drift[i])),
                                         repr(float(trace.actor_grad_norm[i])),
                                         repr(float(trace.critic_loss[i]))))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
