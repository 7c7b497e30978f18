"""Correctness checks for each op, written against the benchmark's own
reference arithmetic rather than the program's helpers.

Every check returns a list of failure messages; an empty list means the op
passed.  None of them pins the advantage definition or the learning dynamics:
they check bookkeeping (measures, beliefs, returns), finiteness, gradients
and the exact oracles.
"""

from __future__ import annotations

import numpy as np

from mfglearn import oracle

MEASURE_TOL = 1e-15
BELIEF_TOL = 1e-12
RETURN_TOL = 1e-12
GRAD_ATOL = 1e-6
GRAD_RTOL = 1e-5
FD_EPS = 1e-6
GRAD_ROWS = 6
RANDOM_POLICIES = 3


def clamped_bin_counts(points, grid) -> np.ndarray:
    """Integer (R, R) histogram; points outside the bounds go to the edge bins."""
    n = grid.resolution
    fx = np.floor((points[:, 0] - grid.x_min) / ((grid.x_max - grid.x_min) / n))
    fy = np.floor((points[:, 1] - grid.y_min) / ((grid.y_max - grid.y_min) / n))
    ix = np.minimum(np.maximum(fx, 0), n - 1).astype(np.int64)
    iy = np.minimum(np.maximum(fy, 0), n - 1).astype(np.int64)
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (ix, iy), 1)
    return counts


class BeliefReference:
    """Exact running mean of every per-step measure, kept as integer bin
    counts, to compare with the paper-mode fictitious-play beliefs."""

    def __init__(self, horizon: int, grid):
        n = grid.resolution
        self.sums = np.zeros((horizon + 1, n, n), dtype=np.int64)
        self.agent_episodes = 0

    def add(self, counts, n_agents: int):
        self.sums += counts
        self.agent_episodes += n_agents

    def mean(self) -> np.ndarray:
        return self.sums / float(self.agent_episodes)


def check_episode(spec, grid, state, log, n_agents: int, belief_ref: BeliefReference) -> list:
    T = spec.horizon
    fails = []
    if log.states.shape != (T + 1, n_agents, 2) or log.rewards.shape != (T, n_agents) \
            or len(log.measures) != T + 1:
        return ["episode log has wrong shape"]
    counts = np.stack([clamped_bin_counts(log.states[k], grid) for k in range(T + 1)])
    measures = np.stack([m.mass for m in log.measures])
    if np.abs(measures - counts / float(n_agents)).max() > MEASURE_TOL:
        fails.append("empirical measure differs from the clamped bin count / N")
    belief_ref.add(counts, n_agents)
    if state.schedules.mode == "paper":
        beliefs = np.stack([b.average.mass for b in state.beliefs])
        if np.abs(beliefs - belief_ref.mean()).max() > BELIEF_TOL:
            fails.append("belief differs from the running mean of the measures")
    disc = spec.gamma ** np.arange(T)
    ref_return = float(np.mean((disc[:, None] * log.rewards).sum(axis=0)))
    if not abs(log.mean_return - ref_return) <= RETURN_TOL * max(1.0, abs(ref_return)):
        fails.append("mean_return %r != discounted mean reward %r" % (log.mean_return, ref_return))
    nets = (state.actor.mean_net.params, state.critic.params)
    if not all(np.all(np.isfinite(p)) for params in nets for p in params.values()):
        fails.append("non-finite parameters")
    return fails


def _close(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= GRAD_ATOL + GRAD_RTOL * np.abs(want)))


def _fd_param_grads(params: dict, loss) -> dict:
    """Central finite differences of ``loss()`` w.r.t. every entry of params."""
    out = {}
    for k, p in params.items():
        g = np.zeros_like(p)
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + FD_EPS
            up = loss()
            p[idx] = orig - FD_EPS
            down = loss()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * FD_EPS)
        out[k] = g
    return out


def gradient_check(state, rng) -> list:
    """Compare ``Mlp.backward`` (with and without cached hidden activations)
    and ``GaussianPolicy.logprob_grad`` with finite differences of
    ``Mlp.forward`` and ``GaussianPolicy.log_prob`` on a small seeded batch."""
    fails, rows = [], GRAD_ROWS
    for name, net in (("critic", state.critic), ("actor", state.actor.mean_net)):
        x = rng.standard_normal((rows, net.in_dim))
        upstream = rng.standard_normal((rows, net.out_dim))
        upstream[0] = 0.0  # a terminal-style row with no gradient
        fd = _fd_param_grads(net.params, lambda: float((upstream * net.forward(x)).sum()))
        fd_x = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += FD_EPS
            xm[idx] -= FD_EPS
            fd_x[idx] = ((upstream * (net.forward(xp) - net.forward(xm))).sum()) / (2.0 * FD_EPS)
        for hidden in (None, net.forward_with_hidden(x)[1]):
            grads, dx = net.backward(x, upstream, hidden)
            label = "%s backward (hidden %s)" % (name, "recomputed" if hidden is None else "cached")
            if set(grads) != set(fd) or not all(_close(grads[k], fd[k]) for k in fd):
                fails.append(label + ": parameter gradient differs from finite differences")
            if not _close(dx, fd_x):
                fails.append(label + ": input gradient differs from finite differences")
    policy = state.actor
    x = rng.standard_normal((rows, policy.mean_net.in_dim))
    a = policy.mean(x) + policy.sigma * rng.standard_normal((rows, policy.mean_net.out_dim))
    w = rng.standard_normal(rows)
    fd = _fd_param_grads(policy.mean_net.params, lambda: float((w * policy.log_prob(x, a)).sum()))
    grads = policy.logprob_grad(x, a, weights=w)
    if set(grads) != set(fd) or not all(_close(grads[k], fd[k]) for k in fd):
        fails.append("logprob_grad differs from finite differences of log_prob")
    return fails


def _reward_table(game, flow_t) -> np.ndarray:
    return np.array([[float(game.reward(np.array([s]), np.array([flow_t[s]]), a)[0])
                      for a in range(game.n_actions)] for s in range(game.n_states)])


def reference_exploitability(game, policy) -> float:
    """Exploitability by plain forward propagation and backward induction."""
    T = game.horizon
    flow = [np.asarray(game.mu0, dtype=float)]
    for t in range(T):
        flow.append(np.einsum("s,sa,sab->b", flow[t], policy[t], game.transitions))
    v_best = np.zeros(game.n_states)
    v_pol = np.zeros(game.n_states)
    for t in range(T - 1, -1, -1):
        r = _reward_table(game, flow[t])
        q_best = r + np.einsum("sab,b->sa", game.transitions, v_best)
        q_pol = r + np.einsum("sab,b->sa", game.transitions, v_pol)
        v_best = q_best.max(axis=1)
        v_pol = (policy[t] * q_pol).sum(axis=1)
    return float(game.mu0 @ (v_best - v_pol))


def check_oracle_job(big, small, fp, payoff, gap, rng) -> list:
    fails = []
    avg_policy, avg_flow, trace = fp
    if not np.all(np.isfinite(trace)):
        return ["non-finite fictitious-play trace"]
    if abs(trace[-1] - oracle.exploitability(big, avg_policy)) > 1e-12:
        fails.append("last fictitious-play trace entry != exploitability(average policy)")
    if abs(trace[-1] - reference_exploitability(big, avg_policy)) > 1e-9:
        fails.append("fictitious-play exploitability differs from the reference")
    _, v_best = oracle.best_response(big, avg_flow)
    for _ in range(RANDOM_POLICIES):
        v_pol = oracle.policy_value(big, oracle.random_policy(big, rng), avg_flow)
        if np.any(v_pol > v_best + 1e-12):
            fails.append("a random policy beats the best response")
            break
    trio = [oracle.random_policy(small, rng) for _ in range(3)]
    dp = oracle.nplayer_payoff(small, trio, 0)
    enum = oracle.nplayer_payoff_enumerated(small, trio, 0)
    if abs(dp - enum) > 1e-12:
        fails.append("nplayer_payoff %r != enumerated %r on 3 agents" % (dp, enum))
    if not 0.0 <= payoff <= small.horizon:  # ring rewards lie in [0, 1] per step
        fails.append("N-player payoff %r outside [0, T]" % payoff)
    if not (np.isfinite(gap[0]) and np.isfinite(gap[1]) and gap[0] >= 0.0 and gap[1] >= 0.0):
        fails.append("finite-N gap %r is not a finite nonnegative pair" % (gap,))
    return fails
