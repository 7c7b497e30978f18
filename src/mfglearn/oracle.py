"""Exact desk-scale solvers for finite-state mean-field games.

Provides backward-induction best responses against a frozen population flow,
fictitious play over flows with exploitability certificates, the exact
expected payoff of one agent in the finite N-player game (a joint-state DP,
plus a slow enumeration of joint actions and successors that is the
reference tests and the benchmark compare it against), a finite-population
value-gap simulator for the 1/sqrt(N) scaling experiment, and the analytic
stationary solution of the linear-quadratic environment.

Reward functions must accept numpy arrays of states/masses/actions and
broadcast, e.g. ``lambda s, m, a: np.where(s == 0, 1/(1+m), 0.0)``.  The
finite-game solvers call the reward once per backward sweep, on the whole
stack of flows that sweep solves against: s has shape (S, 1), mass has shape
(..., S, 1) and a has shape (A,), and the result must broadcast to
(..., S, A).  A fictitious-play iteration is one such sweep and one forward
pass.  Policies passed to the solvers must be (T, S, A) arrays whose rows are
distributions over actions (``induced_flow`` also takes a (K, T, S, A) stack);
anything else raises OracleError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

PROB_TOL = 1e-12


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class DiscreteMFG:
    """Finite-state/action symmetric game with a mass-coupled reward.

    ``transitions[s, a, s']`` is the shared kernel; ``reward(s, mass, a)``
    is each agent's instantaneous reward given the population mass at its
    own state.  ``horizon`` counts decision epochs: states run t=0..T,
    actions and rewards t=0..T-1.
    """

    n_states: int
    n_actions: int
    horizon: int
    transitions: np.ndarray
    reward: Callable
    mu0: np.ndarray

    def __post_init__(self):
        p = np.array(self.transitions, dtype=float)
        if p.shape != (self.n_states, self.n_actions, self.n_states):
            raise OracleError("transition kernel shape %r" % (p.shape,))
        if np.any(p < 0) or np.any(np.abs(p.sum(axis=2) - 1.0) > PROB_TOL):
            raise OracleError("transition rows must be distributions")
        mu = np.array(self.mu0, dtype=float)
        if mu.shape != (self.n_states,) or np.any(mu < 0) or abs(mu.sum() - 1.0) > PROB_TOL:
            raise OracleError("mu0 must be a distribution over states")
        p.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "mu0", mu)

    def reward_table(self, flow: np.ndarray) -> np.ndarray:
        """L(s, flow(s), a) for all s, a as a read-only (..., S, A) array.

        ``flow`` is one (S,) marginal or any stack of them, such as the
        (K, T, S) flows of one backward sweep.  The reward is called once,
        with s of shape (S, 1), mass of shape (..., S, 1) and a of shape (A,);
        a result that does not broadcast to (..., S, A) raises OracleError.
        """
        flow = np.asarray(flow, dtype=float)
        shape = flow.shape[:-1] + (self.n_states, self.n_actions)
        r = np.asarray(self.reward(np.arange(self.n_states)[:, None], flow[..., None],
                                   np.arange(self.n_actions)), dtype=float)
        try:
            return np.broadcast_to(r, shape)
        except ValueError:
            raise OracleError("reward of shape %r does not broadcast to %r" % (r.shape, shape))


def uniform_policy(game: DiscreteMFG) -> np.ndarray:
    return np.full((game.horizon, game.n_states, game.n_actions), 1.0 / game.n_actions)


def _check_flow(game: DiscreteMFG, flows: np.ndarray):
    """Validate a (K, T+1, S) stack of flows and return it as floats."""
    flows = np.asarray(flows, dtype=float)
    if flows.ndim != 3 or flows.shape[1:] != (game.horizon + 1, game.n_states):
        raise OracleError("flow shape %r" % (flows.shape[1:],))
    if np.any(flows < -PROB_TOL) or np.any(np.abs(flows.sum(axis=2) - 1.0) > 1e-9):
        raise OracleError("flow rows must be distributions")
    return flows


def _check_policy(game: DiscreteMFG, policy, stacked: bool = False) -> np.ndarray:
    """Validate one (T, S, A) policy, or with ``stacked`` also a (K, T, S, A)
    stack of them, and return it as floats.  Every row must be a distribution
    over actions; NaN entries fail both tests."""
    policy = np.asarray(policy, dtype=float)
    shape = (game.horizon, game.n_states, game.n_actions)
    if policy.shape[-3:] != shape or policy.ndim not in ((3, 4) if stacked else (3,)):
        raise OracleError("policy shape %r, expected %r" % (policy.shape, shape))
    if not np.all(policy >= 0.0):
        raise OracleError("policy entries must be nonnegative")
    if not np.all(np.abs(policy.sum(axis=-1) - 1.0) <= PROB_TOL):
        raise OracleError("policy rows must sum to 1")
    return policy


def _one_hot(game: DiscreteMFG, best: np.ndarray) -> np.ndarray:
    """The deterministic (T, S, A) policy playing the (T, S) best actions."""
    return (best[:, :, None] == np.arange(game.n_actions)).astype(float)


def _backward(game: DiscreteMFG, flows: np.ndarray, policy: np.ndarray | None = None):
    """Backward induction against a (K, T+1, S) stack of flows at once.

    One reward call covers the stack, and each step takes one
    (K', S) @ (S, S*A) product over all value columns.  Returns the best
    actions (K, T, S), ties broken toward the lowest index, and the values
    (K', T+1, S): values[k] is the optimum against flows[k] for k < K and,
    when ``policy`` is given, values[K] is that policy's value against the
    last flow.  Each values[k] is a contiguous (T+1, S) array.
    """
    flows = _check_flow(game, flows)
    T, S, A = game.horizon, game.n_states, game.n_actions
    K = len(flows)
    rewards = game.reward_table(flows[:, :T])
    if policy is not None:
        rewards = np.concatenate((rewards, rewards[-1:]))
    kernel = game.transitions.reshape(S * A, S).T
    values = np.zeros((len(rewards), T + 1, S))
    best = np.zeros((K, T, S), dtype=int)
    rows = np.arange(K * S)
    for t in range(T - 1, -1, -1):
        q = (values[:, t + 1] @ kernel).reshape(-1, S, A)
        q += rewards[:, t]
        b = q[:K].argmax(axis=2)  # first max = lowest action index
        best[:, t] = b
        values[:K, t] = q.reshape(-1, A)[rows, b.ravel()].reshape(K, S)
        if policy is not None:
            values[K, t] = (policy[t] * q[K]).sum(axis=1)
    return best, values


def best_response(game: DiscreteMFG, flow: np.ndarray):
    """Backward-induction optimum against a frozen flow.

    Returns (deterministic policy (T,S,A), values (T+1,S)); ties break
    toward the lowest action index.
    """
    best, values = _backward(game, np.asarray(flow, dtype=float)[None])
    return _one_hot(game, best[0]), values[0]


def policy_value(game: DiscreteMFG, policy: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Expected values (T+1, S) of a stochastic policy against a frozen flow."""
    policy = _check_policy(game, policy)
    _, values = _backward(game, np.asarray(flow, dtype=float)[None], policy)
    return values[1]


def induced_flow(game: DiscreteMFG, policy: np.ndarray) -> np.ndarray:
    """Forward-propagate the population under a shared policy.

    ``policy`` is one (T, S, A) policy, giving its (T+1, S) flow, or a
    (K, T, S, A) stack, giving the (K, T+1, S) stack of their flows; each
    step is one (K, S*A) @ (S*A, S) product.
    """
    policy = _check_policy(game, policy, stacked=True)
    T, S, A = game.horizon, game.n_states, game.n_actions
    stack = policy.reshape(-1, T, S, A)
    kernel = game.transitions.reshape(S * A, S)
    flows = np.zeros((len(stack), T + 1, S))
    flows[:, 0] = game.mu0
    for t in range(T):
        joint = flows[:, t, :, None] * stack[:, t]                # (K, S, A)
        flows[:, t + 1] = joint.reshape(-1, S * A) @ kernel
    return flows.reshape(policy.shape[:-3] + (T + 1, S))


def exploitability(game: DiscreteMFG, policy: np.ndarray, worst_case: bool = False) -> float:
    """Best-response gap of a policy at its own induced flow (>= 0).

    Default weights the per-state gaps by the initial distribution; the
    worst-case mode takes the max over states instead.  One backward sweep
    gives both the best response's and the policy's values.
    """
    policy = _check_policy(game, policy)
    _, values = _backward(game, induced_flow(game, policy)[None], policy)
    gap = values[0, 0] - values[1, 0]
    if worst_case:
        return float(gap.max())
    return float(game.mu0 @ gap)


def fictitious_play(game: DiscreteMFG, iterations: int):
    """Best-respond to the running-average flow; average policies and flows.

    The initial belief is the uniform policy's flow and is excluded from the
    averages.  Returns (average policy, average flow, exploitability trace of
    the average policy per iteration).

    Each iteration is one forward and one backward sweep: the forward pass
    gives the flows of the new best response and of the updated average
    policy together, and the backward sweep against the average flow and the
    average policy's own flow gives the next iteration's best response and
    this iteration's certificate.
    """
    if iterations < 1:
        raise OracleError("iterations must be >= 1")
    T, S, A = game.horizon, game.n_states, game.n_actions
    best, _ = _backward(game, induced_flow(game, uniform_policy(game))[None])
    avg_policy = np.zeros((T, S, A))
    avg_flow = np.zeros((T + 1, S))
    trace = np.zeros(iterations)
    for n in range(1, iterations + 1):
        pol = _one_hot(game, best[0])
        avg_policy += (pol - avg_policy) / n
        flow_n, own_flow = induced_flow(game, np.stack((pol, avg_policy)))
        avg_flow += (flow_n - avg_flow) / n
        best, values = _backward(game, np.stack((avg_flow, own_flow)), avg_policy)
        trace[n - 1] = game.mu0 @ (values[1, 0] - values[2, 0])
    return avg_policy, avg_flow, trace


# --- exact N-player evaluation ------------------------------------------------

def _joint_states(n_states: int, n_agents: int) -> np.ndarray:
    """All S^N joint states as rows, in ``itertools.product`` order."""
    return np.indices((n_states,) * n_agents).reshape(n_agents, n_states ** n_agents).T


def _check_agent(agent: int, n_agents: int):
    if not 0 <= agent < n_agents:
        raise OracleError("agent %r out of range for %d policies" % (agent, n_agents))


def nplayer_payoff(game: DiscreteMFG, policies, agent: int) -> float:
    """Exact expected payoff of one agent in the finite symmetric game.

    ``policies`` is one (T,S,A) array per agent; rewards couple through the
    empirical measure of all agents (self included).  Forward dynamic
    programming over the joint-state distribution with per-agent marginalized
    transition matrices.
    """
    policies = [_check_policy(game, p) for p in policies]
    n = len(policies)
    _check_agent(agent, n)
    joint = _joint_states(game.n_states, n)
    own_s = joint[:, agent]
    # empirical mass at the tracked agent's own state, per joint state row
    own_mass = (joint == own_s[:, None]).sum(axis=1) / float(n)
    dist = np.prod(game.mu0[joint], axis=1)
    total = 0.0
    for t in range(game.horizon):
        # expected reward of the tracked agent under the current joint distribution
        r = np.zeros(len(joint))
        for a in range(game.n_actions):
            r += policies[agent][t, own_s, a] * game.reward(own_s, own_mass, a)
        total += float(dist @ r)
        # factorized joint transition: contract each agent's axis of the (S,)*n
        # distribution tensor with its policy-averaged kernel; tensordot puts
        # the successor axis last, so after n contractions the order is restored
        dist = dist.reshape((game.n_states,) * n)
        for i in range(n):
            kernel = np.einsum("sa,sab->sb", policies[i][t], game.transitions)
            dist = np.tensordot(dist, kernel, axes=(0, 0))
        dist = dist.ravel()
    return total


def nplayer_payoff_enumerated(game: DiscreteMFG, policies, agent: int) -> float:
    """Same payoff via explicit recursion over joint actions and successors.

    Independent of :func:`nplayer_payoff`: enumerates action profiles instead
    of marginalizing them, recursing backward over time.  Exponential in N;
    it is the reference the DP route is checked against.
    """
    policies = [_check_policy(game, p) for p in policies]
    n = len(policies)
    _check_agent(agent, n)
    S, A, T = game.n_states, game.n_actions, game.horizon
    actions = list(itertools.product(range(A), repeat=n))
    states = list(itertools.product(range(S), repeat=n))
    cache = {}

    def tail(t, js):
        if t == T:
            return 0.0
        key = (t, js)
        if key in cache:
            return cache[key]
        m_own = sum(1 for s in js if s == js[agent]) / float(n)
        value = 0.0
        for ja in actions:
            w = 1.0
            for i in range(n):
                w *= policies[i][t, js[i], ja[i]]
            if w == 0.0:
                continue
            r = float(game.reward(js[agent], m_own, ja[agent]))
            future = 0.0
            for ns in states:
                pr = 1.0
                for i in range(n):
                    pr *= game.transitions[js[i], ja[i], ns[i]]
                if pr:
                    future += pr * tail(t + 1, ns)
            value += w * (r + future)
        cache[key] = value
        return value

    return sum(float(np.prod(game.mu0[list(js)])) * tail(0, js) for js in states)


def random_policy(game: DiscreteMFG, rng) -> np.ndarray:
    p = rng.random((game.horizon, game.n_states, game.n_actions)) + 1e-3
    return p / p.sum(axis=2, keepdims=True)


# --- finite-population value gap (scaling experiment) ------------------------

def _sample_rows(prob_rows: np.ndarray, rng) -> np.ndarray:
    """Sample one index per row of a (n, k) stack of distributions."""
    cdf = np.cumsum(prob_rows, axis=1)
    u = rng.random(prob_rows.shape[0])
    return (u[:, None] > cdf).sum(axis=1)


def simulate_population_value(game: DiscreteMFG, policy: np.ndarray, n_agents: int, rng) -> float:
    """Mean realized payoff of n agents sharing a policy, with rewards driven
    by the realized empirical measure."""
    policy = _check_policy(game, policy)
    if n_agents < 1:
        raise OracleError("need at least one agent, got %r" % n_agents)
    s = _sample_rows(np.tile(game.mu0, (n_agents, 1)), rng)
    total = np.zeros(n_agents)
    for t in range(game.horizon):
        mass = np.bincount(s, minlength=game.n_states) / float(n_agents)
        a = _sample_rows(policy[t, s], rng)
        total += game.reward(s, mass[s], a)
        s = _sample_rows(game.transitions[s, a], rng)
    return float(total.mean())


def nplayer_gap(game: DiscreteMFG, policy: np.ndarray, n_agents: int, trials: int, rng):
    """(mean, std) over trials of |finite-N mean payoff - exact limit value|."""
    policy = _check_policy(game, policy)
    if trials < 1:
        raise OracleError("need at least one trial, got %r" % trials)
    j_inf = float(game.mu0 @ policy_value(game, policy, induced_flow(game, policy))[0])
    gaps = np.array([abs(simulate_population_value(game, policy, n_agents, rng) - j_inf)
                     for _ in range(trials)])
    return float(gaps.mean()), float(gaps.std())


def scaling_experiment(game: DiscreteMFG, policy: np.ndarray, sizes, trials: int, rng):
    """Gap-vs-N table [(N, trials, mean, std)] and the log-log slope."""
    rows = []
    for n in sizes:
        mean, std = nplayer_gap(game, policy, int(n), trials, rng)
        rows.append((int(n), trials, mean, std))
    logn = np.log([r[0] for r in rows])
    logg = np.log([max(r[2], 1e-300) for r in rows])
    slope = float(np.polyfit(logn, logg, 1)[0])
    return rows, slope


# --- built-in test games -----------------------------------------------------

def ring_game(n_states: int = 4, horizon: int = 4, reward_state: int = 0) -> DiscreteMFG:
    """Monotone congestion on a ring: stay/move-clockwise, one rewarding state
    paying 1/(1 + mass there)."""
    trans = np.zeros((n_states, 2, n_states))
    for s in range(n_states):
        trans[s, 0, s] = 1.0
        trans[s, 1, (s + 1) % n_states] = 1.0
    reward = lambda s, m, a: np.where(np.asarray(s) == reward_state, 1.0 / (1.0 + np.asarray(m)), 0.0)
    mu0 = np.full(n_states, 1.0 / n_states)
    return DiscreteMFG(n_states, 2, horizon, trans, reward, mu0)


def two_state_congestion(horizon: int = 2, weights=(1.0, 0.6)) -> DiscreteMFG:
    """Two locations with own-mass-discounted rewards w_s/(1 + mass(s));
    actions stay/switch.  Crowding the better spot pushes part of the
    population to the other, so fictitious play has genuine work to do."""
    trans = np.zeros((2, 2, 2))
    for s in range(2):
        trans[s, 0, s] = 1.0
        trans[s, 1, 1 - s] = 1.0
    w = np.asarray(weights, dtype=float)
    reward = lambda s, m, a: w[np.asarray(s)] / (1.0 + np.asarray(m))
    return DiscreteMFG(2, 2, horizon, trans, reward, np.array([1.0, 0.0]))


# --- linear-quadratic analytic reference -------------------------------------

@dataclass(frozen=True)
class LqrSolution:
    gain: np.ndarray          # u* = -gain @ x + offset
    offset: np.ndarray
    mean: np.ndarray          # stationary mean of the controlled process
    covariance: np.ndarray    # stationary state covariance

    @property
    def variance(self) -> float:
        """Per-axis stationary variance, averaged over the two axes."""
        return float(np.diag(self.covariance).mean())


def lqr_analytic(spec, tol: float = 1e-12, max_iter: int = 10 ** 5) -> LqrSolution:
    """Stationary optimum of the lqr environment's own reward convention.

    The per-step cost is (x' - target)^T Q (x' - target) + 0.5*eta*|u|^2
    charged at the arrival state, discounted by gamma.  The affine value
    recursion V(x) = x^T P x - 2 s^T x + c is iterated to its fixed point;
    the controlled process x' = F x + g + sigma*noise then gives the
    stationary mean (I-F)^{-1} g and the Lyapunov covariance.
    """
    if spec.kind != "lqr":
        raise OracleError("lqr_analytic needs an lqr environment")
    q = spec.lqr.q_matrix
    r = spec.r_matrix
    a_mat = spec.a * np.eye(2)
    b_mat = spec.b * np.eye(2)
    alpha = np.asarray(spec.lqr.target)
    gamma = spec.gamma
    sigma = spec.sigma1 * spec.sigma_eps

    p = np.zeros((2, 2))
    s = np.zeros(2)
    for _ in range(max_iter):
        qp = q + gamma * p
        m = r + 2.0 * b_mat.T @ qp @ b_mat
        try:
            k_gain = 2.0 * np.linalg.solve(m, b_mat.T @ qp @ a_mat)
            k0 = 2.0 * np.linalg.solve(m, b_mat.T @ (q @ alpha + gamma * s))
        except np.linalg.LinAlgError:
            raise OracleError("non-stabilizable configuration: singular control weight")
        f = a_mat - b_mat @ k_gain
        g = b_mat @ k0
        p_new = f.T @ qp @ f + 0.5 * k_gain.T @ r @ k_gain
        p_new = 0.5 * (p_new + p_new.T)
        s_new = f.T @ (q @ (alpha - g) - gamma * p @ g + gamma * s) + 0.5 * k_gain.T @ r @ k0
        if max(np.abs(p_new - p).max(), np.abs(s_new - s).max()) < tol:
            p, s = p_new, s_new
            break
        p, s = p_new, s_new
    else:
        raise OracleError("Riccati iteration did not converge")

    if np.abs(np.linalg.eigvals(f)).max() >= 1.0:
        raise OracleError("non-stabilizable configuration")
    mean = np.linalg.solve(np.eye(2) - f, g)
    lyap = np.linalg.solve(np.eye(4) - np.kron(f, f), (sigma ** 2 * np.eye(2)).ravel())
    return LqrSolution(k_gain, k0, mean, lyap.reshape(2, 2))
