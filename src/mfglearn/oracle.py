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
pass.  The finite-N gap simulator calls the reward once per step on trials
run side by side: s, mass and a are (trials, N) arrays of each agent's
state, the mass at that state in the agent's own trial, and its action, and
the result must broadcast to (trials, N).  Policies passed to the solvers
must be (T, S, A) arrays whose rows are distributions over actions, and
flows (T+1, S) arrays whose rows are distributions over states; anything
else, NaN entries included, raises OracleError.  The public entry points
check their inputs once; the private sweeps they share take the oracle's
own arrays unchecked.

The sweeps run on workspaces (``_Sweeps``) of preallocated, time-major
buffers: time is the leading axis, so every step of a sweep reads and
writes contiguous blocks, through views bound once per workspace.  A
workspace belongs to one call, and fictitious play runs all its iterations
on one.  The public entry points copy out what they return, so no result
aliases a workspace, and writing into a result changes no later call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .envs import LqrReward

PROB_TOL = 1e-12
GAP_BLOCK = 2 ** 16  # uniform draws per chunk of side-by-side finite-N trials
# most S^N joint states the exact N-player payoffs take on; the DP's table
# of joint states alone is S^N * N int64s, 168 MB at the limit with S = 2
_JOINT_STATE_LIMIT = 2 ** 20
# most agents: the DP stacks one axis per agent under a leading axis, and a
# numpy array has at most 64 axes
_AGENT_LIMIT = 63


class OracleError(ValueError):
    pass


def _check_count(value, what: str):
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise OracleError("%s must be an int of at least one, got %r" % (what, value))


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
        _check_count(self.horizon, "horizon")
        p = np.array(self.transitions, dtype=float)
        if p.shape != (self.n_states, self.n_actions, self.n_states):
            raise OracleError("transition kernel shape %r" % (p.shape,))
        if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=2) - 1.0) <= PROB_TOL)):
            raise OracleError("transition rows must be distributions")
        mu = np.array(self.mu0, dtype=float)
        if not (mu.shape == (self.n_states,) and np.all(mu >= 0)
                and abs(mu.sum() - 1.0) <= PROB_TOL):
            raise OracleError("mu0 must be a distribution over states")
        p.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "mu0", mu)

    def reward_table(self, flow: np.ndarray) -> np.ndarray:
        """L(s, flow(s), a) for all s, a as a read-only (..., S, A) array.

        ``flow`` is one (S,) marginal or any stack of them, such as the
        (T, K, S) flows of one backward sweep.  The reward is called once,
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


def _check_flow(game: DiscreteMFG, flow) -> np.ndarray:
    """Validate one (T+1, S) flow and return it as floats.  Every row must be
    a distribution over states; NaN entries fail both tests."""
    flow = np.asarray(flow, dtype=float)
    if flow.shape != (game.horizon + 1, game.n_states):
        raise OracleError("flow shape %r" % (flow.shape,))
    if not (np.all(flow >= -PROB_TOL) and np.all(np.abs(flow.sum(axis=1) - 1.0) <= 1e-9)):
        raise OracleError("flow rows must be distributions")
    return flow


def _check_policy(game: DiscreteMFG, policy) -> np.ndarray:
    """Validate one (T, S, A) policy and return it as floats.  Every row must
    be a distribution over actions; NaN entries fail both tests."""
    policy = np.asarray(policy, dtype=float)
    shape = (game.horizon, game.n_states, game.n_actions)
    if policy.shape != shape:
        raise OracleError("policy shape %r, expected %r" % (policy.shape, shape))
    if not np.all(policy >= 0.0):
        raise OracleError("policy entries must be nonnegative")
    # row sums by adding action columns: numpy's reduction over a short
    # trailing axis costs several times more
    row_sums = np.zeros(policy.shape[:-1])
    for a in range(policy.shape[-1]):
        row_sums += policy[..., a]
    if not np.all(np.abs(row_sums - 1.0) <= PROB_TOL):
        raise OracleError("policy rows must sum to 1")
    return policy


def _one_hot(game: DiscreteMFG, best: np.ndarray) -> np.ndarray:
    """The deterministic (T, S, A) policy playing the (T, S) best actions."""
    return (best[:, :, None] == np.arange(game.n_actions)).astype(float)


class _Sweeps:
    """One call's workspace for forward and backward sweeps over K columns.

    Every buffer is allocated here and is time-major, so each step reads and
    writes contiguous blocks: the policy stack (T, K, S, A) and flow stack
    (T+1, K, S) of the forward pass; the rewards (T, K', S*A), values
    (T+1, K', S) and best actions (T, K, S) of the backward pass, with
    K' = K + 1 when ``policy_column`` keeps a policy's value; and the q,
    joint, index and weighted scratch.  The views each step touches are
    bound once, here, and the steps write through ``out=`` without making
    arrays.  A caller fills ``policies`` and ``flows`` in place, runs the
    sweeps, and copies out whatever it returns.
    """

    def __init__(self, game: DiscreteMFG, k: int, policy_column: bool = False):
        T, S, A = game.horizon, game.n_states, game.n_actions
        columns = k + policy_column
        self.game, self.k, self.policy_column = game, k, policy_column
        self.policies = np.zeros((T, k, S, A))
        self.flows = np.zeros((T + 1, k, S))
        self.flows[0] = game.mu0
        self.rewards = np.empty((T, columns, S * A))
        self.values = np.zeros((T + 1, columns, S))
        self.best = np.zeros((T, k, S), dtype=int)
        self._q = np.empty((columns, S * A))
        self._joint = np.empty((k, S, A))
        self._index = np.empty((k, S), dtype=int)
        self._weighted = np.empty((S, A))
        self._first = np.arange(k * S).reshape(k, S) * A  # flat index of each (k, s) row's action 0
        self._kernel = game.transitions.reshape(S * A, S)
        self._q_best = self._q[:k].reshape(k, S, A)
        self._q_policy = self._q[k].reshape(S, A) if policy_column else None
        self._reward_rows = self.rewards.reshape(T, columns, S, A)[:, :k]
        self._forward_steps = [(self.flows[t][..., None], self.policies[t], self.flows[t + 1])
                               for t in range(T)]
        self._backward_steps = [
            (self.values[t + 1], self.rewards[t], self.best[t], self.values[t, :k])
            + ((self.policies[t, k - 1], self.values[t, k]) if policy_column else (None, None))
            for t in range(T - 1, -1, -1)]

    def forward(self):
        """Propagate ``flows[0]`` under the policy stack: each step is one
        (K, S*A) @ (S*A, S) product into the next flow rows."""
        joint, joint_rows, kernel = self._joint, self._joint.reshape(self.k, -1), self._kernel
        multiply, matmul = np.multiply, np.matmul
        for flow_t, policy_t, flow_next in self._forward_steps:
            multiply(flow_t, policy_t, joint)
            matmul(joint_rows, kernel, flow_next)

    def backward(self):
        """Backward induction against the flow stack, one reward call for
        all of it and one (K', S) @ (S, S*A) product per step.

        ``best[:, k]`` and ``values[:, k]`` are the best actions, ties broken
        toward the lowest index, and the optimum against flow column k; with
        a policy column, ``values[:, K]`` is the last policy column's value
        against the last flow column.
        """
        k, q, index, first = self.k, self._q, self._index, self._first
        self._reward_rows[...] = self.game.reward_table(self.flows[:-1])
        if self.policy_column:
            self.rewards[:, k] = self.rewards[:, k - 1]
        # the F-ordered transpose of the forward kernel: a C-ordered copy
        # would change the product's bits
        kernel, q_best, q_policy, weighted = self._kernel.T, self._q_best, self._q_policy, self._weighted
        add, multiply, matmul = np.add, np.multiply, np.matmul
        # ndarray methods and positional ufunc arguments: the numpy wrappers
        # and keyword parsing cost more than these small steps' arithmetic
        for values_next, rewards_t, best_t, values_t, policy_t, policy_value_t in self._backward_steps:
            matmul(values_next, kernel, q)
            q += rewards_t
            q_best.argmax(2, best_t)  # first max = lowest action index
            add(first, best_t, index)
            q.take(index, None, values_t, "clip")  # in range by construction; skips the check
            if policy_t is not None:
                multiply(policy_t, q_policy, weighted)
                weighted.sum(1, None, policy_value_t)


def _backward(game: DiscreteMFG, flows: np.ndarray, policy: np.ndarray | None = None):
    """Backward induction against a (K, T+1, S) stack of flows at once.

    A thin wrapper: the flows (and ``policy``, when given) are copied into a
    new workspace, whose time-major backward sweep runs once.  Returns its
    best actions (T, K, S) and values (T+1, K', S): values[:, k] is the
    optimum against flows[k] for k < K and, when ``policy`` is given,
    values[:, K] is that policy's value against the last flow.  Both are the
    workspace's own buffers; a public caller copies what it returns.
    """
    sweeps = _Sweeps(game, len(flows), policy is not None)
    sweeps.flows[...] = flows.swapaxes(0, 1)
    if policy is not None:
        sweeps.policies[:, -1] = policy
    sweeps.backward()
    return sweeps.best, sweeps.values


def best_response(game: DiscreteMFG, flow: np.ndarray):
    """Backward-induction optimum against a frozen flow.

    Returns (deterministic policy (T,S,A), values (T+1,S)); ties break
    toward the lowest action index.
    """
    best, values = _backward(game, _check_flow(game, flow)[None])
    return _one_hot(game, best[:, 0]), values[:, 0].copy()


def policy_value(game: DiscreteMFG, policy: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Expected values (T+1, S) of a stochastic policy against a frozen flow."""
    policy = _check_policy(game, policy)
    _, values = _backward(game, _check_flow(game, flow)[None], policy)
    return values[:, 1].copy()


def _forward(game: DiscreteMFG, policies: np.ndarray) -> np.ndarray:
    """The (K, T+1, S) flows of a (K, T, S, A) stack of policies.

    A thin wrapper: the policies are copied into a new workspace, whose
    time-major forward sweep runs once.  Returns a (K, T+1, S) view of its
    (T+1, K, S) flow stack; a public caller copies what it returns.
    """
    sweeps = _Sweeps(game, len(policies))
    sweeps.policies[...] = policies.swapaxes(0, 1)
    sweeps.forward()
    return sweeps.flows.swapaxes(0, 1)


def induced_flow(game: DiscreteMFG, policy: np.ndarray) -> np.ndarray:
    """Forward-propagate the population under a shared (T, S, A) policy;
    returns its (T+1, S) flow."""
    return _forward(game, _check_policy(game, policy)[None])[0].copy()


def exploitability(game: DiscreteMFG, policy: np.ndarray, worst_case: bool = False) -> float:
    """Best-response gap of a policy at its own induced flow (>= 0).

    Default weights the per-state gaps by the initial distribution; the
    worst-case mode takes the max over states instead.  One backward sweep
    gives both the best response's and the policy's values.
    """
    policy = _check_policy(game, policy)
    _, values = _backward(game, _forward(game, policy[None]), policy)
    gap = values[0, 0] - values[0, 1]
    if worst_case:
        return float(gap.max())
    return float(game.mu0 @ gap)


def fictitious_play(game: DiscreteMFG, iterations: int):
    """Best-respond to the running-average flow; average policies and flows.

    The initial belief is the uniform policy's flow and is excluded from the
    averages.  Returns (average policy, average flow, exploitability trace of
    the average policy per iteration).

    All iterations run on one two-column workspace.  Its policy stack holds
    the best response and the average policy, both updated in place.  The
    forward sweep gives their flows together; the new best response's flow
    is folded into the running average, which then takes its column, so the
    backward sweep against the average flow and the average policy's own
    flow gives the next best response and this iteration's certificate.
    """
    _check_count(iterations, "iterations")
    T, S, A = game.horizon, game.n_states, game.n_actions
    # the first best response comes from one-column sweeps: a one-row
    # product takes numpy's matrix-vector route, whose bits differ from a row
    # of a two-row product
    first_best, _ = _backward(game, _forward(game, uniform_policy(game)[None]))
    sweeps = _Sweeps(game, 2, policy_column=True)
    sweeps.best[:, 0] = first_best[:, 0]
    best, values = sweeps.best[:, 0, :, None], sweeps.values[0]
    pol, avg_policy = sweeps.policies[:, 0], sweeps.policies[:, 1]
    new_flow = sweeps.flows[:, 0]  # the best response's flow, then the average flow
    avg_flow = np.zeros((T + 1, S))
    step = np.empty((T, S, A))
    actions = np.arange(A)
    trace = np.zeros(iterations)
    for n in range(1, iterations + 1):
        np.equal(best, actions, out=pol)  # the one-hot best response
        np.subtract(pol, avg_policy, out=step)
        step /= n
        avg_policy += step
        sweeps.forward()
        new_flow -= avg_flow
        new_flow /= n
        avg_flow += new_flow
        new_flow[...] = avg_flow
        sweeps.backward()
        trace[n - 1] = game.mu0 @ (values[1] - values[2])
    return avg_policy.copy(), avg_flow, trace


# --- exact N-player evaluation ------------------------------------------------

def _joint_states(n_states: int, n_agents: int) -> np.ndarray:
    """All S^N joint states as rows, in ``itertools.product`` order."""
    return np.indices((n_states,) * n_agents).reshape(n_agents, n_states ** n_agents).T


def _check_players(game: DiscreteMFG, agent: int, n_agents: int):
    if not 0 <= agent < n_agents:
        raise OracleError("agent %r out of range for %d policies" % (agent, n_agents))
    if n_agents > _AGENT_LIMIT:
        raise OracleError("%d policies, more than %d" % (n_agents, _AGENT_LIMIT))
    joint = game.n_states ** n_agents
    if joint > _JOINT_STATE_LIMIT:
        raise OracleError("%d agents over %d states make %d joint states, more than %d"
                          % (n_agents, game.n_states, joint, _JOINT_STATE_LIMIT))


def nplayer_payoff(game: DiscreteMFG, policies, agent: int) -> float:
    """Exact expected payoff of one agent in the finite symmetric game.

    ``policies`` is one (T,S,A) array per agent; rewards couple through the
    empirical measure of all agents (self included).  Forward dynamic
    programming over the joint-state distribution with per-agent marginalized
    transition matrices.  More than 2^20 joint states (S^N) or 63 policies
    raise OracleError before anything is allocated.
    """
    policies = [_check_policy(game, p) for p in policies]
    n = len(policies)
    _check_players(game, agent, n)
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
    _check_players(game, agent, n)
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

def _cdf_table(prob: np.ndarray) -> np.ndarray:
    """Inverse-cdf table of a stack of distributions over the last axis.

    Row j of the (k-1, rows) result holds every distribution's cumulative
    mass up to index j, so each row is contiguous.  The last cumulative
    entry is taken as exactly 1.0 and not stored: a uniform draw below 1
    then never lands past the last index, even in a row that sums to a
    little under 1.
    """
    k = prob.shape[-1]
    return np.ascontiguousarray(np.cumsum(prob, axis=-1).reshape(-1, k)[:, :k - 1].T)


def _draw(cdf: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """The index each uniform in ``u`` picks from its row of a ``_cdf_table``:
    the count of that row's cumulative entries below it."""
    index = np.zeros(u.shape, dtype=int)
    for column in cdf:
        index += u > column[rows]
    return index


def _population_values(game: DiscreteMFG, policy: np.ndarray, n_agents: int, trials: int,
                       rng) -> np.ndarray:
    """Mean realized payoff per trial of n agents sharing a policy, with
    rewards driven by each trial's realized empirical measure.

    A trial draws 1 + 2T uniforms per agent: its initial state, then an
    action and a successor per step.  Trials run side by side as (c, N)
    arrays, c of them per chunk of at most GAP_BLOCK draws.  A chunk draws
    its (c, 1 + 2T, N) uniforms at once, which is the stream c one-trial
    loops would draw in turn; a trial larger than the budget draws one step
    at a time.  Either way the results and the generator's state afterwards
    do not depend on the chunking.
    """
    _check_count(n_agents, "agents")
    T, S, A = game.horizon, game.n_states, game.n_actions
    start, act, move = _cdf_table(game.mu0), _cdf_table(policy), _cdf_table(game.transitions)
    per_trial = (1 + 2 * T) * n_agents
    chunk = max(1, GAP_BLOCK // per_trial)
    values = np.empty(trials)
    for lo in range(0, trials, chunk):
        c = min(chunk, trials - lo)
        if per_trial > GAP_BLOCK:
            draws = (rng.random((1, n_agents)) for _ in range(1 + 2 * T))
        else:
            draws = iter(rng.random((c, 1 + 2 * T, n_agents)).swapaxes(0, 1))
        offset = S * np.arange(c)[:, None]  # each trial counts its own agents
        s = _draw(start, 0, next(draws))
        total = np.zeros((c, n_agents))
        for t in range(T):
            cell = s + offset
            mass = np.bincount(cell.ravel(), minlength=c * S) / float(n_agents)
            a = _draw(act, t * S + s, next(draws))
            total += game.reward(s, mass[cell], a)
            s = _draw(move, s * A + a, next(draws))
        values[lo:lo + c] = total.mean(axis=1)
    return values


def simulate_population_value(game: DiscreteMFG, policy: np.ndarray, n_agents: int, rng) -> float:
    """Mean realized payoff of n agents sharing a policy, with rewards driven
    by the realized empirical measure."""
    policy = _check_policy(game, policy)
    return float(_population_values(game, policy, n_agents, 1, rng)[0])


def nplayer_gap(game: DiscreteMFG, policy: np.ndarray, n_agents: int, trials: int, rng):
    """(mean, std) over trials of |finite-N mean payoff - exact limit value|."""
    policy = _check_policy(game, policy)
    _check_count(trials, "trials")
    _, values = _backward(game, _forward(game, policy[None]), policy)
    j_inf = float(game.mu0 @ values[0, 1])
    gaps = np.abs(_population_values(game, policy, n_agents, trials, rng) - j_inf)
    return float(gaps.mean()), float(gaps.std())


def scaling_experiment(game: DiscreteMFG, policy: np.ndarray, sizes, trials: int, rng):
    """Gap-vs-N table [(N, trials, mean, std)] and the log-log slope, fitted
    over at least two distinct N."""
    sizes = [int(n) for n in sizes]
    if len(set(sizes)) < 2:
        raise OracleError("a slope needs at least two distinct sizes, got %r" % (sizes,))
    rows = []
    for n in sizes:
        mean, std = nplayer_gap(game, policy, n, trials, rng)
        rows.append((n, trials, mean, std))
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
    if not isinstance(spec.reward, LqrReward):
        raise OracleError("lqr_analytic needs an lqr environment")
    q = spec.reward.q_matrix
    r = spec.r_matrix
    a_mat = spec.a * np.eye(2)
    b_mat = spec.b * np.eye(2)
    alpha = np.asarray(spec.reward.target)
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
