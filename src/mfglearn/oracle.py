"""Exact desk-scale solvers for finite-state mean-field games.

Provides backward-induction best responses against a frozen population flow,
fictitious play over flows with exploitability certificates, the exact
expected payoff of one agent in the finite N-player game (a joint-state DP,
plus a backward induction over explicit tables of joint actions and
successors, walked in row chunks of bounded size, that is the reference
tests and the benchmark compare it against), a Monte-Carlo estimate of the
finite-population value gap |J_N - J_inf|, and the analytic stationary
solution of the linear-quadratic environment.

Reward functions must accept numpy arrays of states/masses/actions and
broadcast, e.g. ``lambda s, m, a: np.where(s == 0, 1/(1+m), 0.0)``.  Every
solver calls the reward one way, through one helper: mass is a (..., 1)
column of masses, s the column of states that broadcasts against it, and a
the (A,) array of all actions; the result must be finite and broadcast to
the (..., A) table of each action's reward, or OracleError is raised.  The
sweeps pass the (S, 1) states and the (..., S, 1) masses of the whole stack
of flows a backward sweep solves against, once per sweep; a fictitious-play
iteration is one such sweep and one forward pass.  The N-player payoffs pass
the tracked agent's state and the share of agents there in each of the S^N
joint states, once per call.  The finite-N gap simulator passes each
trial's masses once per step and reads each agent's (trial, state, action)
entry.

Policies passed to the solvers must be (T, S, A) arrays whose rows are
distributions over actions, and flows (T+1, S) arrays whose rows are
distributions over states; anything else, NaN entries included, raises
OracleError.  The public entry points check their inputs once; the private
sweeps they share take the oracle's own arrays unchecked.

The sweeps run on workspaces (``_Sweeps``) of preallocated, time-major
buffers: time is the leading axis, so every step of a sweep reads and
writes contiguous blocks, through views bound once per workspace.  Every
public call builds exactly one workspace and runs all its sweeps on it;
fictitious play finds its first best response, to the uniform policy's
flow, on the same two-column workspace as all its iterations.  The public
entry points copy out what they return, so no result aliases a workspace,
and writing into a result changes no later call.
Besides flows and values, a workspace keeps each forward step's joint
(s, a) mass, flow times policy, and each backward step's q table.  From
these it certifies a policy without a third sweep column: by the
performance-difference lemma (Kakade & Langford 2002), the exploitability
(Perrin et al. 2020) is the joint-weighted sum of the best response's
advantages V*(s) - Q*(s, a), all >= 0.  Fictitious play's trace and
:func:`exploitability` are both this one sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import as_floats, check_count, is_count
from .envs import LqrReward

PROB_TOL = 1e-12
GAP_BLOCK = 2 ** 16  # uniform draws per chunk of side-by-side finite-N trials
# most S^N joint states the exact N-player payoffs take on; the DP's table
# of joint states alone is S^N * N int64s, 168 MB at the limit with S = 2
_JOINT_STATE_LIMIT = 2 ** 20
# most agents: the DP stacks one axis per agent under a leading axis, and a
# numpy array has at most 64 axes
_AGENT_LIMIT = 63
# most float64 entries (8 MB) in one table of nplayer_payoff_enumerated
ENUMERATION_BUDGET = 2 ** 20
# lqr_analytic's value iteration stops when (P, s) moves less than the
# tolerance in a sweep, and fails after the most sweeps
_RICCATI_TOL, _RICCATI_MAX_ITER = 1e-12, 10 ** 5


class OracleError(ValueError):
    pass


def _reward_table(game, s, mass) -> np.ndarray:
    """The reward of every action at each (state, mass) pair, as a read-only
    float (..., A) array: one ``game.reward`` call on the (..., 1) column of
    masses ``mass``, the column of states ``s`` that broadcasts against it,
    and the (A,) actions.  A result of non-numbers, one that does not
    broadcast to (..., A), or one with a NaN or infinite entry raises OracleError."""
    shape = mass.shape[:-1] + (game.n_actions,)
    reward = as_floats(game.reward(s, mass, np.arange(game.n_actions)), "reward", OracleError)
    try:
        table = np.broadcast_to(reward, shape)
    except ValueError:
        raise OracleError("reward of shape %r does not broadcast to %r" % (reward.shape, shape))
    if not np.isfinite(reward).all():
        raise OracleError("reward must be finite")
    return table


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
        check_count(self.n_states, "n_states", OracleError)
        check_count(self.n_actions, "n_actions", OracleError)
        check_count(self.horizon, "horizon", OracleError)
        if not callable(self.reward):
            raise OracleError("reward must be callable, got %r" % (self.reward,))
        p = as_floats(self.transitions, "transitions", OracleError).copy()
        if p.shape != (self.n_states, self.n_actions, self.n_states):
            raise OracleError("transition kernel shape %r" % (p.shape,))
        if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=2) - 1.0) <= PROB_TOL)):
            raise OracleError("transition rows must be distributions")
        mu = as_floats(self.mu0, "mu0", OracleError).copy()
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
        (T, K, S) flows of one backward sweep; a flow of non-numbers, or whose
        last axis is not S long, raises OracleError.  The reward is called
        once, with s of shape (S, 1) and mass of shape (..., S, 1).
        """
        flow = as_floats(flow, "flow", OracleError)
        if flow.shape[-1:] != (self.n_states,):
            raise OracleError("flow of shape %r does not end in the %d states"
                              % (flow.shape, self.n_states))
        return _reward_table(self, np.arange(self.n_states)[:, None], flow[..., None])


def uniform_policy(game: DiscreteMFG) -> np.ndarray:
    return np.full((game.horizon, game.n_states, game.n_actions), 1.0 / game.n_actions)


def _check_flow(game: DiscreteMFG, flow) -> np.ndarray:
    """Validate one (T+1, S) flow and return it as floats.  Every row must be
    a distribution over states; NaN entries fail both tests."""
    flow = as_floats(flow, "flow", OracleError)
    if flow.shape != (game.horizon + 1, game.n_states):
        raise OracleError("flow shape %r" % (flow.shape,))
    if not (np.all(flow >= -PROB_TOL) and np.all(np.abs(flow.sum(axis=1) - 1.0) <= 1e-9)):
        raise OracleError("flow rows must be distributions")
    return flow


def _check_policy(game: DiscreteMFG, policy) -> np.ndarray:
    """Validate one (T, S, A) policy and return it as floats.  Every row must
    be a distribution over actions; NaN entries fail both tests."""
    policy = as_floats(policy, "policy", OracleError)
    shape = (game.horizon, game.n_states, game.n_actions)
    if policy.shape != shape:
        raise OracleError("policy shape %r, expected %r" % (policy.shape, shape))
    if not np.all(policy >= 0.0):
        raise OracleError("policy entries must be nonnegative")
    if not np.all(np.abs(policy.sum(axis=-1) - 1.0) <= PROB_TOL):
        raise OracleError("policy rows must sum to 1")
    return policy


def _one_hot(game: DiscreteMFG, best: np.ndarray) -> np.ndarray:
    """The deterministic (T, S, A) policy playing the (T, S) best actions."""
    return (best[:, :, None] == np.arange(game.n_actions)).astype(float)


class _Sweeps:
    """One call's workspace for forward and backward sweeps over K columns.

    Every buffer is allocated here and is time-major, so each step reads and
    writes contiguous blocks: the policy stack (T, K, S, A), joint stack
    (T, K, S, A) and flow stack (T+1, K, S) of the forward pass; the rewards
    (T, K', S*A), q tables (T, K', S, A), values (T+1, K', S) and best
    actions (T, K, S) of the backward pass, with K' = K + 1 when
    ``policy_column`` keeps a policy's value; and the index, weighted and
    advantage scratch.  ``joints[t, k]`` is flow column k times policy
    column k at step t, the (s, a) mass that the forward step pushes through
    the kernel, and ``q[t, k]`` is column k's reward plus expected next
    value of each (s, a).  Both stay in place after the sweeps, so
    :meth:`certificate` reads the last policy column's exploitability off
    them without another pass.
    The views each step touches are bound once, here, and the steps write
    through ``out=`` without making arrays.  A caller fills ``policies`` and
    ``flows`` in place, runs the sweeps, and copies out whatever it returns.
    """

    def __init__(self, game: DiscreteMFG, k: int, policy_column: bool = False):
        T, S, A = game.horizon, game.n_states, game.n_actions
        columns = k + policy_column
        self.game, self.k, self.policy_column = game, k, policy_column
        self.policies = np.zeros((T, k, S, A))
        self.joints = np.empty((T, k, S, A))
        self.flows = np.zeros((T + 1, k, S))
        self.flows[0] = game.mu0
        self.rewards = np.empty((T, columns, S * A))
        self.q = np.empty((T, columns, S, A))
        self.values = np.zeros((T + 1, columns, S))
        self.best = np.zeros((T, k, S), dtype=int)
        self._index = np.empty((k, S), dtype=int)
        self._weighted = np.empty((S, A))
        self._first = np.arange(k * S).reshape(k, S) * A  # flat index of each (k, s) row's action 0
        self._kernel = game.transitions.reshape(S * A, S)
        self._reward_rows = self.rewards.reshape(T, columns, S, A)[:, :k]
        self._forward_steps = [(self.flows[t][..., None], self.policies[t], self.joints[t],
                                self.joints[t].reshape(k, S * A), self.flows[t + 1])
                               for t in range(T)]
        self._backward_steps = [
            (self.values[t + 1], self.rewards[t], self.q[t].reshape(columns, S * A), self.q[t, :k],
             self.best[t], self.values[t, :k])
            + ((self.policies[t, k - 1], self.q[t, k], self.values[t, k]) if policy_column
               else (None, None, None))
            for t in range(T - 1, -1, -1)]
        # the last column's certificate operands as (T, A, S) views: V* then
        # broadcasts along the state axis, and numpy's inner loop runs once
        # per action row rather than once per state
        self._certificate = (self.joints[:, k - 1].transpose(0, 2, 1),
                             self.values[:-1, k - 1, None],
                             self.q[:, k - 1].transpose(0, 2, 1), np.empty((T, A, S)))

    def forward(self):
        """Propagate ``flows[0]`` under the policy stack: each step is one
        (K, S*A) @ (S*A, S) product of its joint rows into the next flow rows."""
        kernel, multiply, dot = self._kernel, np.multiply, np.dot
        for flow_t, policy_t, joint_t, joint_rows, flow_next in self._forward_steps:
            multiply(flow_t, policy_t, joint_t)
            dot(joint_rows, kernel, flow_next)

    def backward(self):
        """Backward induction against the flow stack, one reward call for
        all of it and one (K', S) @ (S, S*A) product per step.

        ``best[:, k]`` and ``values[:, k]`` are the best actions, ties broken
        toward the lowest index, and the optimum against flow column k; with
        a policy column, ``values[:, K]`` is the last policy column's value
        against the last flow column.
        """
        k, index, first, weighted = self.k, self._index, self._first, self._weighted
        self._reward_rows[...] = self.game.reward_table(self.flows[:-1])
        if self.policy_column:
            self.rewards[:, k] = self.rewards[:, k - 1]
        # the F-ordered transpose of the forward kernel: a C-ordered copy
        # would change the product's bits
        kernel, add, multiply, dot, add_reduce = self._kernel.T, np.add, np.multiply, np.dot, np.add.reduce
        # ndarray methods and positional ufunc arguments: the numpy wrappers
        # and keyword parsing cost more than these small steps' arithmetic
        for (values_next, rewards_t, q_t, q_best, best_t, values_t,
             policy_t, q_policy, policy_value_t) in self._backward_steps:
            dot(values_next, kernel, q_t)
            q_t += rewards_t
            q_best.argmax(2, best_t)  # first max = lowest action index
            add(first, best_t, index)
            q_t.take(index, None, values_t, "clip")  # in range by construction; skips the check
            if policy_t is not None:
                multiply(policy_t, q_policy, weighted)
                add_reduce(weighted, 1, None, policy_value_t)

    def certificate(self) -> float:
        """The exploitability of the last policy column, read off a forward
        sweep and then a backward sweep against the flow column it left:
        the performance-difference lemma's sum over t, s, a of
        joint_t(s, a) * (V*_t(s) - Q*_t(s, a)).  Every term is a product of
        two numbers >= 0, so the sum is >= 0 in floating point and exactly 0
        wherever the policy plays only best actions.  It makes no array."""
        joint, v_star, q_star, advantage = self._certificate
        np.subtract(v_star, q_star, advantage)
        return float(np.vdot(joint, advantage))


def best_response(game: DiscreteMFG, flow: np.ndarray):
    """Backward-induction optimum against a frozen flow.

    Returns (deterministic policy (T,S,A), values (T+1,S)); ties break
    toward the lowest action index.
    """
    sweeps = _Sweeps(game, 1)
    sweeps.flows[:, 0] = _check_flow(game, flow)
    sweeps.backward()
    return _one_hot(game, sweeps.best[:, 0]), sweeps.values[:, 0].copy()


def policy_value(game: DiscreteMFG, policy: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Expected values (T+1, S) of a stochastic policy against a frozen flow."""
    sweeps = _Sweeps(game, 1, policy_column=True)
    sweeps.policies[:, 0] = _check_policy(game, policy)
    sweeps.flows[:, 0] = _check_flow(game, flow)
    sweeps.backward()
    return sweeps.values[:, 1].copy()


def induced_flow(game: DiscreteMFG, policy: np.ndarray) -> np.ndarray:
    """Forward-propagate the population under a shared (T, S, A) policy;
    returns its (T+1, S) flow."""
    sweeps = _Sweeps(game, 1)
    sweeps.policies[:, 0] = _check_policy(game, policy)
    sweeps.forward()
    return sweeps.flows[:, 0].copy()


def exploitability(game: DiscreteMFG, policy: np.ndarray) -> float:
    """Best-response gap of a policy at its own induced flow, >= 0 term by
    term: fictitious play's certificate, from one workspace's forward sweep
    under the policy and backward sweep against its flow.
    """
    sweeps = _Sweeps(game, 1)
    sweeps.policies[:, 0] = _check_policy(game, policy)
    sweeps.forward()
    sweeps.backward()
    return sweeps.certificate()


def fictitious_play(game: DiscreteMFG, iterations: int):
    """Best-respond to the running-average flow; average policies and flows.

    The initial belief is the uniform policy's flow and is excluded from the
    averages.  Returns (average policy, average flow, exploitability trace of
    the average policy per iteration).

    Everything runs on one two-column workspace.  Its policy stack holds
    the best response and the average policy, both updated in place.  The
    first best response comes from one forward and one backward sweep with
    the uniform policy in both columns, so the reward meets only flows that
    are distributions; the average column is then zeroed, so iteration 1
    sets the average to that best response exactly.  In each iteration the
    forward sweep gives both columns' flows together; the new best
    response's flow is folded into the running average, which then takes
    its column, so the backward sweep against the average flow and the
    average policy's own flow gives the next best response and the optimal
    values V* and q tables Q* against the average policy's flow.

    The certificate is the performance-difference lemma's form of the
    exploitability: trace[n-1] = sum over t, s, a of joint_t(s, a) *
    (V*_t(s) - Q*_t(s, a)), where joint_t is the average policy's flow times
    the average policy, the forward sweep's joint stack: the workspace's
    certificate, which :func:`exploitability` also returns.
    """
    check_count(iterations, "iterations", OracleError)
    T, S, A = game.horizon, game.n_states, game.n_actions
    sweeps = _Sweeps(game, 2)
    policies, best = sweeps.policies, sweeps.best[:, 0]
    pol, avg_policy = policies[:, 0], policies[:, 1]
    policies[...] = uniform_policy(game)[:, None]
    sweeps.forward()
    sweeps.backward()
    avg_policy.fill(0.0)
    new_flow = sweeps.flows[:, 0]  # the best response's flow, then the average flow
    avg_flow = np.zeros((T + 1, S))
    step = np.empty((T, S, A))
    rows = (np.arange(T)[:, None] * 2 * S + np.arange(S)) * A  # flat index of policies[t, 0, s, 0]
    index = np.empty((T, S), dtype=int)
    trace = np.zeros(iterations)
    for n in range(1, iterations + 1):
        pol.fill(0.0)  # the one-hot best response
        np.add(rows, best, index)
        policies.put(index, 1.0, "clip")  # in range by construction; skips the check
        np.subtract(pol, avg_policy, out=step)
        step /= n
        avg_policy += step
        sweeps.forward()
        new_flow -= avg_flow
        new_flow /= n
        avg_flow += new_flow
        new_flow[...] = avg_flow
        sweeps.backward()
        trace[n - 1] = sweeps.certificate()
    return avg_policy.copy(), avg_flow, trace


# --- exact N-player evaluation ------------------------------------------------

def _joint_states(n_states: int, n_agents: int) -> np.ndarray:
    """All S^N joint states as rows, in ``itertools.product`` order."""
    return np.indices((n_states,) * n_agents).reshape(n_agents, n_states ** n_agents).T


def _check_players(game: DiscreteMFG, agent: int, n_agents: int):
    if not (is_count(agent, 0) and agent < n_agents):
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
    reward = _reward_table(game, own_s[:, None], own_mass[:, None])
    dist = np.prod(game.mu0[joint], axis=1)
    total = 0.0
    for t in range(game.horizon):
        # expected reward of the tracked agent under the current joint distribution
        r = np.zeros(len(joint))
        for a in range(game.n_actions):
            r += policies[agent][t, own_s, a] * reward[:, a]
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


def _product_table(k: int, n: int) -> np.ndarray:
    """All k^n index tuples of ``itertools.product(range(k), repeat=n)`` as
    the rows of a (k^n, n) int array, filled without a list of tuples."""
    flat = itertools.chain.from_iterable(itertools.product(range(k), repeat=n))
    return np.fromiter(flat, dtype=int, count=k ** n * n).reshape(k ** n, n)


def nplayer_payoff_enumerated(game: DiscreteMFG, policies, agent: int) -> float:
    """Same payoff by backward induction over explicit joint-action and
    joint-successor tables: the reference :func:`nplayer_payoff` is checked
    against.

    The joint states and joint actions are index tables built from
    ``itertools.product``.  Each (joint state, joint action) pair is weighted
    by the product of the agents' action probabilities, and each (state,
    action, successor) triple by the product of their transition
    probabilities; the value of a joint state at step t is the weighted sum
    over joint actions of the tracked agent's reward plus the expected value
    of the successors at t+1.

    It stays independent of the DP: nothing here marginalizes an agent's
    actions into a per-agent kernel or shares the DP's joint-state table, so
    an error in either route shows as a disagreement.  The price is a
    (joint actions x joint successors) table per joint state, exponential in
    N.  Joint states are walked in row chunks of at most ENUMERATION_BUDGET
    table entries, so no array here is larger than the budget, and an input
    whose single-state table (or index table) exceeds it raises OracleError
    before any table is built.
    """
    policies = [_check_policy(game, p) for p in policies]
    n = len(policies)
    _check_players(game, agent, n)
    S, A, T = game.n_states, game.n_actions, game.horizon
    n_joint, n_profiles = S ** n, A ** n
    # a joint state's (joint actions x joint successors) table or, with one
    # action, the (S^N, N) joint-state index table, whichever is larger
    entries = max(n_profiles, n) * n_joint
    if entries > ENUMERATION_BUDGET:
        raise OracleError("%d agents over %d states and %d actions make %d-entry tables, more "
                          "than %d" % (n, S, A, entries, ENUMERATION_BUDGET))
    rows = ENUMERATION_BUDGET // (n_profiles * n_joint)
    states, actions = _product_table(S, n), _product_table(A, n)
    own = states[:, agent, None]
    share = (states == own).sum(axis=1, keepdims=True) / float(n)
    reward = _reward_table(game, own, share)[:, actions[:, agent]]
    values = np.zeros(n_joint)
    for t in range(T - 1, -1, -1):
        values_t = np.empty(n_joint)
        for lo in range(0, n_joint, rows):
            block = states[lo:lo + rows]
            weight = np.ones((len(block), n_profiles))
            prob = np.ones((len(block), n_profiles, n_joint))
            for i in range(n):
                weight *= policies[i][t][block[:, i, None], actions[:, i]]
                prob *= game.transitions[block[:, i, None], actions[:, i]].take(states[:, i], axis=2)
            values_t[lo:lo + rows] = (weight * (reward[lo:lo + rows] + prob @ values)).sum(axis=1)
        values = values_t
    return float(np.prod(game.mu0[states], axis=1) @ values)


def random_policy(game: DiscreteMFG, rng) -> np.ndarray:
    p = rng.random((game.horizon, game.n_states, game.n_actions)) + 1e-3
    return p / p.sum(axis=2, keepdims=True)


# --- finite-population value gap (Monte Carlo) -------------------------------

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
    do not depend on the chunking.  The caller checks ``n_agents`` and ``trials``.
    """
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
            # each agent's entry of its trial's (c, S, A) table, by flat index
            total += game.reward_table(mass.reshape(c, S)).take(cell * A + a)
            s = _draw(move, s * A + a, next(draws))
        values[lo:lo + c] = total.mean(axis=1)
    return values


def simulate_population_value(game: DiscreteMFG, policy: np.ndarray, n_agents: int, rng) -> float:
    """Mean realized payoff of n agents sharing a policy, with rewards driven
    by the realized empirical measure."""
    policy = _check_policy(game, policy)
    check_count(n_agents, "agents", OracleError)
    return float(_population_values(game, policy, n_agents, 1, rng)[0])


def nplayer_gap(game: DiscreteMFG, policy: np.ndarray, n_agents: int, trials: int, rng):
    """(mean, std) over trials of |J_N - J_inf|, one trial's mean realized
    payoff of n agents against the policy's exact value in its limit flow.

    A value gap, not an incentive to deviate (the epsilon of epsilon-Nash).
    Most of it is the O(1/sqrt(N)) Monte-Carlo noise of one trial's mean: a
    game whose reward ignores the mass has E[J_N] = J_inf at every N and the
    same 1/sqrt(N) fall.  The ``oracle-ring`` benchmark times it.
    """
    policy = _check_policy(game, policy)
    check_count(n_agents, "agents", OracleError)
    check_count(trials, "trials", OracleError)
    sweeps = _Sweeps(game, 1, policy_column=True)
    sweeps.policies[:, 0] = policy
    sweeps.forward()
    sweeps.backward()
    j_inf = float(game.mu0 @ sweeps.values[0, 1])
    gaps = np.abs(_population_values(game, policy, n_agents, trials, rng) - j_inf)
    return float(gaps.mean()), float(gaps.std())


# --- built-in test games -----------------------------------------------------

def ring_game(n_states: int = 4, horizon: int = 4) -> DiscreteMFG:
    """Monotone congestion on a ring: stay/move-clockwise, state 0 paying
    1/(1 + mass there) > 0 and the others 0, so the best response ignores
    the flow and fictitious play's certificate is exactly 0.  Paying at
    another state would be this game relabelled by a rotation."""
    check_count(n_states, "n_states", OracleError)
    trans = np.zeros((n_states, 2, n_states))
    for s in range(n_states):
        trans[s, 0, s] = 1.0
        trans[s, 1, (s + 1) % n_states] = 1.0
    reward = lambda s, m, a: np.where(np.asarray(s) == 0, 1.0 / (1.0 + np.asarray(m)), 0.0)
    mu0 = np.full(n_states, 1.0 / n_states)
    return DiscreteMFG(n_states, 2, horizon, trans, reward, mu0)


def two_state_congestion(horizon: int = 2) -> DiscreteMFG:
    """Two locations paying 1.0 and 0.6, each over (1 + its own mass);
    actions stay/switch.  Crowding the better spot pushes part of the
    population to the other, so fictitious play has genuine work to do."""
    trans = np.zeros((2, 2, 2))
    for s in range(2):
        trans[s, 0, s] = 1.0
        trans[s, 1, 1 - s] = 1.0
    w = np.array([1.0, 0.6])
    reward = lambda s, m, a: w[np.asarray(s)] / (1.0 + np.asarray(m))
    return DiscreteMFG(2, 2, horizon, trans, reward, np.array([1.0, 0.0]))


# --- linear-quadratic analytic reference -------------------------------------

@dataclass(frozen=True)
class LqrSolution:
    gain: np.ndarray          # u* = -gain @ x + offset
    offset: np.ndarray
    mean: np.ndarray          # stationary mean of the controlled process
    covariance: np.ndarray    # stationary state covariance


def lqr_analytic(spec) -> LqrSolution:
    """Stationary optimum of the lqr environment's own reward convention.

    The dynamics are the environments' x' = x + u + sigma1*noise, so A = B = I.
    The per-step cost is (x' - target)^T Q (x' - target) + 0.5*eta*|u|^2
    charged at the arrival state, discounted by gamma.  The affine value
    recursion V(x) = x^T P x - 2 s^T x + c is iterated to its fixed point;
    the controlled process x' = F x + g + sigma1*noise then gives the
    stationary mean (I-F)^{-1} g and the Lyapunov covariance.
    """
    if not isinstance(spec.reward, LqrReward):
        raise OracleError("lqr_analytic needs an lqr environment")
    q = spec.reward.q_matrix
    r = spec.eta * np.eye(2)
    alpha = np.asarray(spec.reward.target)
    gamma = spec.gamma

    p = np.zeros((2, 2))
    s = np.zeros(2)
    for _ in range(_RICCATI_MAX_ITER):
        qp = q + gamma * p
        m = r + 2.0 * qp
        try:
            k_gain = 2.0 * np.linalg.solve(m, qp)
            k0 = 2.0 * np.linalg.solve(m, q @ alpha + gamma * s)
        except np.linalg.LinAlgError:
            raise OracleError("non-stabilizable configuration: singular control weight")
        f = np.eye(2) - k_gain
        g = k0
        p_new = f.T @ qp @ f + 0.5 * k_gain.T @ r @ k_gain
        p_new = 0.5 * (p_new + p_new.T)
        s_new = f.T @ (q @ (alpha - g) - gamma * p @ g + gamma * s) + 0.5 * k_gain.T @ r @ k0
        if max(np.abs(p_new - p).max(), np.abs(s_new - s).max()) < _RICCATI_TOL:
            p, s = p_new, s_new
            break
        p, s = p_new, s_new
    else:
        raise OracleError("Riccati iteration did not converge")

    if np.abs(np.linalg.eigvals(f)).max() >= 1.0:
        raise OracleError("non-stabilizable configuration")
    mean = np.linalg.solve(np.eye(2) - f, g)
    lyap = np.linalg.solve(np.eye(4) - np.kron(f, f), (spec.sigma1 ** 2 * np.eye(2)).ravel())
    return LqrSolution(k_gain, k0, mean, lyap.reshape(2, 2))
