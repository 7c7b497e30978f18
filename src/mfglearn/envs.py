"""Benchmark environments behind one contract: linear-Gaussian transitions,
a Gaussian initial-state sampler, a movement cost and one reward object.

All the games share the transition x' = x + u + sigma1*noise and the
movement cost 0.5*eta*|u|^2.  They differ only in ``EnvSpec.reward``, a
frozen object called as ``r(t, x, density) -> (n,)``:

* CongestionReward: one Gaussian desirability peak discounted by local
  crowding, one-shot by default.
* DemandReward: the same crowded peak, travelling along a piecewise-linear
  path.
* LqrReward: quadratic tracking cost toward a fixed target.

``t`` is the step 1..T, ``x`` the (n, 2) states the step's actions *arrive*
at (so the one-shot congestion game scores the terminal position reached by
the single move) and ``density`` the population density at each of them.  A
reward's ``uses_density`` says whether it reads the density; the congestion
and demand rewards do, the LQR reward does not.  Each reward object checks
its parameters once, when it is built.

The ``*_env`` presets fill in a game's reward object, horizon, eta and
init_mean; a keyword, ``reward`` included, sets any ``EnvSpec`` field instead,
as in ``demand_env(reward=DemandReward(alpha=0.5))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_floats, check_count, check_points, check_positive, check_real, is_real


class EnvError(ValueError):
    """Raised for malformed environment parameters or inputs."""


def _finite_point(p, what: str) -> tuple:
    """``p`` as a (float, float) pair, or EnvError when it is not a sequence
    of exactly two numbers or a coordinate is not finite."""
    try:
        coords = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        coords = None
    if coords is None or coords.shape != (2,):
        raise EnvError("%s must be a pair of numbers, got %r" % (what, p))
    point = (float(coords[0]), float(coords[1]))
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        raise EnvError("%s must be finite, got %r" % (what, point))
    return point


def _pairs(entries, what: str) -> list:
    """``entries`` as a list of 2-tuples, or EnvError naming the first entry
    that is not a pair (or ``entries`` itself when it is not a sequence)."""
    try:
        items = list(entries)
    except TypeError:
        raise EnvError("%ss must be a sequence of pairs, got %r" % (what, entries)) from None
    pairs = []
    for entry in items:
        try:
            first, second = entry
        except (TypeError, ValueError):
            raise EnvError("%s %r is not a pair" % (what, entry)) from None
        pairs.append((first, second))
    return pairs


def _crowded_peak(x, density, centre, spread, alpha):
    """L(x) / (1+m)^alpha for the isotropic Gaussian peak
    L(x) = exp(-|x-centre|^2/spread) / (2*pi*spread) and the density m."""
    pts = as_floats(x, "states", EnvError)
    m = as_floats(density, "density", EnvError)
    if not np.all(np.isfinite(m) & (m >= 0.0)):
        raise EnvError("density must be finite and >= 0")
    d0 = pts[..., 0] - centre[0]
    d1 = pts[..., 1] - centre[1]
    return np.exp(-(d0 * d0 + d1 * d1) / spread) / (2.0 * np.pi * spread) / (1.0 + m) ** alpha


@dataclass(frozen=True)
class CongestionReward:
    """One isotropic Gaussian desirability peak over (1+m)^alpha.

    The peak sits at ``centre`` with covariance spread * I, so its height is
    1/(2*pi*spread).  Strictly decreasing in the density m, for crowd
    averseness alpha > 0.
    """

    centre: tuple = (0.0, 0.0)
    spread: float = 0.3
    alpha: float = 1.0
    uses_density = True

    def __post_init__(self):
        object.__setattr__(self, "centre", _finite_point(self.centre, "peak centre"))
        check_positive(self.spread, "singular spread", EnvError)
        check_positive(self.alpha, "averseness alpha", EnvError)
        object.__setattr__(self, "spread", float(self.spread))

    def __call__(self, t, x, density):
        return _crowded_peak(x, density, self.centre, self.spread, self.alpha)


@dataclass(frozen=True)
class DemandReward:
    """A single congestion peak (covariance spread * I) whose centre travels
    along a piecewise-linear path through the plane.

    Waypoints are (time step, point) pairs with strictly increasing times;
    an ``EnvSpec`` holding this reward checks that they cover its steps.
    """

    waypoints: tuple = ((0, (0.2, -0.2)), (15, (0.2, 0.4)), (30, (0.8, 0.4)))
    spread: float = 0.1
    alpha: float = 0.1
    uses_density = True

    def __post_init__(self):
        wps = []
        for t, p in _pairs(self.waypoints, "demand path waypoint"):
            check_real(t, "demand path times", EnvError)
            wps.append((float(t), _finite_point(p, "demand path point")))
        if len(wps) < 2:
            raise EnvError("demand path needs at least two waypoints")
        times = [t for t, _ in wps]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise EnvError("demand path times must be strictly increasing")
        check_positive(self.spread, "singular path spread", EnvError)
        check_positive(self.alpha, "averseness alpha", EnvError)
        object.__setattr__(self, "waypoints", tuple(wps))
        object.__setattr__(self, "spread", float(self.spread))

    def position(self, t: float) -> np.ndarray:
        if not self.waypoints[0][0] <= t <= self.waypoints[-1][0]:
            raise EnvError("time %r outside demand path coverage" % t)
        times = np.array([w[0] for w in self.waypoints])
        pts = np.array([w[1] for w in self.waypoints])
        return np.array([np.interp(t, times, pts[:, 0]),
                         np.interp(t, times, pts[:, 1])])

    def __call__(self, t, x, density):
        return _crowded_peak(x, density, self.position(t), self.spread, self.alpha)


@dataclass(frozen=True)
class LqrReward:
    """Negative quadratic tracking cost -(x - target)^T Q (x - target)."""

    target: tuple = (0.5, -0.5)
    q: tuple = ((1.0, 0.0), (0.0, 1.0))
    uses_density = False

    def __post_init__(self):
        try:
            q = np.array(self.q, dtype=float)
        except (TypeError, ValueError):
            raise EnvError("Q must be a 2x2 matrix of numbers, got %r" % (self.q,))
        if not np.all(np.isfinite(q)):
            raise EnvError("Q must be finite")
        if q.shape != (2, 2) or not np.allclose(q, q.T):
            raise EnvError("Q must be symmetric 2x2")
        if np.any(np.linalg.eigvalsh(q) < -1e-12):
            raise EnvError("Q must be positive semidefinite")
        object.__setattr__(self, "target", _finite_point(self.target, "tracking target"))
        object.__setattr__(self, "q", tuple(map(tuple, q)))

    @property
    def q_matrix(self) -> np.ndarray:
        return np.array(self.q)

    def __call__(self, t, x, density):
        d = as_floats(x, "states", EnvError) - self.target
        return -np.einsum("...i,ij,...j->...", d, self.q_matrix, d)


@dataclass(frozen=True)
class EnvSpec:
    """One environment definition: dynamics, reward object, horizon.

    ``reward(t, x, density)`` scores the arrival states x of step t = 1..T
    (see the module docstring); a demand path must cover those steps.
    """

    reward: CongestionReward | DemandReward | LqrReward
    horizon: int
    sigma1: float = 0.1
    eta: float = 0.0
    gamma: float = 0.99
    init_mean: tuple = (1.0, 0.0)
    init_std: float = 0.1

    def __post_init__(self):
        if not isinstance(self.reward, (CongestionReward, DemandReward, LqrReward)):
            raise EnvError("reward must be a CongestionReward, DemandReward or LqrReward, got %r"
                           % (self.reward,))
        check_count(self.horizon, "horizon", EnvError)
        for name in ("eta", "sigma1", "init_std"):
            check_real(getattr(self, name), name, EnvError, least=0)
        if not (is_real(self.gamma) and 0.0 < self.gamma <= 1.0):
            raise EnvError("discount gamma must be a number in (0, 1], got %r" % (self.gamma,))
        if isinstance(self.reward, DemandReward):
            first, last = self.reward.waypoints[0][0], self.reward.waypoints[-1][0]
            if not first <= 1 <= self.horizon <= last:
                raise EnvError("demand path covers times %g..%g, not the reward steps 1..%d"
                               % (first, last, self.horizon))
        object.__setattr__(self, "init_mean", _finite_point(self.init_mean, "init_mean"))

    @property
    def uses_density(self) -> bool:
        return self.reward.uses_density


def step(spec: EnvSpec, x, u, noise):
    """One linear-Gaussian transition: x + u + sigma1*noise.

    ``x``, ``u`` and ``noise`` are finite (n, 2) batches of one shape, one
    row per agent, and the result is the (n, 2) batch of next states;
    anything else raises EnvError.  ``noise`` is a standard-normal draw
    supplied by the caller, so the map is deterministic given its arguments.
    """
    xx = check_points(x, "states", EnvError)
    uu = check_points(u, "actions", EnvError)
    nn = check_points(noise, "noise", EnvError)
    if not xx.shape == uu.shape == nn.shape:
        raise EnvError("states %r, actions %r and noise %r differ in shape"
                       % (xx.shape, uu.shape, nn.shape))
    return xx + uu + spec.sigma1 * nn


def reward(spec: EnvSpec, t, x, u, density):
    """Per-step rewards at arrival states x (step t), net of 0.5*eta*|u|^2.

    ``x`` and ``u`` are (n, 2) batches of one shape and ``density`` the (n,)
    densities at x; any other shape, or a non-finite state or action,
    raises EnvError.  The result is (n,).
    """
    xx = check_points(x, "states", EnvError)
    uu = check_points(u, "actions", EnvError)
    if uu.shape != xx.shape:
        raise EnvError("states %r and actions %r differ in shape" % (xx.shape, uu.shape))
    dens = as_floats(density, "density", EnvError)
    if dens.shape != xx.shape[:1]:
        raise EnvError("density must be one value per state, shape %r, got shape %r"
                       % (xx.shape[:1], dens.shape))
    move = 0.5 * spec.eta * (uu[:, 0] * uu[:, 0] + uu[:, 1] * uu[:, 1])
    return spec.reward(t, xx, dens) - move


def sample_initial(spec: EnvSpec, rng, n: int):
    """Gaussian initial states of n >= 1 agents, an (n, 2) array."""
    check_count(n, "agent count", EnvError)
    return np.asarray(spec.init_mean) + spec.init_std * rng.standard_normal((n, 2))


def congestion_env(**kw) -> EnvSpec:
    """One-shot spatial congestion game, agents starting near (1, 0)."""
    return EnvSpec(**{"reward": CongestionReward(), "horizon": 1, **kw})


def demand_env(**kw) -> EnvSpec:
    """Demand-tracking game: a reward peak traverses a path over the horizon."""
    return EnvSpec(**{"reward": DemandReward(), "horizon": 30, "eta": 2.0,
                      "init_mean": (-0.2, 0.0), **kw})


def lqr_env(**kw) -> EnvSpec:
    """Mean-field linear-quadratic tracking problem."""
    return EnvSpec(**{"reward": LqrReward(), "horizon": 30, "eta": 1.0,
                      "init_mean": (0.0, 0.0), **kw})
