"""Benchmark environments behind one contract: linear-Gaussian transitions,
a Gaussian initial-state sampler, a movement cost and one reward object.

All three environments share the transition x' = a*x + b*u + sigma1*noise
(matrices proportional to the 2x2 identity, so scalars suffice) and the
movement cost 0.5*eta*|u|^2.  They differ only in ``EnvSpec.reward``, a
frozen object called as ``r(t, x, density) -> (n,)``:

* CongestionReward: Gaussian desirability peaks (one, or two for the bimodal
  game) discounted by local crowding, one-shot by default.
* DemandReward: one such peak that travels along a piecewise-linear path.
* LqrReward: quadratic tracking cost toward a fixed target.

``t`` is the step 1..T, ``x`` the (n, 2) states the step's actions *arrive*
at (so the one-shot congestion game scores the terminal position reached by
the single move) and ``density`` the population density at each of them.  A
reward's ``uses_density`` says whether it reads the density; the congestion
and demand rewards do, the LQR reward does not.  Each reward object checks
its parameters once, when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def _check_positive(value, what: str):
    if not (value > 0.0 and math.isfinite(value)):
        raise EnvError("%s %r: must be finite and > 0" % (what, value))


def _crowded_peaks(x, density, peaks, alpha):
    """sum_i L_i(x) / (1+m)^alpha over Gaussian peaks (mu_i, spread_i), where
    L_i(x) = exp(-|x-mu_i|^2/spread_i) / (2*pi*k*spread_i) for k peaks."""
    pts = np.asarray(x, dtype=float)
    m = np.asarray(density, dtype=float)
    if not np.all(np.isfinite(m) & (m >= 0.0)):
        raise EnvError("density must be finite and >= 0")
    k = len(peaks)
    desirability = 0.0
    for (c0, c1), spread in peaks:
        d0 = pts[..., 0] - c0
        d1 = pts[..., 1] - c1
        desirability += np.exp(-(d0 * d0 + d1 * d1) / spread) / (2.0 * np.pi * k * spread)
    return desirability / (1.0 + m) ** alpha


@dataclass(frozen=True)
class CongestionReward:
    """Mixture of isotropic Gaussian desirability peaks over (1+m)^alpha.

    Each component is (mu, spread) with covariance spread * I.  Peak i
    contributes exp(-|x-mu_i|^2/spread_i) / (2*pi*k*spread_i) where k is the
    number of components, so a single peak has height 1/(2*pi*spread) and a
    two-peak mixture halves each prefactor.  Strictly decreasing in the
    density m, for crowd averseness alpha > 0.
    """

    components: tuple = (((0.0, 0.0), 0.3),)
    alpha: float = 1.0
    uses_density = True

    def __post_init__(self):
        if len(self.components) == 0:
            raise EnvError("congestion reward needs at least one component")
        comps = []
        for mu, spread in self.components:
            _check_positive(spread, "singular spread")
            comps.append((_finite_point(mu, "peak centre"), float(spread)))
        _check_positive(self.alpha, "averseness alpha")
        object.__setattr__(self, "components", tuple(comps))

    def __call__(self, t, x, density):
        return _crowded_peaks(x, density, self.components, self.alpha)


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
        wps = tuple((float(t), _finite_point(p, "demand path point")) for t, p in self.waypoints)
        if not all(math.isfinite(t) for t, _ in wps):
            raise EnvError("demand path times must be finite")
        if len(wps) < 2:
            raise EnvError("demand path needs at least two waypoints")
        times = [t for t, _ in wps]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise EnvError("demand path times must be strictly increasing")
        _check_positive(self.spread, "singular path spread")
        _check_positive(self.alpha, "averseness alpha")
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "spread", float(self.spread))

    def position(self, t: float) -> np.ndarray:
        if not self.waypoints[0][0] <= t <= self.waypoints[-1][0]:
            raise EnvError("time %r outside demand path coverage" % t)
        times = np.array([w[0] for w in self.waypoints])
        pts = np.array([w[1] for w in self.waypoints])
        return np.array([np.interp(t, times, pts[:, 0]),
                         np.interp(t, times, pts[:, 1])])

    def __call__(self, t, x, density):
        return _crowded_peaks(x, density, ((self.position(t), self.spread),), self.alpha)


@dataclass(frozen=True)
class LqrReward:
    """Negative quadratic tracking cost -(x - target)^T Q (x - target)."""

    target: tuple = (0.5, -0.5)
    q: tuple = ((1.0, 0.0), (0.0, 1.0))
    uses_density = False

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
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
        d = np.asarray(x, dtype=float) - self.target
        return -np.einsum("...i,ij,...j->...", d, self.q_matrix, d)


@dataclass(frozen=True)
class EnvSpec:
    """One environment definition: dynamics, reward object, horizon.

    ``reward(t, x, density)`` scores the arrival states x of step t = 1..T
    (see the module docstring); a demand path must cover those steps.
    """

    reward: CongestionReward | DemandReward | LqrReward
    horizon: int
    a: float = 1.0            # A = a * I
    b: float = 1.0            # B = b * I
    sigma1: float = 0.1
    sigma_eps: float = 1.0
    eta: float = 0.0          # R = eta * I
    gamma: float = 0.99
    init_mean: tuple = (1.0, 0.0)
    init_std: float = 0.1

    def __post_init__(self):
        if not isinstance(self.reward, (CongestionReward, DemandReward, LqrReward)):
            raise EnvError("reward must be a CongestionReward, DemandReward or LqrReward, got %r"
                           % (self.reward,))
        if not (isinstance(self.horizon, (int, np.integer)) and self.horizon >= 1):
            raise EnvError("horizon must be an int >= 1, got %r" % (self.horizon,))
        for name in ("a", "b"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise EnvError("%s must be finite, got %r" % (name, value))
        for name in ("eta", "sigma1", "sigma_eps", "init_std"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise EnvError("%s must be finite and >= 0, got %r" % (name, value))
        if not 0.0 < self.gamma <= 1.0:
            raise EnvError("discount gamma must be in (0, 1]")
        if isinstance(self.reward, DemandReward):
            first, last = self.reward.waypoints[0][0], self.reward.waypoints[-1][0]
            if not first <= 1 <= self.horizon <= last:
                raise EnvError("demand path covers times %g..%g, not the reward steps 1..%d"
                               % (first, last, self.horizon))
        object.__setattr__(self, "init_mean", _finite_point(self.init_mean, "init_mean"))

    @property
    def r_matrix(self) -> np.ndarray:
        return self.eta * np.eye(2)

    @property
    def uses_density(self) -> bool:
        return self.reward.uses_density


def step(spec: EnvSpec, x, u, noise):
    """One linear-Gaussian transition: a*x + b*u + sigma1*sigma_eps*noise.

    ``noise`` is a standard-normal draw supplied by the caller, so the map is
    deterministic given its arguments.  Accepts single points or batches.
    """
    xx = np.asarray(x, dtype=float)
    uu = np.asarray(u, dtype=float)
    nn = np.asarray(noise, dtype=float)
    if not (np.all(np.isfinite(xx)) and np.all(np.isfinite(uu)) and np.all(np.isfinite(nn))):
        raise EnvError("non-finite state/action")
    return spec.a * xx + spec.b * uu + spec.sigma1 * spec.sigma_eps * nn


def movement_cost(spec: EnvSpec, u):
    """Movement penalty 0.5*eta*|u|^2 for one action (2,) or a batch (n, 2)."""
    uu = np.asarray(u, dtype=float)
    return 0.5 * spec.eta * (uu[..., 0] * uu[..., 0] + uu[..., 1] * uu[..., 1])


def reward(spec: EnvSpec, t, x, u, density):
    """Per-step reward at arrival state x (step t), net of movement cost."""
    return spec.reward(t, x, density) - movement_cost(spec, u)


def sample_initial(spec: EnvSpec, rng, n: int | None = None):
    """Gaussian initial-state draw; a single point when n is None."""
    mean = np.asarray(spec.init_mean)
    if n is None:
        return mean + spec.init_std * rng.standard_normal(2)
    return mean + spec.init_std * rng.standard_normal((n, 2))


def congestion_env(alpha: float = 1.0, mu=(0.0, 0.0), spread: float = 0.3,
                   eta: float = 0.0, **kw) -> EnvSpec:
    """One-shot spatial congestion game, agents starting near (1, 0)."""
    return EnvSpec(CongestionReward(((mu, spread),), alpha), horizon=1, eta=eta, **kw)


def bimodal_env(alpha: float = 1.0, peaks=((-1.0, 0.0), (0.0, 0.0)),
                spread: float = 0.05, eta: float = 0.0, **kw) -> EnvSpec:
    """One-shot congestion game with two equal-weight desirability peaks."""
    comps = tuple((p, spread) for p in peaks)
    return EnvSpec(CongestionReward(comps, alpha), horizon=1, eta=eta, **kw)


def demand_env(alpha: float = 0.1, eta: float = 2.0, horizon: int = 30,
               waypoints=None, path_spread: float = 0.1,
               init_mean=(-0.2, 0.0), **kw) -> EnvSpec:
    """Demand-tracking game: a reward peak traverses a path over the horizon."""
    path = DemandReward.waypoints if waypoints is None else tuple(waypoints)
    return EnvSpec(DemandReward(path, path_spread, alpha), horizon=horizon, eta=eta,
                   init_mean=init_mean, **kw)


def lqr_env(target=(0.5, -0.5), q=None, eta: float = 1.0, horizon: int = 30,
            init_mean=(0.0, 0.0), **kw) -> EnvSpec:
    """Mean-field linear-quadratic tracking problem."""
    lqr = LqrReward(target, LqrReward.q if q is None else q)
    return EnvSpec(lqr, horizon=horizon, eta=eta, init_mean=init_mean, **kw)
