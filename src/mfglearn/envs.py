"""Benchmark environments behind one contract: linear-Gaussian transitions,
a Gaussian initial-state sampler, and a per-step reward coupled to the local
population density.

All three environments share the transition x' = a*x + b*u + sigma1*noise
(matrices proportional to the 2x2 identity, so scalars suffice) and differ
only in the reward:

* congestion: Gaussian desirability peaks (one, or two for the bimodal
  game) discounted by local crowding, one-shot by default.
* demand: a desirability peak that travels along a piecewise-linear path,
  with a movement cost.
* lqr: quadratic tracking cost toward a fixed target, no density coupling.

Rewards are evaluated at the state an action *arrives* at, so the one-shot
congestion game scores the terminal position reached by the single move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EnvError(ValueError):
    """Raised for malformed environment parameters or inputs."""


def _finite_point(p, what: str) -> tuple:
    """``p`` as a (float, float) pair, or EnvError when a coordinate is not finite."""
    point = (float(p[0]), float(p[1]))
    if not (math.isfinite(point[0]) and math.isfinite(point[1])):
        raise EnvError("%s must be finite, got %r" % (what, point))
    return point


@dataclass(frozen=True)
class CongestionReward:
    """Mixture of isotropic Gaussian desirability peaks.

    Each component is (mu, spread) with covariance spread * I.  Peak i
    contributes exp(-|x-mu_i|^2/spread_i) / (2*pi*k*spread_i) where k is the
    number of components, so a single peak has height 1/(2*pi*spread) and a
    two-peak mixture halves each prefactor.
    """

    components: tuple = (((0.0, 0.0), 0.3),)

    def __post_init__(self):
        if len(self.components) == 0:
            raise EnvError("congestion reward needs at least one component")
        comps = []
        for mu, spread in self.components:
            if not (spread > 0.0 and math.isfinite(spread)):
                raise EnvError("singular spread %r: must be finite and > 0" % spread)
            comps.append((_finite_point(mu, "peak centre"), float(spread)))
        object.__setattr__(self, "components", tuple(comps))

    @classmethod
    def single(cls, mu, spread) -> "CongestionReward":
        return cls(((tuple(mu), spread),))


def congestion_reward(params: CongestionReward, x, density, alpha: float):
    """Gaussian desirability discounted by crowding: sum_i L_i(x) / (1+m)^alpha.

    ``x`` may be a single point (2,) or a batch (n, 2); ``density`` broadcasts
    against it.  Strictly decreasing in ``density`` for alpha > 0.
    """
    if not alpha > 0.0:
        raise EnvError("averseness alpha must be > 0")
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    m = np.asarray(density, dtype=float)
    if not np.all(np.isfinite(m) & (m >= 0.0)):
        raise EnvError("density must be finite and >= 0")
    k = len(params.components)
    desirability = np.zeros(pts.shape[0])
    for mu, spread in params.components:
        d2 = ((pts - np.asarray(mu)) ** 2).sum(axis=1)
        desirability += np.exp(-d2 / spread) / (2.0 * np.pi * k * spread)
    value = desirability / (1.0 + m) ** alpha
    if np.asarray(x).ndim == 1:
        return float(value[0])
    return value


@dataclass(frozen=True)
class DemandPath:
    """Piecewise-linear path of the demand peak through the plane.

    Waypoints are (time step, point) pairs with strictly increasing times
    covering the full horizon.
    """

    waypoints: tuple = ((0, (0.2, -0.2)), (15, (0.2, 0.4)), (30, (0.8, 0.4)))

    def __post_init__(self):
        wps = tuple((float(t), _finite_point(p, "demand path point")) for t, p in self.waypoints)
        if not all(math.isfinite(t) for t, _ in wps):
            raise EnvError("demand path times must be finite")
        if len(wps) < 2:
            raise EnvError("demand path needs at least two waypoints")
        times = [t for t, _ in wps]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise EnvError("demand path times must be strictly increasing")
        object.__setattr__(self, "waypoints", wps)

    @property
    def t_max(self) -> float:
        return self.waypoints[-1][0]

    def position(self, t: float) -> np.ndarray:
        if not self.waypoints[0][0] <= t <= self.t_max:
            raise EnvError("time %r outside demand path coverage" % t)
        times = np.array([w[0] for w in self.waypoints])
        pts = np.array([w[1] for w in self.waypoints])
        return np.array([np.interp(t, times, pts[:, 0]),
                         np.interp(t, times, pts[:, 1])])


def demand_reward(path: DemandPath, t, x, density, alpha: float, spread: float = 0.1):
    """Congestion-style reward around the path position at time t.

    The movement penalty is charged separately through :func:`movement_cost`.
    """
    mu = path.position(t)
    return congestion_reward(CongestionReward.single(mu, spread), x, density, alpha)


@dataclass(frozen=True)
class LqrReward:
    """Negative quadratic tracking cost -(x - target)^T Q (x - target)."""

    target: tuple = (0.5, -0.5)
    q: tuple = ((1.0, 0.0), (0.0, 1.0))

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


def lqr_reward(params: LqrReward, x):
    pts = np.atleast_2d(np.asarray(x, dtype=float)) - np.asarray(params.target)
    value = -np.einsum("ni,ij,nj->n", pts, params.q_matrix, pts)
    if np.asarray(x).ndim == 1:
        return float(value[0])
    return value


@dataclass(frozen=True)
class EnvSpec:
    """One environment definition: dynamics, reward parameters, horizon."""

    kind: str
    horizon: int
    a: float = 1.0            # A = a * I
    b: float = 1.0            # B = b * I
    sigma1: float = 0.1
    sigma_eps: float = 1.0
    eta: float = 0.0          # R = eta * I
    alpha: float = 1.0        # crowd averseness
    gamma: float = 0.99
    init_mean: tuple = (1.0, 0.0)
    init_std: float = 0.1
    congestion: CongestionReward | None = None
    path: DemandPath | None = None
    path_spread: float = 0.1
    lqr: LqrReward | None = None
    quartic_cost: bool = False   # demand option: eta*|u|^4 instead of 0.5*eta*|u|^2

    def __post_init__(self):
        if self.kind not in ("congestion", "demand", "lqr"):
            raise EnvError("unknown environment kind %r" % self.kind)
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
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise EnvError("averseness alpha must be finite and > 0")
        if not 0.0 < self.gamma <= 1.0:
            raise EnvError("discount gamma must be in (0, 1]")
        if self.kind == "congestion" and self.congestion is None:
            raise EnvError("congestion environment needs reward peaks")
        if self.kind == "demand" and self.path is None:
            raise EnvError("demand environment needs a path")
        if self.kind == "demand" and not (self.path_spread > 0.0 and math.isfinite(self.path_spread)):
            raise EnvError("singular path spread %r: must be finite and > 0" % self.path_spread)
        if self.kind == "lqr" and self.lqr is None:
            raise EnvError("lqr environment needs tracking parameters")
        object.__setattr__(self, "init_mean", _finite_point(self.init_mean, "init_mean"))

    @property
    def r_matrix(self) -> np.ndarray:
        return self.eta * np.eye(2)

    @property
    def uses_density(self) -> bool:
        return self.kind != "lqr"


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
    """Movement penalty: 0.5*eta*|u|^2, or eta*|u|^4 with the quartic flag."""
    uu = np.atleast_2d(np.asarray(u, dtype=float))
    if spec.quartic_cost:
        cost = spec.eta * (uu ** 2).sum(axis=1) ** 2
    else:
        cost = 0.5 * spec.eta * (uu ** 2).sum(axis=1)
    if np.asarray(u).ndim == 1:
        return float(cost[0])
    return cost


def reward(spec: EnvSpec, t, x, u, density):
    """Per-step reward at arrival state x (time index t), net of movement cost."""
    if spec.kind == "congestion":
        base = congestion_reward(spec.congestion, x, density, spec.alpha)
    elif spec.kind == "demand":
        base = demand_reward(spec.path, t, x, density, spec.alpha, spec.path_spread)
    else:
        base = lqr_reward(spec.lqr, x)
    return base - movement_cost(spec, u)


def sample_initial(spec: EnvSpec, rng, n: int | None = None):
    """Gaussian initial-state draw; a single point when n is None."""
    mean = np.asarray(spec.init_mean)
    if n is None:
        return mean + spec.init_std * rng.standard_normal(2)
    return mean + spec.init_std * rng.standard_normal((n, 2))


def congestion_env(alpha: float = 1.0, mu=(0.0, 0.0), spread: float = 0.3,
                   eta: float = 0.0, **kw) -> EnvSpec:
    """One-shot spatial congestion game, agents starting near (1, 0)."""
    return EnvSpec(kind="congestion", horizon=1, eta=eta, alpha=alpha,
                   congestion=CongestionReward.single(mu, spread),
                   init_mean=kw.pop("init_mean", (1.0, 0.0)), **kw)


def bimodal_env(alpha: float = 1.0, peaks=((-1.0, 0.0), (0.0, 0.0)),
                spread: float = 0.05, eta: float = 0.0, **kw) -> EnvSpec:
    """One-shot congestion game with two equal-weight desirability peaks."""
    comps = tuple((tuple(p), spread) for p in peaks)
    return EnvSpec(kind="congestion", horizon=1, eta=eta, alpha=alpha,
                   congestion=CongestionReward(comps),
                   init_mean=kw.pop("init_mean", (1.0, 0.0)), **kw)


def demand_env(alpha: float = 0.1, eta: float = 2.0, horizon: int = 30,
               waypoints=None, path_spread: float = 0.1,
               init_mean=(-0.2, 0.0), **kw) -> EnvSpec:
    """Demand-tracking game: a reward peak traverses a path over the horizon."""
    path = DemandPath() if waypoints is None else DemandPath(tuple(waypoints))
    spec = EnvSpec(kind="demand", horizon=horizon, eta=eta, alpha=alpha,
                   path=path, path_spread=path_spread, init_mean=init_mean, **kw)
    if path.t_max < horizon:
        raise EnvError("demand path must cover the horizon")
    return spec


def lqr_env(target=(0.5, -0.5), q=None, eta: float = 1.0, horizon: int = 30,
            init_mean=(0.0, 0.0), **kw) -> EnvSpec:
    """Mean-field linear-quadratic tracking problem."""
    lqr = LqrReward(tuple(target), tuple(map(tuple, q)) if q is not None else ((1.0, 0.0), (0.0, 1.0)))
    return EnvSpec(kind="lqr", horizon=horizon, eta=eta, lqr=lqr,
                   init_mean=init_mean, **kw)
