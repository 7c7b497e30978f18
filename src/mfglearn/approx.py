"""Minimal function-approximation stack: two-layer tanh networks with
hand-derived gradients, Adam, and a fixed-width Gaussian policy head.

Everything is plain numpy; parameters live in dicts keyed w1/b1/w2/b2 so the
optimizer state mirrors them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DivergenceError(RuntimeError):
    """Raised when gradients or parameters stop being finite."""


TANH_BLOCK = 1024   # rows per block of the tanh derivative in Mlp.backward
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # Adam moment decays and denominator guard


@dataclass
class Mlp:
    """y = w2 @ tanh(w1 @ x + b1) + b2."""

    params: dict

    @classmethod
    def init(cls, in_dim: int, hidden: int, out_dim: int, rng) -> "Mlp":
        # symmetric uniform init keeps tanh in its near-linear regime
        s1 = math.sqrt(6.0 / (in_dim + hidden))
        s2 = math.sqrt(6.0 / (hidden + out_dim))
        return cls({
            "w1": rng.uniform(-s1, s1, (hidden, in_dim)),
            "b1": np.zeros(hidden),
            "w2": rng.uniform(-s2, s2, (out_dim, hidden)),
            "b2": np.zeros(out_dim),
        })

    @property
    def in_dim(self) -> int:
        return self.params["w1"].shape[1]

    @property
    def out_dim(self) -> int:
        return self.params["w2"].shape[0]

    def _promote(self, x):
        xx = np.asarray(x, dtype=float)
        single = xx.ndim == 1
        xx = np.atleast_2d(xx)
        if xx.shape[1] != self.in_dim:
            raise ValueError("input dim %d != expected %d" % (xx.shape[1], self.in_dim))
        return xx, single

    def forward(self, x):
        y, _ = self.forward_with_hidden(x)
        return y

    def _hidden(self, xx):
        """tanh(xx @ w1.T + b1), built in the one array the matmul returns."""
        h = xx @ self.params["w1"].T
        h += self.params["b1"]
        np.tanh(h, out=h)
        return h

    def forward_with_hidden(self, x):
        """Forward pass returning (output, hidden activations) for reuse in backward."""
        xx, single = self._promote(x)
        h = self._hidden(xx)
        y = h @ self.params["w2"].T
        y += self.params["b2"]
        if single:
            return y[0], h[0]
        return y, h

    def backward(self, x, upstream, hidden=None):
        """Gradients of sum(upstream * output) w.r.t. params and input.

        ``upstream`` holds d(loss)/d(output) per sample; parameter gradients
        are summed over the batch.  Returns (grad dict, input gradient).
        """
        xx, single = self._promote(x)
        dy = np.atleast_2d(np.asarray(upstream, dtype=float))
        if dy.shape != (xx.shape[0], self.out_dim):
            raise ValueError("upstream shape %r != %r" % (dy.shape, (xx.shape[0], self.out_dim)))
        p = self.params
        h = self._hidden(xx) if hidden is None else np.atleast_2d(hidden)
        # np.dot, not @: matmul skips BLAS when dy has one column, as the critic's does
        dz = np.dot(dy, p["w2"])
        # dz *= 1 - h^2 a block of rows at a time, so no full-size temporary is made
        buf = np.empty((min(TANH_BLOCK, len(h)), h.shape[1]))
        for lo in range(0, len(h), TANH_BLOCK):
            hb = h[lo:lo + TANH_BLOCK]
            db = buf[:len(hb)]
            np.multiply(hb, hb, out=db)
            np.subtract(1.0, db, out=db)
            dz[lo:lo + TANH_BLOCK] *= db
        grads = {
            "w2": dy.T @ h,
            "b2": dy.sum(axis=0),
            "w1": dz.T @ xx,
            "b1": dz.sum(axis=0),
        }
        dx = dz @ p["w1"]
        return grads, (dx[0] if single else dx)


@dataclass
class AdamState:
    """Adam moments and step counter for one parameter dict."""

    lr: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, lr: float) -> "AdamState":
        state = cls(lr=lr)
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
        return state


def adam_step(state: AdamState, params: dict, grads: dict, lr_scale: float = 1.0) -> dict:
    """One bias-corrected Adam update, in place on ``params``.

    ``lr_scale`` multiplies the base rate (used by decaying schedules).
    """
    for k in params:
        if not np.all(np.isfinite(grads[k])):
            raise DivergenceError("diverged")
    state.t += 1
    b1t = 1.0 - _BETA1 ** state.t
    b2t = 1.0 - _BETA2 ** state.t
    for k in params:
        g = grads[k]
        state.m[k] = _BETA1 * state.m[k] + (1.0 - _BETA1) * g
        state.v[k] = _BETA2 * state.v[k] + (1.0 - _BETA2) * g * g
        mhat = state.m[k] / b1t
        vhat = state.v[k] / b2t
        params[k] -= state.lr * lr_scale * mhat / (np.sqrt(vhat) + _EPS)
    return params


@dataclass
class GaussianPolicy:
    """Diagonal Gaussian over actions: mean from an Mlp, fixed std sigma."""

    mean_net: Mlp
    sigma: float = 0.1

    def mean(self, x):
        return self.mean_net.forward(x)

    def log_prob(self, x, a):
        mu = self.mean_net.forward(x)
        d = np.shape(mu)[-1]
        quad = ((np.asarray(a) - mu) ** 2).sum(axis=-1) / (2.0 * self.sigma ** 2)
        return -quad - d * math.log(self.sigma * math.sqrt(2.0 * math.pi))

    def logprob_grad(self, x, a, weights=None):
        """Gradient of sum_i weights_i * log pi(a_i|x_i) w.r.t. mean-net params.

        The score of a fixed-sigma Gaussian is (a - mean)/sigma^2 pushed back
        through the mean network.  ``weights=None`` means all ones.
        """
        xx = np.atleast_2d(np.asarray(x, dtype=float))
        aa = np.atleast_2d(np.asarray(a, dtype=float))
        mu, h = self.mean_net.forward_with_hidden(xx)
        upstream = (aa - mu) / self.sigma ** 2
        if weights is not None:
            upstream = upstream * np.asarray(weights, dtype=float).reshape(-1, 1)
        grads, _ = self.mean_net.backward(xx, upstream, h)
        return grads


def params_flat_norm(params: dict) -> float:
    return math.sqrt(sum(float((p * p).sum()) for p in params.values()))


def check_finite(params: dict, limit: float = 1e6):
    for k, p in params.items():
        if not np.all(np.isfinite(p)) or np.abs(p).max() > limit:
            raise DivergenceError("diverged")
