"""Minimal function-approximation stack: two-layer tanh networks with
hand-derived gradients, Adam, and a fixed-width Gaussian policy head.

Everything is plain numpy; parameters live in dicts keyed w1/b1/w2/b2 so the
optimizer state mirrors them exactly.  Parameters and Adam moments are
float64.  A network pass computes in the float dtype of its input batch: a
float32 batch runs in float32 on float32 copies of the parameters, any other
batch in float64.  Parameter gradients always come back as float64, so the
optimizer never sees the batch dtype.  On a 2,046-row, width-64 block
(2-vCPU x86-64, BLAS on 1 thread, timeit) ``np.tanh`` costs about 1.6 ns an
element in float64 and 0.35-0.46 ns in float32, and a forward pass
0.38 ms against 0.14-0.19 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_count, check_positive


class DivergenceError(RuntimeError):
    """Raised by :func:`check_finite`, naming the array that diverged."""


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8   # Adam moment decays and denominator guard


@dataclass
class Mlp:
    """y = w2 @ tanh(w1 @ x + b1) + b2, row by row.

    Every pass takes an (n, in_dim) batch, one row per sample, and returns
    (n, ...) arrays; any other input shape, a single 1-D sample included,
    raises ValueError.
    """

    params: dict

    @classmethod
    def init(cls, in_dim: int, hidden: int, out_dim: int, rng) -> "Mlp":
        for width, name in ((in_dim, "input"), (hidden, "hidden"), (out_dim, "output")):
            check_count(width, "%s width" % name, ValueError)
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

    def _batch(self, x):
        """``x`` as an (n, in_dim) float32 array when it is float32, else as
        float64, with the parameters cast to that dtype."""
        xx = np.asarray(x)
        if xx.dtype != np.float32:
            xx = np.asarray(xx, dtype=float)
        if xx.ndim != 2 or xx.shape[1] != self.in_dim:
            raise ValueError("input shape %r is not (n, in_dim=%d)" % (xx.shape, self.in_dim))
        return xx, {k: p.astype(xx.dtype, copy=False) for k, p in self.params.items()}

    def forward(self, x):
        return self.forward_with_hidden(x)[0]

    @staticmethod
    def _hidden(xx, p):
        """tanh(xx @ w1.T + b1), built in the one array the matmul returns."""
        h = xx @ p["w1"].T
        h += p["b1"]
        np.tanh(h, out=h)
        return h

    def forward_with_hidden(self, x):
        """Forward pass of an (n, in_dim) batch, returning the (n, out_dim)
        output and the (n, hidden) activations for reuse in backward.

        The output product is row-local (einsum, not a BLAS matmul, whose
        kernels add a batch's remainder rows in another order), so equal
        rows give equal outputs wherever they sit in the batch.  Across
        batches, float32 rows agreed at every size tried (1-4097); in
        float64 a one-row batch can differ in its last bits from the same
        row in a larger one, as BLAS takes its matrix-vector route for the
        hidden layer at n = 1."""
        xx, p = self._batch(x)
        h = self._hidden(xx, p)
        y = np.einsum("nk,jk->nj", h, p["w2"])
        y += p["b2"]
        return y, h

    def backward(self, x, upstream, hidden=None):
        """Gradients of sum(upstream * output) w.r.t. params and input.

        ``x`` is an (n, in_dim) batch, ``upstream`` the (n, out_dim)
        d(loss)/d(output) of its rows and ``hidden``, when given, the
        activations :meth:`forward_with_hidden` returned for ``x``.
        The pass runs in ``x``'s dtype, ``upstream`` cast to it.  Parameter
        gradients are summed over the batch and returned as float64.
        Returns (grad dict, (n, in_dim) input gradient in ``x``'s dtype).
        """
        xx, p = self._batch(x)
        dy = np.asarray(upstream, dtype=xx.dtype)
        if dy.shape != (xx.shape[0], self.out_dim):
            raise ValueError("upstream shape %r != %r" % (dy.shape, (xx.shape[0], self.out_dim)))
        h = self._hidden(xx, p) if hidden is None else hidden
        # np.dot, not @: matmul skips BLAS when dy has one column, as the critic's does
        dz = np.dot(dy, p["w2"])
        # dz *= 1 - h^2, built in one scratch array
        s = h * h
        np.subtract(1.0, s, out=s)
        dz *= s
        # einsum adds dz's rows in order, as axis-0 sum does on a C-contiguous
        # array, so b1 keeps its bits at half the cost (35 against 73 us, timeit,
        # 2,046 x 64 float32, 2-vCPU x86-64); b2 keeps sum, which a one-column
        # array adds pairwise
        grads = {
            "w2": dy.T @ h,
            "b2": dy.sum(axis=0),
            "w1": dz.T @ xx,
            "b1": np.einsum("ij->j", dz),
        }
        dx = dz @ p["w1"]
        return {k: np.asarray(g, dtype=float) for k, g in grads.items()}, dx


@dataclass
class AdamState:
    """Adam moments and step counter for one parameter dict.  The step size
    is not kept here: each :func:`adam_step` is given its rate."""

    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(state: AdamState, params: dict, grads: dict, rate: float) -> None:
    """One bias-corrected Adam update with step size ``rate``, in place on
    ``params``; a missing or non-finite gradient raises first, changing nothing."""
    check_finite({k: grads[k] for k in params})
    state.t += 1
    b1t = 1.0 - _BETA1 ** state.t
    b2t = 1.0 - _BETA2 ** state.t
    for k in params:
        g = grads[k]
        state.m[k] = _BETA1 * state.m[k] + (1.0 - _BETA1) * g
        state.v[k] = _BETA2 * state.v[k] + (1.0 - _BETA2) * g * g
        mhat = state.m[k] / b1t
        vhat = state.v[k] / b2t
        params[k] -= rate * mhat / (np.sqrt(vhat) + _EPS)


@dataclass(frozen=True)
class GaussianPolicy:
    """Diagonal Gaussian over actions: mean from an Mlp, fixed std sigma.

    Like the Mlp, every method takes an (n, in_dim) batch of states.  A
    sigma that is not a finite number > 0 raises ValueError when it is built,
    and the frozen fields cannot be reassigned past that check.
    """

    mean_net: Mlp
    sigma: float = 0.1

    def __post_init__(self):
        check_positive(self.sigma, "policy sigma", ValueError)

    def mean(self, x):
        return self.mean_net.forward(x)

    def log_prob(self, x, a):
        """(n,) log-densities of the (n, out_dim) actions ``a`` taken at the
        (n, in_dim) states ``x``; actions of another shape raise ValueError."""
        mu = self.mean_net.forward(x)
        aa = np.asarray(a, dtype=float)
        if aa.shape != mu.shape:
            raise ValueError("actions %r do not match %r means" % (aa.shape, mu.shape))
        quad = ((aa - mu) ** 2).sum(axis=-1) / (2.0 * self.sigma ** 2)
        return -quad - mu.shape[1] * math.log(self.sigma * math.sqrt(2.0 * math.pi))

    def logprob_grad(self, x, a, weights):
        """Gradient of sum_i weights_i * log pi(a_i|x_i) w.r.t. mean-net params.

        ``x`` is an (n, in_dim) batch of states, ``a`` the (n, out_dim)
        actions taken there and ``weights`` their (n,) weights; any other
        shape, a 1-D ``x`` included, raises ValueError.  The score of a
        fixed-sigma Gaussian is (a - mean)/sigma^2 pushed back through the
        mean network.
        """
        mu, h = self.mean_net.forward_with_hidden(x)
        aa = np.asarray(a, dtype=float)
        w = np.asarray(weights, dtype=float)
        if aa.shape != mu.shape or w.shape != mu.shape[:1]:
            raise ValueError("actions %r and weights %r do not match %r means"
                             % (aa.shape, w.shape, mu.shape))
        upstream = (aa - mu) / self.sigma ** 2
        upstream *= w[:, None]
        grads, _ = self.mean_net.backward(x, upstream, h)
        return grads


def check_finite(arrays: dict, limit: float = np.finfo(float).max):
    """Raise DivergenceError("diverged: <key>") at the first array of
    ``arrays`` holding a NaN, an infinity or an entry past ``limit`` in
    absolute value.  The default limit makes it a finiteness test; it is the
    learner's only test of divergence."""
    for k, p in arrays.items():
        # NaN fails both comparisons; unlike abs(p), they make no float copy of p
        if not ((p <= limit) & (p >= -limit)).all():
            raise DivergenceError("diverged: %s" % k)
