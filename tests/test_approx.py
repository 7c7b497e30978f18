import math

import numpy as np
import pytest

from mfglearn.approx import TANH_BLOCK, AdamState, DivergenceError, GaussianPolicy, Mlp, adam_step
from mfglearn.envs import lqr_env
from mfglearn.learner import init_train_state, rollout
from mfglearn.meanfield import GridSpec


def forward_oracle(params, x):
    """Independent forward pass: explicit loops over units."""
    w1, b1, w2, b2 = params["w1"], params["b1"], params["w2"], params["b2"]
    h = [math.tanh(sum(w1[j, i] * x[i] for i in range(len(x))) + b1[j])
         for j in range(w1.shape[0])]
    return np.array([sum(w2[o, j] * h[j] for j in range(len(h))) + b2[o]
                     for o in range(w2.shape[0])])


def finite_difference(f, params, h=1e-5):
    """Central finite differences of a scalar function over a param dict."""
    grads = {}
    for k, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = f()
            p[idx] = orig - h
            down = f()
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads[k] = g
    return grads


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


def test_forward_zero_params():
    net = Mlp({"w1": np.zeros((4, 3)), "b1": np.zeros(4),
               "w2": np.zeros((2, 4)), "b2": np.zeros(2)})
    np.testing.assert_array_equal(net.forward([1.0, -2.0, 0.5]), [0.0, 0.0])


def test_forward_constant_output():
    net = Mlp({"w1": np.zeros((4, 3)), "b1": np.zeros(4),
               "w2": np.zeros((2, 4)), "b2": np.array([3.0, -1.0])})
    for x in np.random.default_rng(0).standard_normal((5, 3)):
        np.testing.assert_array_equal(net.forward(x), [3.0, -1.0])


def test_forward_matches_oracle():
    rng = np.random.default_rng(1)
    net = Mlp.init(3, 8, 2, rng)
    for _ in range(10):
        x = rng.standard_normal(3)
        np.testing.assert_allclose(net.forward(x), forward_oracle(net.params, x),
                                   rtol=0, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    net = Mlp.init(2, 5, 1, rng)
    xs = rng.standard_normal((7, 2))
    batch = net.forward(xs)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(batch[i], net.forward(x))


def test_forward_dim_mismatch():
    net = Mlp.init(2, 4, 1, np.random.default_rng(3))
    with pytest.raises(ValueError, match="dim"):
        net.forward([1.0, 2.0, 3.0])


def test_backward_zero_upstream():
    rng = np.random.default_rng(4)
    net = Mlp.init(3, 6, 2, rng)
    grads, dx = net.backward(rng.standard_normal(3), np.zeros(2))
    assert all(np.all(g == 0) for g in grads.values())
    assert np.all(dx == 0)


def test_backward_single_unit_chain_rule():
    # tiny weights keep tanh in its linear region: y ~ w2*w1*x, dy/dw1 ~ w2*x
    net = Mlp({"w1": np.array([[1e-4]]), "b1": np.zeros(1),
               "w2": np.array([[2.0]]), "b2": np.zeros(1)})
    x = np.array([0.5])
    grads, _ = net.backward(x, np.array([1.0]))
    assert grads["w1"][0, 0] == pytest.approx(2.0 * 0.5, rel=1e-6)
    assert grads["b2"][0] == 1.0


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = Mlp.init(3, 6, 2, rng)
    x = rng.standard_normal((4, 3))
    upstream = rng.standard_normal((4, 2))
    grads, _ = net.backward(x, upstream)
    fd = finite_difference(lambda: float((net.forward(x) * upstream).sum()), net.params)
    for k in grads:
        assert rel_err(grads[k], fd[k]) < 1e-4


def test_backward_input_gradient():
    rng = np.random.default_rng(6)
    net = Mlp.init(2, 5, 1, rng)
    x0 = rng.standard_normal(2)
    _, dx = net.backward(x0, np.ones(1))
    h = 1e-6
    for i in range(2):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = (net.forward(xp)[0] - net.forward(xm)[0]) / (2 * h)
        assert dx[i] == pytest.approx(fd, rel=1e-4)


def test_passes_bit_identical_to_plain_formulas_across_row_blocks():
    rng = np.random.default_rng(13)
    net = Mlp.init(3, 64, 2, rng)
    p = net.params
    rows = 3 * TANH_BLOCK + 17
    x = rng.standard_normal((rows, 3))
    upstream = rng.standard_normal((rows, 2))
    h_ref = np.tanh(x @ p["w1"].T + p["b1"])
    y_ref = h_ref @ p["w2"].T + p["b2"]
    dz_ref = (upstream @ p["w2"]) * (1.0 - h_ref * h_ref)
    grads_ref = {"w2": upstream.T @ h_ref, "b2": upstream.sum(axis=0),
                 "w1": dz_ref.T @ x, "b1": dz_ref.sum(axis=0)}
    dx_ref = dz_ref @ p["w1"]

    y, h = net.forward_with_hidden(x)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(h, h_ref)
    for hidden in (h, None):
        grads, dx = net.backward(x, upstream, hidden)
        assert set(grads) == set(grads_ref)
        assert all(np.array_equal(grads[k], grads_ref[k]) for k in grads_ref)
        assert np.array_equal(dx, dx_ref)
    assert np.array_equal(h, h_ref)  # backward leaves the cached layer as it was


def test_adam_zero_gradient_no_change():
    rng = np.random.default_rng(7)
    params = {"w": rng.standard_normal((3, 3))}
    before = params["w"].copy()
    state = AdamState.for_params(params, lr=0.1)
    adam_step(state, params, {"w": np.zeros((3, 3))})
    np.testing.assert_array_equal(params["w"], before)
    assert state.t == 1


def test_adam_first_step_sign():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    g = np.array([3.0, -0.2, 1e-3])
    state = AdamState.for_params(params, lr=0.01)
    adam_step(state, params, {"w": g.copy()})
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * np.sign(g)
    np.testing.assert_allclose(params["w"], expected, atol=1e-4)


def hand_adam(w, grad_fn, lr, steps):
    """Literal transcription of the Adam recurrences for a scalar."""
    m = v = 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    trace = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w = w - lr * mhat / (math.sqrt(vhat) + eps)
        trace.append(w)
    return np.array(trace)


def test_adam_quadratic_matches_hand_trace():
    params = {"w": np.array([1.0])}
    state = AdamState.for_params(params, lr=0.1)
    ours = []
    for _ in range(100):
        adam_step(state, params, {"w": 2.0 * params["w"]})
        ours.append(params["w"][0])
    hand = hand_adam(1.0, lambda w: 2.0 * w, 0.1, 100)
    np.testing.assert_allclose(np.array(ours), hand, rtol=0, atol=1e-12)
    mags = np.abs(np.array(ours))
    assert mags[-1] < 0.1
    # |w| oscillates through zero, so check the decay of window envelopes
    envelopes = [mags[i:i + 20].max() for i in range(20, 100, 20)]
    assert all(hi > lo for hi, lo in zip(envelopes, envelopes[1:]))


def test_adam_rejects_non_finite():
    params = {"w": np.ones(2)}
    state = AdamState.for_params(params, lr=0.1)
    with pytest.raises(DivergenceError, match="diverged"):
        adam_step(state, params, {"w": np.array([np.nan, 0.0])})


def test_adam_moment_shapes_track_params():
    rng = np.random.default_rng(8)
    params = {"a": rng.standard_normal((4, 2)), "b": rng.standard_normal(3)}
    state = AdamState.for_params(params, lr=0.01)
    for t in range(5):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        adam_step(state, params, grads)
        assert state.t == t + 1
        for k in params:
            assert state.m[k].shape == params[k].shape
            assert state.v[k].shape == params[k].shape
            assert np.all(state.v[k] >= 0)


def make_policy(seed=0, sigma=0.1):
    rng = np.random.default_rng(seed)
    return GaussianPolicy(Mlp.init(2, 8, 2, rng), sigma=sigma)


def rollout_first_actions(sigma, n_agents, seed):
    """The policy, the start states and the first actions of a one-step
    rollout with every agent at (0.4, -0.3); the rollout draws actions as
    mean + sigma * pre-drawn noise."""
    spec = lqr_env(horizon=1, init_mean=(0.4, -0.3), init_std=0.0)
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=8, sigma=sigma)
    log = rollout(spec, state, n_agents, np.random.default_rng(seed))
    return state.actor, log.states[0], log.actions[0]


def test_sample_action_degenerate_sigma():
    pol, x, a = rollout_first_actions(1e-12, 1, 1)
    np.testing.assert_allclose(a, pol.mean(x), atol=1e-10)


def test_logprob_at_mean_closed_form():
    pol = make_policy()
    x = np.array([0.1, 0.2])
    mu = pol.mean(x)
    # 2-D diagonal Gaussian at its mode: -2*log(sigma*sqrt(2*pi))
    expected = -2.0 * math.log(0.1 * math.sqrt(2.0 * math.pi))
    assert pol.log_prob(x, mu) == pytest.approx(expected)
    assert expected == pytest.approx(2.7673, abs=1e-4)


def test_sample_action_empirical_std():
    pol, x, a = rollout_first_actions(0.1, 10 ** 5, 2)
    std = (a - pol.mean(x)).std(axis=0)
    assert np.all(np.abs(std - 0.1) < 0.002)  # within 2%


def test_density_integrates_to_one():
    pol = make_policy()
    x = np.array([0.0, 0.0])
    mu = pol.mean(x)
    rng = np.random.default_rng(3)
    half = 0.5  # +- 5 sigma box around the mean
    pts = mu + rng.uniform(-half, half, (10 ** 5, 2))
    dens = np.exp(pol.log_prob(np.tile(x, (len(pts), 1)), pts))
    integral = dens.mean() * (2 * half) ** 2
    assert 0.95 < integral < 1.05


def test_logprob_grad_zero_at_mean():
    pol = make_policy()
    x = np.array([0.5, 0.5])
    grads = pol.logprob_grad(x, pol.mean(x))
    assert all(np.abs(g).max() < 1e-12 for g in grads.values())


def test_logprob_grad_matches_finite_differences():
    pol = make_policy(seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(2)
    a = pol.mean(x) + 0.3 * rng.standard_normal(2)
    grads = pol.logprob_grad(x, a)
    fd = finite_difference(lambda: float(pol.log_prob(x, a)), pol.mean_net.params)
    for k in grads:
        assert rel_err(grads[k], fd[k]) < 1e-4


def test_logprob_grad_linear_in_residual():
    pol = make_policy(seed=11)
    x = np.array([0.2, -0.6])
    mu = pol.mean(x)
    d = np.array([0.05, -0.02])
    g1 = pol.logprob_grad(x, mu + d)
    g3 = pol.logprob_grad(x, mu + 3.0 * d)
    for k in g1:
        np.testing.assert_allclose(g3[k], 3.0 * g1[k], rtol=1e-9, atol=1e-12)


def test_seeded_training_is_bit_reproducible():
    def run():
        rng = np.random.default_rng(123)
        net = Mlp.init(2, 6, 1, rng)
        state = AdamState.for_params(net.params, lr=1e-3)
        for _ in range(50):
            x = rng.standard_normal((8, 2))
            y = net.forward(x)
            grads, _ = net.backward(x, y - x.sum(axis=1, keepdims=True))
            adam_step(state, net.params, grads)
        return net.params

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])
