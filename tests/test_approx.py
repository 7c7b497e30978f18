import copy
import dataclasses
import math

import numpy as np
import pytest

from mfglearn.approx import AdamState, DivergenceError, GaussianPolicy, Mlp, adam_step, check_finite
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
    np.testing.assert_array_equal(net.forward([[1.0, -2.0, 0.5]]), [[0.0, 0.0]])


def test_forward_constant_output():
    net = Mlp({"w1": np.zeros((4, 3)), "b1": np.zeros(4),
               "w2": np.zeros((2, 4)), "b2": np.array([3.0, -1.0])})
    for x in np.random.default_rng(0).standard_normal((5, 1, 3)):
        np.testing.assert_array_equal(net.forward(x), [[3.0, -1.0]])


def test_forward_matches_oracle():
    rng = np.random.default_rng(1)
    net = Mlp.init(3, 8, 2, rng)
    for _ in range(10):
        x = rng.standard_normal(3)
        np.testing.assert_allclose(net.forward(x[None])[0], forward_oracle(net.params, x),
                                   rtol=0, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    net = Mlp.init(2, 5, 1, rng)
    xs = rng.standard_normal((7, 2))
    batch = net.forward(xs)
    for i in range(len(xs)):
        np.testing.assert_allclose(batch[i:i + 1], net.forward(xs[i:i + 1]))


def test_forward_dim_mismatch():
    net = Mlp.init(2, 4, 1, np.random.default_rng(3))
    with pytest.raises(ValueError, match="dim"):
        net.forward([[1.0, 2.0, 3.0]])


# unchecked, width 0 builds a network that outputs b2 alone, and numpy's
# errors for -1 or 2.5 do not say which width is wrong
@pytest.mark.parametrize("widths, name", [
    ((0, 4, 1), "input"), ((2, 0, 1), "hidden"), ((2, 4, 0), "output"),
    ((2, -1, 1), "hidden"), ((2, 2.5, 1), "hidden"), ((True, 4, 1), "input"),
], ids=["input 0", "hidden 0", "output 0", "hidden -1", "hidden 2.5", "input True"])
def test_mlp_init_checks_its_widths(widths, name):
    with pytest.raises(ValueError, match="%s width must be an int >= 1" % name):
        Mlp.init(*widths, np.random.default_rng(3))


@pytest.mark.parametrize("call", [
    lambda net, x: net.forward(x),
    lambda net, x: net.forward_with_hidden(x),
    lambda net, x: net.backward(x, np.zeros((1, 1))),
    lambda net, x: GaussianPolicy(net).logprob_grad(x, np.zeros((1, 1)), np.ones(1)),
], ids=["forward", "forward_with_hidden", "backward", "logprob_grad"])
def test_one_dimensional_input_rejected(call):
    net = Mlp.init(2, 4, 1, np.random.default_rng(3))
    with pytest.raises(ValueError, match="dim"):
        call(net, np.array([1.0, 2.0]))


@pytest.mark.parametrize("upstream", [np.zeros((3, 2)), np.zeros((2, 1)), np.zeros(3)],
                         ids=["two columns", "two rows", "1-d"])
def test_backward_rejects_upstream_of_another_shape(upstream):
    net = Mlp.init(2, 4, 1, np.random.default_rng(3))
    with pytest.raises(ValueError, match="upstream shape"):
        net.backward(np.zeros((3, 2)), upstream)


def test_backward_zero_upstream():
    rng = np.random.default_rng(4)
    net = Mlp.init(3, 6, 2, rng)
    grads, dx = net.backward(rng.standard_normal((1, 3)), np.zeros((1, 2)))
    assert all(np.all(g == 0) for g in grads.values())
    assert np.all(dx == 0)


def test_backward_single_unit_chain_rule():
    # tiny weights keep tanh in its linear region: y ~ w2*w1*x, dy/dw1 ~ w2*x
    net = Mlp({"w1": np.array([[1e-4]]), "b1": np.zeros(1),
               "w2": np.array([[2.0]]), "b2": np.zeros(1)})
    x = np.array([[0.5]])
    grads, _ = net.backward(x, np.array([[1.0]]))
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
    x0 = rng.standard_normal((1, 2))
    _, dx = net.backward(x0, np.ones((1, 1)))
    h = 1e-6
    for i in range(2):
        xp, xm = x0.copy(), x0.copy()
        xp[0, i] += h
        xm[0, i] -= h
        fd = (net.forward(xp)[0, 0] - net.forward(xm)[0, 0]) / (2 * h)
        assert dx[0, i] == pytest.approx(fd, rel=1e-4)


def test_passes_bit_identical_to_plain_formulas_across_row_blocks():
    rng = np.random.default_rng(13)
    net = Mlp.init(3, 64, 2, rng)
    p = net.params
    rows = 3 * 1024 + 17
    x = rng.standard_normal((rows, 3))
    upstream = rng.standard_normal((rows, 2))
    h_ref = np.tanh(x @ p["w1"].T + p["b1"])
    y_ref = np.einsum("nk,jk->nj", h_ref, p["w2"]) + p["b2"]   # the row-local output product
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


def test_hidden_bias_einsum_adds_rows_like_numpy_sum():
    # Mlp.backward takes b1 = einsum("ij->j", dz) for numpy's axis-0 sum:
    # both add a C-contiguous float32 block's rows in order, at every size
    z = np.random.default_rng(16).standard_normal((4097, 64)).astype(np.float32)
    for n in range(1, 4098):
        assert np.array_equal(np.einsum("ij->j", z[:n]), z[:n].sum(axis=0)), n


# every batch size to 130, where a BLAS output product gave equal rows
# unequal outputs at about half the sizes, and sizes around the learner's
# blocks
ROW_LOCAL_SIZES = list(range(1, 131)) + [1024, 2046, 2049, 4097]


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("in_dim, out_dim", [(2, 2), (3, 1)], ids=["actor", "critic"])
def test_outputs_are_row_local_at_every_batch_size(dtype, in_dim, out_dim):
    rng = np.random.default_rng(14)
    net = Mlp.init(in_dim, 64, out_dim, rng)
    row = rng.standard_normal((1, in_dim)).astype(dtype)
    for n in ROW_LOCAL_SIZES:
        y = net.forward(np.repeat(row, n, axis=0))
        assert y.dtype == dtype
        assert np.all(y == y[0]), n
        x = rng.standard_normal((n, in_dim)).astype(dtype)
        perm = rng.permutation(n)
        assert np.array_equal(net.forward(x[perm]), net.forward(x)[perm]), n


# every size to 130 and the learner's block sizes and remainders: 904 and
# 1,808 rows are the last actor block at N = 5,000 and 10,000, 2,046 rows one
# update block at T = 30, and 2,049 and 4,097 rows end in a 1-row block
BLOCK_SIZES = list(range(1, 131)) + [904, 1808, 2046, 2048, 2049, 4097]


@pytest.mark.parametrize("in_dim, out_dim", [(2, 2), (3, 1)], ids=["actor", "critic"])
def test_float32_outputs_do_not_depend_on_the_block(in_dim, out_dim):
    """The learner runs its networks over agent blocks; a float32 block of
    rows must give bit for bit the same outputs as those rows in the whole
    batch.  (A float64 one-row batch can differ: see forward_with_hidden.)"""
    rng = np.random.default_rng(15)
    net = Mlp.init(in_dim, 64, out_dim, rng)
    for n in BLOCK_SIZES:
        x = rng.standard_normal((n, in_dim)).astype(np.float32)
        whole = net.forward(x)
        # the learner's 2,048-row blocks, the first and last rows alone and
        # a random cut into contiguous blocks
        cuts = {0, 1, n - 1, n} | set(range(0, n, 2048))
        cuts |= set(rng.integers(0, n + 1, size=min(n, 8)).tolist())
        bounds = sorted(cuts)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert np.array_equal(net.forward(x[lo:hi]), whole[lo:hi]), (n, lo, hi)


# a float32 pass agrees with the float64 pass of the same batch to this many
# float32 epsilons of each array's largest entry
F32_EPS_BOUND = 64 * np.finfo(np.float32).eps


def assert_float32_close(got, want):
    assert np.abs(got - want).max() <= F32_EPS_BOUND * np.abs(want).max()


def test_float32_batch_runs_in_float32_with_float64_gradients():
    rng = np.random.default_rng(15)
    pol = GaussianPolicy(Mlp.init(2, 64, 2, rng), sigma=0.1)
    net = pol.mean_net
    x32 = rng.standard_normal((300, 2)).astype(np.float32)
    x64 = x32.astype(np.float64)   # the same batch
    upstream = rng.standard_normal((300, 2))
    a = pol.mean(x64) + 0.1 * rng.standard_normal((300, 2))
    w = rng.standard_normal(300)

    y32, h32 = net.forward_with_hidden(x32)
    y64, h64 = net.forward_with_hidden(x64)
    assert y32.dtype == h32.dtype == np.float32 and y64.dtype == h64.dtype == np.float64
    assert_float32_close(y32, y64)
    assert_float32_close(h32, h64)
    for cached in (False, True):
        g32, dx32 = net.backward(x32, upstream, h32 if cached else None)
        g64, dx64 = net.backward(x64, upstream, h64 if cached else None)
        assert dx32.dtype == np.float32 and dx64.dtype == np.float64
        assert_float32_close(dx32, dx64)
        for k in g64:
            assert g32[k].dtype == g64[k].dtype == np.float64
            assert_float32_close(g32[k], g64[k])
    lg32, lg64 = pol.logprob_grad(x32, a, w), pol.logprob_grad(x64, a, w)
    for k in lg64:
        assert lg32[k].dtype == lg64[k].dtype == np.float64
        assert_float32_close(lg32[k], lg64[k])
    assert all(p.dtype == np.float64 for p in net.params.values())


def test_adam_zero_gradient_no_change():
    rng = np.random.default_rng(7)
    params = {"w": rng.standard_normal((3, 3))}
    before = params["w"].copy()
    state = AdamState.for_params(params)
    adam_step(state, params, {"w": np.zeros((3, 3))}, 0.1)
    np.testing.assert_array_equal(params["w"], before)
    assert state.t == 1


def test_adam_first_step_sign():
    params = {"w": np.array([1.0, -2.0, 0.5])}
    g = np.array([3.0, -0.2, 1e-3])
    state = AdamState.for_params(params)
    adam_step(state, params, {"w": g.copy()}, 0.01)
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
    state = AdamState.for_params(params)
    ours = []
    for _ in range(100):
        adam_step(state, params, {"w": 2.0 * params["w"]}, 0.1)
        ours.append(params["w"][0])
    hand = hand_adam(1.0, lambda w: 2.0 * w, 0.1, 100)
    np.testing.assert_allclose(np.array(ours), hand, rtol=0, atol=1e-12)
    mags = np.abs(np.array(ours))
    assert mags[-1] < 0.1
    # |w| oscillates through zero, so check the decay of window envelopes
    envelopes = [mags[i:i + 20].max() for i in range(20, 100, 20)]
    assert all(hi > lo for hi, lo in zip(envelopes, envelopes[1:]))


def test_adam_rejects_non_finite():
    # it names the gradient and changes neither the params nor the moments,
    # nor does a missing gradient
    params = {"b": np.ones(2), "w": np.ones(3)}
    state = AdamState.for_params(params)
    adam_step(state, params, {"b": np.full(2, 0.5), "w": np.full(3, -0.5)}, 0.1)
    before = (state.t, copy.deepcopy(state.m), copy.deepcopy(state.v), copy.deepcopy(params))
    with pytest.raises(DivergenceError, match="^diverged: w$"):
        adam_step(state, params, {"b": np.ones(2), "w": np.array([0.0, np.nan, 1.0])}, 0.1)
    with pytest.raises(KeyError):
        adam_step(state, params, {"b": np.ones(2)}, 0.1)
    assert state.t == before[0]
    for was, now in zip(before[1:], (state.m, state.v, params)):
        assert all(np.array_equal(was[k], now[k]) for k in was)


@pytest.mark.parametrize("w", [np.array([np.nan]), np.array([-np.inf, 0.0]), np.array([0.5, -2.0])],
                         ids=["nan", "infinity", "past the limit"])
def test_check_finite_rejects_nan_and_params_past_the_limit(w):
    check_finite({"w": np.array([0.5, -1.0])}, 1.0)
    with pytest.raises(DivergenceError, match="^diverged: w$"):
        check_finite({"b": np.zeros(2), "w": w}, 1.0)
    with pytest.raises(DivergenceError, match="^diverged: a$"):   # the first failing array
        check_finite({"a": w, "w": w}, 1.0)


def test_check_finite_limit_is_inclusive_and_defaults_to_the_largest_float():
    big = np.finfo(float).max
    check_finite({"w": np.array([1.0, -1.0])}, 1.0)
    check_finite({"w": np.array([big, -big])})
    check_finite({"w": np.zeros(0), "b": np.zeros((0, 2))}, 1.0)   # empty arrays pass
    for bad in (np.array([np.inf]), np.array([np.nan]), np.array([np.inf], dtype=np.float32)):
        with pytest.raises(DivergenceError, match="^diverged: w$"):
            check_finite({"w": bad})


def test_adam_moment_shapes_track_params():
    rng = np.random.default_rng(8)
    params = {"a": rng.standard_normal((4, 2)), "b": rng.standard_normal(3)}
    state = AdamState.for_params(params)
    for t in range(5):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        adam_step(state, params, grads, 0.01)
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
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=8)
    state.actor = GaussianPolicy(state.actor.mean_net, sigma)
    log = rollout(spec, state, n_agents, np.random.default_rng(seed))
    return state.actor, log.states[0], log.actions[0]


# unchecked, a negative sigma gives finite gradients, and zero fails only
# in log_prob, with a bare math domain error
@pytest.mark.parametrize("sigma", [0.0, -0.1, math.nan, math.inf, True, "a"])
def test_gaussian_policy_checks_its_sigma(sigma):
    net = Mlp.init(2, 4, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="policy sigma must be finite and > 0"):
        GaussianPolicy(net, sigma)


def test_gaussian_policy_sigma_cannot_be_reassigned():
    # the check runs once, when the policy is built, so sigma must not change after it
    policy = make_policy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.sigma = 0.0
    assert policy.sigma == 0.1


def test_sample_action_degenerate_sigma():
    pol, x, a = rollout_first_actions(1e-12, 1, 1)
    # the rollout's actor runs on float32 rows
    np.testing.assert_allclose(a, pol.mean(x.astype(np.float32)), atol=1e-10)


def test_logprob_at_mean_closed_form():
    pol = make_policy()
    x = np.array([[0.1, 0.2]])
    mu = pol.mean(x)
    # 2-D diagonal Gaussian at its mode: -2*log(sigma*sqrt(2*pi))
    expected = -2.0 * math.log(0.1 * math.sqrt(2.0 * math.pi))
    assert pol.log_prob(x, mu)[0] == pytest.approx(expected)
    assert expected == pytest.approx(2.7673, abs=1e-4)


def test_sample_action_empirical_std():
    pol, x, a = rollout_first_actions(0.1, 10 ** 5, 2)
    std = (a - pol.mean(x)).std(axis=0)
    assert np.all(np.abs(std - 0.1) < 0.002)  # within 2%


def test_density_integrates_to_one():
    pol = make_policy()
    x = np.array([[0.0, 0.0]])
    mu = pol.mean(x)
    rng = np.random.default_rng(3)
    half = 0.5  # +- 5 sigma box around the mean
    pts = mu + rng.uniform(-half, half, (10 ** 5, 2))
    dens = np.exp(pol.log_prob(np.repeat(x, len(pts), axis=0), pts))
    integral = dens.mean() * (2 * half) ** 2
    assert 0.95 < integral < 1.05


def test_logprob_grad_zero_at_mean():
    pol = make_policy()
    x = np.array([[0.5, 0.5]])
    grads = pol.logprob_grad(x, pol.mean(x), np.ones(1))
    assert all(np.abs(g).max() < 1e-12 for g in grads.values())


def test_logprob_grad_matches_finite_differences():
    pol = make_policy(seed=9)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 2))
    a = pol.mean(x) + 0.3 * rng.standard_normal((1, 2))
    grads = pol.logprob_grad(x, a, np.ones(1))
    fd = finite_difference(lambda: float(pol.log_prob(x, a)[0]), pol.mean_net.params)
    for k in grads:
        assert rel_err(grads[k], fd[k]) < 1e-4


def test_logprob_grad_linear_in_residual():
    pol = make_policy(seed=11)
    x = np.array([[0.2, -0.6]])
    mu = pol.mean(x)
    d = np.array([[0.05, -0.02]])
    g1 = pol.logprob_grad(x, mu + d, np.ones(1))
    g3 = pol.logprob_grad(x, mu + 3.0 * d, np.ones(1))
    for k in g1:
        np.testing.assert_allclose(g3[k], 3.0 * g1[k], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("a, weights", [
    (np.zeros(2), np.ones(3)),          # one action for three states
    (np.zeros((3, 1)), np.ones(3)),
    (np.zeros((3, 2)), np.ones(1)),     # one weight for three rows
    (np.zeros((3, 2)), np.ones((3, 1))),
], ids=["one action", "narrow actions", "one weight", "weight column"])
def test_logprob_grad_rejects_actions_or_weights_of_another_shape(a, weights):
    with pytest.raises(ValueError, match="do not match"):
        make_policy().logprob_grad(np.zeros((3, 2)), a, weights)


@pytest.mark.parametrize("a", [np.ones(2), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((3, 2, 1))],
                         ids=["one action", "narrow actions", "one-row actions", "3-d"])
def test_log_prob_rejects_actions_of_another_shape(a):
    # one (2,) action used to broadcast over all three states
    with pytest.raises(ValueError, match="do not match"):
        make_policy().log_prob(np.zeros((3, 2)), a)


def test_seeded_training_is_bit_reproducible():
    def run():
        rng = np.random.default_rng(123)
        net = Mlp.init(2, 6, 1, rng)
        state = AdamState.for_params(net.params)
        for _ in range(50):
            x = rng.standard_normal((8, 2))
            y = net.forward(x)
            grads, _ = net.backward(x, y - x.sum(axis=1, keepdims=True))
            adam_step(state, net.params, grads, 1e-3)
        return net.params

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])
