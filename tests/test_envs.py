import dataclasses
import math

import numpy as np
import pytest

from mfglearn.envs import (CongestionReward, DemandReward, EnvError, EnvSpec, LqrReward,
                           bimodal_env, congestion_env, demand_env, lqr_env,
                           movement_cost, reward, sample_initial, step)
from mfglearn.learner import init_train_state, train
from mfglearn.meanfield import GridSpec


def _peak(mu, spread, alpha=1.0):
    return CongestionReward(((mu, spread),), alpha)


def _path(spread=0.1, alpha=0.1):
    return DemandReward(((0, (0.0, 0.0)), (10, (1.0, 0.0))), spread, alpha)


def test_step_noiseless_linear():
    spec = congestion_env(sigma1=0.0)
    np.testing.assert_allclose(step(spec, [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]), [0.0, 0.0])


def test_step_fixed_point():
    spec = congestion_env(sigma1=0.0)
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(step(spec, x, [0.0, 0.0], [0.0, 0.0]), x)


def test_step_arithmetic():
    spec = congestion_env(a=1.0, b=2.0, sigma1=0.1)
    out = step(spec, [0.0, 0.0], [0.5, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(out, [1.1, 0.1])


def test_step_rejects_non_finite():
    spec = congestion_env()
    with pytest.raises(EnvError, match="non-finite state/action"):
        step(spec, [np.nan, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(EnvError, match="non-finite state/action"):
        step(spec, [0.0, 0.0], [np.inf, 0.0], [0.0, 0.0])


def test_step_affine():
    spec = congestion_env(a=0.7, b=1.3, sigma1=0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x1, x2, u1, u2 = rng.standard_normal((4, 2))
        lhs = step(spec, x1 + x2, u1 + u2, np.zeros(2))
        rhs = step(spec, x1, u1, np.zeros(2)) + step(spec, x2, u2, np.zeros(2)) - step(spec, np.zeros(2), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_congestion_peak_value():
    r = _peak((0.3, -0.2), 1.0)
    assert r(1, [0.3, -0.2], 0.0) == pytest.approx(1.0 / (2.0 * np.pi))


def test_congestion_crowding_quarter():
    r = _peak((0.0, 0.0), 0.5, alpha=2.0)
    x = [0.2, 0.1]
    clear = r(1, x, 0.0)
    crowded = r(1, x, 1.0)
    assert crowded == pytest.approx(clear / 4.0)


def test_congestion_crowding_limit():
    r = _peak((0.0, 0.0), 0.5)
    clear = r(1, [0.0, 0.0], 0.0)
    packed = r(1, [0.0, 0.0], 1e3)
    assert packed < 1e-3 * clear


def test_congestion_bounds():
    rng = np.random.default_rng(1)
    spread = 0.4
    r = _peak((0.0, 0.0), spread, alpha=1.5)
    upper = 1.0 / (2.0 * np.pi * spread)
    for _ in range(200):
        x = rng.uniform(-2, 2, 2)
        m = rng.uniform(0, 50)
        v = r(1, x, m)
        assert 0.0 < v <= upper + 1e-15


def test_congestion_strictly_monotone_in_density():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(-2, 2, 2)
        m1, m2 = sorted(rng.uniform(0, 20, 2))
        if m1 == m2:
            continue
        r = _peak((0.0, 0.0), 0.3, alpha=rng.uniform(0.1, 3.0))
        assert r(1, x, m2) < r(1, x, m1)


def test_congestion_singular_spread_rejected():
    with pytest.raises(EnvError, match="singular"):
        _peak((0.0, 0.0), 0.0)


def test_bimodal_sums_components():
    env = bimodal_env(spread=0.05)
    x = np.array([-1.0, 0.0])
    total = env.reward(1, x, 0.0)
    # two components, each with prefactor 1/(4*pi*spread)
    near = 1.0 / (4.0 * np.pi * 0.05)
    far = np.exp(-1.0 / 0.05) / (4.0 * np.pi * 0.05)
    assert total == pytest.approx(near + far)


def test_control_cost_basics():
    spec = congestion_env(eta=2.0)
    assert movement_cost(spec, [0.0, 0.0]) == 0.0
    assert movement_cost(spec, [1.0, 1.0]) == pytest.approx(2.0)  # 0.5 * 2 * |u|^2
    rng = np.random.default_rng(3)
    for eta in rng.uniform(0.1, 2.0, 20):
        spec = congestion_env(eta=float(eta))
        u = rng.standard_normal(2)
        assert movement_cost(spec, u) == pytest.approx(movement_cost(spec, -u))
        assert movement_cost(spec, u) >= 0.0


def test_demand_peak_on_path():
    v = _path(spread=0.1)(5, [0.5, 0.0], 0.0)
    assert v == pytest.approx(1.0 / (2.0 * np.pi * 0.1))


def test_demand_radial_monotone_decay():
    path = _path()
    center = path.position(4)
    direction = np.array([0.6, -0.8])
    last = np.inf
    for radius in np.linspace(0.0, 1.5, 12):
        v = path(4, center + radius * direction, 0.0)
        assert v <= last + 1e-15
        last = v


def test_demand_path_interpolation():
    path = _path()
    np.testing.assert_allclose(path.position(5), [0.5, 0.0])
    np.testing.assert_allclose(path.position(0), [0.0, 0.0])
    np.testing.assert_allclose(path.position(10), [1.0, 0.0])


def test_demand_time_out_of_range():
    with pytest.raises(EnvError, match="outside demand path"):
        _path()(11, [0.0, 0.0], 0.0)


@pytest.mark.parametrize("waypoints", [
    ((3, (0.0, 0.0)), (10, (1.0, 1.0))),
    ((0, (0.0, 0.0)), (3, (1.0, 1.0))),
], ids=["starts after step 1", "ends before the horizon"])
def test_demand_path_must_cover_the_reward_steps(waypoints):
    # rewards are read at steps 1..T; an uncovered step used to fail only in
    # the middle of the first rollout
    with pytest.raises(EnvError, match="not the reward steps 1..4"):
        demand_env(horizon=4, waypoints=waypoints)
    with pytest.raises(EnvError, match="not the reward steps 1..4"):
        EnvSpec(DemandReward(waypoints), horizon=4)


def test_demand_path_covering_exactly_the_reward_steps_trains():
    spec = demand_env(horizon=4, waypoints=((1, (0.0, 0.0)), (4, (1.0, 1.0))))
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=4)
    train(spec, state, 10, 1, np.random.default_rng(0))


def test_demand_waypoints_must_increase():
    with pytest.raises(EnvError, match="strictly increasing"):
        DemandReward(((0, (0.0, 0.0)), (0, (1.0, 0.0))))


@pytest.mark.parametrize("spread", [0.0, -1.0, float("nan")])
def test_demand_singular_path_spread_rejected(spread):
    with pytest.raises(EnvError, match="singular path spread"):
        demand_env(path_spread=spread)


def test_lqr_reward_values():
    r = LqrReward((0.5, -0.5))
    assert r(1, [0.5, -0.5], None) == 0.0
    assert r(1, [1.5, -0.5], None) == pytest.approx(-1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert r(1, rng.uniform(-3, 3, 2), None) <= 0.0


def test_lqr_q_must_be_psd():
    with pytest.raises(EnvError):
        LqrReward((0.0, 0.0), ((1.0, 0.0), (0.5, 1.0)))  # not symmetric
    with pytest.raises(EnvError):
        LqrReward((0.0, 0.0), ((-1.0, 0.0), (0.0, 1.0)))


def test_sample_initial_degenerate():
    spec = congestion_env(init_std=0.0)
    rng = np.random.default_rng(5)
    for _ in range(5):
        np.testing.assert_allclose(sample_initial(spec, rng), [1.0, 0.0])


def test_sample_initial_law_of_large_numbers():
    spec = congestion_env()
    rng = np.random.default_rng(6)
    draws = sample_initial(spec, rng, 10 ** 5)
    assert np.abs(draws.mean(axis=0) - np.array([1.0, 0.0])).max() < 0.01


def test_sample_initial_seeded_determinism():
    spec = congestion_env()
    a = sample_initial(spec, np.random.default_rng(42), 100)
    b = sample_initial(spec, np.random.default_rng(42), 100)
    assert np.array_equal(a, b)


def test_reward_dispatch_subtracts_movement():
    spec = demand_env(eta=2.0)
    u = np.array([0.3, -0.4])
    dens = 0.7
    x = np.array([0.2, 0.2])
    base = spec.reward(3, x, dens)
    assert reward(spec, 3, x, u, dens) == pytest.approx(base - 0.5 * 2.0 * 0.25)


def test_reward_batch_equivariance():
    # no agent identity anywhere: permuting a batch permutes the rewards
    spec = congestion_env(alpha=1.5)
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, (40, 2))
    us = rng.standard_normal((40, 2))
    dens = rng.uniform(0, 5, 40)
    r = reward(spec, 1, xs, us, dens)
    perm = rng.permutation(40)
    np.testing.assert_array_equal(r[perm], reward(spec, 1, xs[perm], us[perm], dens[perm]))


@pytest.mark.parametrize("make_env, uses_density", [
    (congestion_env, True), (bimodal_env, True), (lambda: demand_env(horizon=3), True), (lqr_env, False),
], ids=["congestion", "bimodal", "demand", "lqr"])
def test_reward_object_scores_a_batch_row_by_row(make_env, uses_density):
    spec = make_env()
    rng = np.random.default_rng(8)
    xs = rng.uniform(-1, 1, (6, 2))
    dens = rng.uniform(0, 5, 6)
    batch = spec.reward(2, xs, dens)
    assert batch.shape == (6,)
    np.testing.assert_array_equal(batch, [spec.reward(2, x, m) for x, m in zip(xs, dens)])
    assert spec.uses_density is uses_density
    if not uses_density:
        np.testing.assert_array_equal(spec.reward(2, xs, None), batch)


def test_bimodal_is_a_congestion_game():
    env = bimodal_env()
    assert isinstance(env.reward, CongestionReward) and env.uses_density
    with pytest.raises(EnvError, match="reward must be a CongestionReward"):
        dataclasses.replace(env, reward="congestion-bimodal")


@pytest.mark.parametrize("horizon", [0, -1, 2.5, 3.0, None])
@pytest.mark.parametrize("make_env", [demand_env, lqr_env], ids=lambda f: f.__name__)
def test_horizon_must_be_an_int_at_least_one(make_env, horizon):
    with pytest.raises(EnvError, match="horizon must be an int >= 1"):
        make_env(horizon=horizon)


@pytest.mark.parametrize("kw", [
    {"a": math.nan}, {"a": math.inf}, {"b": -math.inf}, {"b": math.nan},
], ids=lambda kw: "%s=%s" % next(iter(kw.items())))
@pytest.mark.parametrize("make_env", [lqr_env, congestion_env], ids=lambda f: f.__name__)
def test_dynamics_coefficients_must_be_finite(make_env, kw):
    with pytest.raises(EnvError, match="%s must be finite" % next(iter(kw))):
        make_env(**kw)
    make_env(a=-0.5, b=-2.0)   # any finite sign is allowed


@pytest.mark.parametrize("kw", [
    {"eta": math.nan}, {"eta": -1.0}, {"eta": math.inf},
    {"sigma1": math.nan}, {"sigma1": -1.0}, {"sigma1": math.inf},
    {"sigma_eps": math.nan}, {"sigma_eps": -0.5}, {"sigma_eps": math.inf},
    {"init_std": math.nan}, {"init_std": -0.1}, {"init_std": math.inf},
], ids=lambda kw: "%s=%s" % next(iter(kw.items())))
@pytest.mark.parametrize("make_env", [lqr_env, congestion_env], ids=lambda f: f.__name__)
def test_scales_must_be_finite_and_non_negative(make_env, kw):
    with pytest.raises(EnvError, match="%s must be finite and >= 0" % next(iter(kw))):
        make_env(**kw)
    make_env(eta=0.0, sigma1=0.0, sigma_eps=0.0, init_std=0.0)   # zero switches a term off


def test_env_validation():
    with pytest.raises(EnvError):
        congestion_env(alpha=0.0)
    with pytest.raises(EnvError):
        congestion_env(gamma=0.0)
    with pytest.raises(EnvError):
        congestion_env(eta=-1.0)
    with pytest.raises(EnvError):
        demand_env(horizon=40)  # default path covers 30 steps only


# Non-finite inputs used to build, then made training diverge or score zero
# rewards; they must fail at construction instead.

@pytest.mark.parametrize("make", [
    lambda: _peak((math.nan, 0.0), 0.3),
    lambda: congestion_env(mu=(math.inf, 0.0)),
], ids=["nan centre", "inf centre"])
def test_congestion_peak_centre_must_be_finite(make):
    with pytest.raises(EnvError, match="peak centre must be finite"):
        make()


@pytest.mark.parametrize("waypoints, message", [
    (((0, (0.0, 0.0)), (math.nan, (1.0, 0.0))), "times must be finite"),
    (((0, (0.0, 0.0)), (10, (math.nan, 0.0))), "point must be finite"),
], ids=["nan time", "nan point"])
def test_demand_path_waypoints_must_be_finite(waypoints, message):
    with pytest.raises(EnvError, match=message):
        DemandReward(waypoints)


@pytest.mark.parametrize("init_mean", [(math.nan, 0.0), (0.0, -math.inf)], ids=["nan", "-inf"])
@pytest.mark.parametrize("make_env", [congestion_env, demand_env, lqr_env], ids=lambda f: f.__name__)
def test_init_mean_must_be_finite(make_env, init_mean):
    with pytest.raises(EnvError, match="init_mean must be finite"):
        make_env(init_mean=init_mean)


@pytest.mark.parametrize("density", [math.nan, math.inf, [0.1, math.nan]])
def test_congestion_density_must_be_finite(density):
    x = np.zeros((1 if np.ndim(density) == 0 else len(density), 2))
    with pytest.raises(EnvError, match="density must be finite and >= 0"):
        CongestionReward()(1, x, density)


@pytest.mark.parametrize("make", [
    lambda: _peak((0.0, 0.0), math.inf),
    lambda: congestion_env(alpha=math.inf),
    lambda: demand_env(path_spread=math.inf),
    lambda: lqr_env(target=(math.nan, 0.0)),
    lambda: lqr_env(q=((math.inf, 0.0), (0.0, 1.0))),
], ids=["inf spread", "inf alpha", "inf path spread", "nan target", "inf q"])
def test_other_reward_parameters_must_be_finite(make):
    with pytest.raises(EnvError, match="finite"):
        make()


# A point that was not a pair used to build with its extra coordinates
# dropped, or fail with an IndexError or TypeError; it must raise EnvError.

_NOT_PAIRS = {"three coordinates": (0.5, -0.5, 3.0), "one coordinate": (1.0,),
              "scalar": 1.0, "nested": ((0.0, 0.0),), "string": "12"}


@pytest.mark.parametrize("point", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
@pytest.mark.parametrize("make, message", [
    (lambda p: congestion_env(mu=p), "peak centre"),
    (lambda p: bimodal_env(peaks=((-1.0, 0.0), p)), "peak centre"),
    (lambda p: congestion_env(init_mean=p), "init_mean"),
    (lambda p: lqr_env(target=p), "tracking target"),
    (lambda p: DemandReward(((0, (0.0, 0.0)), (10, p))), "demand path point"),
], ids=["congestion mu", "bimodal peak", "init_mean", "lqr target", "demand path point"])
def test_points_must_be_pairs(make, message, point):
    with pytest.raises(EnvError, match="%s must be a pair of numbers" % message):
        make(point)


@pytest.mark.parametrize("point", [[0.25, -1.0], np.array([0.25, -1.0]), (1, -4)],
                         ids=["list", "array", "ints"])
def test_points_accept_any_pair_of_numbers(point):
    spec = lqr_env(target=point, init_mean=point)
    expected = (float(point[0]), float(point[1]))
    assert spec.reward.target == expected and spec.init_mean == expected
    assert all(type(c) is float for c in spec.reward.target + spec.init_mean)
