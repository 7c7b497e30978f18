import dataclasses
import math

import numpy as np
import pytest

from mfglearn.envs import (CongestionReward, DemandReward, EnvError, EnvSpec, LqrReward,
                           congestion_env, demand_env, lqr_env,
                           reward, sample_initial, step)
from mfglearn.learner import init_train_state, train
from mfglearn.meanfield import GridSpec


def _path(spread=0.1, alpha=0.1):
    return DemandReward(((0, (0.0, 0.0)), (10, (1.0, 0.0))), spread, alpha)


def test_step_noiseless_linear():
    spec = congestion_env(sigma1=0.0)
    np.testing.assert_allclose(step(spec, [[1.0, 0.0]], [[-1.0, 0.0]], [[0.0, 0.0]]), [[0.0, 0.0]])


def test_step_fixed_point():
    spec = congestion_env(sigma1=0.0)
    x = np.array([[0.3, -0.7]])
    np.testing.assert_allclose(step(spec, x, [[0.0, 0.0]], [[0.0, 0.0]]), x)


def test_step_arithmetic():
    spec = congestion_env(sigma1=0.1)
    out = step(spec, [[0.25, 0.0]], [[0.75, 0.0]], [[1.0, 1.0]])
    np.testing.assert_allclose(out, [[1.1, 0.1]])


def test_step_rejects_non_finite():
    spec = congestion_env()
    with pytest.raises(EnvError, match="states must be finite"):
        step(spec, [[np.nan, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(EnvError, match="actions must be finite"):
        step(spec, [[0.0, 0.0]], [[np.inf, 0.0]], [[0.0, 0.0]])


# reward and its movement cost used to return NaN or -inf for these; a None
# entry becomes NaN on the float cast
@pytest.mark.parametrize("call, message", [
    (lambda: reward(congestion_env(eta=1.0), 1, np.zeros((1, 2)), [[None, 1.0]], [0.0]),
     "actions must be finite"),
    (lambda: reward(congestion_env(), 1, np.zeros((1, 2)), [[np.inf, 0.0]], [0.0]),
     "actions must be finite"),
    (lambda: reward(congestion_env(), 1, [[np.nan, 0.0]], np.zeros((1, 2)), [0.0]),
     "states must be finite"),
    (lambda: reward(lqr_env(), 1, [[0.0, np.nan]], np.zeros((1, 2)), [0.0]),
     "states must be finite"),
], ids=["movement cost None action", "congestion inf action", "congestion nan state",
        "lqr nan state"])
def test_movement_cost_and_reward_reject_non_finite(call, message):
    with pytest.raises(EnvError, match=message):
        call()


def test_step_affine():
    spec = congestion_env(sigma1=0.0)
    rng = np.random.default_rng(0)
    zero = np.zeros((1, 2))
    for _ in range(20):
        x1, x2, u1, u2 = rng.standard_normal((4, 1, 2))
        lhs = step(spec, x1 + x2, u1 + u2, zero)
        rhs = step(spec, x1, u1, zero) + step(spec, x2, u2, zero) - step(spec, zero, zero, zero)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# A single (2,) point, or batches of different shapes, used to broadcast
# silently; step and reward take only (n, 2) batches of one shape.

_ROW, _ROWS = np.zeros((1, 2)), np.zeros((3, 2))
_BAD_STEP_INPUTS = {
    "one point": ((np.zeros(2), np.zeros(2), np.zeros(2)), "states must be an .n, 2. batch"),
    "point action": ((_ROWS, np.zeros(2), _ROWS), "actions must be an .n, 2. batch"),
    "point noise": ((_ROWS, _ROWS, np.zeros(2)), "noise must be an .n, 2. batch"),
    "three columns": ((np.zeros((3, 3)), _ROWS, _ROWS), "states must be an .n, 2. batch"),
    "one-row action": ((_ROWS, _ROW, _ROWS), "differ in shape"),
    "one-row state": ((_ROW, _ROWS, _ROWS), "differ in shape"),
    "string states": (([["a", "b"]], _ROW, _ROW), "states must be an array of numbers"),
    "ragged actions": ((_ROWS[:2], [[1.0, 2.0], [3.0]], _ROWS[:2]), "actions must be an array of numbers"),
}


@pytest.mark.parametrize("case", sorted(_BAD_STEP_INPUTS))
def test_step_takes_batches_of_one_shape(case):
    args, message = _BAD_STEP_INPUTS[case]
    with pytest.raises(EnvError, match=message):
        step(congestion_env(), *args)


@pytest.mark.parametrize("u", [np.zeros(2), np.zeros((3, 3)), np.zeros((1, 1, 2))],
                         ids=["one point", "three columns", "3-d"])
def test_movement_cost_takes_a_batch(u):
    spec = congestion_env(eta=2.0)
    with pytest.raises(EnvError, match="actions must be an .n, 2. batch"):
        reward(spec, 1, np.zeros((1, 2)), u, 0.0)


_BAD_REWARD_INPUTS = {
    "column density": (congestion_env, (_ROWS, _ROWS, np.zeros((3, 1))), "density must be one value"),
    "one density": (congestion_env, (_ROWS, _ROWS, np.zeros(1)), "density must be one value"),
    "one point": (congestion_env, (np.zeros(2), _ROWS, np.zeros(3)), "states must be an .n, 2. batch"),
    "three columns": (congestion_env, (np.zeros((3, 3)), _ROWS, np.zeros(3)),
                      "states must be an .n, 2. batch"),
    "one-row state": (lqr_env, (_ROW, _ROWS, np.zeros(1)), "differ in shape"),
    "string density": (congestion_env, (_ROW, _ROW, ["a"]), "density must be an array of numbers"),
}


@pytest.mark.parametrize("case", sorted(_BAD_REWARD_INPUTS))
def test_reward_takes_batches_of_one_length(case):
    make_env, args, message = _BAD_REWARD_INPUTS[case]
    with pytest.raises(EnvError, match=message):
        reward(make_env(), 1, *args)


# the reward objects are callable on their own; a string used to reach
# numpy's float cast and raise its bare ValueError
@pytest.mark.parametrize("call, message", [
    (lambda: CongestionReward()(1, [["a", "b"]], [0.0]), "states must be an array of numbers"),
    (lambda: CongestionReward()(1, _ROW, ["a"]), "density must be an array of numbers"),
    (lambda: DemandReward()(1, [["a", "b"]], [0.0]), "states must be an array of numbers"),
    (lambda: DemandReward()(1, _ROW, ["a"]), "density must be an array of numbers"),
    (lambda: LqrReward()(1, [["a", "b"]], [0.0]), "states must be an array of numbers"),
], ids=["congestion state", "congestion density", "demand state", "demand density", "lqr state"])
def test_reward_objects_reject_strings(call, message):
    with pytest.raises(EnvError, match=message):
        call()


def test_congestion_peak_value():
    r = CongestionReward((0.3, -0.2), 1.0)
    assert r(1, [0.3, -0.2], 0.0) == pytest.approx(1.0 / (2.0 * np.pi))


def test_congestion_crowding_quarter():
    r = CongestionReward((0.0, 0.0), 0.5, alpha=2.0)
    x = [0.2, 0.1]
    clear = r(1, x, 0.0)
    crowded = r(1, x, 1.0)
    assert crowded == pytest.approx(clear / 4.0)


def test_congestion_crowding_limit():
    r = CongestionReward((0.0, 0.0), 0.5)
    clear = r(1, [0.0, 0.0], 0.0)
    packed = r(1, [0.0, 0.0], 1e3)
    assert packed < 1e-3 * clear


def test_congestion_bounds():
    rng = np.random.default_rng(1)
    spread = 0.4
    r = CongestionReward((0.0, 0.0), spread, alpha=1.5)
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
        r = CongestionReward((0.0, 0.0), 0.3, alpha=rng.uniform(0.1, 3.0))
        assert r(1, x, m2) < r(1, x, m1)


def test_congestion_singular_spread_rejected():
    with pytest.raises(EnvError, match="singular"):
        CongestionReward((0.0, 0.0), 0.0)


def test_control_cost_basics():
    def cost(spec, u):
        # at the lqr target the tracking term is 0, so reward = -0.5*eta*|u|^2
        x = np.tile(spec.reward.target, (len(u), 1))
        return -reward(spec, 1, x, u, np.zeros(len(u)))

    spec = lqr_env(eta=2.0)
    assert cost(spec, [[0.0, 0.0]]) == 0.0
    assert cost(spec, [[1.0, 1.0]]) == pytest.approx(2.0)  # 0.5 * 2 * |u|^2
    rng = np.random.default_rng(3)
    for eta in rng.uniform(0.1, 2.0, 20):
        spec = lqr_env(eta=float(eta))
        u = rng.standard_normal((1, 2))
        assert cost(spec, u) == pytest.approx(cost(spec, -u))
        assert cost(spec, u) >= 0.0


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
        demand_env(horizon=4, reward=DemandReward(waypoints))
    with pytest.raises(EnvError, match="not the reward steps 1..4"):
        EnvSpec(DemandReward(waypoints), horizon=4)


def test_demand_path_covering_exactly_the_reward_steps_trains():
    spec = demand_env(horizon=4, reward=DemandReward(((1, (0.0, 0.0)), (4, (1.0, 1.0)))))
    state = init_train_state(spec, GridSpec(resolution=10), seed=0, hidden=4)
    train(spec, state, 10, 1, np.random.default_rng(0))


def test_demand_waypoints_must_increase():
    with pytest.raises(EnvError, match="strictly increasing"):
        DemandReward(((0, (0.0, 0.0)), (0, (1.0, 0.0))))


@pytest.mark.parametrize("spread", [0.0, -1.0, float("nan")])
def test_demand_singular_path_spread_rejected(spread):
    with pytest.raises(EnvError, match="singular path spread"):
        DemandReward(spread=spread)


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
    with pytest.raises(EnvError, match="Q must be a 2x2 matrix of numbers"):
        LqrReward(q="a")


def test_sample_initial_degenerate():
    spec = congestion_env(init_std=0.0)
    draws = sample_initial(spec, np.random.default_rng(5), 5)
    np.testing.assert_allclose(draws, np.tile([1.0, 0.0], (5, 1)))


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


@pytest.mark.parametrize("n", [-1, 0, 2.5, True])
def test_sample_initial_needs_an_int_count_of_at_least_one(n):
    # -1 used to raise numpy's ValueError, 2.5 and True a TypeError, and 0
    # returned an empty (0, 2) batch
    with pytest.raises(EnvError, match="agent count must be an int >= 1"):
        sample_initial(congestion_env(), np.random.default_rng(0), n)


def test_reward_dispatch_subtracts_movement():
    spec = demand_env(eta=2.0)
    u = np.array([[0.3, -0.4]])
    dens = np.array([0.7])
    x = np.array([[0.2, 0.2]])
    base = spec.reward(3, x, dens)
    assert reward(spec, 3, x, u, dens) == pytest.approx(base - 0.5 * 2.0 * 0.25)


def test_reward_batch_equivariance():
    # no agent identity anywhere: permuting a batch permutes the rewards
    spec = congestion_env(reward=CongestionReward(alpha=1.5))
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, (40, 2))
    us = rng.standard_normal((40, 2))
    dens = rng.uniform(0, 5, 40)
    r = reward(spec, 1, xs, us, dens)
    perm = rng.permutation(40)
    np.testing.assert_array_equal(r[perm], reward(spec, 1, xs[perm], us[perm], dens[perm]))


@pytest.mark.parametrize("make_env, uses_density", [
    (congestion_env, True), (lambda: demand_env(horizon=3), True), (lqr_env, False),
], ids=["congestion", "demand", "lqr"])
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


@pytest.mark.parametrize("make_env, spec", [
    (congestion_env, EnvSpec(CongestionReward((0.0, 0.0), 0.3, 1.0), horizon=1, eta=0.0,
                             init_mean=(1.0, 0.0))),
    (demand_env, EnvSpec(DemandReward(((0, (0.2, -0.2)), (15, (0.2, 0.4)), (30, (0.8, 0.4))),
                                      0.1, 0.1), horizon=30, eta=2.0, init_mean=(-0.2, 0.0))),
    (lqr_env, EnvSpec(LqrReward((0.5, -0.5), ((1.0, 0.0), (0.0, 1.0))), horizon=30, eta=1.0,
                      init_mean=(0.0, 0.0))),
], ids=["congestion", "demand", "lqr"])
def test_preset_defaults(make_env, spec):
    assert make_env() == spec


def test_presets_take_reward_parameters_only_on_the_reward():
    with pytest.raises(TypeError, match="alpha"):
        congestion_env(alpha=1.5)


@pytest.mark.parametrize("horizon", [0, -1, 2.5, 3.0, None])
@pytest.mark.parametrize("make_env", [demand_env, lqr_env], ids=lambda f: f.__name__)
def test_horizon_must_be_an_int_at_least_one(make_env, horizon):
    with pytest.raises(EnvError, match="horizon must be an int >= 1"):
        make_env(horizon=horizon)


@pytest.mark.parametrize("kw", [
    {"eta": math.nan}, {"eta": -1.0}, {"eta": math.inf},
    {"sigma1": math.nan}, {"sigma1": -1.0}, {"sigma1": math.inf},
    {"init_std": math.nan}, {"init_std": -0.1}, {"init_std": math.inf},
    {"eta": True}, {"init_std": "1"},
], ids=lambda kw: "%s=%s" % next(iter(kw.items())))
@pytest.mark.parametrize("make_env", [lqr_env, congestion_env], ids=lambda f: f.__name__)
def test_scales_must_be_finite_and_non_negative(make_env, kw):
    with pytest.raises(EnvError, match="%s must be finite and >= 0" % next(iter(kw))):
        make_env(**kw)
    make_env(eta=0.0, sigma1=0.0, init_std=0.0)   # zero switches a term off


def test_env_validation():
    with pytest.raises(EnvError):
        CongestionReward(alpha=0.0)
    with pytest.raises(EnvError, match="reward must be a CongestionReward"):
        dataclasses.replace(congestion_env(), reward="congestion")
    with pytest.raises(EnvError):
        congestion_env(gamma=0.0)
    for gamma in (True, "x"):
        with pytest.raises(EnvError, match="gamma must be a number"):
            congestion_env(gamma=gamma)
    with pytest.raises(EnvError):
        congestion_env(eta=-1.0)
    with pytest.raises(EnvError):
        demand_env(horizon=40)  # default path covers 30 steps only
    with pytest.raises(EnvError, match="at least two waypoints"):
        DemandReward(((0, (0, 0)),))


# Non-finite inputs used to build, then made training diverge or score zero
# rewards; they must fail at construction instead.

@pytest.mark.parametrize("make", [
    lambda: CongestionReward((math.nan, 0.0), 0.3),
    lambda: CongestionReward((math.inf, 0.0), 0.3),
], ids=["nan centre", "inf centre"])
def test_congestion_peak_centre_must_be_finite(make):
    with pytest.raises(EnvError, match="peak centre must be finite"):
        make()


@pytest.mark.parametrize("waypoints, message", [
    (((0, (0.0, 0.0)), (math.nan, (1.0, 0.0))), "times must be finite"),
    (((0, (0.0, 0.0)), (10, (math.nan, 0.0))), "point must be finite"),
    ((("a", (0, 0)), (1, (0, 0))), "times must be finite, got 'a'"),
], ids=["nan time", "nan point", "string time"])
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
    lambda: CongestionReward((0.0, 0.0), math.inf),
    lambda: CongestionReward(alpha=math.inf),
    lambda: DemandReward(spread=math.inf),
    lambda: LqrReward(target=(math.nan, 0.0)),
    lambda: LqrReward(q=((math.inf, 0.0), (0.0, 1.0))),
    lambda: CongestionReward(alpha="a"),
    lambda: DemandReward(spread="a"),
], ids=["inf spread", "inf alpha", "inf path spread", "nan target", "inf q", "string alpha",
        "string spread"])
def test_other_reward_parameters_must_be_finite(make):
    with pytest.raises(EnvError, match="finite"):
        make()


# A point that was not a pair used to build with its extra coordinates
# dropped, or fail with an IndexError or TypeError; it must raise EnvError.

_NOT_PAIRS = {"three coordinates": (0.5, -0.5, 3.0), "one coordinate": (1.0,),
              "scalar": 1.0, "nested": ((0.0, 0.0),), "string": "12",
              "not a number": ("a", 1)}


@pytest.mark.parametrize("point", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
@pytest.mark.parametrize("make, message", [
    (lambda p: CongestionReward(p, 0.3), "peak centre"),
    (lambda p: congestion_env(init_mean=p), "init_mean"),
    (lambda p: LqrReward(target=p), "tracking target"),
    (lambda p: DemandReward(((0, (0.0, 0.0)), (10, p))), "demand path point"),
], ids=["congestion mu", "init_mean", "lqr target", "demand path point"])
def test_points_must_be_pairs(make, message, point):
    with pytest.raises(EnvError, match="%s must be a pair of numbers" % message):
        make(point)


@pytest.mark.parametrize("point", [[0.25, -1.0], np.array([0.25, -1.0]), (1, -4)],
                         ids=["list", "array", "ints"])
def test_points_accept_any_pair_of_numbers(point):
    spec = lqr_env(reward=LqrReward(target=point), init_mean=point)
    expected = (float(point[0]), float(point[1]))
    assert spec.reward.target == expected and spec.init_mean == expected
    assert all(type(c) is float for c in spec.reward.target + spec.init_mean)


# Waypoints were unpacked as pairs unchecked, giving a bare TypeError.  The
# congestion reward used to take a sequence of (centre, spread) components; a
# value of that form, or a centre with its spread appended, passed where the
# centre now goes must fail the centre's pair check.

@pytest.mark.parametrize("make, message", [
    (lambda: DemandReward(waypoints=((0, (0, 0)), 5)), r"demand path waypoint 5 is not a pair"),
    (lambda: demand_env(reward=DemandReward(waypoints=5)),
     r"demand path waypoints must be a sequence of pairs, got 5"),
    (lambda: CongestionReward((((0.0, 0.0), 0.3),)), r"peak centre must be a pair of numbers"),
    (lambda: CongestionReward((0.0, 0.0, 0.3)),
     r"peak centre must be a pair of numbers, got \(0.0, 0.0, 0.3\)"),
    (lambda: CongestionReward(((0.0, 0.0),)),
     r"peak centre must be a pair of numbers, got \(\(0.0, 0.0\),\)"),
], ids=["demand waypoint", "demand_env waypoints", "components", "three-entry component",
        "centre without spread"])
def test_components_and_waypoints_must_be_pairs(make, message):
    with pytest.raises(EnvError, match=message):
        make()
