import numpy as np
import pytest

from mfglearn.meanfield import (BeliefState, DensityGrid, GridError, GridSpec,
                                belief_update, build_empirical_measure, density_at,
                                grid_distance)


def brute_force_bin(points, spec):
    """Independent binning oracle: plain python loop, no numpy indexing tricks."""
    n = spec.resolution
    counts = [[0] * n for _ in range(n)]
    for x, y in points:
        ix = int(np.floor((x - spec.x_min) / spec.bin_width))
        iy = int(np.floor((y - spec.y_min) / spec.bin_height))
        ix = min(max(ix, 0), n - 1)
        iy = min(max(iy, 0), n - 1)
        counts[ix][iy] += 1
    return np.array(counts, dtype=float) / len(points)


def random_grid(rng, spec):
    mass = rng.random((spec.resolution, spec.resolution))
    return DensityGrid(spec, mass / mass.sum())


def test_dirac_population():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 10)
    grid = build_empirical_measure([[0.55, 0.55]] * 4, spec)
    assert grid.mass.max() == 1.0
    assert np.count_nonzero(grid.mass) == 1


def test_two_agents_distinct_bins():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 10)
    grid = build_empirical_measure([[0.05, 0.05], [0.95, 0.95]], spec)
    assert grid.mass[0, 0] == 0.5
    assert grid.mass[9, 9] == 0.5
    assert grid.mass.sum() == 1.0


def test_gaussian_sample_matches_brute_force():
    rng = np.random.default_rng(7)
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 50)
    pts = np.array([1.0, 0.0]) + 0.1 * rng.standard_normal((1000, 2))
    grid = build_empirical_measure(pts, spec)
    oracle = brute_force_bin(pts, spec)
    assert np.array_equal(grid.mass, oracle)


def test_out_of_bounds_clamped():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4)
    grid = build_empirical_measure([[-5.0, 0.5], [9.0, 2.0]], spec)
    assert grid.mass[0, 2] == 0.5
    assert grid.mass[3, 3] == 0.5


@pytest.mark.parametrize("far", [8e17, 1e300, np.finfo(float).max])
def test_far_points_clamp_to_their_own_edge_bin(far):
    # past about 7e17 on the default grid, bin / width no longer fits an
    # int64, so the clamp must be taken before the cast
    spec = GridSpec()
    top = spec.resolution - 1
    pts = np.array([[far, 0.1], [-far, 0.1], [0.1, far], [0.1, -far]])
    ix, iy = spec.bin_index(pts)
    mid = 26  # 0.1 lies in bin 26 of the default grid's 50 bins, 0.08 wide
    assert ix.tolist() == [top, 0, mid, mid]
    assert iy.tolist() == [mid, mid, top, 0]
    grid = build_empirical_measure(pts, spec)
    assert grid.mass[top, mid] == grid.mass[0, mid] == grid.mass[mid, top] == grid.mass[mid, 0] == 0.25
    assert density_at(grid, pts[:1])[0] == 0.25 / spec.bin_area


def test_far_points_match_brute_force():
    rng = np.random.default_rng(11)
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 20)
    pts = rng.uniform(-1.5, 1.5, (400, 2)) * np.where(rng.random((400, 2)) < 0.2, 1e290, 1.0)
    assert np.array_equal(build_empirical_measure(pts, spec).mass, brute_force_bin(pts, spec))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1])
def test_non_finite_points_rejected(bad, axis):
    spec = GridSpec()
    pts = np.zeros((3, 2))
    pts[1, axis] = bad
    with pytest.raises(GridError, match="points must be finite"):
        build_empirical_measure(pts, spec)
    grid = DensityGrid.uniform(spec)
    with pytest.raises(GridError, match="points must be finite"):
        density_at(grid, pts)
    with pytest.raises(GridError, match="points must be finite"):
        density_at(grid, pts[1:2])


@pytest.mark.parametrize("points", [
    np.zeros((3, 3)),      # would bin on its first two columns
    np.zeros((3, 1)),      # would index past its only column
    np.zeros((2, 3, 2)),
    np.zeros(3),
    np.zeros(2),           # one point: the functions take (n, 2) batches only
    np.float64(0.5),
], ids=["three columns", "one column", "stacked", "one triple", "one point", "scalar"])
def test_points_that_are_not_pairs_rejected(points):
    spec = GridSpec()
    with pytest.raises(GridError, match="points must be"):
        spec.bin_index(points)
    with pytest.raises(GridError, match="points must be"):
        build_empirical_measure(points, spec)
    with pytest.raises(GridError, match="points must be"):
        density_at(DensityGrid.uniform(spec), points)


@pytest.mark.parametrize("call", [
    lambda: GridSpec().bin_index([["a", "b"]]),
    lambda: build_empirical_measure([[1.0, 2.0], [3.0]], GridSpec()),
    lambda: density_at(DensityGrid.uniform(GridSpec()), [["a", "b"]]),
    lambda: DensityGrid(GridSpec(resolution=1), [["a"]]),
], ids=["bin_index strings", "ragged measure", "density_at strings", "string mass"])
def test_entries_that_are_not_numbers_raise_grid_error(call):
    with pytest.raises(GridError, match="must be an array of numbers"):
        call()


def test_empty_population_rejected():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4)
    with pytest.raises(GridError, match="empty population"):
        build_empirical_measure([], spec)


def test_degenerate_bounds_rejected():
    with pytest.raises(GridError, match="invalid grid"):
        GridSpec(0.0, 0.0, 0.0, 1.0, 4)
    # a bool bound used to pass as 0 or 1, and a string raised a bare TypeError
    for bounds in [{"x_min": True}, {"x_max": "3"}]:
        with pytest.raises(GridError, match="bounds must be numbers"):
            GridSpec(**bounds)


@pytest.mark.parametrize("bounds", [
    (-np.inf, 2.0, -2.0, 2.0),
    (-2.0, 2.0, -2.0, np.inf),
    (-1e308, 1e308, -2.0, 2.0),      # x_max - x_min overflows
    (-2.0, 2.0, -1e308, 1e308),
    (-1e200, 1e200, -1e200, 1e200),  # width and height finite, area not
])
def test_unbounded_bins_rejected(bounds):
    with pytest.raises(GridError, match="bin area"):
        GridSpec(*bounds, 4)


@pytest.mark.parametrize("bounds", [(np.nan, 2.0, -2.0, 2.0), (-2.0, 2.0, -2.0, np.nan)])
def test_nan_bounds_rejected(bounds):
    with pytest.raises(GridError, match="degenerate bounds"):
        GridSpec(*bounds, 4)


@pytest.mark.parametrize("resolution", [0, -2, 2.5, 3.0, "4", None])
def test_resolution_must_be_an_int_at_least_one(resolution):
    with pytest.raises(GridError, match="resolution must be an int >= 1"):
        GridSpec(resolution=resolution)


def test_permutation_invariance_exact():
    rng = np.random.default_rng(3)
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 20)
    pts = rng.uniform(-1.2, 1.2, (500, 2))
    a = build_empirical_measure(pts, spec)
    b = build_empirical_measure(pts[rng.permutation(500)], spec)
    assert np.array_equal(a.mass, b.mass)


def test_density_uniform():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 10)
    grid = DensityGrid.uniform(spec)
    for x in ([0.0, 0.0], [0.5, 0.99], [0.33, 0.77]):
        assert density_at(grid, [x])[0] == pytest.approx(1.0)


def test_density_single_bin():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 10)
    mass = np.zeros((10, 10))
    mass[3, 7] = 1.0
    grid = DensityGrid(spec, mass)
    assert density_at(grid, [[0.35, 0.75]])[0] == pytest.approx(100.0)  # 1 / bin area
    assert density_at(grid, [[0.05, 0.05]])[0] == 0.0


def test_density_tracks_analytic_gaussian():
    rng = np.random.default_rng(11)
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 50)
    std = 0.1
    pts = np.array([1.0, 0.0]) + std * rng.standard_normal((1000, 2))
    grid = build_empirical_measure(pts, spec)
    analytic = 1.0 / (2.0 * np.pi * std ** 2)  # peak of the isotropic pdf
    measured = density_at(grid, [[1.0, 0.0]])[0]
    assert analytic / 3.0 < measured < analytic * 3.0


def test_fp_first_observation():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 5)
    rng = np.random.default_rng(0)
    m = random_grid(rng, spec)
    updated = belief_update(BeliefState.initial(spec), m)
    assert updated.count == 1
    assert np.array_equal(updated.average.mass, m.mass)


def test_fp_fixed_point():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 5)
    rng = np.random.default_rng(1)
    m = random_grid(rng, spec)
    belief = BeliefState(m, 1)
    updated = belief_update(belief, m)
    np.testing.assert_allclose(updated.average.mass, m.mass, rtol=0, atol=1e-15)


def test_fp_three_measures_mean():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 8)
    rng = np.random.default_rng(2)
    ms = [random_grid(rng, spec) for _ in range(3)]
    belief = BeliefState.initial(spec)
    for m in ms:
        belief = belief_update(belief, m)
    direct = (ms[0].mass + ms[1].mass + ms[2].mass) / 3.0
    np.testing.assert_allclose(belief.average.mass, direct, rtol=0, atol=1e-12)
    assert belief.count == 3


def test_fp_order_commutes_within_tolerance():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 6)
    rng = np.random.default_rng(4)
    ms = [random_grid(rng, spec) for _ in range(7)]
    results = []
    for perm in (range(7), rng.permutation(7), rng.permutation(7)):
        belief = BeliefState.initial(spec)
        for i in perm:
            belief = belief_update(belief, ms[i])
        results.append(belief.average.mass)
    for other in results[1:]:
        assert np.abs(results[0] - other).max() < 1e-12


def test_grid_shape_mismatch_rejected():
    a = DensityGrid.uniform(GridSpec(0.0, 1.0, 0.0, 1.0, 5))
    b = DensityGrid.uniform(GridSpec(0.0, 1.0, 0.0, 1.0, 6))
    with pytest.raises(GridError, match="mismatch"):
        grid_distance(a, b)
    with pytest.raises(GridError, match="mismatch"):
        belief_update(BeliefState(a, 0), b)


def test_distance_identical_and_disjoint():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4)
    a = build_empirical_measure([[0.1, 0.1]], spec)
    b = build_empirical_measure([[0.9, 0.9]], spec)
    assert grid_distance(a, a) == 0.0
    assert grid_distance(a, b) == 2.0


def test_distance_two_bin_arithmetic():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 2)
    a = DensityGrid(spec, np.array([[0.5, 0.5], [0.0, 0.0]]))
    b = DensityGrid(spec, np.array([[0.25, 0.75], [0.0, 0.0]]))
    assert grid_distance(a, b) == pytest.approx(0.5)


def test_distance_metric_properties():
    rng = np.random.default_rng(9)
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 6)
    for _ in range(50):
        a, b, c = (random_grid(rng, spec) for _ in range(3))
        assert grid_distance(a, b) == grid_distance(b, a)
        assert grid_distance(a, c) <= grid_distance(a, b) + grid_distance(b, c) + 1e-12
        assert grid_distance(a, a) == 0.0
        if not np.array_equal(a.mass, b.mass):
            assert grid_distance(a, b) > 0.0


def test_normalization_enforced():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 3)
    with pytest.raises(GridError):
        DensityGrid(spec, np.full((3, 3), 0.2))
    with pytest.raises(GridError):
        mass = np.full((3, 3), 1.0 / 9.0)
        mass[0, 0] = -mass[0, 0]
        DensityGrid(spec, np.abs(mass) * 0 + mass)
    with pytest.raises(GridError, match="mass shape"):
        DensityGrid(GridSpec(0.0, 1.0, 0.0, 1.0, 4), np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(GridError, match="non-finite mass"):
        DensityGrid(spec, np.full((3, 3), np.nan))


def test_builds_normalize_over_random_inputs():
    rng = np.random.default_rng(10)
    for _ in range(30):
        spec = GridSpec(-1.0, 1.0, -1.0, 1.0, int(rng.integers(2, 40)))
        pts = rng.normal(0, 1.5, (int(rng.integers(1, 400)), 2))
        grid = build_empirical_measure(pts, spec)
        assert abs(grid.mass.sum() - 1.0) <= 1e-9
        assert grid.mass.min() >= 0.0


def test_grid_immutable():
    grid = DensityGrid.uniform(GridSpec(0.0, 1.0, 0.0, 1.0, 4))
    with pytest.raises(ValueError):
        grid.mass[0, 0] = 0.5
