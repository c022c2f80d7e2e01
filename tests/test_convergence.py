import numpy as np
import pytest

from potlab.convergence import (REGION_KINDS, SplitResult, approximation_split,
                                convergence_experiment, region_radius, thinness_decay)
from potlab.kernel import RadialKernel, kernel_operator
from potlab.poisson import PoissonExtension, ball_slab, lipschitz_profile
from potlab.space import model_space

K8 = RadialKernel("riesz", s=0.8, p=2.0)


@pytest.fixture(scope="module")
def space8():
    return model_space("tree-boundary", 2, 8, 0.5)


@pytest.fixture(scope="module")
def ext8(space8):
    return PoissonExtension(space8, n_heights=8)


def width(space, kind, center, y, exponent=1.0):
    """The width at height y of the K8 region of one kind at leaf center."""
    return region_radius(space, K8, 2.0, kind, exponent, center, y)


def region_membership(space, kind, center, x, y, exponent=1.0):
    """(x, y) lies in the region: d(x, center) below the width at height y."""
    return space.distance(x, center) < width(space, kind, center, y, exponent)


def test_region_validation(tree6):
    with pytest.raises(ValueError, match="unknown region kind"):
        width(tree6, "nosuch", 0, 0.5)
    with pytest.raises(ValueError, match="positive exponent"):
        width(tree6, "polynomial", 0, 0.5, exponent=0.0)


@pytest.mark.parametrize("kind", ["nontangential", "capacity", "polynomial",
                                  "exponential"])
def test_center_always_inside(tree6, kind):
    for y in (0.5, 0.25, 2.0**-6):
        assert region_membership(tree6, kind, 9, 9, y, exponent=0.6)


def test_polynomial_threshold_arithmetic(tree6):
    c, e = 1.0, 0.6
    x = 32                       # distance 1.0 from leaf 0? no: lca 0 -> 1.0
    d = tree6.distance(0, x)
    assert d == pytest.approx(1.0)
    y_threshold = (d / c) ** (1.0 / e)
    assert not region_membership(tree6, "polynomial", 0, x, 0.9999 * y_threshold, e)
    x = 2                        # distance 0.25
    d = tree6.distance(0, x)
    y_thr = (d / c) ** (1.0 / e)
    assert region_membership(tree6, "polynomial", 0, x, min(1.01 * y_thr, 0.999), e)
    assert not region_membership(tree6, "polynomial", 0, x, 0.99 * y_thr, e)


def test_region_monotone_in_height(tree6):
    for kind in REGION_KINDS:
        heights = [2.0**-m for m in range(1, 7)]
        radii = [width(tree6, kind, 5, y, exponent=0.6) for y in heights]
        assert radii == sorted(radii, reverse=True)


def test_nontangential_nested_in_capacity_region(tree6):
    # the matched radius dominates the input radius, so cones sit inside
    for x0 in (0, 21, 63):
        for y in (0.5, 0.125, 2.0**-5):
            for x in range(64):
                if region_membership(tree6, "nontangential", x0, x, y):
                    assert region_membership(tree6, "capacity", x0, x, y)


def test_polynomial_region_strictly_wider_at_fine_heights(tree6):
    # contact wider than the cone: off-center points with d > y
    y = 2.0**-5
    rad = width(tree6, "polynomial", 0, y, exponent=0.6)
    hits = [x for x in range(64)
            if y < tree6.distance(0, x) < rad]
    assert hits, "no point between cone and polynomial widths"


def test_capacity_vs_polynomial_width_band(tree6):
    # matched widths track the power-law width within a bounded band
    heights = [2.0**-m for m in range(2, 7)]
    exponent = 2.0 * (0.8 - 0.5)
    ratios = [width(tree6, "capacity", 7, y) / y**exponent
              for y in heights]
    assert max(ratios) / min(ratios) < 4.0


def test_thinness_trivia(tree6):
    heights = 2.0 ** -np.arange(7, dtype=float)
    empty = np.zeros((64, 7), dtype=bool)
    rep = thinness_decay(tree6, K8, 2.0, empty, heights)
    assert rep.thin and not rep.capacities.any()
    single = empty.copy()
    single[13, 2] = True         # one cell at height 0.25
    rep = thinness_decay(tree6, K8, 2.0, single, heights)
    assert rep.thin
    for t, cap in zip(rep.t_values, rep.capacities):
        if t <= 0.25:
            assert cap == 0.0
        else:
            assert cap > 0.0


def test_thinness_monotone_on_grid(space8, ext8, rng):
    space = space8
    over = rng.random((space.n_leaves, ext8.heights.size)) < 0.02
    rep = thinness_decay(space, K8, 2.0, over, ext8.heights)
    # shadows grow with t, so capacities are non-decreasing along growing t
    ordered = rep.capacities[np.argsort(rep.t_values)]
    assert np.all(np.diff(ordered) >= -1e-12)
    slab = ball_slab(space, over, ext8.heights)
    for t1, t2 in [(rep.t_values[3], rep.t_values[1])]:
        m1 = slab[:, ext8.heights < t1].any(axis=1)
        m2 = slab[:, ext8.heights < t2].any(axis=1)
        assert np.all(m2[m1])


def test_split_continuous_profile(space8, ext8):
    f = lipschitz_profile(space8, "bump")
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.05)
    assert split.ok
    assert split.shadow_capacity < 0.05 and split.bad_capacity < 0.05


def test_split_random_function(space8, ext8, rng):
    f = rng.random(256)
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.05)
    assert split.ok
    assert split.shadow_capacity < 0.05 and split.bad_capacity < 0.05


def test_split_spike_resolves_at_leaf_level(space8, ext8):
    # a one-leaf spike is exactly representable at the truncation scale, so
    # the stand-ins collapse onto f itself rather than faking smoothness:
    # no residual is left, and both exceptional sets are empty
    f = np.zeros(256)
    f[100] = 60.0
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.2)
    assert split.ok
    assert split.shadow_capacity < 0.2 and split.bad_capacity < 0.2
    assert not split.exceedance.any() and not split.bad_leaves.any()


def test_split_thinness_pipeline(space8, ext8, rng):
    f = np.zeros(256)
    f[40] = 30.0
    f += rng.random(256)
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.1)
    rep = thinness_decay(space8, K8, 2.0, split.exceedance, ext8.heights)
    ordered = rep.capacities[np.argsort(rep.t_values)]
    assert np.all(np.diff(ordered) >= -1e-12)
    assert rep.capacities[-1] < 0.1


def test_split_tightening_target_reported(space8, ext8, rng):
    f = rng.random(256)
    wide = approximation_split(space8, ext8, K8, 2.0, f, 0.05)
    tight = approximation_split(space8, ext8, K8, 2.0, f, 0.025)
    assert tight.ok
    assert tight.shadow_capacity < 0.025 and tight.bad_capacity < 0.025
    # reported, not asserted: the sets need not shrink monotonically
    assert wide.ok


def experiment(space, ext, kernel, f, sample, split, kind, tol):
    """convergence_experiment on the potential of f and its extension."""
    pot = kernel_operator(kernel, space).apply_function(f)
    return convergence_experiment(space, ext, kernel, 2.0, pot, ext.field(pot), sample,
                                  split, kind, tol=tol)


def test_nontangential_constant_function(space8, ext8):
    sample = [0, 100, 255]
    f = np.full(256, 2.0)
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.05)
    table = experiment(space8, ext8, K8, f, sample, split, "nontangential", tol=1e-9)
    assert table.fraction_converged == 1.0
    assert all(r.sup_error <= 1e-9 for r in table.rows)


def test_nontangential_profile_errors_shrink(space8, ext8):
    f = lipschitz_profile(space8, "hat")
    rng = np.random.default_rng(9)
    sample = np.sort(rng.choice(256, 24, replace=False))
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.05)
    table = experiment(space8, ext8, K8, f, sample, split, "nontangential", tol=0.02)
    assert table.fraction_converged >= 0.95
    by_x0 = {}
    for row in table.rows:
        by_x0.setdefault(row.x0, []).append((row.t, row.sup_error))
    shrink = 0
    for x0, rows in by_x0.items():
        rows.sort(reverse=True)
        if rows[-1][1] <= rows[0][1] + 1e-12:
            shrink += 1
    assert shrink / len(by_x0) >= 0.95
    assert split.shadow_capacity < 0.05


def test_tangential_constant_and_bad_mass(space8, ext8, rng):
    sample = [3, 77]
    f = np.full(256, 1.0)
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.05)
    table = experiment(space8, ext8, K8, f, sample, split, "polynomial", tol=1e-9)
    assert table.fraction_converged == 1.0
    f = rng.random(256) + np.where(np.arange(256) == 10, 40.0, 0.0)
    split = approximation_split(space8, ext8, K8, 2.0, f, 0.2)
    table = experiment(space8, ext8, K8, f, sample, split, "polynomial", tol=0.05)
    masses = [m for _, m in table.bad_set_mass]
    assert masses == sorted(masses, reverse=True)


def test_polynomial_region_needs_a_riesz_kernel(space8, ext8):
    # the polynomial width reads the riesz exponent s, which a radial table lacks
    radial = RadialKernel("radial", level_values=tuple(K8.level_table(space8)))
    f = lipschitz_profile(space8, "bump")
    split = approximation_split(space8, ext8, radial, 2.0, f, 0.05)
    with pytest.raises(ValueError, match="riesz"):
        experiment(space8, ext8, radial, f, [0], split, "polynomial", tol=0.05)
    table = experiment(space8, ext8, radial, f, [0], split, "nontangential", tol=0.05)
    assert table.rows


def brute_force_experiment(space, ext, f, excluded, kind):
    """Rows (x0, t, sup error, points, excluded cells) over every leaf, and
    (t, bad-set mass) rows, by a distance scan per cell."""
    heights = ext.heights
    n = space.n_leaves
    pot = kernel_operator(K8, space).apply_function(f)
    vals = ext.field(pot)
    dist = space.distance_matrix()
    exponent = 2.0 * (K8.s - 0.5)
    widths = np.array([[width(space, kind, x0, float(y), exponent) for y in heights]
                       for x0 in range(n)])
    t_grid = sorted({*heights[::4], heights[-1]}, reverse=True)
    rows = []
    for x0 in range(n):
        for t in t_grid:
            err, pts, exc = 0.0, 0, 0
            for h in np.flatnonzero((heights <= t) & (heights < 1.0)):
                for x in range(n):
                    if dist[x0, x] >= widths[x0, h]:
                        continue
                    if excluded[x, h]:
                        exc += 1
                        continue
                    pts += 1
                    err = max(err, abs(vals[x, h] - pot[x0]))
            rows.append((x0, t, err, pts, exc))
    masses = []
    for t in t_grid:
        cols = np.flatnonzero((heights <= t) & (heights < 1.0))
        meets = [any((excluded[:, h] & (dist[x0] < widths[x0, h])).any() for h in cols)
                 for x0 in range(n)]
        masses.append((t, float(space.weights[np.array(meets)].sum())))
    return rows, masses


@pytest.mark.parametrize("space_kind", ["tree-boundary", "cantor-set"])
@pytest.mark.parametrize("kind", REGION_KINDS)
def test_experiment_matches_brute_force_scan(space_kind, kind):
    space = model_space(space_kind, 2, 6)
    ext = PoissonExtension(space, n_heights=6)
    rng = np.random.default_rng(806)
    f = rng.random(space.n_leaves)
    excluded = rng.random((space.n_leaves, ext.heights.size)) < 0.02
    excluded[17, -1] = True      # a cell at the finest height
    split = SplitResult(excluded, np.zeros(space.n_leaves, dtype=bool), 0.0, 0.0, True)
    table = experiment(space, ext, K8, f, np.arange(space.n_leaves), split, kind, tol=0.05)
    rows, masses = brute_force_experiment(space, ext, f, excluded, kind)
    assert [(r.x0, r.t, r.sup_error, r.n_points, r.n_excluded) for r in table.rows] == rows
    assert table.bad_set_mass == masses
    # a region meets the finest excluded cell at the finest t
    assert masses[-1][1] > 0.0
