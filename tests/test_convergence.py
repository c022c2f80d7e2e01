import math

import numpy as np
import pytest

from potlab.convergence import (ApproachRegion, approximation_split,
                                enlarged_set, exceptional_capacity_bound,
                                nontangential_experiment, region_membership,
                                region_radius, shadow_covering_check,
                                shadow_mask, tangential_experiment,
                                thinness_decay)
from potlab.kernel import RadialKernel, kernel_operator
from potlab.poisson import PoissonExtension, lipschitz_profile
from potlab.space import model_space

K8 = RadialKernel("riesz", s=0.8, p=2.0)


@pytest.fixture(scope="module")
def ext8():
    return PoissonExtension(model_space("tree-boundary", 2, 8, 0.5), n_heights=8)


def test_region_validation():
    with pytest.raises(ValueError):
        ApproachRegion(0, "nosuch")
    with pytest.raises(ValueError):
        ApproachRegion(0, "polynomial", exponent=0.0)
    with pytest.raises(ValueError):
        ApproachRegion(0, "nontangential", scale=0.0)


@pytest.mark.parametrize("kind", ["nontangential", "capacity", "polynomial",
                                  "exponential"])
def test_center_always_inside(tree6, kind):
    region = ApproachRegion(9, kind, scale=1.0, exponent=0.6)
    for y in (0.5, 0.25, 2.0**-6):
        assert region_membership(tree6, K8, 2.0, region, 9, y)


def test_membership_height_bounds(tree6):
    region = ApproachRegion(0, "nontangential", y_cutoff=0.5)
    with pytest.raises(ValueError):
        region_membership(tree6, K8, 2.0, region, 0, 0.75)
    with pytest.raises(ValueError):
        region_membership(tree6, K8, 2.0, region, 0, 0.0)


def test_polynomial_threshold_arithmetic(tree6):
    c, e = 1.0, 0.6
    region = ApproachRegion(0, "polynomial", scale=c, exponent=e)
    x = 32                       # distance 1.0 from leaf 0? no: lca 0 -> 1.0
    d = tree6.distance(0, x)
    assert d == pytest.approx(1.0)
    y_threshold = (d / c) ** (1.0 / e)
    assert not region_membership(tree6, K8, 2.0, region, x, 0.9999 * y_threshold)
    x = 2                        # distance 0.25
    d = tree6.distance(0, x)
    y_thr = (d / c) ** (1.0 / e)
    assert region_membership(tree6, K8, 2.0, region, x, min(1.01 * y_thr, 0.999))
    assert not region_membership(tree6, K8, 2.0, region, x, 0.99 * y_thr)


def test_region_monotone_in_height(tree6):
    for kind, kw in (("nontangential", {}), ("polynomial", dict(exponent=0.6)),
                     ("exponential", {}), ("capacity", {})):
        region = ApproachRegion(5, kind, **kw)
        heights = [2.0**-m for m in range(1, 7)]
        radii = [region_radius(tree6, K8, 2.0, region, y) for y in heights]
        assert radii == sorted(radii, reverse=True)


def test_nontangential_nested_in_capacity_region(tree6):
    # the matched radius dominates the input radius, so cones sit inside
    for x0 in (0, 21, 63):
        cone = ApproachRegion(x0, "nontangential")
        wide = ApproachRegion(x0, "capacity", scale=1.0)
        for y in (0.5, 0.125, 2.0**-5):
            for x in range(64):
                if region_membership(tree6, K8, 2.0, cone, x, y):
                    assert region_membership(tree6, K8, 2.0, wide, x, y)


def test_polynomial_region_strictly_wider_at_fine_heights(tree6):
    # contact wider than the cone: off-center points with d > y
    region = ApproachRegion(0, "polynomial", scale=1.0, exponent=0.6)
    y = 2.0**-5
    rad = region_radius(tree6, K8, 2.0, region, y)
    hits = [x for x in range(64)
            if y < tree6.distance(0, x) < rad]
    assert hits, "no point between cone and polynomial widths"


def test_capacity_vs_polynomial_width_band(tree6):
    # matched widths track the power-law width within a bounded band
    region = ApproachRegion(7, "capacity")
    heights = [2.0**-m for m in range(2, 7)]
    exponent = 2.0 * (0.8 - 0.5)
    ratios = [region_radius(tree6, K8, 2.0, region, y) / y**exponent
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


def test_thinness_monotone_on_grid(ext8, rng):
    space = ext8.space
    over = rng.random((space.n_leaves, ext8.heights.size)) < 0.02
    rep = thinness_decay(space, K8, 2.0, over, ext8.heights)
    # shadows grow with t, so capacities are non-decreasing along growing t
    ordered = rep.capacities[np.argsort(rep.t_values)]
    assert np.all(np.diff(ordered) >= -1e-12)
    for t1, t2 in [(rep.t_values[3], rep.t_values[1])]:
        m1 = shadow_mask(space, over, ext8.heights, t=float(t1))
        m2 = shadow_mask(space, over, ext8.heights, t=float(t2))
        assert np.all(m2[m1])


def test_enlarged_set_smallest_case(tree6):
    es = enlarged_set(tree6, K8, 2.0, [13], factor=1.0)
    assert es.mask[13]
    assert es.mask.sum() >= 1
    assert es.capacity > 0
    # distance to the complement of a single leaf is the sibling distance
    assert tree6.distances_from(13)[np.arange(64) != 13].min() == \
        pytest.approx(0.5**5)


def test_enlarged_set_contains_original(tree6, rng):
    for _ in range(5):
        members = np.unique(rng.integers(0, 64, 12))
        es = enlarged_set(tree6, K8, 2.0, members, factor=2.0)
        assert np.all(es.mask[members])
        assert es.ratio < math.inf


def test_enlarged_set_rejects_degenerate(tree6):
    with pytest.raises(ValueError):
        enlarged_set(tree6, K8, 2.0, [])
    with pytest.raises(ValueError):
        enlarged_set(tree6, K8, 2.0, np.arange(64))
    with pytest.raises(ValueError):
        enlarged_set(tree6, K8, 2.0, [3], factor=0.5)


def test_enlarged_set_ratio_stable_across_depth(rng):
    # the same union of coarse cylinders viewed at two truncation depths:
    # the mass-to-capacity constant stays of the same order (capacities
    # themselves converge slowly in depth, so only a factor-level check
    # is meaningful here)
    stats = {}
    for depth in (6, 8):
        ms = model_space("tree-boundary", 2, depth, 0.5)
        worst = 0.0
        for seed in range(5):
            picks = np.random.default_rng(seed).random(2**4) < 0.3
            if not picks.any() or picks.all():
                picks[0], picks[-1] = True, False
            mask = np.repeat(picks, 2 ** (depth - 4))
            es = enlarged_set(ms, K8, 2.0, np.flatnonzero(mask), factor=2.0)
            worst = max(worst, es.ratio)
        stats[depth] = worst
    assert 0 < stats[6] < math.inf and 0 < stats[8] < math.inf
    assert max(stats.values()) <= 2.0 * min(stats.values())


def test_shadow_covering_empty(tree6):
    heights = 2.0 ** -np.arange(7, dtype=float)
    empty = np.zeros((64, 7), dtype=bool)
    rep = shadow_covering_check(tree6, empty, heights,
                                lambda x, y: 2.0 * y, alpha=1.0)
    assert rep.hypothesis_ok and rep.inclusion_ok
    assert not rep.lhs.any() and not rep.rhs.any()


def test_shadow_covering_slab_with_matched_widths(tree6):
    heights = 2.0 ** -np.arange(7, dtype=float)
    over = np.zeros((64, 7), dtype=bool)
    over[24:28, 3] = True        # one slab at height 1/8

    def width(x, y):
        region = ApproachRegion(x, "capacity", scale=1.5)
        return region_radius(tree6, K8, 2.0, region, y)

    cols = np.array([[width(x, y) for y in heights] for x in range(64)])
    alpha_needed = (cols.max(axis=0) / cols.min(axis=0)).max()
    rep = shadow_covering_check(tree6, over, heights, width, alpha=alpha_needed)
    assert rep.hypothesis_ok
    assert rep.inclusion_ok


def test_shadow_covering_hypothesis_failure_reported(tree6):
    heights = 2.0 ** -np.arange(7, dtype=float)
    over = np.zeros((64, 7), dtype=bool)
    over[10, 2] = True
    # widths differ across centers by a factor 3: alpha=1 cannot certify
    rep = shadow_covering_check(tree6, over, heights,
                                lambda x, y: (3.0 if x < 32 else 1.0) * y,
                                alpha=1.0)
    assert not rep.hypothesis_ok
    assert rep.alpha_measured == pytest.approx(3.0)
    assert rep.inclusion_ok is None


def test_exceptional_bound_trivia(ext8, rng):
    f = rng.random(256)
    pot = kernel_operator(K8, ext8.space).apply_function(f)
    top = ext8.field(pot).values.max()
    cap, bound, ratio = exceptional_capacity_bound(ext8, K8, 2.0, f, top * 1.01)
    assert cap == 0.0 and ratio == 0.0
    c1 = exceptional_capacity_bound(ext8, K8, 2.0, f, 0.5)
    c2 = exceptional_capacity_bound(ext8, K8, 2.0, 2.0 * f, 1.0)
    assert c1[2] == pytest.approx(c2[2], rel=1e-9)


def test_split_continuous_profile(ext8):
    f = lipschitz_profile(ext8.space, "bump")
    split = approximation_split(ext8, K8, 2.0, f, 0.05)
    assert split.ok
    assert split.shadow_capacity < 0.05 and split.bad_capacity < 0.05
    assert all(r is not None for _, r in split.modulus)


def test_split_random_function(ext8, rng):
    f = rng.random(256)
    split = approximation_split(ext8, K8, 2.0, f, 0.05)
    assert split.ok
    assert split.shadow_capacity < 0.05 and split.bad_capacity < 0.05


def test_split_spike_resolves_at_leaf_level(ext8):
    # a one-leaf spike is exactly representable at the truncation scale, so
    # the stand-ins collapse onto f itself rather than faking smoothness
    f = np.zeros(256)
    f[100] = 60.0
    split = approximation_split(ext8, K8, 2.0, f, 0.2)
    assert split.ok
    assert split.shadow_capacity < 0.2 and split.bad_capacity < 0.2
    assert max(split.levels_used) == ext8.space.depth


def test_split_thinness_pipeline(ext8, rng):
    f = np.zeros(256)
    f[40] = 30.0
    f += rng.random(256)
    split = approximation_split(ext8, K8, 2.0, f, 0.1)
    rep = thinness_decay(ext8.space, K8, 2.0, split.exceedance, ext8.heights,
                         thin_tol=0.1)
    ordered = rep.capacities[np.argsort(rep.t_values)]
    assert np.all(np.diff(ordered) >= -1e-12)
    assert rep.capacities[-1] < 0.1


def test_split_tightening_target_reported(ext8, rng):
    f = rng.random(256)
    wide = approximation_split(ext8, K8, 2.0, f, 0.05)
    tight = approximation_split(ext8, K8, 2.0, f, 0.025)
    assert tight.ok
    assert tight.shadow_capacity < 0.025 and tight.bad_capacity < 0.025
    # reported, not asserted: the sets need not shrink monotonically
    assert wide.target > tight.target


def test_nontangential_constant_function(ext8):
    sample = [0, 100, 255]
    table = nontangential_experiment(ext8, K8, 2.0, np.full(256, 2.0), sample,
                                     tol=1e-9)
    assert table.fraction_converged == 1.0
    assert all(r.sup_error <= 1e-9 for r in table.rows)


def test_nontangential_profile_errors_shrink(ext8):
    f = lipschitz_profile(ext8.space, "hat")
    rng = np.random.default_rng(9)
    sample = np.sort(rng.choice(256, 24, replace=False))
    table = nontangential_experiment(ext8, K8, 2.0, f, sample, tol=0.02)
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
    assert table.shadow_capacity < 0.05


def test_tangential_constant_and_bad_mass(ext8, rng):
    sample = [3, 77]
    table = tangential_experiment(ext8, K8, 2.0, np.full(256, 1.0), sample,
                                  region_kind="polynomial", tol=1e-9)
    assert table.fraction_converged == 1.0
    f = rng.random(256) + np.where(np.arange(256) == 10, 40.0, 0.0)
    table = tangential_experiment(ext8, K8, 2.0, f, sample,
                                  region_kind="polynomial", tol=0.05,
                                  delta_target=0.2)
    masses = [m for _, m in table.bad_set_mass]
    assert masses == sorted(masses, reverse=True)


def test_tangential_exponential_degeneracy_reported(ext8):
    f = lipschitz_profile(ext8.space, "bump")
    sample = [0, 128]
    table = tangential_experiment(ext8, K8, 2.0, f, sample,
                                  region_kind="exponential", scale=0.004,
                                  tol=0.05)
    # a width this small never captures an off-center grid point
    assert set(table.degenerate) == set(sample)
