import math
import warnings

import numpy as np
import pytest

from potlab import quasiadd as quasiadd_module
from potlab.capacity import singleton_capacity, solve_capacity
from potlab.kernel import RadialKernel, kernel_operator
from potlab.quasiadd import (family_batch, family_target_sets, generate_separated_family,
                             quasi_additivity_report, tree_quasi_additivity_bound,
                             verify_separation, SeparatedFamily)
from potlab.space import model_space

RIESZ = RadialKernel("riesz", s=0.75, p=2.0)


def test_bound_formula_values():
    assert tree_quasi_additivity_bound(1.0, 2.0) == pytest.approx(5.0)
    # p' = 2 keeps the same shape for any p
    norms = np.linspace(0.5, 4.0, 8)
    vals = [tree_quasi_additivity_bound(v, 2.0) for v in norms]
    assert vals == sorted(vals)
    assert vals[0] == pytest.approx((2 + 1) * 0.5**2 + 2)


def test_single_ball_ratio_is_one(tree8):
    fam = generate_separated_family(tree8, RIESZ, 2.0, 1, seed=3)
    assert len(fam) == 1
    rep = quasi_additivity_report(tree8, RIESZ, 2.0, fam,
                                  family_target_sets(tree8, fam, "ball"))
    assert rep.ratio == pytest.approx(1.0)
    assert rep.passed


def test_generated_families_verify(tree8):
    for seed in range(30):
        fam = generate_separated_family(tree8, RIESZ, 2.0, 6, seed)
        cert = verify_separation(tree8, fam)
        assert cert.ok, cert.violations


def test_overlapping_family_detected(tree8):
    fam = SeparatedFamily("tree", [10, 10], [3, 3], [(8, 16), (8, 16)])
    cert = verify_separation(tree8, fam)
    assert not cert.ok
    assert (0, 1) in cert.violations
    with pytest.raises(ValueError):
        quasi_additivity_report(tree8, RIESZ, 2.0, fam,
                                family_target_sets(tree8, fam, "ball"))
    # half-open: adjacent ranges share no leaf, a partial overlap does
    adjacent = SeparatedFamily("tree", [10, 18], [3, 3], [(8, 16), (16, 24)])
    assert verify_separation(tree8, adjacent).ok
    partial = SeparatedFamily("tree", [10, 14, 30], [3, 3, 3], [(8, 16), (12, 20), (24, 32)])
    cert = verify_separation(tree8, partial)
    assert not cert.ok and cert.violations == [(0, 1)]


def test_exhaustion_warns(tree6):
    with pytest.warns(UserWarning, match="exhausted"):
        fam = generate_separated_family(tree6, RIESZ, 2.0, tree6.n_leaves, seed=0)
    assert len(fam) < tree6.n_leaves


def test_tree_experiment_shapes(tree8):
    bound = tree_quasi_additivity_bound(kernel_operator(RIESZ, tree8).norm_1(), 2.0)
    for seed in range(6):
        fam = generate_separated_family(tree8, RIESZ, 2.0, 4, seed)
        for shape in ("ball", "singleton", "half"):
            sets = family_target_sets(tree8, fam, shape, seed)
            rep = quasi_additivity_report(tree8, RIESZ, 2.0, fam, sets)
            assert rep.passed
            assert 1.0 - 1e-9 <= rep.ratio <= bound * (1 + 1e-6)
            if shape == "singleton":
                # closed-form capacities confirm the summed side
                closed = sum(singleton_capacity(tree8, RIESZ, c, 2.0)
                             for c in fam.centers)
                assert rep.sum_capacity == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("p,s", [(1.5, 0.5), (1.5, 0.9), (3.0, 0.7)])
def test_tree_bound_across_exponents(tree8, p, s):
    kernel = RadialKernel("riesz", s=s, p=p)
    bound = tree_quasi_additivity_bound(kernel_operator(kernel, tree8).norm_1(), p)
    for seed in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # short families are still valid
            fam = generate_separated_family(tree8, kernel, p, 4, seed)
        rep = quasi_additivity_report(tree8, kernel, p, fam,
                                      family_target_sets(tree8, fam, "half", seed))
        assert rep.passed
        assert 1.0 - 1e-9 <= rep.ratio <= bound * (1 + 1e-6)


def test_target_outside_ball_rejected(tree8):
    fam = generate_separated_family(tree8, RIESZ, 2.0, 2, seed=1)
    sets = family_target_sets(tree8, fam, "ball")
    sets[0] = np.array([(sets[0][0] + 128) % 256])
    with pytest.raises(ValueError):
        quasi_additivity_report(tree8, RIESZ, 2.0, fam, sets)


def test_subadditivity_lower_bound_any_family(tree6, rng):
    # the lower inequality needs no separation at all
    for _ in range(5):
        parts = [np.unique(rng.integers(0, 64, rng.integers(2, 20)))
                 for _ in range(3)]
        caps = [solve_capacity(tree6, RIESZ, e).value for e in parts]
        union = solve_capacity(tree6, RIESZ, np.unique(np.concatenate(parts))).value
        assert sum(caps) >= union * (1.0 - 1e-9)


def test_scaling_leaves_verdict_unchanged(tree8):
    base = tuple(float(v) for v in RIESZ.level_table(tree8))
    k1 = RadialKernel("radial", p=2.0, level_values=base)
    k3 = RadialKernel("radial", p=2.0, level_values=tuple(3.0 * v for v in base))
    fam = generate_separated_family(tree8, k1, 2.0, 4, seed=11)
    sets = family_target_sets(tree8, fam, "ball")
    r1 = quasi_additivity_report(tree8, k1, 2.0, fam, sets)
    r3 = quasi_additivity_report(tree8, k3, 2.0, fam, sets)
    assert r1.ratio == pytest.approx(r3.ratio, rel=1e-8)
    assert r3.bound == pytest.approx(
        tree_quasi_additivity_bound(3.0 * kernel_operator(k1, tree8).norm_1(), 2.0))
    assert r1.passed == r3.passed


def test_family_generation_deterministic(tree8):
    f1 = generate_separated_family(tree8, RIESZ, 2.0, 5, seed=42)
    f2 = generate_separated_family(tree8, RIESZ, 2.0, 5, seed=42)
    assert f1.centers == f2.centers and f1.levels == f2.levels


def test_tree_and_ahlfors_families_agree_on_trees(tree8):
    # the ultrametric is itself Ahlfors-regular, so the two modes draw one
    # family; each enlargement is the subtree at the coarser of the ball's
    # level and the finest level whose subtree mass reaches its capacity
    for seed in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # short families are still valid
            tree, ahlfors = (generate_separated_family(tree8, RIESZ, 2.0, 4, seed, mode=mode)
                             for mode in ("tree", "ahlfors"))
        assert tree.enlarged_ranges == ahlfors.enlarged_ranges
        assert (tree.centers, tree.levels) == (ahlfors.centers, ahlfors.levels)
        for x, level, enlarged in zip(tree.centers, tree.levels, tree.enlarged_ranges):
            cap = solve_capacity(tree8, RIESZ, np.arange(*tree8.subtree_range(x, level))).value
            m = max(m for m in range(tree8.depth + 1)
                    if tree8.range_mass(*tree8.subtree_range(x, m)) >= cap)
            assert enlarged == tree8.subtree_range(x, min(level, m))


def test_ahlfors_single_ball(cantor6):
    k = RadialKernel("riesz", s=0.8, p=2.0)
    fam = generate_separated_family(cantor6, k, 2.0, 1, seed=5, mode="ahlfors")
    rep = quasi_additivity_report(cantor6, k, 2.0, fam,
                                  family_target_sets(cantor6, fam, "ball"))
    assert rep.ratio == pytest.approx(1.0)
    assert math.isnan(rep.bound)


def test_ahlfors_batch_is_subadditive(cantor6):
    k = RadialKernel("riesz", s=0.8, p=2.0)
    rows = family_batch(cantor6, k, 2.0, range(12), 4, "ahlfors", ("ball", "half"))
    assert [(seed, shape) for seed, shape, _ in rows] == [
        (seed, shape) for seed in range(12) for shape in ("ball", "half")]
    for _, _, rep in rows:
        assert math.isnan(rep.bound)
        assert rep.passed and rep.ratio >= 1.0 - 1e-9


def reference_family(space, kernel, p, count, seed):
    """The ahlfors sampler that solves every candidate's matching radius and
    only then rejects overlaps (reference), with each candidate's (x, level)
    and whether its grid ball met an enlargement kept before it."""
    lo_lvl = min(2, space.depth)
    hi_lvl = max(space.depth - 2, lo_lvl)
    rng = np.random.default_rng(seed)
    fam = SeparatedFamily("ahlfors", [], [], [])
    drawn = []
    for _ in range(80 * count):
        if len(fam) >= count:
            break
        x = int(rng.integers(space.n_leaves))
        level = int(rng.integers(lo_lvl, hi_lvl + 1))
        glo, ghi = space.grid_ball_range(x, level)
        drawn.append(((x, level), any(glo < h and l < ghi for l, h in fam.enlarged_ranges)))
        er = quasiadd_module.metric_matching_radius(space, kernel, p, x,
                                                    space.grid_radius(level), closed=True)
        if not er.exists:
            continue
        blo, bhi = space.ball_bounds(np.array([x]), er.star, closed=True)
        lo, hi = min(int(blo[0]), glo), max(int(bhi[0]), ghi)
        if any(lo < h and l < hi for l, h in fam.enlarged_ranges):
            continue
        fam.centers.append(x)
        fam.levels.append(level)
        fam.enlarged_ranges.append((lo, hi))
    return fam, drawn


def test_grid_ball_overlap_skips_the_matching_solve(monkeypatch):
    # the enlargement holds the grid ball, so a candidate whose grid ball meets
    # a kept enlargement is rejected unsolved, and the family is unchanged
    solve = quasiadd_module.metric_matching_radius
    solved = []

    def counting(space, kernel, p, x, r, closed=False):
        solved.append((x, r))
        return solve(space, kernel, p, x, r, closed=closed)

    met = 0
    for seed in range(4):
        ref, drawn = reference_family(model_space("unit-interval", 2, 8), RIESZ, 2.0, 4, seed)
        space = model_space("unit-interval", 2, 8)
        solved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(quasiadd_module, "metric_matching_radius", counting)
            fam = generate_separated_family(space, RIESZ, 2.0, 4, seed, mode="ahlfors")
        assert (fam.centers, fam.levels, fam.enlarged_ranges) == (
            ref.centers, ref.levels, ref.enlarged_ranges)
        assert solved == [(x, space.grid_radius(level))
                          for (x, level), meets in drawn if not meets]
        met += sum(meets for _, meets in drawn)
    assert met > 0
