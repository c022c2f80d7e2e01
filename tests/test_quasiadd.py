import warnings

import numpy as np
import pytest

from potlab.capacity import singleton_capacity, solve_capacity
from potlab.kernel import RadialKernel, kernel_operator
from potlab.quasiadd import (ahlfors_ratio_batch, estimate_inflation,
                             family_target_sets, generate_separated_family,
                             quasi_additivity_ahlfors, quasi_additivity_tree,
                             tree_quasi_additivity_bound, verify_separation,
                             SeparatedFamily)

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
    rep = quasi_additivity_tree(tree8, RIESZ, 2.0, fam,
                                family_target_sets(tree8, fam, "ball"))
    assert rep.ratio == pytest.approx(1.0)
    assert rep.passed


def test_generated_families_verify(tree8):
    for seed in range(30):
        fam = generate_separated_family(tree8, RIESZ, 2.0, 6, seed)
        cert = verify_separation(tree8, fam)
        assert cert.ok, cert.violations


def test_overlapping_family_detected(tree8):
    fam = SeparatedFamily("tree", [10, 10], [3, 3], [0.125, 0.125],
                          [0.25, 0.25], [(8, 16), (8, 16)])
    cert = verify_separation(tree8, fam)
    assert not cert.ok
    assert (0, 1) in cert.violations
    with pytest.raises(ValueError):
        quasi_additivity_tree(tree8, RIESZ, 2.0, fam,
                              family_target_sets(tree8, fam, "ball"))


def test_exhaustion_warns(tree6):
    with pytest.warns(UserWarning, match="exhausted"):
        fam = generate_separated_family(tree6, RIESZ, 2.0, tree6.n_leaves, seed=0,
                                        level_range=(1, 2))
    assert len(fam) < tree6.n_leaves


def test_tree_experiment_shapes(tree8):
    bound = tree_quasi_additivity_bound(kernel_operator(RIESZ, tree8).norm_1(), 2.0)
    for seed in range(6):
        fam = generate_separated_family(tree8, RIESZ, 2.0, 4, seed)
        for shape in ("ball", "singleton", "half"):
            sets = family_target_sets(tree8, fam, shape, seed)
            rep = quasi_additivity_tree(tree8, RIESZ, 2.0, fam, sets)
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
        rep = quasi_additivity_tree(tree8, kernel, p, fam,
                                    family_target_sets(tree8, fam, "half", seed))
        assert rep.passed
        assert 1.0 - 1e-9 <= rep.ratio <= bound * (1 + 1e-6)


def test_target_outside_ball_rejected(tree8):
    fam = generate_separated_family(tree8, RIESZ, 2.0, 2, seed=1)
    sets = family_target_sets(tree8, fam, "ball")
    sets[0] = np.array([(sets[0][0] + 128) % 256])
    with pytest.raises(ValueError):
        quasi_additivity_tree(tree8, RIESZ, 2.0, fam, sets)


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
    k3 = k1.scaled(3.0)
    fam = generate_separated_family(tree8, k1, 2.0, 4, seed=11)
    sets = family_target_sets(tree8, fam, "ball")
    r1 = quasi_additivity_tree(tree8, k1, 2.0, fam, sets)
    r3 = quasi_additivity_tree(tree8, k3, 2.0, fam, sets)
    assert r1.ratio == pytest.approx(r3.ratio, rel=1e-8)
    assert r3.bound == pytest.approx(
        tree_quasi_additivity_bound(3.0 * kernel_operator(k1, tree8).norm_1(), 2.0))
    assert r1.passed == r3.passed


def test_family_generation_deterministic(tree8):
    f1 = generate_separated_family(tree8, RIESZ, 2.0, 5, seed=42)
    f2 = generate_separated_family(tree8, RIESZ, 2.0, 5, seed=42)
    assert f1.centers == f2.centers and f1.levels == f2.levels


def test_ahlfors_single_ball(cantor6):
    k = RadialKernel("riesz", s=0.8, p=2.0)
    fam = generate_separated_family(cantor6, k, 2.0, 1, seed=5, mode="ahlfors",
                                    inflation=1.5)
    rep = quasi_additivity_ahlfors(cantor6, k, 2.0, fam,
                                   family_target_sets(cantor6, fam, "ball"))
    assert rep.ratio == pytest.approx(1.0)
    assert rep.bound is None


def test_ahlfors_batch_and_inflation_monotonicity(cantor6):
    seeds = range(12)
    lo = ahlfors_ratio_batch(cantor6, 0.8, 2.0, seeds, inflation=1.0)
    hi = ahlfors_ratio_batch(cantor6, 0.8, 2.0, seeds, inflation=3.0)
    assert lo and hi
    assert max(hi) <= max(lo) * (1.0 + 1e-9)


def test_estimate_inflation_contracts(cantor6, tree6):
    # tree-boundary geometry is already separated at inflation 1
    est = estimate_inflation(tree6, 0.75, 2.0, seeds=range(10), count=3)
    assert est == 1.0
    with pytest.raises(ValueError):
        estimate_inflation(cantor6, 0.8, 2.0, seeds=range(5))
    with pytest.warns(UserWarning, match="exhausted"):
        est = estimate_inflation(cantor6, 0.8, 2.0, seeds=range(10), count=2,
                                 stability=-1.0)
    assert est == 8.0


def test_estimate_inflation_reproducible(cantor6):
    a = estimate_inflation(cantor6, 0.8, 2.0, seeds=range(10), count=2)
    b = estimate_inflation(cantor6, 0.8, 2.0, seeds=range(10), count=2)
    assert a == b
