import math

import numpy as np
import pytest

from potlab.convergence import closeness_modulus
from potlab.kernel import RadialKernel, kernel_operator, lp_norm
from potlab.poisson import (PoissonExtension, dyadic_heights, exceedance_sets,
                            exchange_band, exchange_ratio, harnack_check,
                            harnack_constant, lipschitz_profile,
                            maximal_function)
from potlab.space import model_space

RIESZ = RadialKernel("riesz", s=0.75, p=2.0)


def naive_extension(space, q, f, x, y):
    """Direct double-loop evaluation of the normalized dyadic average."""
    num = den = 0.0
    for z in range(space.n_leaves):
        d = space.distance(x, z)
        acc, k = 0.0, 0
        while True:
            r = (2.0**k) * y
            if r > space.diameter:
                acc += 2.0 ** (-(q + 1) * k) / (1.0 - 2.0 ** (-(q + 1)))
                break
            if d < r:
                acc += 2.0 ** (-(q + 1) * k)
            k += 1
        num += acc * f[z] * space.weights[z]
        den += acc * space.weights[z]
    return num / den


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_extension_of_one_is_one(kind):
    ms = model_space(kind, 2, 6)
    ext = PoissonExtension(ms, n_heights=12)
    field = ext.field(np.ones(ms.n_leaves))
    assert np.abs(field.values - 1.0).max() <= 1e-12


def test_heights_validation(tree6):
    with pytest.raises(ValueError):
        PoissonExtension(tree6, heights=np.array([2.0]))
    with pytest.raises(ValueError):
        PoissonExtension(tree6, heights=np.array([0.0]))
    assert dyadic_heights(1.0, 4).tolist() == [1.0, 0.5, 0.25, 0.125, 0.0625]


def test_matches_naive_double_loop(tree6, cantor6, rng):
    for ms in (tree6, cantor6):
        ext = PoissonExtension(ms, n_heights=8)
        f = rng.random(ms.n_leaves)
        for x in (0, 13, 50):
            for y in (1.0, 0.25, 2.0**-8):
                direct = naive_extension(ms, ms.dimension, f, x, y)
                assert ext.integral(f, x, y) == pytest.approx(direct, rel=1e-12)


def test_ball_indicator_deep_inside(tree6, cantor6):
    # far below the ball scale the average barely sees the complement
    for ms in (tree6, cantor6):
        ext = PoissonExtension(ms, n_heights=6)
        lo, hi = ms.grid_ball_range(20, 2)
        f = np.zeros(ms.n_leaves)
        f[lo:hi] = 1.0
        value = ext.integral(f, (lo + hi) // 2, 2.0**-6)
        assert 0.9 <= value <= 1.0


def test_normalizer_homogeneous_on_uniform_tree(tree6):
    ext = PoissonExtension(tree6, n_heights=6)
    grid = ext.normalization_grid()
    per_height = grid.max(axis=0) / grid.min(axis=0)
    assert np.allclose(per_height, 1.0)


def test_normalizer_ratio_calibrated_and_stable():
    ratios = {}
    for depth in (6, 8):
        ms = model_space("cantor-set", 2, depth)
        ext = PoissonExtension(ms, n_heights=depth)
        grid = ext.normalization_grid()
        ratios[depth] = grid.max() / grid.min()
    assert abs(ratios[8] - ratios[6]) <= 0.1 * ratios[6]


def test_linearity_monotonicity_positivity(tree6, rng):
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64)
    g = f + rng.random(64)
    vf, vg = ext.field(f).values, ext.field(g).values
    assert np.all(vf <= vg + 1e-12)
    assert np.all(ext.field(f).values >= 0.0)
    combo = ext.field(2.0 * f + 0.5 * g).values
    assert np.allclose(combo, 2 * vf + 0.5 * ext.field(g).values)


def test_locality_outside_saturating_ball(tree6, rng):
    # values never depend on anything outside the first space-filling ball,
    # and each leaf's influence is exactly its kernel-profile weight
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64)
    x, h = 9, 4
    y = float(ext.heights[h])
    profile = ext.kernel_profile(x, h)
    direct = float(profile @ (f * tree6.weights))
    assert ext.integral(f, x, y) == pytest.approx(direct, rel=1e-12)
    assert np.all(profile > 0)


def test_maximal_function(tree6, rng):
    ext = PoissonExtension(tree6, n_heights=10)
    assert np.allclose(maximal_function(ext, np.ones(64)), 1.0)
    f = rng.random(64)
    big = maximal_function(ext, f)
    vals = ext.field(f).values
    assert np.all(big[:, None] >= vals - 1e-15)


def test_maximal_ratio_recorded_across_depths(rng):
    ratios = {}
    for depth in (6, 8):
        ms = model_space("tree-boundary", 2, depth, 0.5)
        ext = PoissonExtension(ms, n_heights=depth)
        worst = 0.0
        for _ in range(5):
            coarse = rng.random(2**5)
            f = np.repeat(coarse, 2 ** (depth - 5))
            worst = max(worst, lp_norm(maximal_function(ext, f), ms.weights, 2.0)
                        / lp_norm(f, ms.weights, 2.0))
        ratios[depth] = worst
    assert ratios[6] < math.inf and ratios[8] < math.inf
    assert abs(ratios[8] - ratios[6]) <= 0.25 * ratios[6]


def test_exceedance_trivia(tree6, rng):
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64) + 0.1
    pot = kernel_operator(RIESZ, tree6).apply_function(f)
    top = ext.field(pot).values.max()
    empty = exceedance_sets(ext, RIESZ, f, top * 1.01)
    assert not empty.over.any() and not empty.star.any() and not empty.slab.any()
    tiny = exceedance_sets(ext, RIESZ, f, 1e-12)
    assert tiny.star.all()


def test_exceedance_star_two_ways(tree6):
    ext = PoissonExtension(tree6, n_heights=6)
    f = np.zeros(64)
    f[17] = 5.0
    sets = exceedance_sets(ext, RIESZ, f, 0.35)
    # naive scan: a leaf is shadowed iff it sits inside some flagged ball
    expected = np.zeros(64, dtype=bool)
    for h, y in enumerate(ext.heights):
        for x in np.flatnonzero(sets.over[:, h]):
            for z in range(64):
                if tree6.distance(int(x), z) < y:
                    expected[z] = True
    assert np.array_equal(sets.star, expected)


def test_exceedance_monotone_in_eps(tree6, rng):
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64)
    s1 = exceedance_sets(ext, RIESZ, f, 0.4)
    s2 = exceedance_sets(ext, RIESZ, f, 0.8)
    assert np.all(s1.star[s2.star])     # larger eps gives a smaller shadow


def test_harnack_constant_is_one_on_ultrametric(tree6):
    # balls of equal radius coincide when they overlap, so the extension
    # kernel is literally the same at both points
    assert harnack_constant(tree6, n_heights=6) == pytest.approx(1.0)


def test_harnack_vacuous_and_constant_input(cantor6):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    lowest, c_h, ok = harnack_check(ext, k, np.zeros(64) + 1e-9, 1e6)
    assert ok and math.isinf(lowest)
    f = np.ones(64)
    pot = kernel_operator(k, cantor6).apply_function(f)
    eps = float(ext.field(pot).values.min()) * 0.99
    lowest, c_h, ok = harnack_check(ext, k, f, eps)
    assert ok


def test_harnack_random_batch(cantor6, rng):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    c_h = harnack_constant(cantor6, n_heights=6)
    op = kernel_operator(k, cantor6)
    for _ in range(10):
        f = rng.random(64)
        eps = float(np.quantile(ext.field(op.apply_function(f)).values, 0.7))
        lowest, _, ok = harnack_check(ext, k, f, eps, c_h=c_h)
        assert ok, (lowest, c_h * eps)


def test_exchange_scale_invariance(cantor6, rng):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    f = rng.random(64)
    r1 = exchange_ratio(ext, k, f)
    r2 = exchange_ratio(ext, k, 7.0 * f)
    assert r1 == pytest.approx(r2)


def test_exchange_commutes_exactly_on_uniform_tree(tree6, rng):
    # both operators are functions of the shared-prefix structure, hence
    # simultaneously diagonalizable: the ratio collapses to 1
    ext = PoissonExtension(tree6, n_heights=6)
    lo, hi = exchange_ratio(ext, RIESZ, rng.random(64))
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_exchange_constant_input_closed_form(cantor6):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    op = kernel_operator(k, cantor6)
    c = 2.5
    f = np.full(64, c)
    lo, hi = exchange_ratio(ext, k, f)
    kernel_mass = op.apply_function(np.ones(64))
    direct = np.column_stack([
        op.apply_function(np.full(64, c)) / ext.field(c * kernel_mass).values[:, h]
        for h in range(ext.heights.size)])
    assert lo == pytest.approx(float(direct.min()), rel=1e-10)
    assert hi == pytest.approx(float(direct.max()), rel=1e-10)


def test_exchange_band_contains_random_inputs(cantor6, rng):
    k = RadialKernel("riesz", s=0.8, p=2.0)
    band = exchange_band(cantor6, k, n_heights=6)
    ext = PoissonExtension(cantor6, n_heights=6)
    for _ in range(5):
        lo, hi = exchange_ratio(ext, k, rng.random(64))
        assert band[0] - 1e-9 <= lo and hi <= band[1] + 1e-9


def test_exchange_band_keyed_on_kernel():
    # two radial tables at the calibration depth must not share one band
    k1 = RadialKernel("radial", level_values=tuple(float(v) for v in range(1, 8)))
    k2 = RadialKernel("radial", level_values=tuple(float(v) for v in range(7, 0, -1)))
    shared = model_space("tree-boundary", 2, 6, 0.5)
    band1 = exchange_band(shared, k1, n_heights=6)
    band2 = exchange_band(shared, k2, n_heights=6)
    assert band1 != band2
    assert band2 == exchange_band(model_space("tree-boundary", 2, 6, 0.5), k2, n_heights=6)


def continuity_modulus(ext, g, eps_grid):
    # the closeness scan with nothing excluded
    n, nh = ext.space.n_leaves, ext.heights.size
    return closeness_modulus(ext, g, np.zeros((n, nh), dtype=bool),
                             np.zeros(n, dtype=bool), eps_grid)


def test_uniform_continuity_constant(tree6):
    ext = PoissonExtension(tree6, n_heights=6)
    rows = continuity_modulus(ext, np.full(64, 0.3), [0.1, 0.01])
    for _, delta in rows:
        assert delta == pytest.approx(float(ext.heights[0]))


def test_uniform_continuity_identity_profile(interval6):
    ext = PoissonExtension(interval6, n_heights=6)
    g = lipschitz_profile(interval6, "coordinate")
    rows = continuity_modulus(ext, g, [0.1])
    eps, delta = rows[0]
    assert delta is not None and delta > interval6.delta**interval6.depth


def test_uniform_continuity_monotone_in_eps_and_lipschitz(tree6):
    ext = PoissonExtension(tree6, n_heights=6)
    g = lipschitz_profile(tree6, "hat")
    rows = continuity_modulus(ext, g, [0.4, 0.2, 0.1])
    deltas = [d for _, d in rows]
    assert all(d is not None for d in deltas)
    assert deltas == sorted(deltas, reverse=True)
    gentler = continuity_modulus(ext, 0.5 * g, [0.4, 0.2, 0.1])
    for (_, d1), (_, d2) in zip(rows, gentler):
        assert d2 >= d1


def test_profile_names(tree6):
    for name in ("coordinate", "hat", "bump"):
        g = lipschitz_profile(tree6, name)
        assert g.shape == (64,)
        assert g.min() >= 0.0
    with pytest.raises(ValueError):
        lipschitz_profile(tree6, "nosuch")
