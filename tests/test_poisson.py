import gc
import math
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest

from potlab import cli
from potlab.kernel import RadialKernel, kernel_operator, lp_norm
from potlab.poisson import (CALIBRATION_DEPTH, PoissonExtension, _exchange_extremes,
                            _harnack_worst, ball_slab, dyadic_heights, exchange_band,
                            exchange_ratio, harnack_check, harnack_constant, lipschitz_profile,
                            poisson_extension)
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
    assert np.abs(field - 1.0).max() <= 1e-12


def test_heights_validation():
    assert dyadic_heights(1.0, 4).tolist() == [1.0, 0.5, 0.25, 0.125, 0.0625]


def test_matches_naive_double_loop(tree6, cantor6, rng):
    for ms in (tree6, cantor6):
        ext = PoissonExtension(ms, n_heights=8)
        f = rng.random(ms.n_leaves)
        values = ext.field(f)
        for x in (0, 13, 50):
            for h in (0, 2, 8):   # y = 1, 1/4, 2**-8
                direct = naive_extension(ms, ms.dimension, f, x, float(ext.heights[h]))
                assert values[x, h] == pytest.approx(direct, rel=1e-12)


def per_center_profile(space, ext, x, h):
    """The per-center ring loop that ``kernel_matrices`` replaces (reference):
    rings stop at the center's own first whole-space ball."""
    decay = 2.0 ** (-(space.dimension + 1.0))
    out = np.zeros(space.n_leaves)
    coef, r = 1.0, float(ext.heights[h])
    while True:
        lo, hi = space.ball_bounds(np.array([x]), r)
        if lo[0] == 0 and hi[0] == space.n_leaves:
            out += coef / (1.0 - decay)
            return out / ext._mass[x, h]
        out[lo[0]:hi[0]] += coef
        coef *= decay
        r *= 2.0


def exact_extension(space, n_heights, f):
    """Field values and normalization grid of f, and a map (h, x) -> kernel
    profile row, in exact rational arithmetic with the float decay and the
    float heights ** Q taken exactly (oracle).  Each height sums its own
    rings, those of ``per_height_rings``; a leaf that enters the balls
    around x at ring m has the weight decay**m / (1 - decay), the geometric
    sum of the rings that hold it."""
    n = space.n_leaves
    decay = Fraction(2.0 ** (-(space.dimension + 1.0)))
    heights = dyadic_heights(space.diameter, n_heights)
    rings = [[(lo, hi) for _, lo, hi in per_height_rings(space, float(y))] for y in heights]

    def collect(g):
        prefix = np.array([Fraction(0)] + [Fraction(v) * Fraction(w)
                                           for v, w in zip(g, space.weights)]).cumsum()
        cols = []
        for height in rings:
            (lo, hi), *inner = height[::-1]
            col = (prefix[hi] - prefix[lo]) / (1 - decay)
            for lo, hi in inner:
                col = (prefix[hi] - prefix[lo]) + decay * col
            cols.append(col)
        return np.column_stack(cols)

    mass = collect(np.ones(n))
    grid = np.array([Fraction(float(v)) for v in heights ** space.dimension])[None, :] / mass

    def profile(h, x):
        enter = np.full(n, len(rings[h]) - 1)
        for m in range(len(rings[h]) - 2, -1, -1):
            lo, hi = rings[h][m]
            enter[lo[x]:hi[x]] = m
        weights = [decay**m / ((1 - decay) * mass[x, h]) for m in range(len(rings[h]))]
        return np.array(weights)[enter]

    return collect(np.asarray(f, dtype=float)) / mass, grid, profile


def rel_error(values, exact) -> float:
    """Worst relative error of float ``values`` against positive ``exact``
    Fractions, itself rounded once."""
    worst = 0.0
    for v, e in zip(np.ravel(values).tolist(), np.ravel(exact)):
        a, b = v.as_integer_ratio()
        worst = max(worst, abs(a * e.denominator - e.numerator * b) / (e.numerator * b))
    return worst


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_kernel_matrix_matches_field_and_per_center_loop(kind, rng):
    ms = model_space(kind, 2, 6)
    ext = PoissonExtension(ms)
    f = rng.random(ms.n_leaves)
    values = ext.field(f)
    profile = exact_extension(ms, 20, f)[2]
    rows, reference, exact = [], [], []
    for h, ((lo, hi), kmat) in enumerate(ext.kernel_matrices()):
        balls = ms.ball_bounds(np.arange(ms.n_leaves), float(ext.heights[h]), closed=False)
        assert np.array_equal(lo, balls[0]) and np.array_equal(hi, balls[1])
        assert np.allclose(kmat @ (f * ms.weights), values[:, h], rtol=1e-12, atol=0.0)
        for x in (0, 21, 63):
            rows.append(kmat[x])
            reference.append(per_center_profile(ms, ext, x, h))
            exact.append(profile(h, x))
    assert rel_error(np.array(rows), exact) <= rel_error(np.array(reference), exact) + 2.2e-16


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_built_extension_searches_no_balls(kind, monkeypatch, rng):
    ms = model_space(kind, 2, 6)
    ext = PoissonExtension(ms)
    calls = []
    search = ms.ball_bounds
    monkeypatch.setattr(ms, "ball_bounds",
                        lambda *args, **kwargs: calls.append(1) or search(*args, **kwargs))
    ext.field(rng.random(ms.n_leaves))
    ext.normalization_grid()
    list(ext.kernel_matrices())
    assert calls == []


def per_height_rings(space, y):
    """Each height's own ring search, which the shared radii replace
    (reference): (coef, lo, hi) of B(x, 2**k y) around every leaf x, up to
    the first ring whose balls are all the whole space, whose coef carries
    the geometric tail."""
    n = space.n_leaves
    decay = 2.0 ** (-(space.dimension + 1.0))
    rings, coef, r = [], 1.0, y
    while True:
        lo, hi = space.ball_bounds(np.arange(n), r)
        if np.all(lo == 0) and np.all(hi == n):
            return rings + [(coef / (1.0 - decay), lo, hi)]
        rings.append((coef, lo, hi))
        coef *= decay
        r *= 2.0


def per_height_reference(space, ext, f):
    """Field values, normalization grid and kernel matrices of ``ext`` from
    the per-height collector (reference)."""
    n = space.n_leaves
    decay = 2.0 ** (-(space.dimension + 1.0))
    rings = [per_height_rings(space, float(y)) for y in ext.heights]

    def collect(g):
        prefix = np.concatenate(([0.0], np.cumsum(g * space.weights)))
        cols = []
        for height in rings:
            out = np.zeros(n)
            for coef, lo, hi in height:
                out += coef * (prefix[hi] - prefix[lo])
            cols.append(out)
        return np.column_stack(cols)

    mass = collect(np.ones(n))
    kmats = []
    for h, height in enumerate(rings):
        out = np.zeros((n, n))
        live = np.ones(n, dtype=bool)
        for coef, lo, hi in height[:-1]:
            whole = (lo == 0) & (hi == n)
            c = np.where(live, np.where(whole, coef / (1.0 - decay), coef), 0.0)
            out += c[:, None] * ((np.arange(n) >= lo[:, None]) & (np.arange(n) < hi[:, None]))
            live &= ~whole
        out += np.where(live, height[-1][0], 0.0)[:, None]
        kmats.append(out / mass[:, h][:, None])
    return collect(f) / mass, ext.heights[None, :] ** space.dimension / mass, kmats


@pytest.mark.parametrize("n_heights", [3, 6, 20])
@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_extension_searches_each_radius_once(kind, n_heights, monkeypatch, rng):
    ms = model_space(kind, 2, 6)
    calls = []
    search = ms.ball_bounds
    monkeypatch.setattr(ms, "ball_bounds",
                        lambda *args, **kwargs: calls.append(1) or search(*args, **kwargs))
    ext = PoissonExtension(ms, n_heights=n_heights)
    assert len(calls) <= n_heights + 3
    monkeypatch.undo()
    # the recurrence sums in another order than the per-height collector, so
    # both are held to an exact oracle: no worse than the reference there
    f = rng.random(ms.n_leaves)
    values, grid, kmats = per_height_reference(ms, ext, f)
    exact_values, exact_grid, profile = exact_extension(ms, n_heights, f)
    assert rel_error(ext.field(f), exact_values) <= rel_error(values, exact_values) + 2.2e-16
    assert rel_error(ext.normalization_grid(), exact_grid) <= rel_error(grid, exact_grid) + 2.2e-16
    exact_kmats = [np.array([profile(h, x) for x in range(ms.n_leaves)])
                   for h in range(ext.heights.size)]
    assert rel_error(np.array([k for _, k in ext.kernel_matrices()]), exact_kmats) \
        <= rel_error(np.array(kmats), exact_kmats) + 2.2e-16


def test_ball_indicator_deep_inside(tree6, cantor6):
    # far below the ball scale the average barely sees the complement
    for ms in (tree6, cantor6):
        ext = PoissonExtension(ms, n_heights=6)
        lo, hi = ms.grid_ball_range(20, 2)
        f = np.zeros(ms.n_leaves)
        f[lo:hi] = 1.0
        value = ext.field(f)[(lo + hi) // 2, 6]   # y = 2**-6
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
    vf, vg = ext.field(f), ext.field(g)
    assert np.all(vf <= vg + 1e-12)
    assert np.all(ext.field(f) >= 0.0)
    combo = ext.field(2.0 * f + 0.5 * g)
    assert np.allclose(combo, 2 * vf + 0.5 * ext.field(g))


def test_locality_outside_saturating_ball(tree6, rng):
    # values never depend on anything outside the first space-filling ball,
    # and each leaf's influence is exactly its kernel-profile weight
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64)
    x, h = 9, 4
    profile = list(ext.kernel_matrices())[h][1][x]
    direct = float(profile @ (f * tree6.weights))
    assert ext.field(f)[x, h] == pytest.approx(direct, rel=1e-12)
    assert np.all(profile > 0)


def test_maximal_ratio_recorded_across_depths(rng):
    ratios = {}
    for depth in (6, 8):
        ms = model_space("tree-boundary", 2, depth, 0.5)
        ext = PoissonExtension(ms, n_heights=depth)
        worst = 0.0
        for _ in range(5):
            coarse = rng.random(2**5)
            f = np.repeat(coarse, 2 ** (depth - 5))
            maximal = ext.field(f).max(axis=1)   # sup over the height grid
            worst = max(worst, lp_norm(maximal, ms.weights, 2.0)
                        / lp_norm(f, ms.weights, 2.0))
        ratios[depth] = worst
    assert ratios[6] < math.inf and ratios[8] < math.inf
    assert abs(ratios[8] - ratios[6]) <= 0.25 * ratios[6]


def exceedance(space, ext, f, eps):
    """Grid cells where the extended potential of f exceeds eps, and the
    per-height slab of the balls B(x, y) around them."""
    over = ext.field(kernel_operator(RIESZ, space).apply_function(f)) > eps
    return over, ball_slab(space, over, ext.heights)


def test_exceedance_trivia(tree6, rng):
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64) + 0.1
    pot = kernel_operator(RIESZ, tree6).apply_function(f)
    top = ext.field(pot).max()
    over, slab = exceedance(tree6, ext, f, top * 1.01)
    assert not over.any() and not slab.any()
    _, slab = exceedance(tree6, ext, f, 1e-12)
    assert slab.any(axis=1).all()


def test_exceedance_star_two_ways(tree6):
    ext = PoissonExtension(tree6, n_heights=6)
    f = np.zeros(64)
    f[17] = 5.0
    over, slab = exceedance(tree6, ext, f, 0.35)
    # naive scan: a leaf is shadowed iff it sits inside some flagged ball
    expected = np.zeros(64, dtype=bool)
    for h, y in enumerate(ext.heights):
        for x in np.flatnonzero(over[:, h]):
            for z in range(64):
                if tree6.distance(int(x), z) < y:
                    expected[z] = True
    assert np.array_equal(slab.any(axis=1), expected)


@pytest.mark.parametrize("kind", ["tree-boundary", "cantor-set"])
def test_ball_slab_matches_naive_scan(kind, rng):
    # column h is the union of the open balls B(x, radii[h]) over its cells
    space = model_space(kind, 2, 6)
    radii = [0.5, 0.3, 0.1, 0.02, 0.0]
    cells = rng.random((64, len(radii))) < 0.05
    cells[:, -1] = True
    expected = np.zeros_like(cells)
    for h, r in enumerate(radii):
        for x in np.flatnonzero(cells[:, h]):
            expected[:, h] |= space.distances_from(int(x)) < r
    assert np.array_equal(ball_slab(space, cells, radii), expected)


def test_exceedance_monotone_in_eps(tree6, rng):
    ext = PoissonExtension(tree6, n_heights=6)
    f = rng.random(64)
    star1 = exceedance(tree6, ext, f, 0.4)[1].any(axis=1)
    star2 = exceedance(tree6, ext, f, 0.8)[1].any(axis=1)
    assert np.all(star1[star2])     # larger eps gives a smaller shadow


def test_harnack_constant_is_one_on_ultrametric(tree6):
    # balls of equal radius coincide when they overlap, so the extension
    # kernel is literally the same at both points
    assert harnack_constant(tree6, n_heights=6) == pytest.approx(1.0)


def per_center_harnack(space, n_heights, vanishing="divide"):
    """The worst Harnack ratio from one ball search and one ratio block per
    center and height (reference).  ``vanishing="leave_out"`` drops the
    columns where the center's profile is 0; ``"divide"`` divides them."""
    ext = poisson_extension(space, n_heights)
    centers = np.arange(space.n_leaves)
    expected = math.inf
    for y, (_, profiles) in zip(ext.heights, ext.kernel_matrices()):
        lo, hi = space.ball_bounds(centers, float(y), closed=False)
        for xt in centers:
            cols = (profiles[xt] > 0.0) if vanishing == "leave_out" else slice(None)
            ratios = profiles[lo[xt]:hi[xt]][:, cols] / profiles[xt][cols]
            expected = min(expected, float(ratios.min(initial=math.inf)))
    return expected


@pytest.mark.parametrize("n_heights", [3, 6, 20])
@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_harnack_reads_balls_from_the_extension(kind, n_heights, monkeypatch):
    # each height's open balls B(x, y) are its first ring, so the worst ratio
    # searches no ball beyond the extension's own, and equals the per-height
    # search it replaces (reference)
    ms = model_space(kind, 2, 6)
    expected = per_center_harnack(ms, n_heights)
    calls = []
    search = ms.ball_bounds
    monkeypatch.setattr(ms, "ball_bounds",
                        lambda *args, **kwargs: calls.append(1) or search(*args, **kwargs))
    assert _harnack_worst(ms, n_heights) == expected
    assert calls == []


@pytest.mark.parametrize("n_heights", [6, 12, 20])
@pytest.mark.parametrize("depth", [4, 5, 6])
@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_harnack_worst_equals_the_per_center_loop(kind, depth, n_heights):
    # column minima over each ball divided by the center's row: bit-equal to
    # the per-center ratio blocks, as a positive divisor keeps the order
    ms = model_space(kind, 2, depth)
    assert _harnack_worst(ms, n_heights) == per_center_harnack(ms, n_heights)


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_harnack_leaves_out_vanishing_profiles(kind):
    # at 700 heights the ring coefficients 2**(-(Q+1)k) underflow, so a
    # center's profile vanishes at far leaves and the ratio there is 0/0;
    # those entries are left out, not divided, so no center drops out of
    # the minimum
    ms = model_space(kind, 2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        worst = _harnack_worst(ms, 700)
    assert worst == per_center_harnack(ms, 700, vanishing="leave_out")
    assert 0.0 < worst <= 1.0


def test_harnack_vacuous_and_constant_input(cantor6):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    op = kernel_operator(k, cantor6)
    c_h = harnack_constant(cantor6, n_heights=6)
    tiny = ext.field(op.apply_function(np.zeros(64) + 1e-9))
    lowest, ok = harnack_check(cantor6, ext, tiny, 1e6, c_h)
    assert ok and math.isinf(lowest)
    field = ext.field(op.apply_function(np.ones(64)))
    eps = float(field.min()) * 0.99
    lowest, ok = harnack_check(cantor6, ext, field, eps, c_h)
    assert ok
    with pytest.raises(ValueError, match="eps must be positive"):
        harnack_check(cantor6, ext, field, 0.0, c_h)


def test_harnack_random_batch(cantor6, rng):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    c_h = harnack_constant(cantor6, n_heights=6)
    op = kernel_operator(k, cantor6)
    for _ in range(10):
        field = ext.field(op.apply_function(rng.random(64)))
        eps = float(np.quantile(field, 0.7))
        lowest, ok = harnack_check(cantor6, ext, field, eps, c_h)
        assert ok, (lowest, c_h * eps)


def test_exchange_scale_invariance(cantor6, rng):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    f = rng.random(64)
    r1 = exchange_ratio(cantor6, ext, k, f)
    r2 = exchange_ratio(cantor6, ext, k, 7.0 * f)
    assert r1 == pytest.approx(r2)


def test_exchange_commutes_exactly_on_uniform_tree(tree6, rng):
    # both operators are functions of the shared-prefix structure, hence
    # simultaneously diagonalizable: the ratio collapses to 1
    ext = PoissonExtension(tree6, n_heights=6)
    lo, hi = exchange_ratio(tree6, ext, RIESZ, rng.random(64))
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)


def test_exchange_constant_input_closed_form(cantor6):
    ext = PoissonExtension(cantor6, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    op = kernel_operator(k, cantor6)
    c = 2.5
    f = np.full(64, c)
    lo, hi = exchange_ratio(cantor6, ext, k, f)
    kernel_mass = op.apply_function(np.ones(64))
    direct = np.column_stack([
        op.apply_function(np.full(64, c)) / ext.field(c * kernel_mass)[:, h]
        for h in range(ext.heights.size)])
    assert lo == pytest.approx(float(direct.min()), rel=1e-10)
    assert hi == pytest.approx(float(direct.max()), rel=1e-10)


def per_height_exchange_ratio(space, ext, kernel, f):
    # one potential per height, as exchange_ratio computed it before block applies
    op = kernel_operator(kernel, space)
    ext_f = ext.field(f)
    ext_pot = ext.field(op.apply_function(f))
    swapped = np.column_stack([op.apply_function(ext_f[:, h])
                               for h in range(ext.heights.size)])
    ratios = swapped / ext_pot
    return float(ratios.min()), float(ratios.max())


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_exchange_ratio_matches_per_height_loop(kind, rng):
    ms = model_space(kind, 2, 7)
    ext = PoissonExtension(ms, n_heights=7)
    for _ in range(3):
        f = rng.random(ms.n_leaves)
        lo, hi = exchange_ratio(ms, ext, RIESZ, f)
        ref_lo, ref_hi = per_height_exchange_ratio(ms, ext, RIESZ, f)
        assert lo == pytest.approx(ref_lo, rel=1e-12, abs=0.0)
        assert hi == pytest.approx(ref_hi, rel=1e-12, abs=0.0)


def test_harnack_check_uses_the_given_field(rng, monkeypatch):
    ms = model_space("cantor-set", 2, 6)
    ext = PoissonExtension(ms, n_heights=6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    op = kernel_operator(k, ms)
    field = ext.field(op.apply_function(rng.random(64)))
    eps = float(np.quantile(field, 0.7))
    c_h = harnack_constant(ms, n_heights=6)
    # naive scan: the least field value at a height over the balls B(x, y)
    # around that height's cells above eps
    lowest = math.inf
    for h, y in enumerate(ext.heights):
        for x in np.flatnonzero(field[:, h] > eps):
            inside = ms.distances_from(int(x)) < y
            lowest = min(lowest, float(field[inside, h].min()))

    def no_recompute(*args):
        raise AssertionError("the extended potential was computed again")

    monkeypatch.setattr(ext, "field", no_recompute)
    monkeypatch.setattr(op, "apply_function", no_recompute)
    assert harnack_check(ms, ext, field, eps, c_h) == (lowest, lowest >= c_h * eps)


def test_exchange_band_contains_random_inputs(cantor6, rng):
    k = RadialKernel("riesz", s=0.8, p=2.0)
    band = exchange_band(cantor6, k, n_heights=6)
    ext = PoissonExtension(cantor6, n_heights=6)
    for _ in range(5):
        lo, hi = exchange_ratio(cantor6, ext, k, rng.random(64))
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


def test_exchange_band_leaves_out_vanishing_compositions():
    # at fine heights the ring coefficients 2**(-(Q+1)k) underflow, so both
    # compositions vanish on the diagonal (K has no self-interaction); those
    # 0/0 entries are left out, not divided
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lo, hi = _exchange_extremes(model_space("tree-boundary", 2, 2), RIESZ, 540)
    coarse = _exchange_extremes(model_space("tree-boundary", 2, 2), RIESZ, 20)
    # the 540-height grid holds the 20-height one, so its band holds that band
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo <= coarse[0] and coarse[1] <= hi


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_calibrations_at_the_largest_height_grid(kind):
    # the schema's bound on [poisson] n_heights, on the calibration space:
    # the ring coefficients underflow far above the finest height, and both
    # scans leave the vanishing entries out
    ms = model_space(kind, 2, CALIBRATION_DEPTH)
    n_heights = cli._SCHEMA["poisson", "n_heights"][2][1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        worst = _harnack_worst(ms, n_heights)
        lo, hi = _exchange_extremes(ms, RIESZ, n_heights)
    coarse = _exchange_extremes(ms, RIESZ, 20)
    assert 0.0 < worst <= 1.0
    assert math.isfinite(lo) and math.isfinite(hi)
    assert lo <= coarse[0] and coarse[1] <= hi


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_extension_dies_with_its_space(kind):
    # the space memoizes its extension and the extension keeps only what an
    # evaluation reads, so no reference cycle waits for the collector
    gc.disable()
    try:
        ms = model_space(kind, 2, 6)
        ext = poisson_extension(ms, 6)
        ext.field(np.ones(ms.n_leaves))
        alive = weakref.ref(ext)
        del ext, ms
        assert alive() is None
    finally:
        gc.enable()
    # an extension built on a space nothing else holds still works
    ext = PoissonExtension(model_space(kind, 2, 6), n_heights=6)
    assert np.abs(ext.field(np.ones(64)) - 1.0).max() <= 1e-12
    assert all(k.shape == (64, 64) for _, k in ext.kernel_matrices())


def test_profile_names(tree6):
    for name in ("coordinate", "hat", "bump"):
        g = lipschitz_profile(tree6, name)
        assert g.shape == (64,)
        assert g.min() >= 0.0
    with pytest.raises(ValueError):
        lipschitz_profile(tree6, "nosuch")
