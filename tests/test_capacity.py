import math

import numpy as np
import pytest

from potlab import capacity
from potlab.capacity import (ball_capacity_profile, capacity_p2_exact,
                             grid_ball_capacity, metric_matching_radius,
                             singleton_capacity, solve_capacity,
                             theoretical_profile_slope, tree_matching_radius,
                             uniform_ball_capacity)
from potlab.kernel import RadialKernel, kernel_operator, lp_norm
from potlab.space import build_tree, ModelSpace, model_space

RIESZ = RadialKernel("riesz", s=0.75, p=2.0)


def constant_kernel(depth, value=1.0, p=2.0):
    return RadialKernel("radial", p=p, level_values=(value,) * (depth + 1))


def test_empty_target(tree6):
    sol = solve_capacity(tree6, RIESZ, [])
    assert sol.value == 0.0
    assert not sol.density.any() and not sol.measure.any()
    assert sol.converged


def test_singleton_closed_form_several(rng):
    for _ in range(8):
        b = int(rng.integers(2, 4))
        depth = int(rng.integers(3, 6))
        p = float(rng.uniform(1.3, 3.5))
        pp = p / (p - 1.0)
        s = float(rng.uniform(1.0 / pp, 1.0 - 1e-9))
        ms = model_space("tree-boundary", b, depth, 1.0 / b)
        k = RadialKernel("riesz", s=s, p=p)
        x = int(rng.integers(ms.n_leaves))
        sol = solve_capacity(ms, k, [x], p=p)
        assert sol.value == pytest.approx(singleton_capacity(ms, k, x, p), rel=1e-6)
        assert sol.relative_gap < 1e-6


def test_singleton_formula_against_grid_search():
    # independent validation of the closed form itself: enumerate a dense
    # grid of densities on a four-leaf tree and take the cheapest feasible
    ms = model_space("tree-boundary", 2, 2, 0.5)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    op = kernel_operator(k, ms)
    x0 = 1
    closed = singleton_capacity(ms, k, x0)
    grid = np.linspace(0.0, 4.0, 41)
    combos = np.array(np.meshgrid(grid, grid, grid, grid,
                                  indexing="ij")).reshape(4, -1).T
    w = ms.weights
    potential_at_x0 = combos @ (op.row(x0) * w)
    feasible = combos[potential_at_x0 >= 1.0]
    best = float(((feasible**2) @ w).min())
    assert best >= closed - 1e-12          # the search can only overshoot
    assert best <= closed * 1.05           # and the grid is fine enough


def test_constant_kernel_full_space():
    ms = model_space("tree-boundary", 2, 5, 0.5)
    k = constant_kernel(5)
    sol = solve_capacity(ms, k, np.arange(32), p=2.0)
    # potential of f is its mean, so the cheapest density is identically 1
    assert sol.value == pytest.approx(1.0, rel=1e-9)
    assert np.allclose(sol.density, 1.0, atol=1e-6)


def test_solution_certificates(tree6, rng):
    E = np.unique(rng.integers(0, 64, 25))
    for p in (1.5, 2.0, 3.0):
        k = RadialKernel("riesz", s=0.75, p=p)
        sol = solve_capacity(tree6, k, E)
        op = kernel_operator(k, tree6)
        # primal feasibility
        assert np.all(op.apply_function(sol.density)[E] >= 1.0 - 1e-9)
        # dual feasibility and support
        assert lp_norm(op.apply_measure(sol.measure), tree6.weights,
                       p / (p - 1.0)) <= 1.0 + 1e-9
        off = np.setdiff1d(np.arange(64), E)
        assert not sol.measure[off].any()
        assert sol.dual_value <= sol.primal_value * (1.0 + sol.relative_gap) + 1e-15
        # equilibrium normalization
        norm = lp_norm(op.apply_measure(sol.measure), tree6.weights, p / (p - 1.0))
        assert 1.0 - 1e-9 <= norm <= 1.0 + 1e-9
        assert (1.0 - 1e-6) * sol.value <= sol.measure.sum() ** p <= sol.value * (1 + 1e-12)


def test_duality_gap_random_sets(tree6, rng):
    for p in (1.5, 2.0, 3.0):
        k = RadialKernel("riesz", s=0.75, p=p)
        for _ in range(6):
            size = int(rng.integers(1, 40))
            E = np.unique(rng.integers(0, 64, size))
            sol = solve_capacity(tree6, k, E, p=p)
            assert sol.relative_gap <= 1e-3
            assert sol.converged


def test_p2_exact_oracle_agreement(tree8, rng):
    for _ in range(6):
        E = np.unique(rng.integers(0, 256, int(rng.integers(2, 60))))
        exact = capacity_p2_exact(tree8, RIESZ, E)
        sol = solve_capacity(tree8, RIESZ, E)
        assert sol.value == pytest.approx(exact, rel=1e-8)


def test_symmetric_reduction_matches_solver(rng):
    for b, depth in ((2, 6), (2, 7), (3, 4)):
        ms = model_space("tree-boundary", b, depth, 1.0 / b)
        for p in (1.5, 2.0, 3.0):
            pp = p / (p - 1.0)
            k = RadialKernel("riesz", s=min(0.9, 1.0 / pp + 0.2), p=p)
            level = int(rng.integers(1, depth - 1))
            x = int(rng.integers(ms.n_leaves))
            lo, hi = ms.tree.subtree_range(x, level)
            sym = uniform_ball_capacity(ms, k, p, x, level)
            sol = solve_capacity(ms, k, np.arange(lo, hi), p=p)
            assert sol.value == pytest.approx(sym, rel=1e-8)


def test_symmetric_reduction_guards(cantor6, rng):
    with pytest.raises(ValueError):
        uniform_ball_capacity(cantor6, RIESZ, 2.0, 0, 2)
    w = rng.random(64) + 0.5
    ms = ModelSpace("tree-boundary", build_tree(2, 6, 0.5, w))
    with pytest.raises(ValueError):
        uniform_ball_capacity(ms, RIESZ, 2.0, 0, 2)


def test_dense_operator_solves(cantor6, interval6, rng):
    # embedded metrics go through the dense kernel path
    for ms in (cantor6, interval6):
        k = RadialKernel("riesz", s=0.8, p=2.0)
        x = int(rng.integers(ms.n_leaves))
        sol = solve_capacity(ms, k, [x])
        assert sol.value == pytest.approx(singleton_capacity(ms, k, x), rel=1e-6)
        E = np.unique(rng.integers(0, ms.n_leaves, 20))
        for p in (1.5, 2.0, 3.0):
            kp = RadialKernel("riesz", s=0.8, p=p)
            s = solve_capacity(ms, kp, E, p=p)
            assert s.relative_gap <= 1e-3
            if p == 2.0:
                assert s.value == pytest.approx(capacity_p2_exact(ms, kp, E),
                                                rel=1e-8)


def test_monotone_and_subadditive(tree6, rng):
    # p = 2 goes through the finite active-set path for exactness
    for _ in range(5):
        e2 = np.unique(rng.integers(0, 64, 30))
        keep = rng.random(e2.size) < 0.6
        e1 = e2[keep] if keep.any() else e2[:1]
        c1 = capacity_p2_exact(tree6, RIESZ, e1)
        c2 = capacity_p2_exact(tree6, RIESZ, e2)
        assert c1 <= c2 * (1.0 + 1e-9)
    for _ in range(5):
        a = np.unique(rng.integers(0, 64, 12))
        b = np.unique(rng.integers(0, 64, 12))
        cu = capacity_p2_exact(tree6, RIESZ, np.union1d(a, b))
        assert cu <= (capacity_p2_exact(tree6, RIESZ, a)
                      + capacity_p2_exact(tree6, RIESZ, b)) * (1.0 + 1e-9)


def test_kernel_scaling_exact(tree6, rng):
    base = tuple(float(v) for v in RIESZ.level_table(tree6))
    k1 = RadialKernel("radial", p=2.0, level_values=base)
    c = 3.0
    k2 = k1.scaled(c)
    E = np.unique(rng.integers(0, 64, 20))
    for p in (1.5, 2.0, 3.0):
        v1 = solve_capacity(tree6, k1, E, p=p).value
        v2 = solve_capacity(tree6, k2, E, p=p).value
        assert v2 == pytest.approx(c**-p * v1, rel=1e-9)


def test_nonconvergence_flag(tree6):
    sol = solve_capacity(tree6, RIESZ, np.arange(40), max_iters=1, polish=False,
                         gap_accept=1e-12)
    assert not sol.converged
    assert sol.iterations <= 1


# -- matching radii -------------------------------------------------------------


def test_tree_matching_radius_floor(tree6):
    # a kernel scaled up makes capacities tiny: the finest half step qualifies
    big = constant_kernel(6, value=50.0)
    er = tree_matching_radius(tree6, big, 2.0, 9, level=3)
    assert er.exists
    assert er.matching == pytest.approx(0.5 ** (6 - 0.5))
    assert er.star == pytest.approx(max(er.matching, 0.5**3))


def test_matching_radius_star_dominates_r(tree6, rng):
    for level in (1, 2, 3, 4):
        x = int(rng.integers(64))
        er = tree_matching_radius(tree6, RIESZ, 2.0, x, level)
        assert er.star >= tree6.tree.grid_radius(level) - 1e-15


def test_matching_radius_sentinel(tree6):
    # a tiny kernel makes even small balls carry capacity above the total mass
    tiny = constant_kernel(6, value=1e-3)
    er = tree_matching_radius(tree6, tiny, 2.0, 0, level=3)
    assert not er.exists
    assert math.isinf(er.matching)
    assert er.star == tree6.diameter


def test_tree_matching_radius_table_oracle(tree6):
    # independent scan: tabulate subtree masses and pick the finest level
    # whose mass reaches the solved ball capacity
    x, level, p = 13, 3, 2.0
    cap = grid_ball_capacity(tree6, RIESZ, p, x, level)
    masses = [tree6.tree.subtree_mass(x, m) for m in range(7)]
    qualifying = [m for m in range(7) if masses[m] >= cap]
    expected_level = max(qualifying)
    er = tree_matching_radius(tree6, RIESZ, p, x, level)
    assert er.matching_level == expected_level
    assert er.matching == pytest.approx(0.5 ** (expected_level - 0.5))


# -- memo on the space --------------------------------------------------------
# fresh spaces throughout: the session fixtures carry their memo across tests


def fresh_tree6():
    return model_space("tree-boundary", 2, 6, 0.5)


def test_ball_capacity_memo_keyed_on_kernel_and_p():
    shared = fresh_tree6()
    other = RadialKernel("riesz", s=0.9, p=3.0)
    grid_ball_capacity(shared, RIESZ, 2.0, 5, 3)
    for kernel, p in ((RIESZ, 3.0), (other, 3.0), (RIESZ, 2.0)):
        assert grid_ball_capacity(shared, kernel, p, 5, 3) == \
            grid_ball_capacity(fresh_tree6(), kernel, p, 5, 3)
    assert grid_ball_capacity(shared, other, 3.0, 5, 3) == pytest.approx(0.03447, rel=1e-3)


def test_ball_capacity_memo_keeps_paths_apart():
    shared = fresh_tree6()
    for method in ("solver", "symmetric", "solver"):
        assert grid_ball_capacity(shared, RIESZ, 2.0, 13, 2, method=method) == \
            grid_ball_capacity(fresh_tree6(), RIESZ, 2.0, 13, 2, method=method)


def test_ball_capacity_memo_solves_once(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return solve_capacity(*args, **kwargs)

    monkeypatch.setattr(capacity, "solve_capacity", spy)
    shared = fresh_tree6()
    first = grid_ball_capacity(shared, RIESZ, 2.0, 21, 3)
    assert grid_ball_capacity(shared, RIESZ, 2.0, 21, 3) == first
    # the closed ball of radius delta**3 is the same leaf run as the grid ball
    metric_matching_radius(shared, RIESZ, 2.0, 21, 0.5**3, closed=True)
    metric_matching_radius(shared, RIESZ, 2.0, 21, 0.5**3, closed=True)
    assert len(calls) == 1
    grid_ball_capacity(shared, RIESZ, 2.0, 21, 3, tol=1e-9)
    assert len(calls) == 2


def test_metric_matching_radius_scan_oracle(tree6):
    p = 2.0
    x = 21
    r = 0.5**2.5
    er = metric_matching_radius(tree6, RIESZ, p, x, r)
    lo, hi = tree6.ball_bounds(np.array([x]), r, closed=False)
    cap = solve_capacity(tree6, RIESZ, np.arange(int(lo[0]), int(hi[0])), p=p).value
    dists = tree6.distances_from(x)
    realized = np.unique(dists)
    masses = [tree6.weights[dists <= t].sum() for t in realized]
    expected = realized[next(i for i, m in enumerate(masses) if m >= cap)]
    assert er.matching == pytest.approx(float(expected))
    assert er.star == pytest.approx(max(r, float(expected)))


def test_metric_matching_immediate(tree6):
    # mass already above capacity at the given radius: star collapses to r
    big = constant_kernel(6, value=50.0)
    er = metric_matching_radius(tree6, big, 2.0, 5, 0.3)
    assert er.matching <= 0.3
    assert er.star == pytest.approx(0.3)


def test_matching_radius_weight_monotonicity(rng):
    # doubling the measure weakly shrinks the matching radius
    w = rng.random(64) + 0.5
    k = RadialKernel("riesz", s=0.75, p=2.0)
    small = ModelSpace("tree-boundary", build_tree(2, 6, 0.5, w))
    # capacity scales with mass too, so compare against an inflated-measure
    # space at the same ball capacity by hand
    er_small = metric_matching_radius(small, k, 2.0, 7, 0.25)
    cap = solve_capacity(small, k, small.tree.ball(7, 0.25), p=2.0).value
    big = ModelSpace("tree-boundary", build_tree(2, 6, 0.5, 2 * w))
    dists = big.distances_from(7)
    realized = np.unique(dists)
    hit = next(float(t) for t in realized if big.weights[dists <= t].sum() >= cap)
    assert hit <= er_small.matching + 1e-15


# -- profiles --------------------------------------------------------------------


def test_profile_single_level(tree6):
    prof = ball_capacity_profile(tree6, RIESZ, 2.0, 9, [3])
    assert prof.capacities.shape == (1,)
    assert prof.capacities[0] > 0
    assert prof.slope is None


def test_profile_slope_sign(tree6):
    prof = ball_capacity_profile(tree6, RIESZ, 2.0, 0, range(1, 6))
    assert prof.slope is not None and prof.slope > 0
    assert np.all(np.diff(prof.capacities) < 0)   # shrinking balls
    assert theoretical_profile_slope(1.0, 2.0, 0.75) == pytest.approx(0.5)
