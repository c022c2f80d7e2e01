import math
from pathlib import Path

import numpy as np
import pytest

from potlab import capacity
from potlab.capacity import (ball_capacity_profile, capacity_p2_exact, capacity_value,
                             metric_matching_radius, singleton_capacity, solve_capacity,
                             spd_solve, theoretical_profile_slope, uniform_ball_capacity)
from potlab.cli import Runner, load_config
from potlab.convergence import approximation_split, thinness_decay
from potlab.kernel import RadialKernel, kernel_operator, lp_norm
from potlab.poisson import PoissonExtension, lipschitz_profile
from potlab.space import ModelSpace, model_space

RIESZ = RadialKernel("riesz", s=0.75, p=2.0)


def constant_kernel(depth, value=1.0, p=2.0):
    return RadialKernel("radial", p=p, level_values=(value,) * (depth + 1))


def test_spd_solve_matches_numpy_on_spd(rng):
    a = rng.standard_normal((12, 12))
    mat = a @ a.T + 12.0 * np.eye(12)
    rhs = rng.standard_normal(12)
    assert np.array_equal(spd_solve(mat, rhs), np.linalg.solve(mat, rhs))


def test_spd_solve_jitters_an_exactly_singular_matrix():
    mat = np.ones((3, 3))   # positive semidefinite, rank 1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(mat, np.ones(3))
    x = spd_solve(mat, np.ones(3))
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(mat @ x, np.ones(3), rtol=1e-9)


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
        assert sol.dual_value <= sol.value * (1.0 + sol.relative_gap) + 1e-15
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
            lo, hi = ms.subtree_range(x, level)
            sym = uniform_ball_capacity(ms, k, p, x, level)
            sol = solve_capacity(ms, k, np.arange(lo, hi), p=p)
            assert sol.value == pytest.approx(sym, rel=1e-8)


def test_symmetric_reduction_guards(cantor6, rng):
    with pytest.raises(ValueError):
        uniform_ball_capacity(cantor6, RIESZ, 2.0, 0, 2)
    w = rng.random(64) + 0.5
    ms = ModelSpace("tree-boundary", 2, 6, 0.5, w)
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
    k2 = RadialKernel("radial", p=2.0, level_values=tuple(c * v for v in base))
    E = np.unique(rng.integers(0, 64, 20))
    for p in (1.5, 2.0, 3.0):
        v1 = solve_capacity(tree6, k1, E, p=p).value
        v2 = solve_capacity(tree6, k2, E, p=p).value
        assert v2 == pytest.approx(c**-p * v1, rel=1e-9)


def test_newton_rounds_converge_on_a_long_run():
    # a one-leaf-per-round active-set polish stops at a 60-round cap here
    # with a gap of 7e-5; the projected Newton phase moves many leaves a round
    space = model_space("unit-interval", 2, 9)
    sol = solve_capacity(space, RIESZ, np.arange(7, 264), p=1.5)
    assert sol.relative_gap <= 1e-12
    assert sol.iterations < capacity.MAX_ROUNDS


@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_p2_solve_forms_one_gram(kind, monkeypatch):
    # at p = 2 the Hessian weights sqrt(w g') stay put, so every later round
    # solves on the free block of the first round's Gram; at p = 3 they move,
    # so each round forms its own
    space = model_space(kind, 2, 7)
    target = np.arange(space.n_leaves)
    grams = []
    form = capacity._gram
    monkeypatch.setattr(capacity, "_gram",
                        lambda rows, free, weights: grams.append(int(free.sum()))
                        or form(rows, free, weights))
    sol = solve_capacity(space, RIESZ, target, p=2.0)
    assert sol.iterations > 1 and grams == [space.n_leaves]
    assert sol.value == pytest.approx(capacity_p2_exact(space, RIESZ, target), rel=1e-8)
    grams.clear()
    sol = solve_capacity(space, RadialKernel("riesz", s=0.75, p=3.0), target, p=3.0)
    assert sol.iterations > 1 and len(grams) == sol.iterations
    assert min(grams) < space.n_leaves
    assert sol.relative_gap <= capacity.GAP_ACCEPT


@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_solve_evaluates_through_its_rows(kind, monkeypatch):
    # the solve builds the target's rows once, when it starts, and reads
    # u = K*lam, K*g and K*1 on the target from them: no operator apply runs
    space = model_space(kind, 2, 7)
    target = np.arange(space.n_leaves)
    cls = type(kernel_operator(RIESZ, space))
    calls = []
    apply, row = cls._apply, cls.row
    monkeypatch.setattr(cls, "_apply", lambda op, m: calls.append("apply") or apply(op, m))
    monkeypatch.setattr(cls, "row", lambda op, leaves: calls.append("row") or row(op, leaves))
    for p in (2.0, 3.0):
        kernel = RadialKernel("riesz", s=0.75, p=p)
        calls.clear()
        sol = solve_capacity(space, kernel, target, p=p)
        assert sol.iterations > 1 and sol.relative_gap <= 1e-13
        assert calls == ["row"]
    sol = solve_capacity(space, RIESZ, target, p=2.0)
    assert sol.value == pytest.approx(capacity_p2_exact(space, RIESZ, target), rel=1e-8)


def whole_space_gram(kind, depth):
    """The all-free p = 2 Gram of a whole-space target and its weights."""
    space = model_space(kind, 2, depth)
    rows = kernel_operator(RIESZ, space).row(np.arange(space.n_leaves))
    weights = np.sqrt(space.weights / 2.0)   # sqrt(w g') with g' = 1/2
    return capacity._gram(rows, np.ones(space.n_leaves, dtype=bool), weights), weights


@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_schur_step_matches_the_direct_solve(kind, rng):
    # with 0%, about 5%, 30% and over 50% of the leaves bound, the Schur step
    # on the factored Gram solves the free block as spd_solve does; worst
    # relative move measured: 1.7e-11 (unit-interval), 9e-14 (cantor-set)
    gram, weights = whole_space_gram(kind, 9)
    kept = capacity._KeptGram(gram.copy(), weights)
    kept._factor()
    assert np.array_equal(kept.gram, gram) and kept.inverse is not None
    m = gram.shape[0]
    for share in (0.0, 0.05, 0.3, 0.55):
        for contiguous in (False, True):
            free = rng.random(m) >= share
            if contiguous:
                free[:] = True
                start = int(rng.integers(0, m))
                free[start:start + int(share * m)] = False
            bound = np.flatnonzero(~free)
            rhs = rng.standard_normal(int(free.sum()))
            step = kept._schur(free, bound, bound[kept.slot[bound] < 0], rhs)
            direct = spd_solve(gram[np.ix_(free, free)], rhs)
            assert np.abs(step - direct).max() <= 1e-9 * np.abs(direct).max()
    # each leaf's row of G^-1 is formed once, however often it binds
    assert len(kept.inv_rows) == np.count_nonzero(kept.slot >= 0) <= m


def test_a_gram_cholesky_rejects_keeps_the_direct_path():
    m = 40
    gram = np.ones((m, m))          # positive semidefinite, rank 1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    kept = capacity._KeptGram(gram, np.ones(m))
    free = np.ones(m, dtype=bool)
    free[:3] = False
    rhs = np.ones(m - 3)
    # the all-free round tries to factor first; Cholesky rejects G, and
    # both rounds solve directly
    for mask, b in ((np.ones(m, dtype=bool), np.ones(m)), (free, rhs)):
        step = kept.solve(mask, b)
        assert np.array_equal(step, spd_solve(gram[np.ix_(mask, mask)], b))
    assert not kept.factorable and kept.inverse is None and kept.gram is gram


def test_a_factored_gram_slices_a_block_whose_schur_step_costs_more(monkeypatch, rng):
    # with 55% of the leaves binding, the Schur step costs more than an LU
    # solve of the free block, which is sliced from the G kept beside R
    gram, weights = whole_space_gram("unit-interval", 8)
    kept = capacity._KeptGram(gram.copy(), weights)
    kept._factor()
    monkeypatch.setattr(capacity, "_gram", lambda *args: pytest.fail("Gram formed"))
    free = rng.random(gram.shape[0]) >= 0.55
    rhs = rng.standard_normal(int(free.sum()))
    step = kept.solve(free, rhs)
    assert np.array_equal(step, spd_solve(gram[np.ix_(free, free)], rhs))
    assert kept.inverse is not None and not np.any(kept.slot >= 0)


def test_whole_space_interval_solve_factors_its_gram_once(monkeypatch):
    # 13 rounds: the first solves directly; the second, all-free again,
    # factors G and, like the 11 rounds after it, takes the Schur step
    calls = []
    direct = capacity.spd_solve
    monkeypatch.setattr(capacity, "spd_solve",
                        lambda mat, rhs: calls.append(mat.shape[0]) or direct(mat, rhs))
    space = model_space("unit-interval", 2, 9)
    sol = solve_capacity(space, RIESZ, np.arange(space.n_leaves))
    assert sol.iterations == 13 and len(calls) == 1
    assert abs(sol.value - 0.048026373002839226) <= 1e-13
    assert sol.relative_gap <= 1e-14


def test_whole_space_interval_solve_forms_kg_for_kept_states_only(monkeypatch):
    # K*g is formed for the best-multiple start and each accepted Armijo
    # candidate, 14 of the solve's 62 evaluations, each as a product with the
    # target's rows, and never by an apply
    space = model_space("unit-interval", 2, 9)
    op = kernel_operator(RIESZ, space)
    products = []

    class Rows:
        """The target's kernel rows, counting their products with a vector."""
        __array_ufunc__ = None                # so lam @ rows reaches __rmatmul__

        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, key):
            return self.rows[key]

        def __rmatmul__(self, lam):           # u = lam R
            return lam @ self.rows

        def __matmul__(self, x):              # K*1 = R M, then K*g = R (M g) / |B|
            products.append("mass" if x is space.weights else "rows")
            return self.rows @ x

    cls = type(op)
    apply, row = cls._apply, cls.row
    monkeypatch.setattr(cls, "_apply", lambda op, m: products.append("apply") or apply(op, m))
    monkeypatch.setattr(cls, "row", lambda op, leaves: Rows(row(op, leaves)))
    sol = solve_capacity(space, RIESZ, np.arange(space.n_leaves))
    assert sol.iterations == 13 and products.count("apply") == 0
    assert products == ["mass"] + ["rows"] * (sol.iterations + 1)
    assert abs(sol.value - 0.048026373002839226) <= 1e-13


# Newton rounds a change to the linear algebra must keep: whole-space targets,
# and every solve of the golden tree-boundary config's quasiadd families in
# call order
WHOLE_SPACE_ROUNDS = {("unit-interval", 8): 14, ("unit-interval", 9): 13,
                      ("cantor-set", 9): 7}
GOLDEN_TREE_QUASIADD_ROUNDS = [
    0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0,
    1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("kind, depth", sorted(WHOLE_SPACE_ROUNDS))
def test_whole_space_round_counts_are_pinned(kind, depth):
    space = model_space(kind, 2, depth)
    sol = solve_capacity(space, RIESZ, np.arange(space.n_leaves))
    assert sol.iterations == WHOLE_SPACE_ROUNDS[kind, depth]
    assert sol.relative_gap <= 1e-14


def test_golden_tree_quasiadd_round_counts_are_pinned(monkeypatch, tmp_path):
    rounds = []
    solve = capacity.solve_capacity

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        rounds.append(sol.iterations)
        return sol

    monkeypatch.setattr(capacity, "solve_capacity", spy)
    config = Path(__file__).parent / "golden" / "tree-boundary" / "config.ini"
    Runner(load_config(config), tmp_path, None, charts=False).run("quasiadd")
    assert rounds == GOLDEN_TREE_QUASIADD_ROUNDS


def newton_sides(monkeypatch):
    """The side of every Newton system a solve forms from here on, each
    round once: a Hessian formed for the round, or a free block that the kept
    p = 2 Gram solves."""
    sides = []
    gram, kept_solve = capacity._gram, capacity._KeptGram.solve

    def spy_gram(rows, free, weights):
        sides.append(int(np.count_nonzero(free)))
        return gram(rows, free, weights)

    def spy_solve(kept, free, rhs):
        sides.append(int(np.count_nonzero(free)))
        return kept_solve(kept, free, rhs)

    monkeypatch.setattr(capacity, "_gram", spy_gram)
    monkeypatch.setattr(capacity._KeptGram, "solve", spy_solve)
    return sides


# the summed Newton-system side of the golden tree-boundary quasiadd run:
# an upper bound that may only fall (320 with one unknown per leaf)
GOLDEN_TREE_QUASIADD_NEWTON_SIDES = 118


def test_golden_tree_quasiadd_solves_one_unknown_per_block(monkeypatch, tmp_path):
    sides = newton_sides(monkeypatch)
    config = Path(__file__).parent / "golden" / "tree-boundary" / "config.ini"
    Runner(load_config(config), tmp_path, None, charts=False).run("quasiadd")
    assert sides and sum(sides) <= GOLDEN_TREE_QUASIADD_NEWTON_SIDES


def leaf_cells(space, leaves):
    """``ModelSpace.cells`` with one cell per leaf, as off the ultrametric."""
    inside = np.zeros(space.n_leaves, dtype=bool)
    inside[leaves] = True
    return np.arange(space.n_leaves), np.ones(space.n_leaves, dtype=np.int64), space.weights, \
        inside


def leaf_solves(monkeypatch, kernels, p, cases):
    """The solves of (space, target) cases, one kernel each, with one cell per
    leaf, as off the ultrametric: one unknown per target leaf, and u and g at
    every leaf, read from the cell rows of one-leaf cells, which are the
    operator's kernel rows (``test_cell_rows_of_one_leaf_cells_are_kernel_rows``)."""
    with monkeypatch.context() as m:
        m.setattr(ModelSpace, "cells", leaf_cells)
        return [solve_capacity(space, kernel, target, p=p)
                for (space, target), kernel in zip(cases, kernels)]


@pytest.mark.parametrize("b, depth", [(2, 9), (3, 6), (4, 5)])
def test_cell_rows_of_one_leaf_cells_are_kernel_rows(b, depth, rng):
    # on one cell per leaf the cell rows of the target are, byte for byte,
    # the tree operator's kernel rows, on uniform and on random weights
    n = b**depth
    for w in (np.full(n, 1.0 / n), (rng.random(n) + 0.5) / n):
        space = ModelSpace("tree-boundary", b, depth, 1.0 / (b + 1), w)
        op = kernel_operator(RIESZ, space)
        for target in (np.arange(n), np.flatnonzero(rng.random(n) < 1.0 / 3.0),
                       np.array([int(rng.integers(n))])):
            starts, sizes, _, inside = leaf_cells(space, target)
            rows = capacity._cell_rows(space, op.table, starts, sizes, inside)
            assert rows.tobytes() == op.row(target).tobytes()


def assert_constant_on_cells(space, target, sol):
    """The measure is constant on each block of the target and the density on
    each cell."""
    starts, sizes, _, inside = space.cells(target)
    ends = starts + sizes
    for values, keep in ((sol.measure, inside), (sol.density, np.ones_like(inside))):
        for lo, hi in zip(starts[keep], ends[keep]):
            assert np.all(values[lo:hi] == values[lo])


def weighted_tree(rng):
    """A depth-6 binary tree with random weights, equal on four subtrees,
    and the union of those subtrees."""
    w = rng.random(64) + 0.5
    union = []
    for lo, hi in ((0, 16), (24, 32), (40, 44), (56, 64)):
        w[lo:hi] = w[lo]
        union.extend(range(lo, hi))
    return ModelSpace("tree-boundary", 2, 6, 0.5, w), np.array(union)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_blocked_solve_equals_the_leaf_solve(p, tree6, monkeypatch, rng):
    # one unknown per aligned block against one per leaf: a radial kernel on
    # the ultrametric makes every leaf of a block carry the same mass
    kernel = RadialKernel("riesz", s=0.75, p=p)
    # tree6 is the golden tree-boundary config's space; its 4-ball union
    # forms Newton systems of side at most 4
    balls = np.concatenate([np.arange(0, 16), np.arange(32, 40), np.arange(48, 52),
                            np.arange(60, 62)])
    ball = np.arange(16, 32)
    half = ball[rng.random(16) < 0.5]
    weighted, union = weighted_tree(rng)
    cases = [(tree6, balls), (tree6, half), (tree6, ball), (tree6, np.array([37])),
             (weighted, union)]
    blocked = []
    for space, target in cases:
        with monkeypatch.context() as m:
            sides = newton_sides(m)
            blocked.append(solve_capacity(space, kernel, target, p=p))
        assert max(sides, default=0) <= np.count_nonzero(space.cells(target)[3])
    # the whole subtree and the singleton start at the optimum
    assert [s.iterations > 0 for s in blocked] == [True, True, False, False, True]
    by_leaf = leaf_solves(monkeypatch, [kernel] * len(cases), p, cases)
    for (space, target), sol, leaf in zip(cases, blocked, by_leaf):
        assert abs(sol.value - leaf.value) <= 1e-13 * leaf.value
        assert sol.iterations == leaf.iterations
        assert max(sol.relative_gap, leaf.relative_gap) <= 1e-12
        assert_constant_on_cells(space, target, sol)
        _, cell_sizes, _, inside = space.cells(target)
        sizes = cell_sizes[inside]
        if target.size == 1:
            assert sol.value == pytest.approx(
                singleton_capacity(space, kernel, int(target[0]), p), rel=1e-13)
        if sizes.size == 1 and sizes[0] > 1:
            level = space.depth - round(math.log(target.size, space.branching))
            assert sol.value == pytest.approx(
                uniform_ball_capacity(space, kernel, p, int(target[0]), level), rel=1e-13)
        if p == 2.0:
            assert sol.value == pytest.approx(capacity_p2_exact(space, kernel, target),
                                              rel=1e-10)


def generated_tree(b, depth, rng):
    """A tree with random weights made equal on a few random subtrees, and
    two targets: a union of random subtrees with a few stray leaves, and
    scattered leaves."""
    n = b**depth
    w = rng.random(n) + 0.5
    keep = np.zeros(n, dtype=bool)
    for _ in range(int(rng.integers(1, 5))):
        size = n // b ** int(rng.integers(1, depth + 1))
        lo = size * int(rng.integers(n // size))
        w[lo:lo + size] = w[lo]
        keep[lo:lo + size] = True
    keep[rng.integers(0, n, 2)] = True
    space = ModelSpace("tree-boundary", b, depth, 1.0 / (b + 1), w / w.sum())
    return space, [np.flatnonzero(keep), np.flatnonzero(rng.random(n) < 0.3)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_quotient_solve_equals_the_leaf_solve_on_generated_trees(p, monkeypatch):
    # the quotient's one unknown per block and one u per cell against one
    # cell per leaf, on Riesz and on random radial tables with a diagonal
    rng = np.random.default_rng(2600 + int(10 * p))
    cases, kernels = [], []
    for b, depth in ((2, 4), (2, 6), (3, 3), (3, 4)):
        for radial in (False, True):
            space, targets = generated_tree(b, depth, rng)
            kernel = RadialKernel("riesz", s=0.8, p=p) if not radial else RadialKernel(
                "radial", p=p, level_values=tuple(np.sort(rng.random(depth + 1) + 0.1)))
            for target in targets:
                cases.append((space, target))
                kernels.append(kernel)
    quotient = [solve_capacity(space, kernel, target, p=p)
                for (space, target), kernel in zip(cases, kernels)]
    by_leaf = leaf_solves(monkeypatch, kernels, p, cases)
    rounds = 0
    for (space, target), sol, leaf in zip(cases, quotient, by_leaf):
        assert abs(sol.value - leaf.value) <= 1e-13 * leaf.value
        assert sol.iterations == leaf.iterations
        assert max(sol.relative_gap, leaf.relative_gap) <= 1e-12
        assert_constant_on_cells(space, target, sol)
        # the primal optimum is unique; the measure is fixed only as far as
        # the rows' conditioning allows at the stopping residual
        assert np.abs(sol.density - leaf.density).max() <= 1e-12 * leaf.density.max()
        rounds += sol.iterations
    assert rounds >= len(cases)


def test_nonconvergence_flag():
    # one Newton round leaves a spread-out target far from optimal (gap 0.196)
    space = model_space("unit-interval", 2, 7)
    target = np.arange(0, 128, 3)
    sol = solve_capacity(space, RIESZ, target, p=1.5, max_iters=1)
    assert sol.relative_gap > capacity.GAP_ACCEPT
    assert not sol.converged
    assert solve_capacity(space, RIESZ, target, p=1.5).converged


# -- matching radii -------------------------------------------------------------


def grid_matching_radius(space, kernel, p, x, level):
    """The matching radius of the closed grid ball of radius delta**level."""
    return metric_matching_radius(space, kernel, p, x, space.grid_radius(level), closed=True)


def test_matching_radius_floor_on_tree(tree6):
    # a kernel scaled up makes capacities tiny: the leaf alone qualifies, so
    # the matching radius is 0 and the star is the ball's own radius
    big = constant_kernel(6, value=50.0)
    er = grid_matching_radius(tree6, big, 2.0, 9, 3)
    assert er.exists
    assert er.matching == 0.0
    assert er.star == 0.5**3


def test_matching_radius_star_dominates_r(tree6, rng):
    for level in (1, 2, 3, 4):
        x = int(rng.integers(64))
        er = grid_matching_radius(tree6, RIESZ, 2.0, x, level)
        assert er.star >= tree6.grid_radius(level) - 1e-15


def test_matching_radius_sentinel(tree6):
    # a tiny kernel makes even small balls carry capacity above the total mass
    tiny = constant_kernel(6, value=1e-3)
    er = grid_matching_radius(tree6, tiny, 2.0, 0, 3)
    assert not er.exists
    assert math.isinf(er.matching)
    assert er.star == tree6.diameter


def test_tree_level_scan_table_oracle(tree6):
    # independent scan: tabulate subtree masses and pick the finest level
    # whose mass reaches the solved ball capacity
    x, level, p = 13, 3, 2.0
    cap = solve_capacity(tree6, RIESZ, np.arange(*tree6.subtree_range(x, level)), p=p).value
    masses = [tree6.range_mass(*tree6.subtree_range(x, m)) for m in range(7)]
    qualifying = [m for m in range(7) if masses[m] >= cap]
    expected_level = max(qualifying)
    assert expected_level < 6
    er = grid_matching_radius(tree6, RIESZ, p, x, level)
    assert er.matching == 0.5**expected_level


def realized_distance_radius(space, x, cap):
    """The smallest realized distance from x whose closed ball carries mass
    ``cap``, searched over the sorted distances; None when none does."""
    dists = space.distances_from(x)
    return next((float(t) for t in np.unique(dists)
                 if space.weights[dists <= t].sum() >= cap), None)


@pytest.mark.parametrize("weights", ["uniform", "custom"])
def test_tree_level_scan_equals_realized_distance_search(weights, rng):
    # on the ultrametric the closed balls around x are its subtrees, so the
    # level scan returns the radius the realized-distance search finds
    w = None if weights == "uniform" else rng.random(64) + 0.5
    space = model_space("tree-boundary", 2, 6, 0.5,
                        weights=None if w is None else w / w.sum())
    radii = set()
    for kernel in (RIESZ, RadialKernel("riesz", s=0.9, p=2.0)):
        for level in range(space.depth + 1):
            for x in range(space.n_leaves):
                er = grid_matching_radius(space, kernel, 2.0, x, level)
                cap = capacity_value(space, kernel, np.arange(*space.subtree_range(x, level)),
                                     2.0)
                expected = realized_distance_radius(space, x, cap)
                assert expected is not None and cap <= space.total_mass
                assert er.exists and er.matching == expected
                assert er.star == max(space.grid_radius(level), expected)
                radii.add(expected)
    assert len(radii) >= 3


# -- memo on the space --------------------------------------------------------
# fresh spaces throughout: the session fixtures carry their memo across tests


def fresh_tree6():
    return model_space("tree-boundary", 2, 6, 0.5)


def profile_capacity(space, kernel, p, x, level):
    """The capacity of the closed grid ball of radius delta**level, as the
    ball profile reads it."""
    return ball_capacity_profile(space, kernel, p, x, [level]).capacities[0]


def test_ball_capacity_memo_keyed_on_kernel_and_p():
    shared = fresh_tree6()
    other = RadialKernel("riesz", s=0.9, p=3.0)
    profile_capacity(shared, RIESZ, 2.0, 5, 3)
    for kernel, p in ((RIESZ, 3.0), (other, 3.0), (RIESZ, 2.0)):
        assert profile_capacity(shared, kernel, p, 5, 3) == \
            profile_capacity(fresh_tree6(), kernel, p, 5, 3)
    assert profile_capacity(shared, other, 3.0, 5, 3) == pytest.approx(0.03447, rel=1e-3)


def test_auto_takes_the_reduction_at_the_cutover_size(monkeypatch):
    # the level-0 ball at depth 11 holds 2048 leaves: one block among no other
    # cells, solved once through capacity_value from the uniform measure, its
    # optimum, and within 1e-13 of the exact reduction
    calls = spy_on_solves(monkeypatch)
    space = model_space("tree-boundary", 2, 11, 0.5)
    value = profile_capacity(space, RIESZ, 2.0, 0, 0)
    assert len(calls) == 1 and sum(key[0] == "set" for key in space._memo) == 1
    exact = uniform_ball_capacity(model_space("tree-boundary", 2, 11, 0.5), RIESZ, 2.0, 0, 0)
    assert abs(value - exact) <= 1e-13 * exact
    sol = solve_capacity(space, RIESZ, np.arange(2048), p=2.0)
    assert sol.iterations == 0 and sol.value == value


def test_capacity_value_takes_the_reduction_on_whole_subtrees(monkeypatch):
    # a whole subtree is one block among at most (b - 1) N cells, and its solve
    # starts at the optimum, the uniform measure on it: subtrees of 2048 and
    # 4096 leaves at depth 12 (depth 20 in a test below) against the exact
    # reduction, each solved once through capacity_value
    calls = spy_on_solves(monkeypatch)
    space = model_space("tree-boundary", 2, 12, 0.5)
    for level in (0, 1):
        lo, hi = space.subtree_range(3000, level)
        assert hi - lo >= 2048
        value = capacity_value(space, RIESZ, np.arange(lo, hi), 2.0)
        exact = uniform_ball_capacity(space, RIESZ, 2.0, 3000, level)
        assert abs(value - exact) <= 1e-13 * exact
        sol = solve_capacity(space, RIESZ, np.arange(lo, hi), p=2.0)
        assert sol.iterations == 0 and sol.value == value
    assert len(calls) == 2
    # a run of that size that is not a subtree, and a smaller subtree
    assert capacity_value(space, RIESZ, np.arange(1024, 3072), 2.0) == \
        solve_capacity(space, RIESZ, np.arange(1024, 3072), p=2.0).value
    exact = uniform_ball_capacity(space, RIESZ, 2.0, 1024, 2)
    assert abs(capacity_value(space, RIESZ, np.arange(1024, 2048), 2.0) - exact) <= 1e-13 * exact


def test_auto_keeps_the_solver_where_the_reduction_does_not_apply(monkeypatch):
    calls = spy_on_solves(monkeypatch)
    weighted = ModelSpace("tree-boundary", 2, 6, 0.5, np.linspace(1.0, 2.0, 64))
    for space in (model_space("unit-interval", 2, 6), model_space("cantor-set", 2, 6),
                  weighted):
        calls.clear()
        value = profile_capacity(space, RIESZ, 2.0, 0, 1)
        assert len(calls) == 1
        ball = np.arange(*space.grid_ball_range(0, 1))
        assert value == solve_capacity(space, RIESZ, ball, p=2.0).value


def test_capacity_value_keys_a_leaf_run_by_its_ends(monkeypatch):
    # acceptance criterion 5's depth-20 profile: balls of up to 262,144
    # leaves, each keyed by two integers rather than by its leaf bytes, and
    # each within 1e-13 of the exact reduction
    kernel = RadialKernel("riesz", s=0.75, p=2.0)
    space = model_space("tree-boundary", 2, 20, 0.5)
    prof = ball_capacity_profile(space, kernel, 2.0, 0, range(2, 9))
    key_bytes = sum(len(part) for key in space._memo for part in key if isinstance(part, bytes))
    assert key_bytes == 0 and sum(key[0] == "set" for key in space._memo) == 7
    for level, value in zip(prof.levels, prof.capacities):
        lo, hi = space.grid_ball_range(0, int(level))
        assert (lo, hi) == space.subtree_range(0, int(level))
        exact = uniform_ball_capacity(space, kernel, 2.0, 0, int(level))
        assert abs(value - exact) <= 1e-13 * exact
    # a run asked for in any order is the same entry; a set with a gap keeps its bytes
    shared = fresh_tree6()
    calls = spy_on_solves(monkeypatch)
    first = capacity_value(shared, RIESZ, np.arange(8, 13), 2.0)
    assert capacity_value(shared, RIESZ, [12, 9, 8, 11, 10, 9], 2.0) == first
    capacity_value(shared, RIESZ, [8, 9, 11, 12], 2.0)
    assert len(calls) == 2
    assert [key[3:] for key in shared._memo if key[0] == "set"] == \
        [(8, 13), (np.array([8, 9, 11, 12]).tobytes(),)]


def spy_on_solves(monkeypatch) -> list:
    """(kernel, p, leaf bytes) of every solve_capacity call from here on."""
    calls = []

    def spy(space, kernel, target, p=None, **kwargs):
        calls.append((kernel, p, np.unique(np.asarray(target, dtype=np.int64)).tobytes()))
        return solve_capacity(space, kernel, target, p=p, **kwargs)

    monkeypatch.setattr(capacity, "solve_capacity", spy)
    return calls


def test_ball_capacity_memo_solves_once(monkeypatch):
    calls = spy_on_solves(monkeypatch)
    shared = fresh_tree6()
    first = profile_capacity(shared, RIESZ, 2.0, 21, 3)
    assert profile_capacity(shared, RIESZ, 2.0, 21, 3) == first
    # the closed ball of radius delta**3 is the same leaf run as the grid ball
    grid_matching_radius(shared, RIESZ, 2.0, 21, 3)
    grid_matching_radius(shared, RIESZ, 2.0, 21, 3)
    assert len(calls) == 1


def test_capacity_memo_solves_each_target_once(monkeypatch):
    # the first split round asks for the whole space twice (shadow and bad
    # leaves), and every thinness shadow of the final, empty split is empty
    calls = spy_on_solves(monkeypatch)
    space = model_space("unit-interval", 2, 7)
    ext = PoissonExtension(space)
    split = approximation_split(space, ext, RIESZ, 2.0, lipschitz_profile(space, "bump"), 0.05)
    thinness_decay(space, RIESZ, 2.0, split.exceedance, ext.heights)
    assert calls
    assert len(set(calls)) == len(calls)


def test_capacity_value_keyed_on_the_leaf_set(monkeypatch):
    calls = spy_on_solves(monkeypatch)
    shared = fresh_tree6()
    target = np.array([40, 3, 10, 9])
    first = capacity.capacity_value(shared, RIESZ, target, 2.0)
    assert capacity.capacity_value(shared, RIESZ, np.sort(target), 2.0) == first
    assert capacity.capacity_value(shared, RIESZ, np.repeat(target, 3), 2.0) == first
    assert len(calls) == 1
    assert first == solve_capacity(fresh_tree6(), RIESZ, target, p=2.0).value


def test_capacity_value_keyed_on_kernel_and_p(monkeypatch):
    calls = spy_on_solves(monkeypatch)
    shared = fresh_tree6()
    other = RadialKernel("riesz", s=0.9, p=3.0)
    target = np.array([3, 9, 10, 40])
    values = [capacity.capacity_value(shared, kernel, target, p)
              for kernel, p in ((RIESZ, 2.0), (RIESZ, 3.0), (other, 3.0), (other, 2.0))]
    assert len(calls) == 4 and len(set(values)) == 4
    for value, (kernel, p, _) in zip(values, calls):
        assert value == solve_capacity(fresh_tree6(), kernel, target, p=p).value


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
    small = ModelSpace("tree-boundary", 2, 6, 0.5, w)
    # capacity scales with mass too, so compare against an inflated-measure
    # space at the same ball capacity by hand
    er_small = metric_matching_radius(small, k, 2.0, 7, 0.25)
    lo, hi = small.ball_bounds([7], 0.25)
    cap = solve_capacity(small, k, np.arange(lo[0], hi[0]), p=2.0).value
    big = ModelSpace("tree-boundary", 2, 6, 0.5, 2 * w)
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
