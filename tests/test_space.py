import math

import numpy as np
import pytest

from potlab.space import (ModelSpace, ahlfors_constants, dump_space, load_space, model_space,
                          sorted_unique)


def open_ball(space, x, r):
    """Leaves at distance strictly less than r from x."""
    lo, hi = space.ball_bounds([x], r)
    return np.arange(lo[0], hi[0])


def leaf_of(space, path) -> int:
    """The leaf reached by the branching choices ``path``, root first."""
    x = 0
    for digit in path:
        x = x * space.branching + digit
    return x


def test_uniform_build_mass_normalization():
    t = ModelSpace("tree-boundary", 2, 1, 0.5)
    assert t.n_leaves == 2
    assert np.allclose(t.weights, 0.5)

    t = ModelSpace("tree-boundary", 3, 4, 1 / 3)
    assert t.n_leaves == 81
    assert np.allclose(t.weights, 3.0**-4)
    assert t.total_mass == pytest.approx(1.0)


def test_custom_weights_ball_mass():
    w = np.array([1, 1, 1, 1, 2, 2, 2, 2]) / 12
    t = ModelSpace("tree-boundary", 2, 3, 0.5, w)
    assert t.total_mass == pytest.approx(1.0)
    # ball of radius sqrt(delta) around leaf 0 is the left depth-1 subtree
    ball = open_ball(t, 0, 0.5**0.5)
    assert ball.tolist() == [0, 1, 2, 3]
    assert t.weights[ball].sum() == pytest.approx(4 / 12)


@pytest.mark.parametrize("bad", [
    dict(branching=1, depth=3, delta=0.5),
    dict(branching=2, depth=0, delta=0.5),
    dict(branching=2, depth=3, delta=0.0),
    dict(branching=2, depth=3, delta=1.0),
])
def test_build_rejects_bad_parameters(bad):
    with pytest.raises(ValueError):
        ModelSpace("tree-boundary", bad["branching"], bad["depth"], bad["delta"])


def test_build_rejects_bad_weights():
    with pytest.raises(ValueError):
        ModelSpace("tree-boundary", 2, 2, 0.5, [1.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ModelSpace("tree-boundary", 2, 2, 0.5, [1.0, 1.0, 1.0])


def test_lca_level_examples():
    t = ModelSpace("tree-boundary", 2, 3, 0.5)
    assert t.lca_levels(5, 5) == 3
    assert t.lca_levels(leaf_of(t, (0, 0, 0)), leaf_of(t, (1, 0, 0))) == 0
    t4 = ModelSpace("tree-boundary", 2, 4, 0.5)
    assert t4.lca_levels(leaf_of(t4, (0, 1, 1, 0)), leaf_of(t4, (0, 1, 1, 1))) == 3


def test_distance_basics():
    t = ModelSpace("tree-boundary", 2, 5, 0.5)
    assert t.distance(7, 7) == 0.0
    x, y = leaf_of(t, (0, 1, 0, 0, 0)), leaf_of(t, (0, 1, 0, 1, 1))
    assert t.lca_levels(x, y) == 3
    assert t.distance(x, y) == pytest.approx(0.125)
    # distinct leaves never at distance zero
    assert t.distance(0, 1) >= t.delta ** (t.depth - 1)


def test_ultrametric_inequality_exhaustive_depth4(rng):
    t = ModelSpace("tree-boundary", 2, 4, 0.37)
    n = t.n_leaves
    d = np.array([[t.distance(i, j) for j in range(n)] for i in range(n)])
    assert np.all(d[:, :, None] <= np.maximum(d[:, None, :], d[None, :, :]) + 1e-15)
    # plus random triples on a bigger tree
    t8 = ModelSpace("tree-boundary", 2, 8, 0.5)
    trip = rng.integers(0, t8.n_leaves, size=(1000, 3))
    for a, b, c in trip:
        assert t8.distance(a, c) <= max(t8.distance(a, b), t8.distance(b, c)) + 1e-15


def test_ball_conventions():
    t = ModelSpace("tree-boundary", 2, 3, 0.5)
    assert open_ball(t, 5, 0.0).size == 0
    assert open_ball(t, 5, 1.5).size == t.n_leaves
    assert open_ball(t, 5, 0.3).tolist() == [4, 5]          # sibling pair
    # exact grid radius is open: delta**1 excludes the level-1 annulus
    assert open_ball(t, 0, 0.5).tolist() == [0, 1]


def test_ball_dichotomy_depth5():
    t = ModelSpace("tree-boundary", 2, 5, 0.5)
    radii = [0.5**k for k in range(6)] + [0.3, 0.7, 1.2]
    balls = [frozenset(open_ball(t, x, r).tolist()) for x in range(t.n_leaves) for r in radii]
    for a in balls:
        for b in balls:
            assert not a or not b or a <= b or b <= a or not (a & b)


def test_measure_additivity(rng):
    w = rng.random(16) + 0.1
    t = ModelSpace("tree-boundary", 2, 4, 0.5, w)
    assert t.total_mass == pytest.approx(w.sum())
    for x in (0, 7, 15):
        for r in (0.1, 0.3, 0.6, 2.0):
            ball = open_ball(t, x, r)
            assert t.weights[ball].sum() == pytest.approx(
                t.range_mass(ball[0], ball[-1] + 1) if ball.size else 0.0)


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_grid_ball_range_checks_leaf_and_level(kind):
    ms = model_space(kind, 2, 4)
    assert ms.grid_ball_range(0, 0) == (0, 16)
    lo, hi = ms.grid_ball_range(15, 4)
    assert lo <= 15 < hi == 16
    for x, level in ((-1, 2), (16, 2), (3, -1), (3, 5)):
        with pytest.raises(ValueError):
            ms.grid_ball_range(x, level)


@pytest.mark.parametrize("kind,b", [("tree-boundary", 2), ("tree-boundary", 3),
                                    ("unit-interval", 2), ("cantor-set", 2)])
def test_ball_bounds_are_distance_runs(kind, b):
    # every kind: open and closed balls at every realized distance (0 too)
    # are the runs {d < r} and {d <= r}; an empty ball is lo == hi
    ms = model_space(kind, b, 4)
    centers = np.arange(ms.n_leaves)
    dm = ms.distance_matrix()
    for x in centers:
        assert all(ms.distance(x, y) == ms.distances_from(x)[y] == dm[x, y]
                   for y in centers)
    for r in np.unique(dm):
        for closed in (False, True):
            lo, hi = ms.ball_bounds(centers, float(r), closed=closed)
            for x in centers:
                inside = np.flatnonzero(dm[x] <= r if closed else dm[x] < r)
                if inside.size:
                    assert inside.tolist() == list(range(lo[x], hi[x]))
                else:
                    assert lo[x] == hi[x]
    # a negative radius gives the empty ball in both conventions
    for closed in (False, True):
        lo, hi = ms.ball_bounds(centers, -0.5, closed=closed)
        assert np.array_equal(lo, hi)


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_ball_bounds_per_center_radii(kind, rng):
    # one radius per center gives the balls of one scalar call per center,
    # for realized distances, radii between them, 0 and negative radii
    ms = model_space(kind, 2, 5)
    dm = ms.distance_matrix()
    pool = np.concatenate((np.unique(dm), rng.random(20), [0.0, -0.3, 1.5]))
    centers = rng.integers(0, ms.n_leaves, 200)
    radii = rng.choice(pool, centers.size)
    radii[:2] = 0.0, -0.3
    for closed in (False, True):
        lo, hi = ms.ball_bounds(centers, radii, closed=closed)
        for x, r, a, b in zip(centers, radii, lo, hi):
            one_lo, one_hi = ms.ball_bounds(np.array([x]), float(r), closed=closed)
            assert (a, b) == (one_lo[0], one_hi[0])


def test_weights_are_a_frozen_copy():
    base = np.ones(8)
    ms = ModelSpace("tree-boundary", 2, 3, 0.5, base)
    base[0] = 5.0
    assert ms.weights[0] == 1.0 and ms.total_mass == 8.0
    assert not ms.weights.flags.writeable


def test_model_space_kind_validation():
    with pytest.raises(ValueError):
        model_space("nosuch", 2, 3)
    with pytest.raises(ValueError):
        model_space("unit-interval", 2, 3, delta=0.4)
    with pytest.raises(ValueError):
        model_space("cantor-set", 2, 3, delta=0.5)   # needs gaps


def test_leaf_coordinates_values():
    mi = model_space("unit-interval", 2, 4)
    assert mi.coords[leaf_of(mi, (0, 0, 0, 0))] == 0.0
    mi2 = model_space("unit-interval", 2, 2)
    assert mi2.coords[leaf_of(mi2, (1, 0))] == pytest.approx(0.5)
    mc = model_space("cantor-set", 2, 6)
    # all-ones path accumulates the geometric series of upper thirds
    top = leaf_of(mc, (1,) * 6)
    assert mc.coords[top] == pytest.approx(sum(2 * 3.0**-k for k in range(1, 7)))
    # tree-boundary leaves are their own points: no embedding
    assert model_space("tree-boundary", 2, 3).coords is None


def test_leaf_coordinates_injective_order_preserving():
    for kind in ("unit-interval", "cantor-set"):
        ms = model_space(kind, 3 if kind == "unit-interval" else 2, 4)
        coords = ms.coords
        assert np.all(np.diff(coords) > 0)


def test_ahlfors_constants_canonical():
    ms = model_space("tree-boundary", 2, 6, 0.5)    # Q = 1 canonical
    k1, k2 = ahlfors_constants(ms)
    assert k1 == pytest.approx(1.0, abs=1e-12)
    assert k2 == pytest.approx(1.0, abs=1e-12)

    m3 = model_space("tree-boundary", 3, 4, 1 / 3)
    k1, k2 = ahlfors_constants(m3)
    assert k1 == pytest.approx(k2)


def test_ahlfors_constants_ordering(rng):
    w = rng.random(64) + 0.5
    ms = ModelSpace("tree-boundary", 2, 6, 0.5, w)
    k1, k2 = ahlfors_constants(ms)
    assert 0 < k1 <= k2 < math.inf


def test_serialization_roundtrip(tmp_path, rng):
    w = rng.random(27) + 0.2
    ms = ModelSpace("tree-boundary", 3, 3, 0.4, w, dimension=1.2)
    path = tmp_path / "space.txt"
    dump_space(ms, path)
    back = load_space(path)
    assert back.kind == ms.kind
    assert back.branching == 3 and back.depth == 3
    assert back.delta == ms.delta
    assert back.dimension == ms.dimension
    assert np.array_equal(back.weights, ms.weights)


# -- aligned blocks and the cells around them ------------------------------------


def maximal_subtrees(space, keep):
    """(first leaf, size) of the maximal subtrees whose leaves all pass
    ``keep(lo, hi)``, in leaf order: every subtree is checked."""
    b = space.branching
    good = set()
    for level in range(space.depth + 1):
        size = b ** (space.depth - level)
        for lo in range(0, space.n_leaves, size):
            if keep(lo, lo + size):
                good.add((lo, size))
    return sorted((lo, size) for lo, size in good
                  if size == space.n_leaves or (lo // (b * size) * b * size, b * size) not in good)


def aligned_blocks_oracle(space, leaves):
    """Sizes of the maximal aligned subtrees inside ``leaves`` whose leaf
    weights are all equal, in leaf order."""
    inside = np.zeros(space.n_leaves, dtype=bool)
    inside[leaves] = True
    w = space.weights
    return [size for _, size in maximal_subtrees(
        space, lambda lo, hi: inside[lo:hi].all() and np.all(w[lo:hi] == w[lo]))]


def free_cells_oracle(space, leaves):
    """(first leaf, size) of the maximal subtrees that miss ``leaves``."""
    inside = np.zeros(space.n_leaves, dtype=bool)
    inside[leaves] = True
    return maximal_subtrees(space, lambda lo, hi: not inside[lo:hi].any())


def equal_on_some_subtrees(space, rng):
    """Random weights, then made equal on a few random subtrees."""
    w = rng.random(space.n_leaves) + 0.5
    for _ in range(4):
        level = int(rng.integers(1, space.depth))
        lo, hi = space.subtree_range(int(rng.integers(space.n_leaves)), level)
        w[lo:hi] = w[lo]
    return w


@pytest.mark.parametrize("b, depth", [(2, 6), (3, 4), (4, 3)])
@pytest.mark.parametrize("weights", ["uniform", "random", "equal-on-subtrees"])
def test_aligned_blocks_match_the_subtree_oracle(b, depth, weights, rng):
    # the cells inside the set are its aligned blocks, the others the maximal
    # subtrees that miss it, and together they tile the leaves in order
    n = b**depth
    space = model_space("tree-boundary", b, depth, 0.5)
    if weights == "random":
        space = model_space("tree-boundary", b, depth, 0.5, weights=rng.random(n) + 0.5)
    elif weights == "equal-on-subtrees":
        space = model_space("tree-boundary", b, depth, 0.5,
                            weights=equal_on_some_subtrees(space, rng))
    targets = [np.arange(n), np.array([0]), np.array([n - 1]), np.arange(1, n - 1)]
    for share in (0.2, 0.5, 0.8, 0.95):
        targets.append(np.flatnonzero(rng.random(n) < share))
    # unions of subtrees, some of them siblings, with stray leaves
    for _ in range(4):
        keep = np.zeros(n, dtype=bool)
        for _ in range(int(rng.integers(1, 6))):
            lo, hi = space.subtree_range(int(rng.integers(n)), int(rng.integers(0, depth + 1)))
            keep[lo:hi] = True
        keep[rng.integers(0, n, 3)] = True
        targets.append(np.flatnonzero(keep))
    for target in targets:
        starts, sizes, masses, inside = space.cells(target)
        assert sizes[inside].tolist() == aligned_blocks_oracle(space, target)
        assert sizes[inside].sum() == target.size
        assert list(zip(starts[~inside].tolist(), sizes[~inside].tolist())) == \
            free_cells_oracle(space, target)
        assert starts[0] == 0 and np.array_equal(starts[1:], (starts + sizes)[:-1])
        assert starts[-1] + sizes[-1] == n
        assert masses.tolist() == [space.range_mass(lo, lo + k) for lo, k in zip(starts, sizes)]


@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_aligned_blocks_are_single_leaves_off_the_ultrametric(kind):
    space = model_space(kind, 2, 6)
    for target in (np.arange(64), np.arange(16, 32), np.array([5])):
        starts, sizes, masses, inside = space.cells(target)
        assert starts.tolist() == list(range(64)) and sizes.tolist() == [1] * 64
        assert masses is space.weights and np.flatnonzero(inside).tolist() == target.tolist()


def test_sorted_unique_matches_np_unique(rng):
    for values in (rng.integers(0, 50, 200), rng.integers(-3, 3, 7), np.array([], dtype=np.int64),
                   np.arange(1024), rng.random(30).round(1), np.array([4.0])):
        assert np.array_equal(sorted_unique(values), np.unique(values))
