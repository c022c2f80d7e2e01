"""Finite-depth tree boundaries and model Ahlfors-regular spaces.

A space here is the leaf set of a uniform b-ary tree truncated at depth N.
Each leaf stands for the cylinder of boundary points below it and carries
the mass of that cylinder.  Two leaves sharing the first ``l`` branching
choices sit at ultrametric distance ``delta**l``, so distinct leaves are
never closer than ``delta**(N-1)`` and the diameter is 1.

Model spaces embed the same combinatorial tree into the line through an
order-preserving map: b-adic subintervals of [0, 1] (``unit-interval``) or
the pieces of a self-similar Cantor-type construction (``cantor-set``).
Balls in either metric are contiguous runs of leaves, which is what makes
every summation in this package a prefix-sum lookup.

Radius conventions: open balls are used for arbitrary real radii.  On the
grid ``{delta**n}`` the closed ball of radius ``delta**n`` equals the open
ball of radius ``delta**(n - 1/2)`` and both equal the depth-n subtree;
grid-indexed quantities (mass profiles, ball capacities) use that subtree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VALID_KINDS = ("tree-boundary", "unit-interval", "cantor-set")


class TreeSpace:
    """Weighted leaf set of a depth-N uniform b-ary tree.

    Instances are immutable after construction; all queries are safe to
    issue concurrently.
    """

    def __init__(self, branching: int, depth: int, delta: float, weights: np.ndarray):
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        n = branching**depth
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"expected {n} leaf weights, got shape {weights.shape}")
        if not np.all(weights > 0.0):
            raise ValueError("leaf weights must be strictly positive")
        self.branching = int(branching)
        self.depth = int(depth)
        self.delta = float(delta)
        self.weights = weights
        self.weights.setflags(write=False)
        self.n_leaves = n
        # block sizes per level: a depth-l subtree spans branching**(depth-l) leaves
        self._block = branching ** np.arange(depth, -1, -1, dtype=np.int64)
        self._radii = delta ** np.arange(depth + 1, dtype=float)
        self._weight_prefix = np.concatenate(([0.0], np.cumsum(weights)))

    @classmethod
    def uniform(cls, branching: int, depth: int, delta: float) -> "TreeSpace":
        n = branching**depth
        return cls(branching, depth, delta, np.full(n, 1.0 / n))

    # -- basic measure / metric queries ----------------------------------

    @property
    def total_mass(self) -> float:
        return float(self._weight_prefix[-1])

    @property
    def diameter(self) -> float:
        return 1.0

    def grid_radius(self, level: int) -> float:
        """delta**level for level in 0..depth."""
        return float(self._radii[level])

    def lca_level(self, x: int, y: int) -> int:
        """Number of leading branching choices shared by two leaves."""
        if x == y:
            return self.depth
        level = 0
        for block in self._block[1:]:
            if x // block != y // block:
                break
            level += 1
        return level

    def lca_levels(self, x: int, ys: np.ndarray) -> np.ndarray:
        """Vectorized lca_level of one leaf against many."""
        ys = np.asarray(ys)
        out = np.zeros(ys.shape, dtype=np.int64)
        for block in self._block[1:]:
            out += (x // block) == (ys // block)
        out[ys == x] = self.depth
        return out

    def lca_matrix(self) -> np.ndarray:
        """All-pairs shared-prefix lengths (depth on the diagonal)."""
        idx = np.arange(self.n_leaves, dtype=np.int64)
        out = np.zeros((self.n_leaves, self.n_leaves), dtype=np.int64)
        for block in self._block[1:]:
            blocks = idx // block
            out += blocks[:, None] == blocks[None, :]
        np.fill_diagonal(out, self.depth)
        return out

    def distance(self, x: int, y: int) -> float:
        if x == y:
            return 0.0
        return float(self._radii[self.lca_level(x, y)])

    def distances_from(self, x: int) -> np.ndarray:
        d = self._radii[np.minimum(self.lca_levels(x, np.arange(self.n_leaves)), self.depth - 1)]
        d = d.copy()
        d[x] = 0.0
        return d

    # -- subtree / ball structure -----------------------------------------

    def subtree_range(self, x: int, level: int) -> tuple[int, int]:
        """Half-open leaf range of the depth-``level`` subtree containing x."""
        block = int(self._block[level])
        lo = (x // block) * block
        return lo, lo + block

    def subtree_mass(self, x: int, level: int) -> float:
        lo, hi = self.subtree_range(x, level)
        return float(self._weight_prefix[hi] - self._weight_prefix[lo])

    def range_mass(self, lo: int, hi: int) -> float:
        return float(self._weight_prefix[hi] - self._weight_prefix[lo])

    def ball_level(self, r: float) -> int | None:
        """Level l with {rho < r} = depth-l subtree, or None for r <= 0.

        The open ball of radius r contains exactly the leaves whose shared
        prefix beats every grid distance below r.
        """
        if r <= 0.0:
            return None
        if r > 1.0:
            return 0
        # smallest l >= 0 with delta**l < r, clipped to depth
        level = int(math.ceil(math.log(r) / math.log(self.delta)))
        level = min(max(level, 0), self.depth + 1)
        while level <= self.depth and not self._radii[level] < r:
            level += 1
        while 0 < level <= self.depth + 1 and self._radii[level - 1] < r:
            level -= 1
        return min(level, self.depth)

    def ball(self, x: int, r: float) -> np.ndarray:
        """Leaves at distance strictly less than r from x."""
        level = self.ball_level(r)
        if level is None:
            return np.empty(0, dtype=np.int64)
        lo, hi = self.subtree_range(x, level)
        return np.arange(lo, hi, dtype=np.int64)

    def block_sum_per_leaf(self, values: np.ndarray, level: int) -> np.ndarray:
        """Depth-``level`` subtree sums of ``values``, broadcast back to leaves."""
        block = int(self._block[level])
        sums = np.asarray(values, dtype=float).reshape(-1, block).sum(axis=1)
        return np.repeat(sums, block)

    # -- paths -------------------------------------------------------------

    def path_of(self, x: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.depth):
            x, d = divmod(x, self.branching)
            digits.append(d)
        return tuple(reversed(digits))

    def leaf_of(self, path) -> int:
        if len(path) != self.depth:
            raise ValueError(f"path length must equal depth {self.depth}")
        x = 0
        for d in path:
            if not 0 <= d < self.branching:
                raise ValueError(f"path digit {d} out of range")
            x = x * self.branching + d
        return x


def build_tree(branching: int, depth: int, delta: float, weights=None) -> TreeSpace:
    """Build a tree space; ``weights=None`` gives the uniform unit mass."""
    if weights is None:
        return TreeSpace.uniform(branching, depth, delta)
    return TreeSpace(branching, depth, delta, np.asarray(weights, dtype=float))


class ModelSpace:
    """A tree space together with the metric it is measured in.

    ``tree-boundary`` uses the ultrametric itself; ``unit-interval`` and
    ``cantor-set`` use the Euclidean distance between the images of the
    order-preserving embedding.  The canonical dimension is
    ``log b / log(1/delta)``, which makes the uniform weight profile exactly
    Ahlfors-regular.
    """

    def __init__(self, kind: str, tree: TreeSpace, dimension: float | None = None):
        if kind not in VALID_KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        b, delta = tree.branching, tree.delta
        if kind == "unit-interval" and abs(delta * b - 1.0) > 1e-12:
            raise ValueError("unit-interval requires delta = 1/branching")
        if kind == "cantor-set" and delta * b >= 1.0:
            raise ValueError("cantor-set requires delta < 1/branching (positive gaps)")
        self.kind = kind
        self.tree = tree
        if dimension is None:
            dimension = math.log(b) / math.log(1.0 / delta)
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = float(dimension)
        if kind == "tree-boundary":
            self.coords = None
        else:
            self.coords = _embedding_coords(tree)
            self.coords.setflags(write=False)
        self._memo: dict = {}

    # passthroughs used everywhere
    @property
    def n_leaves(self) -> int:
        return self.tree.n_leaves

    @property
    def weights(self) -> np.ndarray:
        return self.tree.weights

    @property
    def total_mass(self) -> float:
        return self.tree.total_mass

    @property
    def delta(self) -> float:
        return self.tree.delta

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def diameter(self) -> float:
        return 1.0

    def _cached(self, key: tuple, compute):
        """Memoized ``compute()`` for this space.  Weights and coordinates are
        read-only, so the instance fixes geometry and mass; ``key`` names
        everything else the result depends on."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- metric -------------------------------------------------------------

    def distance(self, x: int, y: int) -> float:
        if self.kind == "tree-boundary":
            return self.tree.distance(x, y)
        return abs(float(self.coords[x]) - float(self.coords[y]))

    def distances_from(self, x: int) -> np.ndarray:
        if self.kind == "tree-boundary":
            return self.tree.distances_from(x)
        return np.abs(self.coords - self.coords[x])

    def distance_matrix(self) -> np.ndarray:
        if self.kind == "tree-boundary":
            lca = np.minimum(self.tree.lca_matrix(), self.tree.depth - 1)
            d = self.tree.delta ** lca.astype(float)
            np.fill_diagonal(d, 0.0)
            return d
        d = np.subtract.outer(self.coords, self.coords)
        return np.abs(d, out=d)

    def ball_bounds(self, centers, r: float, closed: bool = False):
        """Half-open leaf index ranges of the metric balls around ``centers``.

        Balls in all three kinds are contiguous runs of leaves.  ``closed``
        switches {d < r} to {d <= r}; it matters only when r is a realized
        distance.
        """
        centers = np.asarray(centers, dtype=np.int64)
        if self.kind == "tree-boundary":
            if closed:
                # {rho <= r}: subtree at the coarsest level with delta**l <= r
                level = self._closed_ball_level(r)
            else:
                level = self.tree.ball_level(r)
            if level is None:
                return centers * 0, centers * 0
            block = int(self.tree._block[level])
            lo = (centers // block) * block
            return lo, lo + block
        c = self.coords[centers]
        if closed:
            lo = np.searchsorted(self.coords, c - r, side="left")
            hi = np.searchsorted(self.coords, c + r, side="right")
        else:
            lo = np.searchsorted(self.coords, c - r, side="right")
            hi = np.searchsorted(self.coords, c + r, side="left")
        return lo.astype(np.int64), hi.astype(np.int64)

    def _closed_ball_level(self, r: float) -> int | None:
        if r < 0.0:
            return None
        if r >= 1.0:
            return 0
        lvl = self.tree.ball_level(r)
        # open ball at r equals subtree lvl; {rho <= r} widens by one level
        # exactly when r is on the grid
        if lvl is not None and lvl > 0 and self.tree._radii[lvl - 1] <= r:
            lvl -= 1
        return lvl

    def ball_mass(self, x: int, r: float, closed: bool = False) -> float:
        lo, hi = self.ball_bounds(np.array([x]), r, closed=closed)
        return self.tree.range_mass(int(lo[0]), int(hi[0]))

    def grid_ball_range(self, x: int, level: int) -> tuple[int, int]:
        """Closed ball of radius delta**level = depth-``level`` subtree."""
        if self.kind == "tree-boundary":
            return self.tree.subtree_range(x, level)
        lo, hi = self.ball_bounds(np.array([x]), self.tree.grid_radius(level), closed=True)
        return int(lo[0]), int(hi[0])

    def grid_ball_mass(self, x: int, level: int) -> float:
        lo, hi = self.grid_ball_range(x, level)
        return self.tree.range_mass(lo, hi)


def _embedding_coords(tree: TreeSpace) -> np.ndarray:
    """Left endpoints of the nested pieces: digit d contributes
    d * (1-delta)/(b-1) * delta**level.  For delta = 1/b this is the plain
    b-adic expansion."""
    b, N, delta = tree.branching, tree.depth, tree.delta
    step = (1.0 - delta) / (b - 1)
    idx = np.arange(tree.n_leaves, dtype=np.int64)
    coords = np.zeros(tree.n_leaves, dtype=float)
    for level in range(N):
        block = b ** (N - 1 - level)
        digits = (idx // block) % b
        coords += digits * step * delta**level
    return coords


def model_space(kind: str, branching: int, depth: int, delta: float | None = None,
                dimension: float | None = None, weights=None) -> ModelSpace:
    """One-stop constructor with per-kind default delta."""
    if delta is None:
        if kind == "unit-interval":
            delta = 1.0 / branching
        elif kind == "cantor-set":
            delta = 1.0 / 3.0
        else:
            delta = 0.5
    tree = build_tree(branching, depth, delta, weights)
    return ModelSpace(kind, tree, dimension)


def lambda_map(space: ModelSpace, x: int) -> float:
    """Embedding coordinate of a leaf (the nested-piece intersection point)."""
    if space.kind == "tree-boundary":
        raise ValueError("tree-boundary leaves are their own points; no embedding")
    return float(space.coords[x])


def leaf_coordinates(space: ModelSpace) -> np.ndarray:
    if space.kind == "tree-boundary":
        raise ValueError("tree-boundary leaves are their own points; no embedding")
    return space.coords


def ahlfors_constants(space: ModelSpace) -> tuple[float, float]:
    """Measured inf/sup of mass(ball)/r^Q over leaves and grid radii.

    Grid-radius balls are taken in the closed sense, so on the uniform
    tree boundary with the canonical dimension both constants are 1.
    """
    tree = space.tree
    q = space.dimension
    lo_ratio, hi_ratio = math.inf, -math.inf
    centers = np.arange(tree.n_leaves, dtype=np.int64)
    for n in range(1, tree.depth + 1):
        r = tree.grid_radius(n)
        lo, hi = space.ball_bounds(centers, r, closed=True)
        masses = tree._weight_prefix[hi] - tree._weight_prefix[lo]
        ratios = masses / r**q
        lo_ratio = min(lo_ratio, float(ratios.min()))
        hi_ratio = max(hi_ratio, float(ratios.max()))
    return lo_ratio, hi_ratio


# -- dyadic cube hierarchy ---------------------------------------------------


@dataclass
class ChristCube:
    level: int
    index: int
    lo: int          # half-open leaf range [lo, hi)
    hi: int
    center: int      # witness leaf for the inner ball
    inner_radius: float

    def contains(self, other: "ChristCube") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass
class ChristTree:
    space: ModelSpace
    levels: list            # levels[k] = list[ChristCube]
    delta: float
    c_inner: float          # recorded inner-ball constant
    c_diam: float           # recorded diameter constant

    def cubes(self, level: int):
        return self.levels[level]


def christ_cubes(space: ModelSpace) -> ChristTree:
    """Cube hierarchy: level-k cubes are the depth-k subtree spans.

    For the tree boundary the constants delta and 1 are exact; for the
    embedded kinds the inner-ball and diameter constants are measured on
    the discretization and recorded, not assumed.
    """
    tree = space.tree
    b, N, delta = tree.branching, tree.depth, tree.delta
    levels = []
    c_inner, c_diam = math.inf, 0.0
    for k in range(N + 1):
        block = b ** (N - k)
        row = []
        for alpha in range(b**k):
            lo, hi = alpha * block, (alpha + 1) * block
            center = (lo + hi - 1) // 2
            if space.kind == "tree-boundary":
                # open ball of radius delta**(k+1) at any leaf stays in the cube
                inner = delta ** (k + 1)
            else:
                inner = _distance_to_complement(space, center, lo, hi)
            row.append(ChristCube(k, alpha, lo, hi, center, inner))
            if k >= 1:
                c_inner = min(c_inner, inner / delta**k)
                diam = _range_diameter(space, lo, hi)
                c_diam = max(c_diam, diam / delta**k)
        levels.append(row)
    if space.kind == "tree-boundary":
        c_inner, c_diam = delta, 1.0
    return ChristTree(space, levels, delta, c_inner, c_diam)


def _range_diameter(space: ModelSpace, lo: int, hi: int) -> float:
    if hi - lo <= 1:
        return 0.0
    if space.kind == "tree-boundary":
        return float(space.tree.distance(lo, hi - 1))
    return float(space.coords[hi - 1] - space.coords[lo])


def _distance_to_complement(space: ModelSpace, x: int, lo: int, hi: int) -> float:
    n = space.n_leaves
    if lo == 0 and hi == n:
        return space.diameter
    best = math.inf
    if lo > 0:
        best = min(best, space.distance(x, lo - 1))
    if hi < n:
        best = min(best, space.distance(x, hi))
    return best


def verify_christ(ctree: ChristTree) -> dict:
    """Exhaustively check the five cube-hierarchy properties.

    Returns a report with one boolean per property plus the first violation
    found, if any.
    """
    space = ctree.space
    n = space.n_leaves
    report = {"cover": True, "nesting": True, "unique_parent": True,
              "diameter": True, "inner_ball": True, "violation": None}

    def fail(key, info):
        report[key] = False
        if report["violation"] is None:
            report["violation"] = (key, info)

    for k, row in enumerate(ctree.levels):
        covered = np.zeros(n, dtype=bool)
        for cube in row:
            if covered[cube.lo:cube.hi].any():
                fail("nesting", (k, cube.index))
            covered[cube.lo:cube.hi] = True
        if not covered.all():
            fail("cover", k)
    for k, row in enumerate(ctree.levels):
        for parent_level in range(k):
            for cube in row:
                parents = [c for c in ctree.levels[parent_level] if c.contains(cube)]
                crossers = [c for c in ctree.levels[parent_level]
                            if not c.contains(cube) and not (c.hi <= cube.lo or c.lo >= cube.hi)]
                if len(parents) != 1:
                    fail("unique_parent", (k, cube.index, parent_level))
                if crossers:
                    fail("nesting", (k, cube.index, parent_level))
    for k, row in enumerate(ctree.levels):
        if k == 0:
            continue
        for cube in row:
            if _range_diameter(space, cube.lo, cube.hi) > ctree.c_diam * ctree.delta**k + 1e-12:
                fail("diameter", (k, cube.index))
            # open ball of the recorded inner radius must stay inside the cube
            r = ctree.c_inner * ctree.delta**k
            lo, hi = space.ball_bounds(np.array([cube.center]), r, closed=False)
            if not (cube.lo <= int(lo[0]) and int(hi[0]) <= cube.hi):
                fail("inner_ball", (k, cube.index))
    return report


# -- flat text serialization --------------------------------------------------


def dump_space(space: ModelSpace, path) -> None:
    """Header line (kind, b, N, delta, Q), then one weight per line."""
    tree = space.tree
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{space.kind} {tree.branching} {tree.depth} "
                 f"{tree.delta!r} {space.dimension!r}\n")
        for w in tree.weights:
            fh.write(f"{float(w)!r}\n")


def load_space(path) -> ModelSpace:
    with open(path, "r", encoding="ascii") as fh:
        kind, b, depth, delta, dim = fh.readline().split()
        weights = [float(line) for line in fh if line.strip()]
    tree = TreeSpace(int(b), int(depth), float(delta), np.asarray(weights))
    return ModelSpace(kind, tree, float(dim))
