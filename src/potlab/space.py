"""Finite-depth tree boundaries and model Ahlfors-regular spaces.

A space here is the leaf set of a uniform b-ary tree truncated at depth N,
measured in one of three metrics.  Each leaf stands for the cylinder of
boundary points below it and carries the mass of that cylinder.  One class,
``ModelSpace``, holds the tree, the leaf masses and the metric, and answers
every query about them.

``tree-boundary`` uses the ultrametric: two leaves sharing the first ``l``
branching choices sit at distance ``delta**l``, so distinct leaves are never
closer than ``delta**(N-1)`` and the diameter is 1.  ``unit-interval`` and
``cantor-set`` embed the same combinatorial tree into the line through an
order-preserving map: b-adic subintervals of [0, 1], or the pieces of a
self-similar Cantor-type construction.  Balls in every metric are contiguous
runs of leaves, which is what makes every summation in this package a
prefix-sum lookup.

Radius conventions, the same on every kind: the open ball {d < r} is empty
for r <= 0, the closed ball {d <= r} of radius 0 is the center alone, and an
empty ball is the range ``lo == hi``.  On the grid ``{delta**n}`` the closed
ball of radius ``delta**n`` equals the open ball of radius
``delta**(n - 1/2)``, and on the tree both equal the depth-n subtree;
grid-indexed quantities (mass profiles, ball capacities) use the closed ball.
"""

from __future__ import annotations

import math

import numpy as np

VALID_KINDS = ("tree-boundary", "unit-interval", "cantor-set")
MAX_LEAVES = 2**24   # the largest space the tests build has 2**20 leaves


class ModelSpace:
    """Weighted leaf set of a depth-N uniform b-ary tree in one metric.

    ``weights=None`` gives the uniform unit mass.  The canonical dimension
    is ``log b / log(1/delta)``, which makes the uniform weight profile
    exactly Ahlfors-regular.  Instances are immutable after construction:
    the weights are a read-only copy, so derived quantities can be memoized
    on the instance.
    """

    def __init__(self, kind: str, branching: int, depth: int, delta: float,
                 weights=None, dimension: float | None = None):
        if kind not in VALID_KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        if kind == "unit-interval" and abs(delta * branching - 1.0) > 1e-12:
            raise ValueError("unit-interval requires delta = 1/branching")
        if kind == "cantor-set" and delta * branching >= 1.0:
            raise ValueError("cantor-set requires delta < 1/branching (positive gaps)")
        # checked before any array is sized; as b >= 2, a depth past the cap's
        # bit length is over the cap, so the power below stays small
        if depth > MAX_LEAVES.bit_length() or branching**depth > MAX_LEAVES:
            raise ValueError(f"a space has at most {MAX_LEAVES} leaves, got "
                             f"branching**depth = {branching}**{depth}")
        n = branching**depth
        weights = np.full(n, 1.0 / n) if weights is None else np.array(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(f"expected {n} leaf weights, got shape {weights.shape}")
        if not np.all((weights > 0.0) & np.isfinite(weights)):
            raise ValueError("leaf weights must be finite and strictly positive")
        if dimension is None:
            dimension = math.log(branching) / math.log(1.0 / delta)
        if not 0.0 < dimension < math.inf:
            raise ValueError("dimension must be finite and positive")
        weights.setflags(write=False)
        self.kind = kind
        self.branching = int(branching)
        self.depth = int(depth)
        self.delta = float(delta)
        self.dimension = float(dimension)
        self.weights = weights
        self.n_leaves = n
        self.diameter = 1.0
        # block sizes per level: a depth-l subtree spans branching**(depth-l) leaves
        self._block = tuple(branching ** (depth - level) for level in range(depth + 1))
        self._radii = delta ** np.arange(depth + 1, dtype=float)
        self._weight_prefix = np.concatenate(([0.0], np.cumsum(weights)))
        self.total_mass = float(self._weight_prefix[-1])
        self.coords = None if kind == "tree-boundary" else _embedding_coords(self)
        self._memo: dict = {}

    def _cached(self, key: tuple, compute):
        """Memoized ``compute()`` for this space.  Weights and coordinates are
        read-only, so the instance fixes geometry and mass; ``key`` names
        everything else the result depends on."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- tree structure ------------------------------------------------------

    def grid_radius(self, level: int) -> float:
        """delta**level for level in 0..depth."""
        return float(self._radii[level])

    def lca_levels(self, x, ys):
        """Number of leading branching choices leaf x shares with leaf ys,
        broadcast over arrays (depth where they coincide).  Plain integers
        stay plain, so one pair costs O(depth) integer divisions."""
        return sum((x // block) == (ys // block) for block in self._block[1:])

    def lca_matrix(self) -> np.ndarray:
        """All-pairs shared-prefix lengths (depth on the diagonal)."""
        idx = np.arange(self.n_leaves, dtype=np.int64)
        return self.lca_levels(idx[:, None], idx[None, :])

    def subtree_range(self, x: int, level: int) -> tuple[int, int]:
        """Half-open leaf range of the depth-``level`` subtree containing x."""
        block = self._block[level]
        lo = (x // block) * block
        return lo, lo + block

    def range_mass(self, lo: int, hi: int) -> float:
        return float(self._weight_prefix[hi] - self._weight_prefix[lo])

    def cells(self, leaves) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The cells that tile all leaves around a sorted nonempty set of
        distinct leaves, in leaf order: (first leaf, size, mass, inside the
        set) per cell.  On the ultrametric the cells inside the set are its
        aligned blocks, the maximal subtrees inside it whose leaves all carry
        the same weight (an automorphism of one, the identity elsewhere,
        keeps the ultrametric, the weights and the set), and the others are
        the maximal subtrees that miss the set.  The embedded metrics have
        no such symmetry, so there each cell is one leaf."""
        leaves = np.asarray(leaves, dtype=np.int64)
        n = self.n_leaves
        if self.kind != "tree-boundary":
            inside = np.zeros(n, dtype=bool)
            inside[leaves] = True
            return np.arange(n), np.ones(n, dtype=np.int64), self.weights, inside
        # edges 0, first run's ends, .., n: the runs of equal-weight set leaves
        # and the gaps around them, each cut into its maximal subtrees
        w = self.weights[leaves]
        cut = np.flatnonzero((leaves[1:] - leaves[:-1] != 1) | (w[1:] != w[:-1]))
        edges = np.empty(2 * cut.size + 4, dtype=np.int64)
        edges[0], edges[1], edges[-2], edges[-1] = 0, leaves[0], leaves[-1] + 1, n
        edges[2:-2:2] = leaves[cut] + 1
        edges[3:-2:2] = leaves[cut + 1]
        # per interval and level k, the subtrees of b**k leaves inside it whose
        # parent is not: blocks first .. stop - 1 of that size but those under
        # parents inside, left .. right - 1.  In leaf order, an interval's cells
        # left of those parents come finest first, those right coarsest first
        b, size = self.branching, np.array(self._block[::-1])
        first, stop = -(-edges[:-1, None] // size), edges[1:, None] // size
        left = np.minimum(-(-first // b) * b, stop)
        right = np.maximum(stop // b * b, left)
        count = np.concatenate((np.maximum(left - first, 0), (stop - right)[:, ::-1]), axis=1)
        both = np.concatenate((size, size[::-1]))
        sizes = both[np.arange(count.size) % both.size].repeat(count.ravel())
        ends = sizes.cumsum()
        masses = self._weight_prefix[ends] - self._weight_prefix[ends - sizes]
        inside = (np.arange(edges.size - 1) % 2 == 1).repeat(count.sum(axis=1))
        return ends - sizes, sizes, masses, inside

    # -- metric ----------------------------------------------------------------

    def distance(self, x: int, y: int) -> float:
        if self.kind == "tree-boundary":
            return 0.0 if x == y else float(self._radii[self.lca_levels(x, y)])
        return abs(float(self.coords[x]) - float(self.coords[y]))

    def distances_from(self, x: int) -> np.ndarray:
        if self.kind == "tree-boundary":
            d = self._radii[self.lca_levels(x, np.arange(self.n_leaves))]
            d[x] = 0.0
            return d
        return np.abs(self.coords - self.coords[x])

    def distance_matrix(self) -> np.ndarray:
        if self.kind == "tree-boundary":
            d = self._radii[self.lca_matrix()]
            np.fill_diagonal(d, 0.0)
            return d
        d = np.subtract.outer(self.coords, self.coords)
        return np.abs(d, out=d)

    def ball_bounds(self, centers, r, closed: bool = False):
        """Half-open leaf index ranges of the metric balls around ``centers``.

        ``r`` is one radius for every center or one radius per center.
        ``closed`` switches {d < r} to {d <= r}; it matters only when r is a
        realized distance.  A ball with no leaf is the range (c, c).
        """
        centers = np.asarray(centers, dtype=np.int64)
        empty = None
        if np.isscalar(r):
            if r < 0.0 or (r == 0.0 and not closed):
                return centers.copy(), centers.copy()
        else:
            r = np.asarray(r, dtype=float)
            empty = (r < 0.0) | ((r == 0.0) & (not closed))
        if self.kind == "tree-boundary":
            block = self.branching ** (self.depth - self._ball_level(r, closed))
            lo = (centers // block) * block
            hi = lo + block
        else:
            coords, c = self.coords, self.coords[centers]

            def inside(y):
                d = np.abs(coords.take(y, mode="clip") - c)
                return d <= r if closed else d < r

            lo = np.searchsorted(coords, c - r, side="left" if closed else "right")
            hi = np.searchsorted(coords, c + r, side="right" if closed else "left")
            # c - r and c + r are rounded, so either search can put an end of
            # the run one leaf off from what distances_from says; settle both ends
            lo -= (lo > 0) & inside(lo - 1)
            lo += ~inside(lo)
            hi += (hi < self.n_leaves) & inside(hi)
            hi -= ~inside(hi - 1)
            lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        if empty is not None:
            lo, hi = np.where(empty, centers, lo), np.where(empty, centers, hi)
        return lo, hi

    def _ball_level(self, r, closed: bool):
        """Level l whose subtree is the ultrametric ball {rho < r}, or
        {rho <= r} when closed, per radius: the first l with delta**l below
        r (at most r when closed), or depth when there is none.  The levels
        before l are the grid radii at least r (above r when closed)."""
        before = self._radii.size - np.searchsorted(
            self._radii[::-1], r, side="right" if closed else "left")
        return np.minimum(before, self.depth)

    def grid_ball_range(self, x: int, level: int) -> tuple[int, int]:
        """Closed ball of radius delta**level around leaf x; on the tree it
        is the depth-``level`` subtree."""
        if not (0 <= x < self.n_leaves and 0 <= level <= self.depth):
            raise ValueError(f"grid ball needs a leaf in 0..{self.n_leaves - 1} and "
                             f"a level in 0..{self.depth}, got leaf {x}, level {level}")
        if self.kind == "tree-boundary":
            return self.subtree_range(x, level)
        lo, hi = self.ball_bounds(np.array([x]), self.grid_radius(level), closed=True)
        return int(lo[0]), int(hi[0])


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array without NaN, sorted: np.unique
    without its index machinery, which loads ``numpy.ma`` on first use."""
    values = np.sort(values)
    keep = np.ones(values.shape, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _embedding_coords(space: ModelSpace) -> np.ndarray:
    """Left endpoints of the nested pieces: digit d contributes
    d * (1-delta)/(b-1) * delta**level.  For delta = 1/b this is the plain
    b-adic expansion.  Read-only, like the weights."""
    b, N, delta = space.branching, space.depth, space.delta
    step = (1.0 - delta) / (b - 1)
    idx = np.arange(space.n_leaves, dtype=np.int64)
    coords = np.zeros(space.n_leaves, dtype=float)
    for level in range(N):
        block = b ** (N - 1 - level)
        digits = (idx // block) % b
        coords += digits * step * delta**level
    coords.setflags(write=False)
    return coords


def model_space(kind: str, branching: int, depth: int, delta: float | None = None,
                dimension: float | None = None, weights=None) -> ModelSpace:
    """One-stop constructor with per-kind default delta."""
    if delta is None:
        if kind == "unit-interval":
            delta = 1.0 / branching
        elif kind == "cantor-set":
            delta = 1.0 / (branching + 1)   # below 1/b, as the gaps need
        else:
            delta = 0.5
    return ModelSpace(kind, branching, depth, delta, weights, dimension)


def ahlfors_constants(space: ModelSpace) -> tuple[float, float]:
    """Measured inf/sup of mass(ball)/r^Q over leaves and grid radii.

    Grid-radius balls are taken in the closed sense, so on the uniform
    tree boundary with the canonical dimension both constants are 1.
    """
    q = space.dimension
    lo_ratio, hi_ratio = math.inf, -math.inf
    centers = np.arange(space.n_leaves, dtype=np.int64)
    for n in range(1, space.depth + 1):
        r = space.grid_radius(n)
        lo, hi = space.ball_bounds(centers, r, closed=True)
        masses = space._weight_prefix[hi] - space._weight_prefix[lo]
        ratios = masses / r**q
        lo_ratio = min(lo_ratio, float(ratios.min()))
        hi_ratio = max(hi_ratio, float(ratios.max()))
    return lo_ratio, hi_ratio


# -- flat text serialization --------------------------------------------------


def dump_space(space: ModelSpace, path) -> None:
    """Header line (kind, b, N, delta, Q), then one weight per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{space.kind} {space.branching} {space.depth} "
                 f"{space.delta!r} {space.dimension!r}\n")
        for w in space.weights:
            fh.write(f"{float(w)!r}\n")


def load_space(path) -> ModelSpace:
    with open(path, "r", encoding="ascii") as fh:
        kind, b, depth, delta, dim = fh.readline().split()
        weights = [float(line) for line in fh if line.strip()]
    return ModelSpace(kind, int(b), int(depth), float(delta), weights, float(dim))
