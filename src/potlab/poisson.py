"""Dyadic Poisson extension of boundary functions to X x (0, diam].

The extension at (x, y) averages f over the balls B(x, 2**k y) with
geometrically decaying weights 2**(-(Q+1)k), normalized to reproduce
constants exactly.  Once a ball saturates the whole space the remaining
terms form a geometric series that is added in closed form, so there is no
truncation error in k.  Heights live on the dyadic grid diam * 2**(-m);
values above the diameter are rejected (the normalizer is unbounded
there and nothing at the boundary depends on large heights).

Calibration helpers exploit that the extension is linear in f: extremal
ratios over all nonnegative inputs are attained at point masses, so
exhaustive minimization over a coarse-depth grid of kernel profiles yields
constants (Harnack, exchange bands) that deeper runs are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import RadialKernel, kernel_operator
from .space import ModelSpace, model_space


def dyadic_heights(diameter: float = 1.0, n_heights: int = 20) -> np.ndarray:
    """Decreasing height grid diam * 2**(-m), m = 0..n_heights."""
    return diameter * 2.0 ** (-np.arange(n_heights + 1, dtype=float))


@dataclass
class UpperHalfField:
    heights: np.ndarray          # decreasing, all in (0, diam]
    values: np.ndarray           # (n_leaves, n_heights)

    def at_height(self, h: int) -> np.ndarray:
        return self.values[:, h]


class PoissonExtension:
    """Grid machinery for one model space; immutable and reusable."""

    def __init__(self, space: ModelSpace, n_heights: int = 20,
                 heights: np.ndarray | None = None):
        self.space = space
        self.q = space.dimension
        if heights is None:
            heights = dyadic_heights(space.diameter, n_heights)
        heights = np.asarray(heights, dtype=float)
        if np.any(heights <= 0) or np.any(heights > space.diameter + 1e-15):
            raise ValueError("heights must lie in (0, diam]")
        self.heights = heights
        self._centers = np.arange(space.n_leaves, dtype=np.int64)
        self._decay = 2.0 ** (-(self.q + 1.0))
        # per-height unnormalized kernel masses, cached once
        wprefix = np.concatenate(([0.0], np.cumsum(space.weights)))
        self._mass = np.column_stack(
            [self._collect(wprefix, float(y)) for y in self.heights])

    def _rings(self, centers: np.ndarray, y: float):
        """(coef, lo, hi) for the balls B(x, 2**k y) around ``centers``, k = 0, 1, ...

        coef is 2**(-(Q+1)k) and [lo, hi) the leaf ranges.  The rings stop at
        the first k whose balls are all the whole space; that last coef
        carries the closed-form geometric tail from k on.  A ball of radius
        above the diameter is the whole space, so k never exceeds
        ceil(log2(diam / y)) + 1.
        """
        n = self.space.n_leaves
        coef = 1.0
        r = y
        for _ in range(math.ceil(math.log2(self.space.diameter / y)) + 2):
            lo, hi = self.space.ball_bounds(centers, r, closed=False)
            if np.all(lo == 0) and np.all(hi == n):
                yield coef / (1.0 - self._decay), lo, hi
                return
            yield coef, lo, hi
            coef *= self._decay
            r *= 2.0

    def _collect(self, prefix: np.ndarray, y: float) -> np.ndarray:
        """sum_k 2**(-(Q+1)k) * integral over B(x, 2**k y), all leaves at once."""
        out = np.zeros(self.space.n_leaves)
        for coef, lo, hi in self._rings(self._centers, y):
            out += coef * (prefix[hi] - prefix[lo])
        return out

    def _height_index(self, y: float) -> int:
        match = np.flatnonzero(np.isclose(self.heights, y, rtol=1e-12, atol=0.0))
        if match.size == 0:
            raise ValueError(f"height {y} is not on the grid")
        return int(match[0])

    # -- public surface ----------------------------------------------------

    def unnormalized_mass(self, x: int, y: float) -> float:
        """Kernel mass before normalization, including the 1/y^Q factor."""
        h = self._height_index(y)
        return float(self._mass[x, h]) / y**self.q

    def normalization(self, x: int, y: float) -> float:
        """Constant that makes the extension of 1 equal to 1 at (x, y)."""
        return 1.0 / self.unnormalized_mass(x, y)

    def normalization_grid(self) -> np.ndarray:
        """Normalizing constants at every (leaf, height) grid point."""
        return self.heights[None, :] ** self.q / self._mass

    def integral(self, f: np.ndarray, x: int, y: float) -> float:
        h = self._height_index(y)
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(f) * self.space.weights)))
        return float(self._collect(prefix, y)[x] / self._mass[x, h])

    def field(self, f: np.ndarray) -> UpperHalfField:
        """Extension of f at every grid point; exact normalization by
        construction (the same collector feeds numerator and denominator)."""
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(f, dtype=float)
                                                  * self.space.weights)))
        cols = [self._collect(prefix, float(y)) for y in self.heights]
        return UpperHalfField(self.heights, np.column_stack(cols) / self._mass)

    def kernel_profile(self, x: int, h: int) -> np.ndarray:
        """Per-leaf weights k(z) with extension(f)(x, y_h) = sum k(z) f(z) w(z)."""
        out = np.zeros(self.space.n_leaves)
        for coef, lo, hi in self._rings(np.array([x]), float(self.heights[h])):
            out[lo[0]:hi[0]] += coef
        return out / self._mass[x, h]

    def kernel_matrix(self, h: int) -> np.ndarray:
        """All kernel profiles at one height, stacked by center leaf."""
        return np.vstack([self.kernel_profile(x, h) for x in range(self.space.n_leaves)])


def maximal_function(ext: PoissonExtension, f: np.ndarray) -> np.ndarray:
    """Height-grid supremum of the extension, per leaf."""
    return ext.field(f).values.max(axis=1)


@dataclass
class ExceedanceSets:
    heights: np.ndarray
    over: np.ndarray         # (n, H) bool: extension of the potential > eps
    star: np.ndarray         # (n,) bool: union of balls B(x, y) over cells
    slab: np.ndarray         # (n, H) bool: the same balls kept per height

    def star_leaves(self) -> np.ndarray:
        return np.flatnonzero(self.star)


def _union_of_balls(space: ModelSpace, centers: np.ndarray, r: float) -> np.ndarray:
    mask = np.zeros(space.n_leaves, dtype=bool)
    if centers.size == 0:
        return mask
    lo, hi = space.ball_bounds(centers, r, closed=False)
    bump = np.zeros(space.n_leaves + 1)
    np.add.at(bump, lo, 1.0)
    np.add.at(bump, hi, -1.0)
    return np.cumsum(bump[:-1]) > 0


def exceedance_sets(ext: PoissonExtension, kernel: RadialKernel, f: np.ndarray,
                    eps: float, field: UpperHalfField | None = None) -> ExceedanceSets:
    """Grid supersets where the extended potential exceeds eps.

    ``over`` thresholds the extension of K*f; ``star`` projects it to the
    boundary through the balls B(x, y); ``slab`` keeps those balls at their
    own height.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if field is None:
        pot = kernel_operator(kernel, ext.space).apply_function(np.asarray(f, dtype=float))
        field = ext.field(pot)
    over = field.values > eps
    n, nh = over.shape
    star = np.zeros(n, dtype=bool)
    slab = np.zeros((n, nh), dtype=bool)
    for h in range(nh):
        centers = np.flatnonzero(over[:, h])
        row = _union_of_balls(ext.space, centers, float(ext.heights[h]))
        slab[:, h] = row
        star |= row
    return ExceedanceSets(ext.heights, over, star, slab)


# -- calibrated comparisons ----------------------------------------------------

CALIBRATION_DEPTH = 6


def _calibration_space(space: ModelSpace, depth: int) -> ModelSpace:
    """Same geometry at the calibration depth, uniform mass profile."""
    return model_space(space.kind, space.tree.branching, depth,
                       space.tree.delta, space.dimension)


def harnack_constant(space: ModelSpace, n_heights: int = 20,
                     depth: int = CALIBRATION_DEPTH) -> float:
    """Worst ratio extension(x, y) / extension(x~, y) over x in B(x~, y).

    Linearity reduces the minimization over all nonnegative inputs to point
    masses, i.e. to entrywise ratios of kernel profiles; those are
    enumerated exhaustively at the calibration depth.
    """
    return space._cached(("harnack", n_heights, depth),
                         lambda: _harnack_worst(_calibration_space(space, depth), n_heights))


def _harnack_worst(cal: ModelSpace, n_heights: int) -> float:
    ext = PoissonExtension(cal, n_heights=n_heights)
    worst = math.inf
    for h in range(ext.heights.size):
        profiles = ext.kernel_matrix(h)
        y = float(ext.heights[h])
        for xt in range(cal.n_leaves):
            lo, hi = cal.ball_bounds(np.array([xt]), y, closed=False)
            inside = np.arange(int(lo[0]), int(hi[0]))
            if inside.size == 0:
                continue
            ratios = profiles[inside] / profiles[xt][None, :]
            worst = min(worst, float(ratios.min()))
    return worst


def harnack_check(ext: PoissonExtension, kernel: RadialKernel, f: np.ndarray,
                  eps: float, c_h: float | None = None):
    """min over the per-height ball slabs of the extended potential,
    compared against c_h * eps (vacuous pass when the slabs are empty)."""
    if c_h is None:
        c_h = harnack_constant(ext.space, n_heights=ext.heights.size - 1)
    pot = kernel_operator(kernel, ext.space).apply_function(np.asarray(f, dtype=float))
    field = ext.field(pot)
    sets = exceedance_sets(ext, kernel, f, eps, field=field)
    if not sets.slab.any():
        return math.inf, c_h, True
    lowest = float(field.values[sets.slab].min())
    return lowest, c_h, lowest >= c_h * eps


def exchange_ratio(ext: PoissonExtension, kernel: RadialKernel, f: np.ndarray):
    """Pointwise ratio of potential-of-extension to extension-of-potential
    over the whole grid; returns (min, max)."""
    f = np.asarray(f, dtype=float)
    if not np.any(f > 0) or np.any(f < 0):
        raise ValueError("exchange ratio needs nonnegative, nonzero input")
    op = kernel_operator(kernel, ext.space)
    ext_f = ext.field(f).values
    ext_pot = ext.field(op.apply_function(f)).values
    swapped = np.column_stack([op.apply_function(ext_f[:, h])
                               for h in range(ext.heights.size)])
    ratios = swapped / ext_pot
    return float(ratios.min()), float(ratios.max())


def exchange_band(space: ModelSpace, kernel: RadialKernel, n_heights: int = 20,
                  depth: int = CALIBRATION_DEPTH):
    """Exhaustive exchange-ratio band at the calibration depth.

    Both orders are linear in the input, so the extremal pointwise ratios
    over all nonnegative inputs are attained at point masses: the band is
    the entrywise ratio range of the two composed kernels.
    """
    return space._cached(("exchange", kernel, n_heights, depth),
                         lambda: _exchange_extremes(_calibration_space(space, depth),
                                                    kernel, n_heights))


def _exchange_extremes(cal: ModelSpace, kernel: RadialKernel, n_heights: int):
    ext = PoissonExtension(cal, n_heights=n_heights)
    op = kernel_operator(kernel, cal)
    kmat = np.vstack([op.row(x) for x in range(cal.n_leaves)])
    w = cal.weights
    lo, hi = math.inf, -math.inf
    for h in range(ext.heights.size):
        pk = ext.kernel_matrix(h)
        swapped = (kmat * w[None, :]) @ pk          # potential after extension
        direct = pk @ (w[:, None] * kmat)           # extension after potential
        ratios = swapped / direct
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return lo, hi


# -- boundary continuity -------------------------------------------------------

PROFILE_NAMES = ("coordinate", "hat", "bump")


def lipschitz_profile(space: ModelSpace, name: str, scale: float = 1.0) -> np.ndarray:
    """Named Lipschitz profiles evaluated at the leaf positions.

    Embedded kinds use the embedding coordinate; the tree boundary uses the
    leaf position index / b**N, which contracts distances and keeps the
    profile Lipschitz in the ultrametric.
    """
    if space.kind == "tree-boundary":
        t = (np.arange(space.n_leaves) + 0.5) / space.n_leaves
    else:
        t = space.coords
    if name == "coordinate":
        vals = t
    elif name == "hat":
        vals = 1.0 - 2.0 * np.abs(t - 0.5)
    elif name == "bump":
        vals = 16.0 * t**2 * (1.0 - t) ** 2
    else:
        raise ValueError(f"unknown profile {name!r}; choose from {PROFILE_NAMES}")
    return scale * np.asarray(vals, dtype=float)
