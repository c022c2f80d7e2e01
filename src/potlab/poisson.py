"""Dyadic Poisson extension of boundary functions to X x (0, diam].

The extension at (x, y) averages f over the balls B(x, 2**k y) with
geometrically decaying weights 2**(-(Q+1)k), normalized to reproduce
constants exactly.  Once a ball saturates the whole space the remaining
terms form a geometric series that is added in closed form, so there is no
truncation error in k.  Heights live on the dyadic grid diam * 2**(-m),
m >= 0, so none lies above the diameter (the normalizer is unbounded
there and nothing at the boundary depends on large heights).  Ring k of
one height is ring k + 1 of the next finer one, so each height's ring sum
is its first ball's integral plus decay times the coarser height's sum:
one backward pass over the radii serves every height, and the work is
linear in the number of heights.

Calibration helpers exploit that the extension is linear in f: extremal
ratios over all nonnegative inputs are attained at point masses, so
exhaustive minimization over a coarse-depth grid of kernel profiles yields
constants (Harnack, exchange bands) that deeper runs are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import RadialKernel, kernel_operator
from .space import ModelSpace, model_space


def dyadic_heights(diameter: float = 1.0, n_heights: int = 20) -> np.ndarray:
    """Decreasing height grid diam * 2**(-m), m = 0..n_heights."""
    return diameter * 2.0 ** (-np.arange(n_heights + 1, dtype=float))


class PoissonExtension:
    """Grid machinery for one model space; immutable and reusable."""

    def __init__(self, space: ModelSpace, n_heights: int = 20):
        # what an evaluation reads of the space, not the space itself, so that
        # the space's extension memo makes no reference cycle
        self.weights, self.n_leaves = space.weights, space.n_leaves
        self.q = space.dimension
        self.heights = dyadic_heights(space.diameter, n_heights)
        self._decay = 2.0 ** (-(self.q + 1.0))
        # ring k of height h is the ball of radius heights[h] * 2**k =
        # diam * 2**(k - h), exact in floating point, so the heights share
        # their radii: the all-leaf balls are searched once per radius
        self._balls = self._radius_balls(space)
        self._mass = self._collect(np.concatenate(([0.0], np.cumsum(space.weights))))

    def _radius_balls(self, space: ModelSpace):
        """(lo, hi) leaf ranges of the balls B(x, r) around every leaf x, for
        the radii heights[-1] * 2**i, i = 0, 1, ..., up to the first radius
        whose balls are all the whole space.  Every ball of radius above the
        diameter is the whole space, so i never exceeds n_heights + 1."""
        n = space.n_leaves
        centers = np.arange(n, dtype=np.int64)
        balls = []
        for r in np.append(self.heights[::-1], 2.0 * space.diameter):
            lo, hi = space.ball_bounds(centers, float(r), closed=False)
            balls.append((lo, hi))
            if np.all(lo == 0) and np.all(hi == n):
                break
        return balls

    def _sweep(self, ring):
        """(ball index, S) for every height, coarsest first, where
        S(i) = ring(i) + decay * S(i + 1) sums the rings of the height whose
        first ball is ball i.

        The recurrence starts from the closed-form tail ring(W) / (1 - decay)
        at the first whole-space ball W, which every coarser height also
        takes; their own first balls are whole as well.
        """
        whole = len(self._balls) - 1
        acc = ring(whole) / (1.0 - self._decay)
        for i in range(self.heights.size - 1, -1, -1):
            if i < whole:
                acc = ring(i) + self._decay * acc     # a new array: the last one was yielded
            yield min(i, whole), acc

    def _collect(self, prefix: np.ndarray) -> np.ndarray:
        """Column h is sum_k 2**(-(Q+1)k) * integral over B(x, 2**k y_h), all
        leaves at once; each ball integral is formed once per radius."""
        return np.column_stack([acc for _, acc in self._sweep(
            lambda i: prefix[self._balls[i][1]] - prefix[self._balls[i][0]])])

    # -- public surface ----------------------------------------------------

    def normalization_grid(self) -> np.ndarray:
        """Normalizing constants at every (leaf, height) grid point."""
        return self.heights[None, :] ** self.q / self._mass

    def field(self, f: np.ndarray) -> np.ndarray:
        """The (n, H) extension of f at every grid point; exactly normalized,
        as one collector feeds numerator and denominator."""
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(f, dtype=float) * self.weights)))
        return self._collect(prefix) / self._mass

    def kernel_matrices(self):
        """((lo, hi), profiles) at every height, coarsest first: (lo, hi) are
        the open balls B(x, y) around every leaf x, and row x of the (n, n)
        profiles holds the per-leaf weights k(z) with
        extension(f)(x, y) = sum k(z) f(z) w(z).

        A center whose ring is already the whole space gets the all-ones
        ring, and 1 + decay / (1 - decay) = 1 / (1 - decay) is its tail.
        """
        leaves = np.arange(self.n_leaves)

        def ring(i):
            lo, hi = self._balls[i]
            return ((leaves >= lo[:, None]) & (leaves < hi[:, None])).astype(float)

        for h, (i, acc) in enumerate(self._sweep(ring)):
            yield self._balls[i], acc / self._mass[:, h][:, None]


def poisson_extension(space: ModelSpace, n_heights: int) -> PoissonExtension:
    """The extension of ``space`` on ``n_heights`` dyadic heights, built once
    per (space, height grid)."""
    return space._cached(("extension", n_heights),
                         lambda: PoissonExtension(space, n_heights=n_heights))


def ball_slab(space: ModelSpace, cells: np.ndarray, radii) -> np.ndarray:
    """(n, H) bool: column h is the union of the open balls B(x, radii[h])
    over the leaves x marked in ``cells[:, h]`` (empty where the radius is
    not positive).  OR-ing columns gives the shadow of any set of heights."""
    n = space.n_leaves
    slab = np.zeros(cells.shape, dtype=bool)
    for h, r in enumerate(radii):
        centers = np.flatnonzero(cells[:, h])
        if centers.size == 0 or not r > 0:
            continue
        lo, hi = space.ball_bounds(centers, float(r), closed=False)
        bump = np.zeros(n + 1)
        np.add.at(bump, lo, 1.0)
        np.add.at(bump, hi, -1.0)
        slab[:, h] = np.cumsum(bump[:-1]) > 0
    return slab


# -- calibrated comparisons ----------------------------------------------------

CALIBRATION_DEPTH = 6


def _calibration_space(space: ModelSpace) -> ModelSpace:
    """Same geometry at the calibration depth, uniform mass profile; built
    once per space, so the calibrations share its extension and operator."""
    return space._cached(("calibration",), lambda: model_space(
        space.kind, space.branching, CALIBRATION_DEPTH, space.delta, space.dimension))


def harnack_constant(space: ModelSpace, n_heights: int = 20) -> float:
    """Worst ratio extension(x, y) / extension(x~, y) over x in B(x~, y).

    Linearity reduces the minimization over all nonnegative inputs to point
    masses, i.e. to entrywise ratios of kernel profiles; those are
    enumerated exhaustively at the calibration depth.  At fine heights the
    ring coefficients underflow and a center's profile vanishes at far
    leaves; those entries are left out, as in the exchange band.
    """
    return space._cached(("harnack", n_heights),
                         lambda: _harnack_worst(_calibration_space(space), n_heights))


def _harnack_worst(cal: ModelSpace, n_heights: int) -> float:
    worst = math.inf
    # the open balls B(x, y) of positive radius contain their center, so
    # none is empty
    for (lo, hi), profiles in poisson_extension(cal, n_heights).kernel_matrices():
        # column minima of the profiles over each ball's rows (a row of inf
        # closes a ball that ends at the last leaf)
        rows = np.vstack((profiles, np.full(cal.n_leaves, np.inf)))
        ball_min = np.minimum.reduceat(rows, np.column_stack((lo, hi)).ravel(), axis=0)[::2]
        # a positive divisor keeps the order, so these are the least ratios
        # over each ball; where the center's profile vanishes (its ring
        # coefficients underflow) the ratio is 0/0 or infinite, left out
        live = profiles > 0.0
        worst = min(worst, float((ball_min[live] / profiles[live]).min(initial=math.inf)))
    return worst


def harnack_check(space: ModelSpace, ext: PoissonExtension, field: np.ndarray, eps: float,
                  c_h: float) -> tuple[float, bool]:
    """(lowest, ok): the least value of the extended potential ``field`` over
    the per-height slabs of balls B(x, y) around its cells above eps, and
    whether it reaches c_h * eps (a vacuous pass, lowest inf, when no cell
    exceeds eps)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    slab = ball_slab(space, field > eps, ext.heights)
    if not slab.any():
        return math.inf, True
    lowest = float(field[slab].min())
    return lowest, lowest >= c_h * eps


def exchange_ratio(space: ModelSpace, ext: PoissonExtension, kernel: RadialKernel,
                   f: np.ndarray):
    """Pointwise ratio of potential-of-extension to extension-of-potential
    over the whole grid; returns (min, max)."""
    f = np.asarray(f, dtype=float)
    if not np.any(f > 0) or np.any(f < 0):
        raise ValueError("exchange ratio needs nonnegative, nonzero input")
    ext_f = ext.field(f)
    # K*f and K*ext_f in one block apply
    pots = kernel_operator(kernel, space).apply_function(np.column_stack((f, ext_f)))
    ext_pot = ext.field(pots[:, 0])
    swapped = pots[:, 1:]
    ratios = swapped / ext_pot
    return float(ratios.min()), float(ratios.max())


def exchange_band(space: ModelSpace, kernel: RadialKernel, n_heights: int = 20):
    """Exhaustive exchange-ratio band at the calibration depth.

    Both orders are linear in the input, so the extremal pointwise ratios
    over all nonnegative inputs are attained at point masses: the band is
    the entrywise ratio range of the two composed kernels.  At fine heights
    the ring coefficients 2**(-(Q+1)k) underflow, and where both
    compositions vanish (on the diagonal, as K has no self-interaction)
    the ratio is 0/0; those entries are left out.
    """
    return space._cached(("exchange", kernel, n_heights),
                         lambda: _exchange_extremes(_calibration_space(space), kernel, n_heights))


def _exchange_extremes(cal: ModelSpace, kernel: RadialKernel, n_heights: int):
    kmat = kernel_operator(kernel, cal).row(np.arange(cal.n_leaves))
    w = cal.weights
    lo, hi = math.inf, -math.inf
    for _, pk in poisson_extension(cal, n_heights).kernel_matrices():
        swapped = (kmat * w[None, :]) @ pk          # potential after extension
        direct = pk @ (w[:, None] * kmat)           # extension after potential
        live = (swapped != 0.0) | (direct != 0.0)
        ratios = swapped[live] / direct[live]
        lo = min(lo, float(ratios.min(initial=math.inf)))
        hi = max(hi, float(ratios.max(initial=-math.inf)))
    return lo, hi


# -- boundary continuity -------------------------------------------------------

PROFILE_NAMES = ("coordinate", "hat", "bump")


def lipschitz_profile(space: ModelSpace, name: str) -> np.ndarray:
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
    return np.array(vals, dtype=float)   # a fresh array, never the read-only coords
