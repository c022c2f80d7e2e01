"""Approach regions, thin sets, and boundary-convergence experiments.

The extension of a potential converges to its boundary values along
regions whose width at height y is set by a radius function: cones
(width y), capacity-matched widths, polynomial contact, or the
exponential-type contact of the borderline integrability case.  One
function, ``convergence_experiment``, serves every region kind: it
measures the worst deviation inside the regions at heights up to each
cutoff t, after removing the exceptional grid cells of an
``approximation_split``, and the mass of the leaves whose region still
meets those cells at heights up to t.

At a fixed truncation depth the limits of the underlying statements are
read as errors-below-tolerance at the finest height, and the exceptional
sets carry capacity bounds rather than being null; both surrogates are
explicit, configurable numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import capacity_value, metric_matching_radius
from .kernel import RadialKernel, kernel_operator, lp_norm
from .poisson import PoissonExtension, ball_slab
from .space import ModelSpace, sorted_unique

REGION_KINDS = ("nontangential", "capacity", "polynomial", "exponential")
TANGENTIAL_KINDS = REGION_KINDS[1:]   # the regions wider than a cone


def region_radius(space: ModelSpace, kernel: RadialKernel, p: float, kind: str,
                  exponent: float, center: int, y: float) -> float:
    """Width at height y of the contact region of one kind at leaf
    ``center``: (x, y) belongs when d(x, center) is below it.  The
    polynomial kind's width is y**exponent, for a positive exponent."""
    if kind == "nontangential":
        return y
    if kind == "polynomial":
        if exponent <= 0:
            raise ValueError("polynomial region needs a positive exponent")
        return y**exponent
    if kind == "exponential":
        return 0.0 if y >= 1.0 else math.log(1.0 / y) ** (-space.dimension)
    if kind == "capacity":
        return metric_matching_radius(space, kernel, p, center, y).star
    raise ValueError(f"unknown region kind {kind!r}")


# -- thin sets ------------------------------------------------------------------


@dataclass
class ThinSetReport:
    t_values: np.ndarray
    capacities: np.ndarray
    thin: bool


THIN_TOL = 1e-3   # finest shadow capacity below which a grid set is thin


def _below(slab: np.ndarray, heights, t: float) -> np.ndarray:
    """OR of the slab columns at heights below t."""
    return slab[:, np.asarray(heights, dtype=float) < t].any(axis=1)


def thinness_decay(space: ModelSpace, kernel: RadialKernel, p: float,
                   over: np.ndarray, heights: np.ndarray) -> ThinSetReport:
    """Capacity of the ball shadow of the sub-t part of a grid set, for each
    grid height t.

    The shadows shrink with t, so the capacities are non-increasing as t
    refines; the verdict is thin when the finest value drops below
    ``THIN_TOL``.
    """
    t_grid = np.sort(np.asarray(heights, dtype=float))[::-1]
    slab = ball_slab(space, over, heights)
    shadows = [np.flatnonzero(_below(slab, heights, t)) for t in t_grid]
    caps = np.array([capacity_value(space, kernel, leaves, p) for leaves in shadows])
    return ThinSetReport(t_grid, caps, bool(caps[-1] < THIN_TOL))


# -- Lusin-type approximation split ------------------------------------------------


@dataclass
class SplitResult:
    exceedance: np.ndarray       # (n, H) grid cells removed from experiments
    bad_leaves: np.ndarray       # (n,) leaves removed from experiments
    shadow_capacity: float
    bad_capacity: float
    ok: bool


def _coarse_mean(space: ModelSpace, values: np.ndarray, level: int) -> np.ndarray:
    """Weighted mean of ``values`` over depth-``level`` subtrees, per leaf."""
    block = space.branching ** (space.depth - level)
    num = (values * space.weights).reshape(-1, block).sum(axis=1).repeat(block)
    return num / space.weights.reshape(-1, block).sum(axis=1).repeat(block)


SPLIT_LEVELS = 6    # dyadic thresholds 2**-1 .. 2**-6 per part
SPLIT_ROUNDS = 40   # cap on the closeness-budget quarterings


def approximation_split(space: ModelSpace, ext: PoissonExtension, kernel: RadialKernel,
                        p: float, f: np.ndarray, delta_target: float) -> SplitResult:
    """Split off small-capacity exceptional sets outside which the extended
    potential is uniformly close to the boundary potential.

    Smooth stand-ins for f are its subtree means at increasingly fine
    levels; the grid set collects the cells where the extension of the
    residual potential beats the dyadic thresholds, the leaf set the points
    where the residual potential itself does.  The closeness budget is
    quartered until both shadow capacities verify below the target (at worst
    the stand-ins equal f and the sets are empty).
    """
    f = np.asarray(f, dtype=float)
    op = kernel_operator(kernel, space)
    w = space.weights
    parts = []
    pos = np.maximum(f, 0.0)
    neg = np.maximum(-f, 0.0)
    if pos.any():
        parts.append(pos)
    if neg.any():
        parts.append(neg)
    closeness = max(lp_norm(f, w, p), 1e-300)
    # per part, the residual norm of its stand-in at each level: a budget takes
    # the first level within it, or the finest, the part itself, at norm 0
    norms = [np.array([lp_norm(h - _coarse_mean(space, h, lvl), w, p)
                       for lvl in range(space.depth)] + [0.0]) for h in parts]
    for _ in range(SPLIT_ROUNDS):
        grid = np.zeros((space.n_leaves, ext.heights.size), dtype=bool)
        bad = np.zeros(space.n_leaves, dtype=bool)
        for h, norm in zip(parts, norms):
            for j in range(1, SPLIT_LEVELS + 1):
                budget = closeness * 2.0 ** (-j)
                level = int(np.argmax(norm <= budget))
                resid = np.abs(h - _coarse_mean(space, h, level))
                if not resid.any():
                    continue
                thr = 2.0 ** (-j)
                pot = op.apply_function(resid)
                grid |= ext.field(pot) > thr
                bad |= pot >= thr
        shadow = ball_slab(space, grid, ext.heights).any(axis=1)
        cap_shadow = capacity_value(space, kernel, np.flatnonzero(shadow), p)
        cap_bad = capacity_value(space, kernel, np.flatnonzero(bad), p)
        ok = cap_shadow < delta_target and cap_bad < delta_target
        if ok:
            break
        closeness *= 0.25
    return SplitResult(grid, bad, cap_shadow, cap_bad, ok)


# -- convergence experiments --------------------------------------------------------


def _prefix_counts(cells: np.ndarray) -> np.ndarray:
    """(n + 1, H) counts of marked cells per column among the leaves before
    each index, so a leaf range's count is a difference of two rows."""
    return np.vstack((np.zeros((1, cells.shape[1]), np.int64), np.cumsum(cells, axis=0)))


@dataclass
class ConvergenceRow:
    x0: int
    t: float
    sup_error: float
    n_points: int
    n_excluded: int


@dataclass
class ConvergenceTable:
    region_kind: str
    rows: list
    fraction_converged: float
    bad_set_mass: list            # (t, mass) rows


def convergence_experiment(space: ModelSpace, ext: PoissonExtension, kernel: RadialKernel,
                           p: float, pot: np.ndarray, field: np.ndarray, x0_sample,
                           split: SplitResult, kind: str, tol: float) -> ConvergenceTable:
    """Worst deviation of the extended potential ``field`` from the boundary
    potential ``pot`` (``field`` is ``ext.field(pot)``) inside the approach
    regions of one kind around each sampled leaf, at the heights up to each
    cutoff t and off the split's exceptional grid cells; and the mass of the
    leaves whose region meets those cells at heights up to t.

    The t grid is every fourth height plus the finest one.  Heights at or
    above 1, the diameter, count for no t.

    The polynomial exponent p * (s - 1/p') is the width of the
    capacity-matched region of a Riesz kernel: ball mass grows like
    radius**Q while ball capacity decays like y**(Q p (s - 1/p')), so
    matching them cancels the dimension.  A radial kernel has no s, so it
    takes no polynomial region.
    """
    exponent = 1.0
    if kind == "polynomial":
        if kernel.kind != "riesz":
            raise ValueError("the polynomial region needs a riesz kernel's s; "
                             "use the capacity region")
        pp = p / (p - 1.0)
        exponent = p * (kernel.s - 1.0 / pp)
    heights = ext.heights
    n, nh = space.n_leaves, heights.size

    def widths(centers, y: float):
        """Region widths at height y: one per center for the capacity kind,
        one for every center otherwise."""
        if kind != "capacity":
            return region_radius(space, kernel, p, kind, exponent, 0, y)
        return np.array([region_radius(space, kernel, p, kind, exponent, int(x), y)
                         for x in centers])

    excluded = split.exceedance
    excluded_prefix = _prefix_counts(excluded)
    columns = np.arange(nh)
    t_grid = sorted_unique(np.concatenate((heights[::4], heights[-1:])))[::-1]
    # row i of the t table covers the heights at most t_grid[i] below the cutoff
    live = heights < 1.0
    below = (heights <= t_grid[:, None]) & live

    rows = []
    converged = 0
    for x0 in x0_sample:
        x0 = int(x0)
        radii = np.array([widths([x0], float(y)) for y in heights]).reshape(nh)
        lo, hi = space.ball_bounds(np.full(nh, x0), radii, closed=False)
        n_exc = excluded_prefix[hi, columns] - excluded_prefix[lo, columns]
        n_pts = hi - lo - n_exc
        sup_err = np.zeros(nh)
        for h in np.flatnonzero(live & (n_pts > 0)):
            kept = ~excluded[lo[h]:hi[h], h]
            sup_err[h] = np.abs(field[lo[h]:hi[h], h][kept] - pot[x0]).max()
        for t, cols in zip(t_grid, below):
            rows.append(ConvergenceRow(x0, float(t), float(sup_err[cols].max(initial=0.0)),
                                       int(n_pts[cols].sum()), int(n_exc[cols].sum())))
        if rows[-1].n_points and rows[-1].sup_error <= tol:
            converged += 1

    # a leaf counts below t when its region meets an excluded cell at a height
    # at most t; walking from the finest height, its first meeting is the one
    # that counts longest, so no width of that leaf is needed after it
    met = np.full(n, np.inf)
    open_leaves = np.arange(n)
    for h in np.flatnonzero(live)[::-1]:
        if not excluded[:, h].any() or open_leaves.size == 0:
            continue
        lo, hi = space.ball_bounds(open_leaves, widths(open_leaves, float(heights[h])),
                                   closed=False)
        meets = excluded_prefix[hi, h] > excluded_prefix[lo, h]
        met[open_leaves[meets]] = heights[h]
        open_leaves = open_leaves[~meets]
    bad_mass = [(float(t), float(space.weights[met <= t].sum())) for t in t_grid]
    return ConvergenceTable(kind, rows, converged / max(len(x0_sample), 1), bad_mass)
