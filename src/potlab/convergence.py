"""Approach regions, thin sets, and boundary-convergence experiments.

The extension of a potential converges to its boundary values along
regions whose width at height y is set by a radius function: cones
(width y), capacity-matched widths, polynomial contact, or the
exponential-type contact of the borderline integrability case.  The
experiments measure the worst deviation inside a region below a height
cutoff, after removing an exceptional grid set and an exceptional leaf set
whose capacities are certified small.

At a fixed truncation depth the limits of the underlying statements are
read as errors-below-tolerance at the finest height, and the exceptional
sets carry capacity bounds rather than being null; both surrogates are
explicit, configurable numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import metric_matching_radius, solve_capacity
from .kernel import RadialKernel, kernel_operator, lp_norm
from .poisson import PoissonExtension, _union_of_balls, exceedance_sets
from .space import ModelSpace

REGION_KINDS = ("nontangential", "capacity", "polynomial", "exponential")


@dataclass
class ApproachRegion:
    """Contact region at a boundary leaf: (x, y) belongs when d(x, center)
    is below the kind's radius function at height y."""
    center: int
    kind: str
    y_cutoff: float = 1.0
    scale: float = 1.0          # multiplier on the radius function
    exponent: float = 1.0       # polynomial kind: radius = scale * y**exponent
    dimension: float | None = None   # exponential kind; defaults to the space's

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.scale <= 0 or self.y_cutoff <= 0:
            raise ValueError("scale and y_cutoff must be positive")
        if self.kind == "polynomial" and self.exponent <= 0:
            raise ValueError("polynomial region needs a positive exponent")


def region_radius(space: ModelSpace, kernel: RadialKernel, p: float,
                  region: ApproachRegion, y: float) -> float:
    """Width of the region at height y."""
    if region.kind == "nontangential":
        return region.scale * y
    if region.kind == "polynomial":
        return region.scale * y**region.exponent
    if region.kind == "exponential":
        if y >= 1.0:
            return 0.0
        q = region.dimension if region.dimension is not None else space.dimension
        return region.scale * math.log(1.0 / y) ** (-q)
    er = metric_matching_radius(space, kernel, p, region.center, y)
    return region.scale * er.star


def region_membership(space: ModelSpace, kernel: RadialKernel, p: float,
                      region: ApproachRegion, x: int, y: float) -> bool:
    if not 0.0 < y < region.y_cutoff:
        raise ValueError("height must lie in (0, y_cutoff)")
    return space.distance(x, region.center) < region_radius(
        space, kernel, p, region, y)


# -- thin sets ------------------------------------------------------------------


@dataclass
class ThinSetReport:
    t_values: np.ndarray
    capacities: np.ndarray
    thin: bool
    thin_tol: float


def shadow_mask(space: ModelSpace, over: np.ndarray, heights: np.ndarray,
                t: float | None = None) -> np.ndarray:
    """Union of balls B(x, y) over grid cells of ``over`` (below t if given)."""
    mask = np.zeros(space.n_leaves, dtype=bool)
    for h, y in enumerate(heights):
        if t is not None and not y < t:
            continue
        centers = np.flatnonzero(over[:, h])
        if centers.size:
            mask |= _union_of_balls(space, centers, float(y))
    return mask


def thinness_decay(space: ModelSpace, kernel: RadialKernel, p: float,
                   over: np.ndarray, heights: np.ndarray,
                   t_grid=None, thin_tol: float = 1e-3,
                   **solver_opts) -> ThinSetReport:
    """Capacity of the ball shadow of the sub-t part of a grid set, per t.

    The shadows shrink with t, so the capacities are non-increasing as t
    refines; the verdict is thin when the finest value drops below tol.
    """
    if t_grid is None:
        t_grid = np.asarray(heights, dtype=float)
    t_grid = np.sort(np.asarray(t_grid, dtype=float))[::-1]
    caps = []
    for t in t_grid:
        leaves = np.flatnonzero(shadow_mask(space, over, heights, t=float(t)))
        caps.append(solve_capacity(space, kernel, leaves, p=p, **solver_opts).value
                    if leaves.size else 0.0)
    caps = np.asarray(caps)
    return ThinSetReport(t_grid, caps, bool(caps[-1] < thin_tol), thin_tol)


# -- capacity-matched enlargements ----------------------------------------------


@dataclass
class EnlargedSet:
    mask: np.ndarray
    mass: float
    capacity: float
    ratio: float                 # mass of the enlargement over capacity of E
    sentinel_count: int          # centers whose matching radius did not exist


def _distance_to_outside(space: ModelSpace, inside: np.ndarray) -> np.ndarray:
    """d(x, complement) for every x in the set (complement must be nonempty)."""
    outside = np.flatnonzero(~inside)
    dists = np.empty(space.n_leaves)
    for x in np.flatnonzero(inside):
        dists[x] = space.distances_from(x)[outside].min()
    return dists


def enlarged_set(space: ModelSpace, kernel: RadialKernel, p: float,
                 members, factor: float = 1.0, **solver_opts) -> EnlargedSet:
    """Union of capacity-matched balls around a leaf set.

    Each point is inflated to ``factor`` times the matching radius of its
    distance-to-complement ball; the companion statistic compares the
    enlarged mass with the capacity of the original set.
    """
    mask = np.zeros(space.n_leaves, dtype=bool)
    mask[np.asarray(members, dtype=np.int64)] = True
    if not mask.any():
        raise ValueError("enlargement needs a nonempty set")
    if mask.all():
        raise ValueError("enlargement is undefined when the set is everything")
    if factor < 1.0:
        raise ValueError("factor must be at least 1")
    gaps = _distance_to_outside(space, mask)
    out = mask.copy()
    sentinels = 0
    for x in np.flatnonzero(mask):
        er = metric_matching_radius(space, kernel, p, int(x), float(gaps[x]),
                                    **solver_opts)
        if not er.exists:
            sentinels += 1
        lo, hi = space.ball_bounds(np.array([x]), factor * er.star, closed=False)
        out[int(lo[0]):int(hi[0])] = True
    cap = solve_capacity(space, kernel, np.flatnonzero(mask), p=p, **solver_opts).value
    mass = float(space.weights[out].sum())
    return EnlargedSet(out, mass, cap, mass / cap if cap > 0 else math.inf, sentinels)


# -- covering of shadowed regions -------------------------------------------------


@dataclass
class CoveringReport:
    hypothesis_ok: bool
    alpha_measured: float
    monotone: bool
    inclusion_ok: bool | None     # None when the hypothesis check failed
    lhs: np.ndarray
    rhs: np.ndarray


def shadow_covering_check(space: ModelSpace, over: np.ndarray,
                          heights: np.ndarray, radius_fn, alpha: float) -> CoveringReport:
    """Check that leaves whose region meets a grid set are covered by
    region slices anchored on the set's ball shadow.

    ``radius_fn(x, y)`` is the region width; the hypotheses (monotone in y,
    widths comparable across centers within ``alpha``) are verified on the
    grid before the inclusion is asserted.
    """
    n = space.n_leaves
    nh = heights.size
    widths = np.array([[float(radius_fn(x, float(y))) for y in heights]
                       for x in range(n)])
    monotone = bool(np.all(np.diff(widths, axis=1) <= 1e-12))  # heights decrease
    col_max = widths.max(axis=0)
    col_min = widths.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_measured = float(np.nanmax(np.where(col_min > 0, col_max / col_min,
                                                  np.where(col_max > 0, np.inf, 1.0))))
    hypothesis_ok = monotone and alpha >= alpha_measured - 1e-12
    # lhs: leaves whose region touches the set (membership is d <= width)
    lhs = np.zeros(n, dtype=bool)
    for h in range(nh):
        centers = np.flatnonzero(over[:, h])
        for x in centers:
            for x0 in range(n):
                if space.distance(int(x), x0) <= widths[x0, h]:
                    lhs[x0] = True
    # rhs: region slices around shadow points at their escape distance
    star = shadow_mask(space, over, heights)
    rhs = np.zeros(n, dtype=bool)
    if star.any() and not star.all():
        gaps = _distance_to_outside(space, star)
        for x in np.flatnonzero(star):
            w = alpha * float(radius_fn(int(x), float(gaps[x])))
            d = space.distances_from(int(x))
            rhs |= d <= w
    elif star.all():
        rhs[:] = True
    inclusion = bool(np.all(rhs[lhs])) if hypothesis_ok else None
    return CoveringReport(hypothesis_ok, alpha_measured, monotone, inclusion, lhs, rhs)


# -- exceptional-set capacity bound ----------------------------------------------


def exceptional_capacity_bound(ext: PoissonExtension, kernel: RadialKernel,
                               p: float, f: np.ndarray, eps: float,
                               **solver_opts):
    """Capacity of the exceedance shadow against (norm(f)/eps)**p."""
    sets = exceedance_sets(ext, kernel, f, eps)
    leaves = sets.star_leaves()
    cap = (solve_capacity(ext.space, kernel, leaves, p=p, **solver_opts).value
           if leaves.size else 0.0)
    bound = (lp_norm(f, ext.space.weights, p) / eps) ** p
    return cap, bound, cap / bound if bound > 0 else 0.0


# -- Lusin-type approximation split ------------------------------------------------


@dataclass
class SplitResult:
    exceedance: np.ndarray       # (n, H) grid cells removed from experiments
    bad_leaves: np.ndarray       # (n,) leaves removed from experiments
    heights: np.ndarray
    shadow_capacity: float
    bad_capacity: float
    modulus: list                # rows (eps, largest working radius or None)
    target: float
    ok: bool
    closeness: float             # budget that produced the final split
    levels_used: list


def _coarse_mean(space: ModelSpace, values: np.ndarray, level: int) -> np.ndarray:
    """Weighted mean of ``values`` over depth-``level`` subtrees, per leaf."""
    tree = space.tree
    num = tree.block_sum_per_leaf(values * tree.weights, level)
    den = tree.block_sum_per_leaf(tree.weights, level)
    return num / den


def approximation_split(ext: PoissonExtension, kernel: RadialKernel, p: float,
                        f: np.ndarray, delta_target: float,
                        n_levels: int = 6, eps_grid=(0.2, 0.1, 0.05),
                        max_rounds: int = 40, **solver_opts) -> SplitResult:
    """Split off small-capacity exceptional sets outside which the extended
    potential is uniformly close to the boundary potential.

    Smooth stand-ins for f are its subtree means at increasingly fine
    levels; the grid set collects the cells where the extension of the
    residual potential beats the dyadic thresholds, the leaf set the points
    where the residual potential itself does.  The closeness budget is
    halved until both shadow capacities verify below the target (at worst
    the stand-ins equal f and the sets are empty).
    """
    f = np.asarray(f, dtype=float)
    space = ext.space
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
    levels_used: list = []
    for _ in range(max_rounds):
        grid = np.zeros((space.n_leaves, ext.heights.size), dtype=bool)
        bad = np.zeros(space.n_leaves, dtype=bool)
        levels_used = []
        for h in parts:
            for j in range(1, n_levels + 1):
                budget = closeness * 2.0 ** (-j)
                level = space.depth
                for lvl in range(space.depth + 1):
                    if lp_norm(h - _coarse_mean(space, h, lvl), w, p) <= budget:
                        level = lvl
                        break
                levels_used.append(level)
                resid = np.abs(h - _coarse_mean(space, h, level))
                if not resid.any():
                    continue
                thr = 2.0 ** (-j)
                pot = op.apply_function(resid)
                grid |= ext.field(pot).values > thr
                bad |= pot >= thr
        shadow = shadow_mask(space, grid, ext.heights)
        cap_shadow = (solve_capacity(space, kernel, np.flatnonzero(shadow),
                                     p=p, **solver_opts).value if shadow.any() else 0.0)
        cap_bad = (solve_capacity(space, kernel, np.flatnonzero(bad),
                                  p=p, **solver_opts).value if bad.any() else 0.0)
        ok = cap_shadow < delta_target and cap_bad < delta_target
        if ok:
            break
        closeness *= 0.25
    modulus = closeness_modulus(ext, op.apply_function(f), grid, bad, eps_grid)
    return SplitResult(grid, bad, ext.heights, cap_shadow, cap_bad,
                       modulus, delta_target, ok, closeness, levels_used)


def closeness_modulus(ext: PoissonExtension, g: np.ndarray, excluded: np.ndarray,
                      bad_leaves: np.ndarray, eps_grid) -> list:
    """Largest grid radius within which the extension of the boundary values
    g stays eps-close to g, avoiding the exceptional sets; None marks
    resolution exhaustion at that eps.

    A point (x, y) is within radius r of (x0, 0) when both d(x, x0) and y
    are below r, so the search scans submatrices of the field.  Empty
    exclusion masks give the plain uniform-continuity modulus.
    """
    space = ext.space
    g = np.asarray(g, dtype=float)
    vals = ext.field(g).values
    hi_vals = np.where(excluded, -np.inf, vals)
    lo_vals = np.where(excluded, np.inf, vals)
    keep = np.flatnonzero(~bad_leaves)
    rows = []
    for eps in sorted(eps_grid, reverse=True):
        found = None
        for radius in ext.heights:     # descending: first success is maximal
            cols = np.flatnonzero(ext.heights < radius)
            if cols.size == 0:
                continue
            lo, hi = space.ball_bounds(np.arange(space.n_leaves), float(radius),
                                       closed=False)
            worst = 0.0
            for x0 in keep:
                block_hi = hi_vals[lo[x0]:hi[x0], :][:, cols]
                block_lo = lo_vals[lo[x0]:hi[x0], :][:, cols]
                top = block_hi.max() if block_hi.size else -np.inf
                bot = block_lo.min() if block_lo.size else np.inf
                if top > -np.inf:
                    worst = max(worst, top - g[x0])
                if bot < np.inf:
                    worst = max(worst, g[x0] - bot)
                if worst > eps:
                    break
            if worst <= eps:
                found = float(radius)
                break
        rows.append((float(eps), found))
    return rows


# -- convergence experiments --------------------------------------------------------


@dataclass
class ConvergenceRow:
    x0: int
    t: float
    sup_error: float
    n_points: int
    n_offcenter: int
    n_excluded: int


@dataclass
class ConvergenceTable:
    region_kind: str
    tol: float
    rows: list
    fraction_converged: float
    shadow_capacity: float
    bad_capacity: float
    bad_set_mass: list            # (t, mass) rows; tangential runs only
    degenerate: list              # sampled leaves whose region never leaves the center


def _experiment(ext: PoissonExtension, kernel: RadialKernel, p: float,
                f: np.ndarray, x0_sample, make_region, t_grid, tol,
                split: SplitResult, track_bad_mass: bool,
                **solver_opts) -> ConvergenceTable:
    space = ext.space
    heights = ext.heights
    pot = kernel_operator(kernel, space).apply_function(np.asarray(f, dtype=float))
    vals = ext.field(pot).values
    excluded = split.exceedance
    if t_grid is None:
        t_grid = heights[::4].tolist() + [float(heights[-1])]
    t_grid = np.unique(np.asarray(t_grid, dtype=float))[::-1]
    rows = []
    degenerate = []
    converged = 0
    kind = None
    for x0 in x0_sample:
        region = make_region(int(x0))
        kind = region.kind
        radii = np.array([region_radius(space, kernel, p, region, float(y))
                          for y in heights])
        lo, hi = np.zeros(heights.size, np.int64), np.zeros(heights.size, np.int64)
        for h in range(heights.size):
            b = space.ball_bounds(np.array([int(x0)]), float(radii[h]), closed=False)
            lo[h], hi[h] = int(b[0][0]), int(b[1][0])
        offcenter_ever = 0
        final_err = None
        for t in t_grid:
            cols = np.flatnonzero((heights <= t) & (heights < region.y_cutoff))
            sup_err, n_pts, n_off, n_exc = 0.0, 0, 0, 0
            for h in cols:
                for x in range(lo[h], hi[h]):
                    if excluded[x, h]:
                        n_exc += 1
                        continue
                    n_pts += 1
                    if x != x0:
                        n_off += 1
                    err = abs(vals[x, h] - pot[x0])
                    sup_err = max(sup_err, err)
            offcenter_ever = max(offcenter_ever, n_off)
            rows.append(ConvergenceRow(int(x0), float(t), sup_err, n_pts, n_off, n_exc))
            if t == t_grid[-1]:
                final_err = sup_err if n_pts else None
        if offcenter_ever == 0:
            degenerate.append(int(x0))
        if final_err is not None and final_err <= tol:
            converged += 1
    bad_mass = []
    if track_bad_mass and kind is not None:
        bad_mass = _bad_set_masses(ext, kernel, p, make_region, excluded, t_grid)
    return ConvergenceTable(kind or "", tol, rows,
                            converged / max(len(list(x0_sample)), 1),
                            split.shadow_capacity, split.bad_capacity,
                            bad_mass, degenerate)


def _bad_set_masses(ext, kernel, p, make_region, excluded, t_grid):
    """Mass of the leaves whose region still meets the excluded set below t."""
    space = ext.space
    heights = ext.heights
    out = []
    probe = make_region(0)
    uniform_width = probe.kind in ("nontangential", "polynomial", "exponential")
    for t in t_grid:
        mask = np.zeros(space.n_leaves, dtype=bool)
        for h, y in enumerate(heights):
            if not y < t:
                continue
            centers = np.flatnonzero(excluded[:, h])
            if centers.size == 0:
                continue
            if uniform_width:
                rad = region_radius(space, kernel, p, probe, float(y))
                if rad > 0:
                    mask |= _union_of_balls(space, centers, rad)
            else:
                for x0 in range(space.n_leaves):
                    if mask[x0]:
                        continue
                    region = make_region(x0)
                    rad = region_radius(space, kernel, p, region, float(y))
                    d = space.distances_from(x0)[centers]
                    if np.any(d < rad):
                        mask[x0] = True
        out.append((float(t), float(space.weights[mask].sum())))
    return out


def nontangential_experiment(ext: PoissonExtension, kernel: RadialKernel, p: float,
                             f: np.ndarray, x0_sample, t_grid=None,
                             tol: float = 0.02, delta_target: float = 0.05,
                             split: SplitResult | None = None,
                             **solver_opts) -> ConvergenceTable:
    """Worst deviation from the boundary potential inside shrinking cones."""
    if split is None:
        split = approximation_split(ext, kernel, p, f, delta_target, **solver_opts)
    return _experiment(ext, kernel, p, f, x0_sample,
                       lambda x0: ApproachRegion(x0, "nontangential"),
                       t_grid, tol, split, track_bad_mass=False, **solver_opts)


def tangential_experiment(ext: PoissonExtension, kernel: RadialKernel, p: float,
                          f: np.ndarray, x0_sample, region_kind: str = "polynomial",
                          t_grid=None, tol: float = 0.05, delta_target: float = 0.05,
                          scale: float = 1.0, exponent: float | None = None,
                          inflation: float = 1.0,
                          split: SplitResult | None = None,
                          **solver_opts) -> ConvergenceTable:
    """Same deviation sup over wider-than-cone contact regions.

    The default polynomial exponent p * (s - 1/p') is the width of the
    capacity-matched region: ball mass grows like radius**Q while ball
    capacity decays like y**(Q p (s - 1/p')), so matching them cancels the
    dimension.
    """
    if region_kind not in ("capacity", "polynomial", "exponential"):
        raise ValueError("tangential regions are capacity, polynomial, exponential")
    if split is None:
        split = approximation_split(ext, kernel, p, f, delta_target, **solver_opts)
    if exponent is None:
        pp = p / (p - 1.0)
        exponent = p * (kernel.s - 1.0 / pp)

    def make_region(x0: int) -> ApproachRegion:
        if region_kind == "capacity":
            return ApproachRegion(x0, "capacity", scale=inflation)
        if region_kind == "polynomial":
            return ApproachRegion(x0, "polynomial", scale=scale, exponent=exponent)
        return ApproachRegion(x0, "exponential", scale=scale)

    return _experiment(ext, kernel, p, f, x0_sample, make_region,
                       t_grid, tol, split, track_bad_mass=True, **solver_opts)
