"""Separated ball families and quasi-additivity experiments.

Capacity is subadditive.  The converse inequality, up to a constant, holds
for a family of balls whose capacity-matched enlargements are pairwise
disjoint: on tree boundaries the constant is explicit in the kernel norm
and the exponent, while on embedded model spaces it exists but is not
computable from the data, so batches record the empirical ratio and check
its stability instead.

Families are produced by a seeded greedy sampler: draw a center and a
radius level, compute the enlargement, keep the candidate when its
enlarged ball avoids everything kept so far.  Candidates whose ball
capacity exceeds the total mass have no enlargement and are skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .capacity import (metric_matching_radius, solve_capacity,
                       tree_matching_radius)
from .kernel import RadialKernel, kernel_operator
from .space import ModelSpace


def tree_quasi_additivity_bound(kernel_norm: float, p: float) -> float:
    """Provable ratio bound on tree boundaries:
    [(2**(p'-1) + 1) * norm**p' + 2**(p'-1)] ** (1/(p'-1))."""
    pp = p / (p - 1.0)
    return float(((2.0 ** (pp - 1.0) + 1.0) * kernel_norm**pp + 2.0 ** (pp - 1.0))
                 ** (1.0 / (pp - 1.0)))


@dataclass
class SeparatedFamily:
    mode: str                      # "tree" | "ahlfors"
    centers: list
    levels: list                   # grid ball = depth-level subtree around center
    radii: list                    # delta**level, the nominal radii
    enlarged_radii: list           # open-ball radii of the disjoint enlargements
    enlarged_ranges: list          # half-open leaf ranges of the enlargements
    inflation: float = 1.0         # ahlfors: factor on the matching radius
    radius_margin: float = 1.0     # ahlfors: factor on r before matching
    skipped: int = 0               # candidates without a matching radius

    def __len__(self):
        return len(self.centers)

    def ball_range(self, space: ModelSpace, j: int) -> tuple[int, int]:
        return space.grid_ball_range(self.centers[j], self.levels[j])


@dataclass
class SeparationCertificate:
    ok: bool
    violations: list = field(default_factory=list)


def verify_separation(space: ModelSpace, family: SeparatedFamily) -> SeparationCertificate:
    """Exhaustive pairwise check that no leaf lies in two enlarged balls."""
    masks = []
    for lo, hi in family.enlarged_ranges:
        m = np.zeros(space.n_leaves, dtype=bool)
        m[lo:hi] = True
        masks.append(m)
    violations = [(i, j)
                  for i in range(len(masks))
                  for j in range(i + 1, len(masks))
                  if np.any(masks[i] & masks[j])]
    return SeparationCertificate(not violations, violations)


def generate_separated_family(space: ModelSpace, kernel: RadialKernel, p: float,
                              count: int, seed: int, mode: str = "tree",
                              inflation: float = 1.0, radius_margin: float = 1.0,
                              level_range: tuple | None = None,
                              max_attempts: int | None = None,
                              **solver_opts) -> SeparatedFamily:
    """Greedy seeded sampler of balls with disjoint enlargements."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode not in ("tree", "ahlfors"):
        raise ValueError(f"unknown family mode {mode!r}")
    if mode == "tree" and space.kind != "tree-boundary":
        raise ValueError("tree mode needs a tree-boundary space")
    tree = space.tree
    if level_range is None:
        level_range = (min(2, tree.depth), max(tree.depth - 2, 1))
    lo_lvl, hi_lvl = level_range
    rng = np.random.default_rng(seed)
    fam = SeparatedFamily(mode, [], [], [], [], [],
                          inflation=inflation, radius_margin=radius_margin)
    attempts = max_attempts if max_attempts is not None else 80 * count
    for _ in range(attempts):
        if len(fam) >= count:
            break
        x = int(rng.integers(space.n_leaves))
        level = int(rng.integers(lo_lvl, hi_lvl + 1))
        r = tree.grid_radius(level)
        if mode == "tree":
            er = tree_matching_radius(space, kernel, p, x, level, **solver_opts)
            if not er.exists:
                fam.skipped += 1
                continue
            enlarged_level = min(level, er.matching_level)
            enlarged_r = tree.delta ** (enlarged_level - 0.5)
            lo, hi = tree.subtree_range(x, enlarged_level)
        else:
            er = metric_matching_radius(space, kernel, p, x, radius_margin * r,
                                        closed=True, **solver_opts)
            if not er.exists:
                fam.skipped += 1
                continue
            enlarged_r = inflation * er.star
            blo, bhi = space.ball_bounds(np.array([x]), enlarged_r, closed=True)
            lo, hi = int(blo[0]), int(bhi[0])
            # the nominal ball must sit inside its enlargement
            glo, ghi = space.grid_ball_range(x, level)
            lo, hi = min(lo, glo), max(hi, ghi)
        if any(lo < h and l < hi for l, h in fam.enlarged_ranges):
            continue
        fam.centers.append(x)
        fam.levels.append(level)
        fam.radii.append(r)
        fam.enlarged_radii.append(enlarged_r)
        fam.enlarged_ranges.append((lo, hi))
    if len(fam) < count:
        warnings.warn(f"family exhausted the space: produced {len(fam)} of "
                      f"{count} requested balls ({fam.skipped} skipped)")
    return fam


def family_target_sets(space: ModelSpace, family: SeparatedFamily, shape: str,
                       seed: int = 0) -> list:
    """Target sets inside the family's balls: full balls, singletons, or
    seeded half-density subsets."""
    rng = np.random.default_rng(seed)
    sets = []
    for j in range(len(family)):
        lo, hi = family.ball_range(space, j)
        leaves = np.arange(lo, hi)
        if shape == "ball":
            sets.append(leaves)
        elif shape == "singleton":
            sets.append(np.array([family.centers[j]]))
        elif shape == "half":
            keep = rng.random(leaves.size) < 0.5
            keep[np.searchsorted(leaves, family.centers[j])] = True
            sets.append(leaves[keep])
        else:
            raise ValueError(f"unknown target shape {shape!r}")
    return sets


@dataclass
class ExperimentReport:
    mode: str
    n_balls: int
    p: float
    sum_capacity: float
    union_capacity: float
    ratio: float
    bound: float | None            # provable bound in tree mode, None otherwise
    passed: bool
    set_capacities: list = field(default_factory=list)

    LOWER_SLACK = 1e-9
    UPPER_SLACK = 1e-6


def _solve_family(space, kernel, p, family, sets, **solver_opts):
    for j, target in enumerate(sets):
        lo, hi = family.ball_range(space, j)
        t = np.asarray(target)
        if t.size and (t.min() < lo or t.max() >= hi):
            raise ValueError(f"target set {j} is not contained in its ball")
    caps = [solve_capacity(space, kernel, t, p=p, **solver_opts).value for t in sets]
    union = np.unique(np.concatenate([np.asarray(t) for t in sets]))
    union_cap = solve_capacity(space, kernel, union, p=p, **solver_opts).value
    return caps, union_cap


def quasi_additivity_tree(space: ModelSpace, kernel: RadialKernel, p: float,
                          family: SeparatedFamily, sets, **solver_opts) -> ExperimentReport:
    """Ratio of summed to joint capacity against the provable tree bound."""
    cert = verify_separation(space, family)
    if not cert.ok:
        raise ValueError(f"family enlargements overlap: {cert.violations}")
    caps, union_cap = _solve_family(space, kernel, p, family, sets, **solver_opts)
    ratio = sum(caps) / union_cap if union_cap > 0 else 1.0
    bound = tree_quasi_additivity_bound(kernel_operator(kernel, space).norm_1(), p)
    passed = (ratio >= 1.0 - ExperimentReport.LOWER_SLACK
              and ratio <= bound * (1.0 + ExperimentReport.UPPER_SLACK))
    return ExperimentReport("tree", len(family), p, sum(caps), union_cap,
                            ratio, bound, passed, caps)


def quasi_additivity_ahlfors(space: ModelSpace, kernel: RadialKernel, p: float,
                             family: SeparatedFamily, sets, **solver_opts) -> ExperimentReport:
    """Same ratio on an embedded space; only subadditivity is checkable,
    the converse constant is recorded empirically by the batch helpers."""
    cert = verify_separation(space, family)
    if not cert.ok:
        raise ValueError(f"family enlargements overlap: {cert.violations}")
    caps, union_cap = _solve_family(space, kernel, p, family, sets, **solver_opts)
    ratio = sum(caps) / union_cap if union_cap > 0 else 1.0
    passed = ratio >= 1.0 - ExperimentReport.LOWER_SLACK
    return ExperimentReport("ahlfors", len(family), p, sum(caps), union_cap,
                            ratio, None, passed, caps)


def ahlfors_ratio_batch(space: ModelSpace, s: float, p: float, seeds,
                        count: int = 4, inflation: float = 1.0,
                        radius_margin: float = 1.0, shape: str = "ball",
                        **solver_opts) -> list:
    """Empirical quasi-additivity ratios over a seeded batch of families."""
    kernel = RadialKernel("riesz", s=s, p=p)
    ratios = []
    for seed in seeds:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fam = generate_separated_family(
                space, kernel, p, count, seed, mode="ahlfors",
                inflation=inflation, radius_margin=radius_margin, **solver_opts)
        if len(fam) == 0:
            continue
        sets = family_target_sets(space, fam, shape, seed)
        report = quasi_additivity_ahlfors(space, kernel, p, fam, sets, **solver_opts)
        ratios.append(report.ratio)
    return ratios


INFLATION_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def estimate_inflation(space: ModelSpace, s: float, p: float,
                       radius_margin: float = 1.0, seeds=range(10),
                       count: int = 4, grid=INFLATION_GRID,
                       stability: float = 0.05, **solver_opts) -> float:
    """Smallest grid inflation whose batch max ratio has stabilized.

    Stabilized means the max ratio moves by less than ``stability`` when
    the inflation is bumped one grid step; if the grid is exhausted the
    last value is returned with a warning.
    """
    seeds = list(seeds)
    if len(seeds) < 10:
        raise ValueError("estimate needs a batch of at least 10 seeds")
    maxima = []
    for psi in grid:
        ratios = ahlfors_ratio_batch(space, s, p, seeds, count=count,
                                     inflation=psi, radius_margin=radius_margin,
                                     **solver_opts)
        maxima.append(max(ratios) if ratios else 1.0)
    for i in range(len(grid) - 1):
        if abs(maxima[i + 1] - maxima[i]) < stability * maxima[i]:
            return float(grid[i])
    warnings.warn("inflation grid exhausted without stabilization")
    return float(grid[-1])
