"""Separated ball families and quasi-additivity experiments.

Capacity is subadditive.  The converse inequality, up to a constant, holds
for a family of balls whose capacity-matched enlargements are pairwise
disjoint: on tree boundaries the constant is explicit in the kernel norm
and the exponent, while on embedded model spaces it exists but is not
computable from the data, so batches record the empirical ratio and check
only the subadditive lower end.

Families are produced by a seeded greedy sampler: draw a center and a
radius level, compute the enlargement, keep the candidate when its
enlarged ball avoids everything kept so far; one whose grid ball meets a
kept enlargement is rejected unsolved.  Candidates whose ball capacity
exceeds the total mass have no enlargement and are skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .capacity import capacity_value, metric_matching_radius
from .kernel import RadialKernel, kernel_operator
from .space import ModelSpace

FAMILY_MODES = ("tree", "ahlfors")
TARGET_SHAPES = ("ball", "singleton", "half")


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
    enlarged_ranges: list          # half-open leaf ranges of the enlargements
    skipped: int = 0               # solved candidates without a matching radius

    def __len__(self):
        return len(self.centers)

    def ball_range(self, space: ModelSpace, j: int) -> tuple[int, int]:
        return space.grid_ball_range(self.centers[j], self.levels[j])


@dataclass
class SeparationCertificate:
    ok: bool
    violations: list = field(default_factory=list)


def verify_separation(space: ModelSpace, family: SeparatedFamily) -> SeparationCertificate:
    """Exhaustive pairwise check that no leaf lies in two enlarged balls: two
    half-open leaf ranges share one when the later start is before the
    earlier end."""
    ranges = family.enlarged_ranges
    violations = [(i, j)
                  for i in range(len(ranges))
                  for j in range(i + 1, len(ranges))
                  if max(ranges[i][0], ranges[j][0]) < min(ranges[i][1], ranges[j][1])]
    return SeparationCertificate(not violations, violations)


def generate_separated_family(space: ModelSpace, kernel: RadialKernel, p: float,
                              count: int, seed: int, mode: str = "tree") -> SeparatedFamily:
    """Greedy seeded sampler of balls with disjoint enlargements: at most
    80 draws per requested ball.  Radius levels are 2..depth-2, narrowed to
    the single level min(2, depth) on shallow trees.  ``mode`` leaves the
    draws alone; it marks a tree family for the provable tree bound."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if mode not in FAMILY_MODES:
        raise ValueError(f"unknown family mode {mode!r}")
    if mode == "tree" and space.kind != "tree-boundary":
        raise ValueError("tree mode needs a tree-boundary space")
    lo_lvl = min(2, space.depth)
    hi_lvl = max(space.depth - 2, lo_lvl)
    rng = np.random.default_rng(seed)
    fam = SeparatedFamily(mode, [], [], [])
    for _ in range(80 * count):
        if len(fam) >= count:
            break
        x = int(rng.integers(space.n_leaves))
        level = int(rng.integers(lo_lvl, hi_lvl + 1))
        # the enlargement holds the grid ball, so a grid ball that meets a kept
        # enlargement is rejected before its matching-radius solve
        glo, ghi = space.grid_ball_range(x, level)
        if any(glo < h and l < ghi for l, h in fam.enlarged_ranges):
            continue
        er = metric_matching_radius(space, kernel, p, x, space.grid_radius(level), closed=True)
        if not er.exists:
            fam.skipped += 1
            continue
        blo, bhi = space.ball_bounds(np.array([x]), er.star, closed=True)
        # the nominal ball must sit inside its enlargement
        lo, hi = min(int(blo[0]), glo), max(int(bhi[0]), ghi)
        if any(lo < h and l < hi for l, h in fam.enlarged_ranges):
            continue
        fam.centers.append(x)
        fam.levels.append(level)
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
            raise ValueError(f"unknown target shape {shape!r}; choose from {TARGET_SHAPES}")
    return sets


@dataclass
class ExperimentReport:
    n_balls: int
    sum_capacity: float
    union_capacity: float
    ratio: float
    bound: float                   # provable bound in tree mode, nan otherwise
    passed: bool

    LOWER_SLACK = 1e-9
    UPPER_SLACK = 1e-6


def quasi_additivity_report(space: ModelSpace, kernel: RadialKernel, p: float,
                            family: SeparatedFamily, sets) -> ExperimentReport:
    """Ratio of summed to joint capacity of target sets inside a family's balls.

    Subadditivity gives the lower end everywhere.  A tree family is also
    checked against the provable tree bound; on an embedded space the
    converse constant is not computable, so the ratio is only recorded,
    with a ``nan`` bound, and ``passed`` rests on subadditivity alone.
    """
    cert = verify_separation(space, family)
    if not cert.ok:
        raise ValueError(f"family enlargements overlap: {cert.violations}")
    for j, target in enumerate(sets):
        lo, hi = family.ball_range(space, j)
        t = np.asarray(target)
        if t.size and (t.min() < lo or t.max() >= hi):
            raise ValueError(f"target set {j} is not contained in its ball")
    caps = [capacity_value(space, kernel, t, p) for t in sets]
    union_cap = capacity_value(space, kernel, np.concatenate([np.asarray(t) for t in sets]), p)
    ratio = sum(caps) / union_cap if union_cap > 0 else 1.0
    passed = ratio >= 1.0 - ExperimentReport.LOWER_SLACK
    bound = math.nan
    if family.mode == "tree":
        bound = tree_quasi_additivity_bound(kernel_operator(kernel, space).norm_1(), p)
        passed = passed and ratio <= bound * (1.0 + ExperimentReport.UPPER_SLACK)
    return ExperimentReport(len(family), sum(caps), union_cap, ratio, bound, passed)


def family_batch(space: ModelSpace, kernel: RadialKernel, p: float, seeds,
                 count: int, mode: str, shapes) -> list:
    """(seed, shape, report) per seed and shape: one separated family per
    seed, and a report on each target shape inside its balls.  A seed whose
    family comes out empty contributes no row."""
    out = []
    for seed in seeds:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fam = generate_separated_family(space, kernel, p, count, seed, mode=mode)
        if len(fam) == 0:
            continue
        for shape in shapes:
            sets = family_target_sets(space, fam, shape, seed)
            out.append((seed, shape,
                        quasi_additivity_report(space, kernel, p, fam, sets)))
    return out
