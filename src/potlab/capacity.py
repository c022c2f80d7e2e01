"""L^p capacity: primal density, dual measure, duality certificate, radii.

The capacity of a target set E is the least p-th moment of a nonnegative
density whose potential reaches 1 everywhere on E.  We work through the
equivalent maximization over measures supported on E whose potential has
conjugate norm at most 1: the smooth concave surrogate

    D(lam) = sum(lam) - (p - 1) * sum_y w_y (K*lam(y) / p)**p'

has gradient 1 - K*g with g = (K*lam / p)**(p' - 1), so its stationary
points are exactly the equilibrium states where the potential of g is 1 on
the support.  One two-metric projected Newton phase (Bertsekas 1982) solves
it from the best multiple of the uniform measure: leaves at or near 0 with
a negative gradient are moved to 0, the others take a Newton step on the
Hessian K_F diag(w g') K_F^T, and a projected Armijo search along the step
lets many leaves enter or leave the support in one round.  At p = 2,
g' = 1/2 wherever the potential is positive, so the weights of the Hessian
rarely move: the first round's all-free Gram G is kept, and a later round
with the same weights solves its free block F on G.  Those rounds at first
slice the block from G and solve it directly.  Once the direct solves spent
on them pay for it, at once on an all-free repeat, the inverse of G's
Cholesky factor (``np.linalg.cholesky``) is kept beside G, and a round
solves through a Schur complement on its binding leaves where that costs
less than slicing G, each binding leaf's row of G^-1 formed once
(``_KeptGram`` states the two flop-count rules that decide).  It
stops when the projected-gradient residual reaches rounding level;
``iterations`` counts the rounds.

The solve works on the exact quotient of the leaves (``ModelSpace.cells``):
one unknown per block of the target, a maximal subtree inside it of equal
leaf weight, and one cell per block or maximal subtree missing the target.
A radial kernel on the ultrametric, the weights and the target are
invariant under every automorphism of a block, so an optimal measure, and
every Newton iterate from the uniform start, is constant on it, and
u = K*lam is constant on every cell.  With the cell rows
R[B, c] = sum over x in B of K(x, y), y in c (``_cell_rows``) and the cell
masses M, u = lam R, K*g on a block is R (M g) / |B|, the moment is
sum M (u / p)**p' and the Hessian R_F diag(M g') R_F^T, so every decision
is the per-leaf solver's in exact arithmetic, and only ``density`` and
``measure`` are spread over the leaves, at the end.  A subtree is one
block among at most (b - 1) N cells, and starts at the optimum.  On the
embedded metrics each cell is one leaf and the rows are the target's
kernel rows (``KernelOperator.row``), so on every kind the rows are built
once, when the solve starts, and every u, K*g and Hessian of it is read
from them; K*g and the gradient are formed only for the states the solve
keeps, not for every candidate.
Every other Newton system is one LU solve (``spd_solve``, LAPACK ``gesv``
through numpy); only an exactly singular Hessian falls back to a solve
with a 1e-13 diagonal jitter, and a G that the Cholesky factorization
rejects is never factored.  ``capacity_value`` memoizes the value of a
leaf set on the space, the one capacity memo for callers that read only
the value.

Certificates are unconditional: any measure rescaled to the constraint
boundary gives a lower bound, the recovered density rescaled to
feasibility gives an upper bound, and the reported gap is their ratio
deficit.  For p = 2 a finite active-set solve of the equivalent simplex
quadratic program is provided as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelOperator, RadialKernel, kernel_operator
from .space import ModelSpace, sorted_unique


def spd_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Positive-semidefinite solve with a jitter fallback: every Newton
    system that is not a Schur step on a factored p = 2 Gram.

    ``np.linalg.solve`` factors the matrix by LU with partial pivoting
    (LAPACK ``gesv``), which raises only on an exactly singular matrix (a
    zero pivot); a Cholesky factorization would also raise on one that is
    merely not positive definite in floating point, which is why a Gram
    the solver keeps is factored by Cholesky only when that succeeds.  On
    that error the diagonal is raised by 1e-13 of its mean and the system
    solved again.  Near-singular systems only slow the outer iteration
    down; optimality is certified through the duality gap, which still
    decides ``converged``.
    """
    try:
        return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        jitter = 1e-13 * max(float(np.trace(mat)) / mat.shape[0], 1e-300)
        return np.linalg.solve(mat + jitter * np.eye(mat.shape[0]), rhs)


@dataclass
class CapacitySolution:
    value: float                # primal bound, from the feasible density
    density: np.ndarray         # feasible primal density f
    measure: np.ndarray         # dual measure, potential normalized to norm 1
    dual_value: float
    relative_gap: float
    iterations: int
    converged: bool


class _DualState:
    """Caches the nonlinear quantities attached to a candidate measure.

    lam holds the mass of each leaf of each block; u and g hold one value
    per cell, K*g and the gradient one per block, formed only for the states
    the solve keeps.  Each is read from the rows built here: the cell rows
    on the ultrametric, the target's kernel rows on an embedded space."""

    def __init__(self, space: ModelSpace, op: KernelOperator, target, p):
        self.p = p
        self.pp = p / (p - 1.0)
        starts, self.cell_sizes, self.masses, inside = space.cells(target)
        self.sizes = self.cell_sizes[inside]
        self.rows = _cell_rows(space, op.table, starts, self.cell_sizes, inside) \
            if space.kind == "tree-boundary" else op.row(target)

    def evaluate(self, lam):
        """u, the moment and the objective: all a line-search candidate reads."""
        u = np.maximum(lam @ self.rows, 0.0)
        moment = float(self.masses @ (u / self.p) ** self.pp)   # = sum M g**p
        objective = float((lam * self.sizes).sum()) - (self.p - 1.0) * moment
        return {"u": u, "moment": moment, "objective": objective}

    def keep(self, state):
        """Add g, K*g and the gradient to a state the solve moves to."""
        g = (state["u"] / self.p) ** (self.pp - 1.0)
        kg = self.rows @ (self.masses * g) / self.sizes
        state.update(g=g, kg=kg, grad=1.0 - kg)
        return state

    def certificates(self, lam, state):
        """(dual, primal, u_norm, floor): the two bounds, and the conjugate
        norm of u and the least K*g on the target that they rescale by."""
        u_norm = float(self.masses @ state["u"] ** self.pp) ** (1.0 / self.pp)
        lam_sum = float((lam * self.sizes).sum())
        dual = (lam_sum / u_norm) ** self.p if u_norm > 0 else 0.0
        floor = float(state["kg"].min())
        primal = state["moment"] / floor**self.p if floor > 0 else math.inf
        return dual, primal, u_norm, floor


def _cell_rows(space: ModelSpace, table, starts, sizes, inside):
    """R[B, c] = sum over x in B of K(x, y) for y in cell c, one row per block
    B of the target: off B, |B| table[lca(B, c)], as two disjoint subtrees
    meet at one level; on B, the sum of one leaf's row over B, the same for
    every leaf of B: the leaf itself, then (b - 1) b**j leaves at lca level
    N - 1 - j for each j below the block's height."""
    b, depth = space.branching, space.depth
    block = np.flatnonzero(inside)
    steps = table[depth - 1::-1] * ((b - 1) * b ** np.arange(depth))
    within = np.concatenate(([0.0], np.cumsum(steps))) + table[depth]
    heights = np.searchsorted(b ** np.arange(depth + 1), sizes[block])
    # the cells of B's level-l subtree are one run of cells, lo_l .. hi_l - 1,
    # so a row runs through lca levels 0, 1, .., N - 1, then B, then back down:
    # cells lo_l .. lo_(l+1) - 1 and hi_(l+1) .. hi_l - 1 meet B at level l
    size = b ** np.arange(depth - 1, -1, -1)
    subtree = starts[block, None] // size * size
    edges = np.concatenate((np.zeros((block.size, 1), dtype=np.int64),
                            np.searchsorted(starts, subtree),
                            np.searchsorted(starts, subtree + size)[:, ::-1],
                            np.full((block.size, 1), starts.size)), axis=1)
    scaled = sizes[block, None] * table[:depth]
    values = np.concatenate((scaled, within[heights, None], scaled[:, ::-1]), axis=1)
    return np.repeat(values.ravel(), np.diff(edges).ravel()).reshape(block.size, starts.size)


def _gram(rows, free, weights):
    """A A^T for A = rows[free] * weights, with A freed once it is formed."""
    a = rows[free]
    a *= weights
    return a @ a.T


def _invert_lower(low):
    """Overwrite a lower-triangular matrix with its inverse, blockwise in place:
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]."""
    m = low.shape[0]
    if m <= 64:
        low[...] = np.tril(np.linalg.inv(low))
        return
    h = m // 2
    a, c, d = low[:h, :h], low[h:, :h], low[h:, h:]
    _invert_lower(a)
    _invert_lower(d)
    c[...] = -(d @ (c @ a))


class _KeptGram:
    """The all-free p = 2 Hessian G of a solve, and the free-block systems of
    the later rounds that share its weights.

    Until factoring pays, a round slices its free block F from G and solves
    it directly.  From then on R = L^-1 for the Cholesky factor L of G is
    kept beside G, so G^-1 = R^T R, and a round solves G_FF y = g_F through
    the binding leaves B: with z = G^-1 g for g zero on B,
    y = z - G^-1[:, B] (G^-1[B, B])^-1 z_B, which vanishes on B.  The row of
    G^-1 of a leaf is formed the first time the leaf binds, then kept.

    Two flop counts decide, with m = |F| + |B|.  A round takes the Schur step
    only when 2 m^2 (leaves binding for the first time) + 2 |B|^3 / 3, the
    new rows and an LU solve of the binding block, is below 2 |F|^3 / 3, an
    LU solve of the free block.  G is factored on the first round where its
    Cholesky factor and triangular inverse, 2 m^3 / 3, plus that Schur step
    cost no more than the direct solve plus those of the earlier rounds on
    G, so an all-free repeat, whose Schur step costs nothing, factors at
    once.  Any other round, before or after factoring, slices its block
    from G.  A G that ``np.linalg.cholesky`` rejects stays on the direct
    path.
    """

    def __init__(self, gram, weights):
        self.gram = gram             # G, kept beside R
        self.weights = weights
        self.inverse = None          # R once factored
        self.factorable = True
        self.spent = 0.0             # flops of direct solves on G so far
        self.inv_rows = np.empty((0, gram.shape[0]))   # rows of G^-1 kept so far
        self.slot = np.full(gram.shape[0], -1)      # each leaf's row in ``inv_rows``

    def solve(self, free, rhs):
        """G_FF^-1 rhs."""
        m = free.size
        bound = np.flatnonzero(~free)
        new = bound[self.slot[bound] < 0]
        direct = 2.0 * (m - bound.size) ** 3 / 3.0
        schur = 2.0 * m * m * new.size + 2.0 * bound.size ** 3 / 3.0
        if schur < direct:
            if self.inverse is None and self.factorable \
                    and 2.0 * m**3 / 3.0 + schur <= direct + self.spent:
                self._factor()
            if self.inverse is not None:
                step = self._schur(free, bound, new, rhs)
                if step is not None:
                    return step
        self.spent += direct
        return spd_solve(self.gram if free.all() else self.gram[np.ix_(free, free)], rhs)

    def _factor(self):
        try:
            low = np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            self.factorable = False
            return
        _invert_lower(low)
        self.inverse = low

    def _schur(self, free, bound, new, rhs):
        """The Schur step, or None when the binding block is exactly singular."""
        r = self.inverse
        z = r.T @ (r @ _scatter(rhs, free, free.size))
        if bound.size:
            if new.size:
                self.slot[new] = np.arange(len(self.inv_rows), len(self.inv_rows) + new.size)
                self.inv_rows = np.concatenate([self.inv_rows, r[:, new].T @ r])
            at = self.slot[bound]
            try:
                v = np.linalg.solve(self.inv_rows[np.ix_(at, bound)], z[bound])
            except np.linalg.LinAlgError:
                return None
            z -= _scatter(v, at, len(self.inv_rows)) @ self.inv_rows
        return z[free]


def _scatter(values, idx, n):
    out = np.zeros(n)
    out[idx] = values
    return out


GAP_ACCEPT = 1e-3   # certified relative duality gap below which a solve is converged
MAX_ROUNDS = 200    # default Newton round cap; the whole-space unit-interval solve,
                    # the hardest measured, takes 59 rounds at depth 11 and 116 at 12,
                    # on one BLAS thread and on two


def solve_capacity(space: ModelSpace, kernel: RadialKernel, target,
                   p: float | None = None,
                   max_iters: int = MAX_ROUNDS) -> CapacitySolution:
    """Solve the capacity problem for a leaf subset.

    The result carries both sides: the least p-th moment density with
    potential >= 1 on the target, and the largest-mass measure on the
    target with unit-norm potential.  ``iterations`` counts projected
    Newton rounds and ``max_iters`` caps them; the certified duality gap
    decides ``converged`` against ``GAP_ACCEPT``.  An empty target has
    capacity 0.
    """
    n = space.n_leaves
    E = sorted_unique(np.asarray(target, dtype=np.int64))
    if E.size and (E[0] < 0 or E[-1] >= n):
        raise ValueError("target leaves out of range")
    p = float(kernel.p if p is None else p)
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie strictly between 1 and infinity")
    if E.size == 0:
        z = np.zeros(n)
        return CapacitySolution(0.0, z, z.copy(), 0.0, 0.0, 0, True)
    ds = _DualState(space, kernel_operator(kernel, space), E, p)

    # K*1 on the target, per block times its size
    if np.any(ds.rows @ ds.masses <= 0.0):
        raise ValueError("kernel carries no mass toward part of the target")
    # the best multiple c of the uniform measure: c**(p'-1) = sum(lam) / (p * moment)
    state = ds.evaluate(np.ones(ds.sizes.size))
    lam = np.full(ds.sizes.size, (E.size / (p * state["moment"])) ** (p - 1.0))
    state = ds.keep(ds.evaluate(lam))

    kept = None   # p = 2: the first round's all-free Hessian, a _KeptGram
    iterations = 0
    while True:
        grad = state["grad"]
        # projected-gradient residual, lam measured against its largest entry
        scale = float(lam.max())
        residual = float(np.abs(np.minimum(lam / scale, -grad)).max())
        if residual <= 1e-14 or iterations >= max_iters:
            break
        iterations += 1
        # binding: at or near 0 with the gradient pushing outward
        free = (lam > scale * min(residual, 1e-3)) | (grad > 0.0)
        # Newton step on the free blocks: Hessian R_F diag(M g') R_F^T = A A^T
        # against each block's summed gradient, at p = 2 the free block of
        # the kept all-free one while its weights hold
        u = state["u"]
        gprime = np.zeros_like(u)
        pos = u > 0
        gprime[pos] = (ds.pp - 1.0) / p * (u[pos] / p) ** (ds.pp - 2.0)
        weights = np.sqrt(ds.masses * gprime)
        block_grad = ds.sizes * grad
        direction = -lam                       # binding blocks move to 0
        if kept is not None and np.array_equal(weights, kept.weights):
            direction[free] = kept.solve(free, block_grad[free])
        else:
            hessian = _gram(ds.rows, free, weights)
            direction[free] = spd_solve(hessian, block_grad[free])
            if p == 2.0 and free.all():
                kept = _KeptGram(hessian, weights)
            del hessian                        # so no two rounds' Hessians coexist
        # projected Armijo search; near the optimum the objective moves
        # less than its own rounding, hence the noise allowance
        slope = float(block_grad @ direction)
        noise = 1e-14 * abs(state["objective"])
        t = 1.0
        for _ in range(40):
            cand = np.maximum(lam + t * direction, 0.0)
            cand_state = ds.evaluate(cand)
            if cand_state["objective"] >= state["objective"] + 1e-4 * t * slope - noise:
                break
            t *= 0.5
        else:
            break
        lam, state = cand, ds.keep(cand_state)

    dual, primal, u_norm, floor = ds.certificates(lam, state)
    gap = max((primal - dual) / primal, 0.0) if primal > 0 else 0.0
    density = np.repeat(state["g"] / floor, ds.cell_sizes)
    measure = _scatter(np.repeat(lam, ds.sizes) / u_norm, E, n)
    return CapacitySolution(
        value=primal, density=density, measure=measure, dual_value=dual, relative_gap=gap,
        iterations=iterations, converged=gap <= GAP_ACCEPT)


# -- p = 2 exact oracle --------------------------------------------------------


KKT_TOL = 1e-11   # optimality tolerance of the p = 2 active-set oracle


def capacity_p2_exact(space: ModelSpace, kernel: RadialKernel, target) -> float:
    """Finite active-set solve of the p = 2 problem (independent oracle).

    The optimum is the reciprocal of the least quadratic energy of a
    probability vector on the target; the active-set iteration adds the
    most violated point and prunes negative coefficients.
    """
    E = sorted_unique(np.asarray(target, dtype=np.int64))
    if E.size == 0:
        return 0.0
    rows = kernel_operator(kernel, space).row(E)
    gram = (rows * space.weights[None, :]) @ rows.T
    m = E.size

    def solve_on(idx):
        return spd_solve(gram[np.ix_(idx, idx)], np.ones(idx.size))

    active = [int(np.argmin(np.diag(gram)))]
    nu = np.zeros(m)
    nu[active[0]] = 1.0
    for _ in range(4 * m + 20):
        idx = np.array(active)
        x = solve_on(idx)
        cand = np.zeros(m)
        cand[idx] = x / x.sum()
        if np.any(cand[idx] < -KKT_TOL):
            # walk back toward the last feasible iterate, drop the blocker
            old = nu[idx]
            new = cand[idx]
            neg = new < 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = old[neg] / (old[neg] - new[neg])
            alpha = float(np.min(ratios))
            mixed = old + alpha * (new - old)
            nu[idx] = np.maximum(mixed, 0.0)
            drop = idx[int(np.argmin(mixed))]
            active.remove(int(drop))
            nu[drop] = 0.0
            continue
        nu = cand
        energies = gram @ nu
        e = float(nu @ energies)
        violation = e - float(energies.min())
        if violation <= KKT_TOL * max(e, 1e-300):
            return 1.0 / e
        entering = int(np.argmin(energies))
        if entering in active:
            return 1.0 / e
        active.append(entering)
    energies = gram @ nu
    return 1.0 / float(nu @ energies)


def singleton_capacity(space: ModelSpace, kernel: RadialKernel, x: int,
                       p: float | None = None) -> float:
    """Closed form for one-point targets: (sum w K(x,.)**p')**(1-p)."""
    p = kernel.p if p is None else p
    pp = p / (p - 1.0)
    row = kernel_operator(kernel, space).row(x)
    return float((space.weights @ row**pp) ** (1.0 - p))


# -- mass-matching radii -------------------------------------------------------


@dataclass
class EnlargementRadius:
    """Radius at which ball mass first dominates the ball's capacity."""
    matching: float      # inf when the capacity exceeds the total mass
    star: float          # max(r, matching); diameter in the sentinel case
    exists: bool


def uniform_ball_capacity(space: ModelSpace, kernel: RadialKernel, p: float,
                          x: int, level: int) -> float:
    """Exact subtree capacity on uniform tree boundaries, an oracle.

    A radial kernel and equal leaf weights make the problem invariant under
    every automorphism fixing the subtree, and averaging an optimal measure
    over that group keeps it optimal, so the uniform probability on the
    subtree is an equilibrium measure.  Only its potential norm is needed,
    one tree-operator apply at any depth, summed pairwise: a BLAS dot over
    the 2**20 leaves of depth 20 errs by up to 2.5e-13.
    """
    w = space.weights
    if space.kind != "tree-boundary" or not np.all(w == w[0]):
        raise ValueError("symmetric reduction needs the ultrametric and uniform leaf weights")
    lo, hi = space.subtree_range(x, level)
    nu = np.zeros(space.n_leaves)
    nu[lo:hi] = 1.0 / (hi - lo)
    u = kernel_operator(kernel, space).apply_measure(nu)
    pp = p / (p - 1.0)
    return float(np.sum(w * u**pp)) ** (-p / pp)


def capacity_value(space: ModelSpace, kernel: RadialKernel, target,
                   p: float) -> float:
    """Capacity of a leaf set, memoized on the space under its sorted unique
    leaves, so a permuted or repeated target is one entry: a set that is one
    contiguous run lo..hi-1 is keyed by (lo, hi), any other by its leaf bytes.
    """
    E = sorted_unique(np.asarray(target, dtype=np.int64))
    run = E.size > 0 and int(E[-1]) - int(E[0]) + 1 == E.size
    leaves = (int(E[0]), int(E[-1]) + 1) if run else (E.tobytes(),)
    return space._cached(("set", kernel, p, *leaves),
                         lambda: solve_capacity(space, kernel, E, p=p).value)


def metric_matching_radius(space: ModelSpace, kernel: RadialKernel, p: float,
                           x: int, r: float, closed: bool = False) -> EnlargementRadius:
    """Infimal radius R with mass(B(x, R)) >= capacity(B(x, r)).

    The mass of B(x, R) is a step function jumping at realized distances,
    so the infimum is the smallest realized distance whose closed ball
    carries enough mass.  On the ultrametric those closed balls are the
    subtrees around x: the finest level m whose subtree carries the mass
    gives R = delta**m, or 0 at m = depth, the leaf alone.  Elsewhere the
    distances from x are sorted.  ``closed`` switches the capacity ball to
    the closed convention used on the radius grid.
    """
    lo, hi = space.ball_bounds(np.array([x]), r, closed=closed)
    cap = capacity_value(space, kernel, np.arange(lo[0], hi[0]), p)
    if cap > space.total_mass:
        return EnlargementRadius(math.inf, space.diameter, False)
    if space.kind == "tree-boundary":
        # the level-0 subtree is the whole space, so some level qualifies
        m = next(m for m in range(space.depth, -1, -1)
                 if space.range_mass(*space.subtree_range(x, m)) >= cap)
        match = space.grid_radius(m) if m < space.depth else 0.0
        return EnlargementRadius(match, max(r, match), True)
    dists = space.distances_from(x)
    order = np.argsort(dists, kind="stable")
    sorted_d = dists[order]
    cum = np.cumsum(space.weights[order])
    # closed-ball mass at t = cumulative mass through the whole tie block
    uniq, last_pos = np.unique(sorted_d[::-1], return_index=True)
    closed_mass = cum[sorted_d.size - 1 - last_pos]
    hit = np.searchsorted(closed_mass, cap, side="left")
    if hit >= uniq.size:
        return EnlargementRadius(math.inf, space.diameter, False)
    match = float(uniq[hit])
    return EnlargementRadius(match, max(r, match), True)


# -- ball capacity profiles ----------------------------------------------------


@dataclass
class BallCapacityProfile:
    levels: np.ndarray
    radii: np.ndarray
    capacities: np.ndarray
    slope: float | None              # least-squares slope of log C vs log r
    log_product_range: tuple | None  # (min, max) of C * log(1/r)


def theoretical_profile_slope(dimension: float, p: float, s: float) -> float:
    """Power-law exponent of ball capacities when s exceeds 1/p'."""
    pp = p / (p - 1.0)
    return dimension * p * (s - 1.0 / pp)


def ball_capacity_profile(space: ModelSpace, kernel: RadialKernel, p: float,
                          x: int, levels) -> BallCapacityProfile:
    """Capacities of the closed grid balls of radius delta**level around x."""
    levels = np.asarray(sorted(levels), dtype=int)
    radii = np.array([space.grid_radius(int(n)) for n in levels])
    caps = np.array([capacity_value(space, kernel, np.arange(*space.grid_ball_range(x, int(n))),
                                    p) for n in levels])
    slope = None
    if levels.size >= 2 and np.all(caps > 0):
        slope = float(np.polyfit(np.log(radii), np.log(caps), 1)[0])
    products = caps * np.log(1.0 / radii)
    rng = (float(products.min()), float(products.max())) if levels.size else None
    return BallCapacityProfile(levels, radii, caps, slope, rng)
