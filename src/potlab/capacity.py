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
on them pay for it, G is replaced by the inverse of its Cholesky factor
(``np.linalg.cholesky``), and a round solves through a Schur complement on
its binding leaves instead, each binding leaf's row of G^-1 formed once
(``_KeptGram`` states the two flop-count rules that decide).  It
stops when the projected-gradient residual reaches rounding level;
``iterations`` counts the rounds.

The Newton phase keeps one unknown per block of the target: the maximal
subtrees inside it of equal leaf weight (``ModelSpace.aligned_blocks``).
A radial kernel on the ultrametric, the weights and the target are
invariant under every automorphism of such a subtree, so an optimal
measure, and every Newton iterate from the uniform start, is constant on
it.  The Hessian is S_F diag(w g') S_F^T for the block rows
S_B = sum over B of K(x, .), the right side each block's summed gradient,
and the residual and binding tests read per-leaf values, so every decision
is the per-leaf solver's in exact arithmetic.  On the embedded metrics each
block is one leaf.  The first round finds the blocks and takes their rows
for its Hessian; a target that starts at the optimum needs neither.  On
an embedded space every evaluation from then on reads u = K*lam and K*g on
the target from those rows, two products in place of two dense applies, so
only the evaluations before the first round apply the operator.  Every
other Newton system is one LU solve (``spd_solve``, LAPACK ``gesv`` through
numpy); only an exactly singular Hessian falls back to a solve with a 1e-13
diagonal jitter, and a G that the Cholesky factorization rejects is never
factored.
``capacity_value`` memoizes the value of a leaf set on the space, the one
capacity memo for callers that read only the value; a large subtree of a
uniform tree takes the exact symmetric reduction there, not the solver.

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

from .kernel import (DenseKernelOperator, KernelOperator, RadialKernel, kernel_operator,
                     lp_norm)
from .space import ModelSpace


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

    lam holds one mass per target leaf until ``block`` is called, and one
    per block of the target (``ModelSpace.aligned_blocks``) from then on;
    the per-target arrays ``kg`` (K*g on the target) and ``grad`` then hold
    each block's value at its first leaf.  Once ``rows`` holds the block
    rows (``_block_rows``), an evaluation reads u = rows^T lam and K*g on
    each block, rows (w g) over the block's size, from them; until then it
    makes one operator apply for each."""

    def __init__(self, op: KernelOperator, weights, target, p):
        self.op = op
        self.w = weights
        self.E = target
        self.p = p
        self.pp = p / (p - 1.0)
        self.sizes = None    # block sizes once blocked
        self.first = target  # the first leaf of each block
        self.rows = None

    def block(self, sizes, lam, state):
        """One unknown per block from here on: lam and its state, constant
        on every block, are read at each block's first leaf."""
        at = np.cumsum(sizes) - sizes
        self.sizes, self.first = sizes, self.E[at]
        return lam[at], dict(state, kg=state["kg"][at], grad=state["grad"][at])

    def leaf_masses(self, lam):
        """lam over the target's leaves."""
        return lam if self.sizes is None else np.repeat(lam, self.sizes)

    def evaluate(self, lam):
        rows = self.rows
        masses = self.leaf_masses(lam)
        u = self.op.apply_measure(_scatter(masses, self.E, self.w.size)) if rows is None \
            else lam @ rows
        u = np.maximum(u, 0.0)
        g = (u / self.p) ** (self.pp - 1.0)
        kg = self.op.apply_function(g)[self.first] if rows is None \
            else rows @ (self.w * g) / self.sizes
        moment = float(self.w @ (u / self.p) ** self.pp)   # = sum w g**p
        objective = float(masses.sum()) - (self.p - 1.0) * moment
        grad = 1.0 - kg
        return {"u": u, "g": g, "kg": kg, "moment": moment,
                "objective": objective, "grad": grad}

    def certificates(self, lam, state):
        """(dual, primal, u_norm, floor): the two bounds, and the conjugate
        norm of u and the least K*g on the target that they rescale by."""
        u_norm = float(self.w @ state["u"] ** self.pp) ** (1.0 / self.pp)
        lam_sum = float(self.leaf_masses(lam).sum())
        dual = (lam_sum / u_norm) ** self.p if u_norm > 0 else 0.0
        floor = float(state["kg"].min())
        primal = state["moment"] / floor**self.p if floor > 0 else math.inf
        return dual, primal, u_norm, floor


def _block_rows(op: KernelOperator, target, sizes):
    """S_B = sum over B of K(x, .) for each block B of the target: off B it
    is |B| times the row of B's first leaf, on B that row's sum over B, as
    the row of every leaf of B takes the same values on B in another order.
    Only the tree's blocks, whose rows are fresh arrays, pass one leaf."""
    rows = op.row(target[np.cumsum(sizes) - sizes])
    big = np.flatnonzero(sizes > 1)
    if big.size:
        k = sizes[big]
        on = np.repeat(big, k), target[np.repeat(sizes > 1, sizes)]
        inside = np.add.reduceat(rows[on], np.cumsum(k) - k)
        rows[big] *= k[:, None]
        rows[on] = np.repeat(inside, k)
    return rows


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
    it directly.  From then on G is held as R = L^-1 for its Cholesky factor
    L, so G^-1 = R^T R, and a round solves G_FF y = g_F through the binding
    leaves B: with z = G^-1 g for g zero on B,
    y = z - G^-1[:, B] (G^-1[B, B])^-1 z_B, which vanishes on B.  The row of
    G^-1 of a leaf is formed the first time the leaf binds, then kept.

    Two flop counts decide, with m = |F| + |B|.  A round takes the Schur step
    only when 2 m^2 (leaves binding for the first time) + 2 |B|^3 / 3, the
    new rows and an LU solve of the binding block, is below 2 |F|^3 / 3, an
    LU solve of the free block.  G is factored on the first round where its
    Cholesky factor and triangular inverse, 2 m^3 / 3, plus that Schur step
    cost less than the direct solve plus those of the earlier rounds on G;
    on a tie, an all-free round before any of them, factoring buys nothing
    yet and G is kept.  Any other round after factoring forms its block
    from the target's kernel rows, as p != 2 rounds do.  A G that
    ``np.linalg.cholesky`` rejects stays on the direct path.
    """

    def __init__(self, gram, weights):
        self.gram = gram             # G until factored, then None
        self.weights = weights
        self.inverse = None          # R once factored
        self.factorable = True
        self.spent = 0.0             # flops of direct solves on G so far
        self.inv_rows = np.empty((0, gram.shape[0]))   # rows of G^-1 kept so far
        self.slot = np.full(gram.shape[0], -1)      # each leaf's row in ``inv_rows``

    def solve(self, free, rhs, kernel_rows):
        """G_FF^-1 rhs; ``kernel_rows`` form the block once G is factored."""
        m = free.size
        bound = np.flatnonzero(~free)
        new = bound[self.slot[bound] < 0]
        direct = 2.0 * (m - bound.size) ** 3 / 3.0
        schur = 2.0 * m * m * new.size + 2.0 * bound.size ** 3 / 3.0
        if schur < direct:
            if self.inverse is None and self.factorable \
                    and 2.0 * m**3 / 3.0 + schur < direct + self.spent:
                self._factor()
            if self.inverse is not None:
                step = self._schur(free, bound, new, rhs)
                if step is not None:
                    return step
        if self.inverse is not None:
            return spd_solve(_gram(kernel_rows, free, self.weights), rhs)
        self.spent += direct
        return spd_solve(self.gram if free.all() else self.gram[np.ix_(free, free)], rhs)

    def _factor(self):
        try:
            low = np.linalg.cholesky(self.gram)
        except np.linalg.LinAlgError:
            self.factorable = False
            return
        self.gram = None
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
                    # the hardest measured, takes 59 rounds at depth 11 and 116 at 12


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
    E = np.unique(np.asarray(target, dtype=np.int64))
    if E.size and (E[0] < 0 or E[-1] >= n):
        raise ValueError("target leaves out of range")
    p = float(kernel.p if p is None else p)
    if not (1.0 < p < math.inf):
        raise ValueError("p must lie strictly between 1 and infinity")
    if E.size == 0:
        z = np.zeros(n)
        return CapacitySolution(0.0, z, z.copy(), 0.0, 0.0, 0, True)
    op = kernel_operator(kernel, space)
    w = space.weights
    ds = _DualState(op, w, E, p)

    if np.any(op.mass()[E] <= 0.0):
        raise ValueError("kernel carries no mass toward part of the target")
    # the best multiple c of the uniform measure: c**(p'-1) = sum(lam) / (p * moment)
    state = ds.evaluate(np.ones(E.size))
    lam = np.full(E.size, (E.size / (p * state["moment"])) ** (p - 1.0))
    state = ds.evaluate(lam)

    rows = None   # built on the first round: many targets start at the optimum
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
        if rows is None:
            # lam is still uniform, so constant on every block
            lam, state = ds.block(space.aligned_blocks(E), lam, state)
            grad = state["grad"]
            rows = _block_rows(op, E, ds.sizes)
            # from here on every evaluation reads the rows: a dense apply
            # gathers each block of the table, which costs more than the two
            # products with the rows; a tree apply gathers nothing and costs
            # less, so tree solves keep it
            if isinstance(op, DenseKernelOperator):
                ds.rows = rows
        # binding: at or near 0 with the gradient pushing outward
        free = (lam > scale * min(residual, 1e-3)) | (grad > 0.0)
        # Newton step on the free blocks: Hessian S_F diag(w g') S_F^T = A A^T
        # against each block's summed gradient, at p = 2 the free block of
        # the kept all-free one while its weights hold
        u = state["u"]
        gprime = np.zeros_like(u)
        pos = u > 0
        gprime[pos] = (ds.pp - 1.0) / p * (u[pos] / p) ** (ds.pp - 2.0)
        weights = np.sqrt(w * gprime)
        block_grad = ds.sizes * grad
        direction = -lam                       # binding blocks move to 0
        if kept is not None and np.array_equal(weights, kept.weights):
            direction[free] = kept.solve(free, block_grad[free], rows)
        else:
            hessian = _gram(rows, free, weights)
            direction[free] = spd_solve(hessian, block_grad[free])
            if p == 2.0 and free.all():
                kept = _KeptGram(hessian, weights)
            del hessian                        # so a factored G is freed
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
        lam, state = cand, cand_state

    dual, primal, u_norm, floor = ds.certificates(lam, state)
    gap = max((primal - dual) / primal, 0.0) if primal > 0 else 0.0
    density = state["g"] / floor
    measure = _scatter(ds.leaf_masses(lam) / u_norm, E, n)
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
    E = np.unique(np.asarray(target, dtype=np.int64))
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
    """Exact subtree capacity on uniform tree boundaries.

    A radial kernel and equal leaf weights make the problem invariant under
    every automorphism fixing the subtree, and averaging an optimal measure
    over that group keeps it optimal, so the uniform probability on the
    subtree is an equilibrium measure.  Only its potential norm is needed,
    one tree-operator apply at any depth.
    """
    if not _uniform_tree(space):
        raise ValueError("symmetric reduction needs the ultrametric and uniform leaf weights")
    w = space.weights
    lo, hi = space.subtree_range(x, level)
    nu = np.zeros(space.n_leaves)
    nu[lo:hi] = 1.0 / (hi - lo)
    u = kernel_operator(kernel, space).apply_measure(nu)
    pp = p / (p - 1.0)
    return lp_norm(u, w, pp) ** (-p)


def _uniform_tree(space: ModelSpace) -> bool:
    """Whether the symmetric reduction applies: the ultrametric, equal leaf weights."""
    return space.kind == "tree-boundary" and bool(np.all(space.weights == space.weights[0]))


_SYMMETRIC_CUTOVER = 2048   # the solver handles targets below this size comfortably


def capacity_value(space: ModelSpace, kernel: RadialKernel, target,
                   p: float) -> float:
    """Capacity of a leaf set, memoized on the space under its sorted unique
    leaves, so a permuted or repeated target is one entry: a set that is one
    contiguous run lo..hi-1 is keyed by (lo, hi), any other by its leaf bytes.

    A whole subtree of at least ``_SYMMETRIC_CUTOVER`` leaves on a uniform
    tree takes the exact ``uniform_ball_capacity`` reduction, every other
    set the solver.  The two agree to solver accuracy wherever both apply
    (asserted in the test suite), not to the last bit.
    """
    E = np.unique(np.asarray(target, dtype=np.int64))
    run = E.size > 0 and int(E[-1]) - int(E[0]) + 1 == E.size
    leaves = (int(E[0]), int(E[-1]) + 1) if run else (E.tobytes(),)

    def value():
        if run and E.size >= _SYMMETRIC_CUTOVER and _uniform_tree(space):
            lo, hi = leaves
            levels = [n for n in range(space.depth + 1) if space.subtree_range(lo, n) == (lo, hi)]
            if levels:
                return uniform_ball_capacity(space, kernel, p, lo, levels[0])
        return solve_capacity(space, kernel, E, p=p).value

    return space._cached(("set", kernel, p, *leaves), value)


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
