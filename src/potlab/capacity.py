"""L^p capacity: primal density, dual measure, duality certificate, radii.

The capacity of a target set E is the least p-th moment of a nonnegative
density whose potential reaches 1 everywhere on E.  We work through the
equivalent maximization over measures supported on E whose potential has
conjugate norm at most 1: the smooth concave surrogate

    D(lam) = sum(lam) - (p - 1) * sum_y w_y (K*lam(y) / p)**p'

has gradient 1 - K*g with g = (K*lam / p)**(p' - 1), so its stationary
points are exactly the equilibrium states where the potential of g is 1 on
the support.  Projected gradient ascent with spectral steps finds the
support; a Newton polish on the active coordinates then drives the
stationarity residual to machine precision.

Certificates are unconditional: any measure rescaled to the constraint
boundary gives a lower bound, the recovered density rescaled to
feasibility gives an upper bound, and the reported gap is their ratio
deficit.  For p = 2 a finite active-set solve of the equivalent simplex
quadratic program is provided as an independent oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernel import KernelOperator, RadialKernel, kernel_operator, lp_norm
from .space import ModelSpace


def _solve_spd(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Positive-semidefinite solve with a jitter fallback.

    Near-singular systems only slow the outer iteration down; optimality is
    certified through the duality gap, so warnings here carry no signal.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        try:
            return scipy.linalg.solve(mat, rhs, assume_a="pos")
        except scipy.linalg.LinAlgError:
            jitter = 1e-13 * max(float(np.trace(mat)) / mat.shape[0], 1e-300)
            return scipy.linalg.solve(mat + jitter * np.eye(mat.shape[0]), rhs)


@dataclass
class CapacitySolution:
    value: float
    density: np.ndarray         # feasible primal density f
    measure: np.ndarray         # dual measure, potential normalized to norm 1
    primal_value: float
    dual_value: float
    relative_gap: float
    iterations: int
    converged: bool


class _DualState:
    """Caches the nonlinear quantities attached to a candidate measure."""

    def __init__(self, op: KernelOperator, weights, target, p):
        self.op = op
        self.w = weights
        self.E = target
        self.p = p
        self.pp = p / (p - 1.0)

    def evaluate(self, lam):
        u = self.op.apply_measure(_scatter(lam, self.E, self.w.size))
        u = np.maximum(u, 0.0)
        g = (u / self.p) ** (self.pp - 1.0)
        kg = self.op.apply_function(g)
        moment = float(self.w @ (u / self.p) ** self.pp)   # = sum w g**p
        objective = float(lam.sum()) - (self.p - 1.0) * moment
        grad = 1.0 - kg[self.E]
        return {"u": u, "g": g, "kg": kg, "moment": moment,
                "objective": objective, "grad": grad}

    def certificates(self, lam, state):
        u_norm = float(self.w @ state["u"] ** self.pp) ** (1.0 / self.pp)
        lam_sum = float(lam.sum())
        dual = (lam_sum / u_norm) ** self.p if u_norm > 0 else 0.0
        floor = float(state["kg"][self.E].min())
        primal = state["moment"] / floor**self.p if floor > 0 else math.inf
        return dual, primal


def _scatter(values, idx, n):
    out = np.zeros(n)
    out[idx] = values
    return out


GAP_ACCEPT = 1e-3   # certified relative duality gap below which a solve is converged


def solve_capacity(space: ModelSpace, kernel: RadialKernel, target,
                   p: float | None = None, tol: float = 1e-8,
                   max_iters: int = 4000) -> CapacitySolution:
    """Solve the capacity problem for a leaf subset.

    The result carries both sides: the least p-th moment density with
    potential >= 1 on the target, and the largest-mass measure on the
    target with unit-norm potential.  ``tol`` is the relative-objective
    stall tolerance of the ascent phase and ``max_iters`` its iteration
    cap; the Newton polish that follows usually lands the certified
    duality gap far below ``GAP_ACCEPT``, the threshold for ``converged``.
    An empty target has capacity 0.
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
        return CapacitySolution(0.0, z, z.copy(), 0.0, 0.0, 0.0, 0, True)
    op = kernel_operator(kernel, space)
    w = space.weights
    ds = _DualState(op, w, E, p)

    if np.any(op.apply_function(np.ones(n))[E] <= 0.0):
        raise ValueError("kernel carries no mass toward part of the target")
    base = op.apply_measure(_scatter(np.ones(E.size), E, n))
    scale = float(base.max())
    lam = np.full(E.size, p / scale)

    state = ds.evaluate(lam)
    iterations = 0
    step = 1.0 / max(scale, 1.0)
    prev_lam, prev_grad = None, None
    stall = 0

    for _ in range(max_iters):
        iterations += 1
        grad = state["grad"]
        if prev_lam is not None:
            s = lam - prev_lam
            y = prev_grad - grad
            sy = float(s @ y)
            if sy > 1e-30:
                step = float(s @ s) / sy
        step = min(max(step, 1e-12), 1e12)
        prev_lam, prev_grad = lam, grad
        t = step
        accepted = False
        for _ in range(40):
            cand = np.maximum(lam + t * grad, 0.0)
            move = cand - lam
            if not move.any():
                break
            cand_state = ds.evaluate(cand)
            if cand_state["objective"] >= state["objective"] + 1e-4 * float(grad @ move):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        rel_change = abs(cand_state["objective"] - state["objective"]) / max(
            abs(cand_state["objective"]), 1e-300)
        lam, state = cand, cand_state
        if rel_change < tol:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0

    lam, state, extra = _newton_polish(ds, lam, state)
    iterations += extra

    dual, primal = ds.certificates(lam, state)
    gap = max((primal - dual) / primal, 0.0) if primal > 0 else 0.0
    floor = float(state["kg"][E].min())
    density = state["g"] / floor
    u_norm = float(w @ state["u"] ** ds.pp) ** (1.0 / ds.pp)
    measure = _scatter(lam / u_norm, E, n)
    return CapacitySolution(
        value=primal, density=density, measure=measure,
        primal_value=primal, dual_value=dual, relative_gap=gap,
        iterations=iterations, converged=gap <= GAP_ACCEPT)


def _newton_polish(ds: _DualState, lam, state, max_rounds: int = 60):
    """Active-set Newton on the stationarity system: potential of the
    recovered density equals 1 on the support of the measure."""
    E, w, p, pp = ds.E, ds.w, ds.p, ds.pp
    rows = None
    support = lam > lam.max() * 1e-12
    iterations = 0
    best = (lam, state)
    for _ in range(max_rounds):
        iterations += 1
        idx = np.flatnonzero(support)
        if idx.size == 0:
            break
        if rows is None:
            rows = np.vstack([ds.op.row(x) for x in E])
        u = state["u"]
        positive = u > 0
        gprime = np.zeros_like(u)
        gprime[positive] = (pp - 1.0) / p * (u[positive] / p) ** (pp - 2.0)
        r_sub = rows[idx]
        jac = (r_sub * (w * gprime)[None, :]) @ r_sub.T
        resid = state["grad"][idx]
        delta = _solve_spd(jac, resid)
        # fraction-to-boundary step keeps the measure nonnegative
        lam_sub = lam[idx]
        alpha = 1.0
        shrink = delta < 0
        if shrink.any():
            alpha = min(1.0, float(np.min(-lam_sub[shrink] / delta[shrink])) * 0.999)
        cand = lam.copy()
        cand[idx] = np.maximum(lam_sub + alpha * delta, 0.0)
        cand_state = ds.evaluate(cand)
        improved = cand_state["objective"] >= state["objective"] - 1e-12 * abs(state["objective"])
        if improved:
            lam, state = cand, cand_state
            best = (lam, state)
        dropped = support & (lam <= lam.max() * 1e-14)
        if dropped.any():
            support = support & ~dropped
            lam = lam * support
            state = ds.evaluate(lam)
            continue
        if not improved:
            lam, state = best
            break
        res_norm = float(np.abs(state["grad"][support]).max()) if support.any() else 0.0
        if res_norm < 1e-13:
            outside = ~support
            if outside.any() and float(state["grad"][outside].max()) > 1e-12:
                enter = int(np.argmax(np.where(outside, state["grad"], -math.inf)))
                support[enter] = True
                lam[enter] = max(lam[enter], lam.max() * 1e-8)
                state = ds.evaluate(lam)
                continue
            break
    return lam, state, iterations


# -- p = 2 exact oracle --------------------------------------------------------


def capacity_p2_exact(space: ModelSpace, kernel: RadialKernel, target,
                      kkt_tol: float = 1e-11) -> float:
    """Finite active-set solve of the p = 2 problem (independent oracle).

    The optimum is the reciprocal of the least quadratic energy of a
    probability vector on the target; the active-set iteration adds the
    most violated point and prunes negative coefficients.
    """
    E = np.unique(np.asarray(target, dtype=np.int64))
    if E.size == 0:
        return 0.0
    op = kernel_operator(kernel, space)
    w = space.weights
    rows = np.vstack([op.row(x) for x in E])
    gram = (rows * w[None, :]) @ rows.T
    m = E.size

    def solve_on(idx):
        return _solve_spd(gram[np.ix_(idx, idx)], np.ones(idx.size))

    active = [int(np.argmin(np.diag(gram)))]
    nu = np.zeros(m)
    nu[active[0]] = 1.0
    for _ in range(4 * m + 20):
        idx = np.array(active)
        x = solve_on(idx)
        cand = np.zeros(m)
        cand[idx] = x / x.sum()
        if np.any(cand[idx] < -kkt_tol):
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
        if violation <= kkt_tol * max(e, 1e-300):
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
    center: int
    r: float
    matching: float      # inf when the capacity exceeds the total mass
    star: float          # max(r, matching); diameter in the sentinel case
    exists: bool
    matching_level: int | None = None   # tree mode: matching = delta**(level - 1/2)


def uniform_ball_capacity(space: ModelSpace, kernel: RadialKernel, p: float,
                          x: int, level: int) -> float:
    """Exact subtree capacity on uniform tree boundaries.

    A radial kernel and equal leaf weights make the problem invariant under
    every automorphism fixing the subtree, and averaging an optimal measure
    over that group keeps it optimal, so the uniform probability on the
    subtree is an equilibrium measure.  Only its potential norm is needed,
    one tree-operator apply at any depth.
    """
    if space.kind != "tree-boundary":
        raise ValueError("symmetric reduction needs the ultrametric")
    w = space.weights
    if not np.all(w == w[0]):
        raise ValueError("symmetric reduction needs uniform leaf weights")
    lo, hi = space.subtree_range(x, level)
    nu = np.zeros(space.n_leaves)
    nu[lo:hi] = 1.0 / (hi - lo)
    u = kernel_operator(kernel, space).apply_measure(nu)
    pp = p / (p - 1.0)
    return lp_norm(u, w, pp) ** (-p)


_SYMMETRIC_CUTOVER = 2048   # solver handles targets up to this size comfortably


def _range_capacity(space: ModelSpace, kernel: RadialKernel, p: float,
                    lo: int, hi: int) -> float:
    """Solver capacity of the leaf run [lo, hi), memoized on the space."""
    return space._cached(("range", kernel, p, lo, hi), lambda: solve_capacity(
        space, kernel, np.arange(lo, hi), p=p).value)


def grid_ball_capacity(space: ModelSpace, kernel: RadialKernel, p: float,
                       x: int, level: int, method: str = "auto") -> float:
    """Capacity of the closed grid ball of radius delta**level around x.

    ``method`` picks the computation: "solver" runs the general program,
    "symmetric" the exact reduction for uniform trees, "auto" switches to
    the reduction once the target outgrows the solver.  The two paths agree
    to solver accuracy wherever both apply (asserted in the test suite), but
    not to the last bit, so each is memoized under its own key.
    """
    lo, hi = space.grid_ball_range(x, level)
    if method == "symmetric" or (method == "auto" and hi - lo > _SYMMETRIC_CUTOVER):
        return space._cached(("symmetric", kernel, p, lo, hi),
                             lambda: uniform_ball_capacity(space, kernel, p, x, level))
    return _range_capacity(space, kernel, p, lo, hi)


def tree_matching_radius(space: ModelSpace, kernel: RadialKernel, p: float,
                         x: int, level: int) -> EnlargementRadius:
    """Half-step grid radius whose subtree mass meets the ball capacity.

    The scan runs from the finest subtree outward and returns the first
    level whose mass qualifies, which realizes the infimum over the
    half-step radius grid.
    """
    r = space.grid_radius(level)
    cap = grid_ball_capacity(space, kernel, p, x, level)
    if cap > space.total_mass:
        return EnlargementRadius(x, r, math.inf, space.diameter, False)
    for m in range(space.depth, -1, -1):
        if space.range_mass(*space.subtree_range(x, m)) >= cap:
            match = space.delta ** (m - 0.5)
            return EnlargementRadius(x, r, match, max(r, match), True, m)
    return EnlargementRadius(x, r, math.inf, space.diameter, False)


def metric_matching_radius(space: ModelSpace, kernel: RadialKernel, p: float,
                           x: int, r: float, closed: bool = False) -> EnlargementRadius:
    """Infimal radius R with mass(B(x, R)) >= capacity(B(x, r)).

    The mass of B(x, R) is a step function jumping at realized distances,
    so the infimum is the smallest realized distance whose closed ball
    carries enough mass.  ``closed`` switches the capacity ball to the
    closed convention used on the radius grid.
    """
    lo, hi = space.ball_bounds(np.array([x]), r, closed=closed)
    cap = _range_capacity(space, kernel, p, int(lo[0]), int(hi[0]))
    if cap > space.total_mass:
        return EnlargementRadius(x, r, math.inf, space.diameter, False)
    dists = space.distances_from(x)
    order = np.argsort(dists, kind="stable")
    sorted_d = dists[order]
    cum = np.cumsum(space.weights[order])
    # closed-ball mass at t = cumulative mass through the whole tie block
    uniq, last_pos = np.unique(sorted_d[::-1], return_index=True)
    closed_mass = cum[sorted_d.size - 1 - last_pos]
    hit = np.searchsorted(closed_mass, cap, side="left")
    if hit >= uniq.size:
        return EnlargementRadius(x, r, math.inf, space.diameter, False)
    match = float(uniq[hit])
    return EnlargementRadius(x, r, match, max(r, match), True)


# -- ball capacity profiles ----------------------------------------------------


@dataclass
class BallCapacityProfile:
    center: int
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
                          x: int, levels, method: str = "auto") -> BallCapacityProfile:
    levels = np.asarray(sorted(levels), dtype=int)
    radii = np.array([space.grid_radius(int(n)) for n in levels])
    caps = np.array([grid_ball_capacity(space, kernel, p, x, int(n), method=method)
                     for n in levels])
    slope = None
    if levels.size >= 2 and np.all(caps > 0):
        slope = float(np.polyfit(np.log(radii), np.log(caps), 1)[0])
    products = caps * np.log(1.0 / radii)
    rng = (float(products.min()), float(products.max())) if levels.size else None
    return BallCapacityProfile(x, levels, radii, caps, slope, rng)
