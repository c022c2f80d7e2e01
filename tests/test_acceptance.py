"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line (visible with
``pytest -s``) and then asserts, so a red test always names its criterion.
"""

import time
import warnings

import numpy as np

from potlab.capacity import (ball_capacity_profile, singleton_capacity,
                             solve_capacity, theoretical_profile_slope,
                             uniform_ball_capacity)
from potlab.cli import main as cli_main
from potlab.convergence import approximation_split, convergence_experiment
from potlab.kernel import (RadialKernel, TreeKernelOperator, convolve_naive,
                           kernel_operator, lp_norm)
from potlab.poisson import (PoissonExtension, ball_slab, exchange_band,
                            exchange_ratio, harnack_check, harnack_constant,
                            lipschitz_profile)
from potlab.quasiadd import (family_target_sets, generate_separated_family,
                             quasi_additivity_report, tree_quasi_additivity_bound)
from potlab.space import model_space


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fast_convolution_oracle():
    kernel = RadialKernel("riesz", s=0.75, p=2.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    n_inputs = 0
    # 70 binary + 32 ternary inputs; the quadratic oracle caps ternary depth
    cases = [(2, d) for d in range(4, 11)] + [(3, d) for d in range(4, 8)]
    per_case = {2: 10, 3: 8}
    for b, depth in cases:
        ms = model_space("tree-boundary", b, depth, 1.0 / b)
        for _ in range(per_case[b]):
            f = rng.random(ms.n_leaves)
            a = convolve_naive(kernel, ms, f)
            c = _fast(kernel, ms, f)
            worst = max(worst, float(np.max(np.abs(a - c) / np.abs(a))))
            n_inputs += 1
    ms10 = model_space("tree-boundary", 2, 10, 0.5)
    f = rng.random(1024)
    convolve_naive(kernel, ms10, f)
    _fast(kernel, ms10, f)
    t_naive = min(_timed(convolve_naive, kernel, ms10, f) for _ in range(3))
    t_fast = min(_timed(_fast, kernel, ms10, f) for _ in range(3))
    ok = worst <= 1e-10 and n_inputs >= 100 and t_fast <= t_naive / 20.0
    report(1, ok, f"{n_inputs} inputs, worst rel err {worst:.2e}, "
                  f"speedup x{t_naive / t_fast:.0f} (need >= 20)")


def _fast(kernel, space, f):
    # operator construction is timed together with the apply; the space's
    # memo would hand back a built operator, so construct it directly
    return TreeKernelOperator(kernel, space).apply_function(f)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_2_singleton_closed_form():
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(20):
        b = int(rng.integers(2, 4))
        depth = int(rng.integers(3, 7))
        p = float(rng.uniform(1.3, 3.5))
        pp = p / (p - 1.0)
        ms = model_space("tree-boundary", b, depth, 1.0 / b)
        if i % 4 == 3:   # sprinkle general radial kernels among the riesz ones
            levels = tuple(float(v) for v in rng.uniform(0.2, 3.0, depth + 1))
            kernel = RadialKernel("radial", p=p, level_values=levels)
        else:
            s = float(rng.uniform(1.0 / pp, 1.0 - 1e-9))
            kernel = RadialKernel("riesz", s=s, p=p)
        x = int(rng.integers(ms.n_leaves))
        got = solve_capacity(ms, kernel, [x], p=p).value
        want = singleton_capacity(ms, kernel, x, p)
        worst = max(worst, abs(got - want) / want)
    report(2, worst <= 1e-6, f"20 triples, worst rel err {worst:.2e} (tol 1e-6)")


def test_criterion_3_strong_duality():
    rng = np.random.default_rng(303)
    worst = 0.0
    n_sets = 0
    for depth in (5, 6, 7, 8):
        ms = model_space("tree-boundary", 2, depth, 0.5)
        for _ in range(13 if depth < 8 else 11):
            size = int(rng.integers(1, max(ms.n_leaves // 3, 2)))
            target = np.unique(rng.integers(0, ms.n_leaves, size))
            n_sets += 1
            for p in (1.5, 2.0, 3.0):
                kernel = RadialKernel("riesz", s=0.75, p=p)
                sol = solve_capacity(ms, kernel, target, p=p)
                worst = max(worst, sol.relative_gap)
    report(3, worst <= 1e-3 and n_sets >= 50,
           f"{n_sets} sets x three exponents, worst duality gap {worst:.2e} (tol 1e-3)")


def test_criterion_4_tree_quasi_additivity():
    started = time.time()
    ms = model_space("tree-boundary", 2, 8, 0.5)
    kernel = RadialKernel("riesz", s=0.75, p=2.0)
    bound = tree_quasi_additivity_bound(kernel_operator(kernel, ms).norm_1(), 2.0)
    shapes = ("ball", "singleton", "half")
    worst_ratio, failures = 0.0, 0
    for seed in range(100):
        count = 3 + seed % 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # short families are fine here
            fam = generate_separated_family(ms, kernel, 2.0, count, seed)
        sets = family_target_sets(ms, fam, shapes[seed % 3], seed)
        rep = quasi_additivity_report(ms, kernel, 2.0, fam, sets)
        worst_ratio = max(worst_ratio, rep.ratio)
        if not (1.0 - 1e-9 <= rep.ratio <= bound * (1.0 + 1e-6)):
            failures += 1
    elapsed = time.time() - started
    ok = failures == 0 and elapsed <= 300.0
    report(4, ok, f"100 seeds, max ratio {worst_ratio:.3f} <= bound {bound:.3f}, "
                  f"{failures} violations, {elapsed:.0f}s (limit 300s)")


def test_criterion_5_ball_capacity_asymptotics():
    # cross-check first: the symmetric reduction agrees with the solver
    ms7 = model_space("tree-boundary", 2, 7, 0.5)
    k75 = RadialKernel("riesz", s=0.75, p=2.0)
    drift = max(abs(uniform_ball_capacity(ms7, k75, 2.0, 5, lvl)
                    - solve_capacity(ms7, k75,
                                     np.arange(*ms7.subtree_range(5, lvl)),
                                     p=2.0).value)
                / uniform_ball_capacity(ms7, k75, 2.0, 5, lvl)
                for lvl in (2, 4))
    assert drift < 1e-9

    ms = model_space("tree-boundary", 2, 20, 0.5)
    prof = ball_capacity_profile(ms, k75, 2.0, 0, range(2, 9))
    theory = theoretical_profile_slope(1.0, 2.0, 0.75)
    slope_ok = abs(prof.slope - theory) <= 0.1 * theory

    p = 3.0
    edge = RadialKernel("riesz", s=1.0 - 1.0 / p, p=p)   # s = 1/p'
    ms_edge = model_space("tree-boundary", 2, 18, 0.5)
    prof_edge = ball_capacity_profile(ms_edge, edge, p, 0, range(2, 9))
    lo, hi = prof_edge.log_product_range
    spread_ok = hi <= 2.0 * lo
    report(5, slope_ok and spread_ok,
           f"slope {prof.slope:.4f} vs theory {theory} (10% band), "
           f"log-product spread x{hi / lo:.3f} (limit 2)")


def test_criterion_6_poisson_normalization():
    worst_one = 0.0
    ratios = {}
    for kind in ("tree-boundary", "cantor-set"):
        for depth in (6, 8):
            ms = model_space(kind, 2, depth)
            ext = PoissonExtension(ms, n_heights=depth)
            field = ext.field(np.ones(ms.n_leaves))
            worst_one = max(worst_one, float(np.abs(field - 1.0).max()))
            grid = ext.normalization_grid()
            ratios[(kind, depth)] = float(grid.max() / grid.min())
    ok = worst_one <= 1e-12
    detail = [f"extension-of-one err {worst_one:.1e}"]
    for kind in ("tree-boundary", "cantor-set"):
        r6, r8 = ratios[(kind, 6)], ratios[(kind, 8)]
        ok = ok and r8 <= r6 * 1.1 and abs(r8 - r6) <= 0.1 * r6
        detail.append(f"{kind} normalizer ratio {r6:.3f}->{r8:.3f}")
    report(6, ok, "; ".join(detail))


def test_criterion_7_exchange_band():
    kernel = RadialKernel("riesz", s=0.75, p=2.0)
    ms6 = model_space("cantor-set", 2, 6)
    band = exchange_band(ms6, kernel, n_heights=6)
    ms8 = model_space("cantor-set", 2, 8)
    ext = PoissonExtension(ms8, n_heights=8)
    rng = np.random.default_rng(707)
    lo_seen, hi_seen = np.inf, -np.inf
    for _ in range(20):
        lo, hi = exchange_ratio(ms8, ext, kernel, rng.random(ms8.n_leaves))
        lo_seen, hi_seen = min(lo_seen, lo), max(hi_seen, hi)
    ok = lo_seen >= band[0] * 0.9 and hi_seen <= band[1] * 1.1
    report(7, ok, f"calibrated band [{band[0]:.3f}, {band[1]:.3f}], depth-8 "
                  f"ratios in [{lo_seen:.3f}, {hi_seen:.3f}] (band +-10%)")


def test_criterion_8_harnack():
    kernel = RadialKernel("riesz", s=0.8, p=2.0)
    ms = model_space("cantor-set", 2, 8)
    c_h = harnack_constant(ms, n_heights=8)
    ext = PoissonExtension(ms, n_heights=8)
    op = kernel_operator(kernel, ms)
    rng = np.random.default_rng(808)
    quantiles = (0.5, 0.7, 0.9)
    failures, checked = 0, 0
    for i in range(50):
        f = rng.random(ms.n_leaves)
        field = ext.field(op.apply_function(f))
        eps = float(np.quantile(field, quantiles[i % 3]))
        lowest, ok = harnack_check(ms, ext, field, eps, c_h)
        checked += 1
        if not ok:
            failures += 1
    report(8, failures == 0 and checked == 50,
           f"50 pairs with depth-6 constant {c_h:.4f}, {failures} violations")


def test_criterion_9_exceedance_ratio_stability():
    kernel = RadialKernel("riesz", s=0.75, p=2.0)
    maxima = {}
    for depth in (6, 8):
        ms = model_space("cantor-set", 2, depth)
        ext = PoissonExtension(ms, n_heights=depth)
        op = kernel_operator(kernel, ms)
        rng = np.random.default_rng(909)
        worst = 0.0
        for _ in range(10):
            coarse = rng.random(2**5)
            f = np.repeat(coarse, 2 ** (depth - 5))   # same function, refined
            field = ext.field(op.apply_function(f))
            for q in (0.5, 0.75, 0.9):
                eps = float(np.quantile(field, q))
                # the star: leaves inside a ball B(x, y) around a cell above eps
                leaves = np.flatnonzero(ball_slab(ms, field > eps,
                                                  ext.heights).any(axis=1))
                cap = (solve_capacity(ms, kernel, leaves, p=2.0).value
                       if leaves.size else 0.0)
                worst = max(worst, cap * (eps / lp_norm(f, ms.weights, 2.0)) ** 2.0)
        maxima[depth] = worst
    ok = (np.isfinite(maxima[6]) and np.isfinite(maxima[8])
          and abs(maxima[8] - maxima[6]) <= 0.1 * maxima[6])
    report(9, ok, f"batch max ratio {maxima[6]:.4f} (depth 6) vs "
                  f"{maxima[8]:.4f} (depth 8), drift "
                  f"{abs(maxima[8] - maxima[6]) / maxima[6]:.1%} (tol 10%)")


def test_criterion_10_convergence_experiments():
    ms = model_space("tree-boundary", 2, 10, 0.5)
    kernel = RadialKernel("riesz", s=0.8, p=2.0)
    ext = PoissonExtension(ms, n_heights=10)
    f = lipschitz_profile(ms, "bump")
    rng = np.random.default_rng(1010)
    sample = np.sort(rng.choice(ms.n_leaves, 64, replace=False))
    split = approximation_split(ms, ext, kernel, 2.0, f, 0.05)
    pot = kernel_operator(kernel, ms).apply_function(f)
    field = ext.field(pot)
    nt = convergence_experiment(ms, ext, kernel, 2.0, pot, field, sample, split,
                                "nontangential", tol=0.02)
    tan = convergence_experiment(ms, ext, kernel, 2.0, pot, field, sample, split,
                                 "polynomial", tol=0.05)
    ok = (nt.fraction_converged >= 0.95 and tan.fraction_converged >= 0.90
          and split.shadow_capacity < 0.05 and split.bad_capacity < 0.05)
    report(10, ok, f"nontangential {nt.fraction_converged:.0%} (need 95%), "
                   f"tangential {tan.fraction_converged:.0%} (need 90%), "
                   f"excluded capacities ({split.shadow_capacity:.3g}, "
                   f"{split.bad_capacity:.3g}) < 0.05")


def test_criterion_11_determinism(tmp_path):
    config = tmp_path / "cfg.ini"
    config.write_text("""\
[space]
kind = tree-boundary
branching = 2
depth = 6
delta = 0.5

[kernel]
kind = riesz
s = 0.75
p = 2.0

[capacity]
targets = singleton:7; ball:13:3

[quasiadd]
count = 4
seeds = 4

[converge]
sample = 8

[run]
seed = 11
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["full-suite", "--config", str(config), "--out", str(out1)]) == 0
    assert cli_main(["full-suite", "--config", str(config), "--out", str(out2)]) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    mismatched = [name for name in csvs
                  if (out1 / name).read_bytes() != (out2 / name).read_bytes()]
    report(11, bool(csvs) and not mismatched,
           f"{len(csvs)} CSVs byte-identical across repeated runs"
           + (f"; mismatches: {mismatched}" if mismatched else ""))
