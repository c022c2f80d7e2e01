"""Spans recorded around calls into potlab, from outside the program.

``Tracer.install`` replaces every public function of the potlab modules
(under each name a module binds it to), the public methods of the operator,
space, extension and emitter classes, ``Runner.run`` and
``scipy.linalg.solve`` with wrappers that record one span per call.  Spans
stay in memory as ``[name, start_ns, end_ns, parent, attrs]`` lists; the
child process writes them out once the run ends.  Untraced children never
import this module, so they run potlab unpatched.

``layer_metrics`` turns one child's spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import statistics
import time

MODULES = ("space", "kernel", "capacity", "quasiadd", "poisson", "convergence", "cli")

# module -> {class: dunder methods wrapped besides the public ones}
CLASSES = {
    "space": {"ModelSpace": ()},
    "kernel": {"KernelOperator": (), "TreeKernelOperator": (),
               "DenseKernelOperator": ("__init__",)},
    "poisson": {"PoissonExtension": ("__init__",)},
    "cli": {"Emitter": (), "Runner": ()},
}

TAIL_QUANTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _solve_attrs(args, kwargs, result):
    import numpy as np

    target = kwargs["target"] if "target" in kwargs else args[2]
    return {"target": int(np.unique(np.asarray(target)).size),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "gap": float(result.relative_gap)}


def _dense_attrs(args, kwargs, result):
    return {"bytes": int(args[0].matrix.nbytes)}


def _family_attrs(args, kwargs, result):
    return {"skipped": int(result.skipped)}


def _csv_attrs(args, kwargs, result):
    return {"bytes": int(result.stat().st_size)}


ATTRS = {
    "capacity.solve_capacity": _solve_attrs,
    "kernel.DenseKernelOperator.__init__": _dense_attrs,
    "quasiadd.generate_separated_family": _family_attrs,
    "cli.Emitter.csv": _csv_attrs,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        on_result = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                rec[4] = on_result(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        import scipy.linalg

        import potlab

        modules = {m: importlib.import_module(f"potlab.{m}") for m in MODULES}
        wrapped: dict = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("potlab.")):
                    short = obj.__module__.split(".", 1)[1]
                    wrapped.setdefault(obj, self.wrap(obj, f"{short}.{obj.__name__}"))
        # rebind every alias, including the package namespace
        for mod in (*modules.values(), potlab):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        for short, classes in CLASSES.items():
            for cls_name, extra in classes.items():
                cls = getattr(modules[short], cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (not attr.startswith("_") or attr in extra):
                        setattr(cls, attr, self.wrap(obj, f"{short}.{cls_name}.{attr}"))
        # capacity looks scipy.linalg.solve up at call time
        scipy.linalg.solve = self.wrap(scipy.linalg.solve, "capacity.spd_solve")


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> list:
    """Per-span duration minus the union of its children's intervals (ns)."""
    children: dict = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def tail_quantile(values):
    """(q, value) at the highest of TAIL_QUANTILES with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    values = sorted(values)
    n = len(values)
    best = None
    for q in TAIL_QUANTILES:
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    if best is None:
        return None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return best, cuts[int(round(best * 10)) - 1]


class SpanTable:
    def __init__(self, spans):
        self.spans = spans
        self.self_ns = self_times(spans)
        self.by_name: dict = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def match(self, *patterns) -> list:
        return sorted(i for name, idx in self.by_name.items()
                      if any(fnmatch.fnmatchcase(name, p) for p in patterns)
                      for i in idx)

    def _outermost(self, idx) -> list:
        """Drop spans nested inside another span of the same name."""
        out = []
        for i in idx:
            name, parent = self.spans[i][0], self.spans[i][3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def calls(self, *patterns) -> int:
        return len(self.match(*patterns))

    def seconds(self, *patterns) -> float:
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._outermost(self.match(*patterns))) / 1e9

    def self_seconds(self, *patterns) -> float:
        return sum(self.self_ns[i] for i in self.match(*patterns)) / 1e9

    def attrs(self, *patterns) -> list:
        return [self.spans[i][4] or {} for i in self.match(*patterns)]

    def nested(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with an ancestor named ``outer``."""
        count = 0
        for i in self.match(inner):
            parent = self.spans[i][3]
            while parent >= 0:
                if fnmatch.fnmatchcase(self.spans[parent][0], outer):
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count


SOLVE = "capacity.solve_capacity"
RADIUS = "capacity.*_matching_radius"


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced child: name -> (value, unit)."""
    t = SpanTable(spans)
    solves = t.attrs(SOLVE)
    solve_ms = [(t.spans[i][2] - t.spans[i][1]) / 1e6 for i in t.match(SOLVE)]
    tail = tail_quantile(solve_ms)
    n_solves = len(solves)
    radius_calls = t.calls(RADIUS)
    kps_self = t.self_seconds("kernel.*", "poisson.*", "space.*")
    m = {
        "space.build.s": (t.seconds("space.model_space"), "s"),
        "space.distance_matrix.calls": (t.calls("space.ModelSpace.distance_matrix"), "count"),
        "space.distance_matrix.s": (t.seconds("space.ModelSpace.distance_matrix"), "s"),
        "space.ball_bounds.calls": (t.calls("space.ModelSpace.ball_bounds"), "count"),
        "space.ball_bounds.s": (t.seconds("space.ModelSpace.ball_bounds"), "s"),
        "space.self_s": (t.self_seconds("space.*"), "s"),
        "kernel.operator_builds": (t.calls("kernel.DenseKernelOperator.__init__"), "count"),
        "kernel.operator_build.s": (t.seconds("kernel.DenseKernelOperator.__init__"), "s"),
        "kernel.operator_bytes": (sum(a["bytes"] for a in
                                      t.attrs("kernel.DenseKernelOperator.__init__")), "B"),
        "kernel.apply.calls": (t.calls("kernel.*Operator.apply_*"), "count"),
        "kernel.apply.s": (t.seconds("kernel.*Operator.apply_*"), "s"),
        "kernel.row.calls": (t.calls("kernel.*Operator.row"), "count"),
        "kernel.row.s": (t.seconds("kernel.*Operator.row"), "s"),
        "kernel.self_s": (t.self_seconds("kernel.*"), "s"),
        "capacity.solves": (n_solves, "count"),
        "capacity.solve.s": (t.seconds(SOLVE), "s"),
        "capacity.solve.self_s": (t.self_seconds(SOLVE), "s"),
        "capacity.solve.share": (t.seconds(SOLVE) / wall_s, "ratio"),
        "capacity.solve_ms.p50": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "capacity.solve_ms.tail": (tail[1] if tail else (max(solve_ms) if solve_ms else 0.0),
                                   "ms"),
        "capacity.solve_ms.tail_q": (tail[0] if tail else 100.0, "percentile"),
        "capacity.iterations": (sum(a["iterations"] for a in solves), "count"),
        "capacity.iterations_per_solve": (sum(a["iterations"] for a in solves) / n_solves
                                          if n_solves else 0.0, "ratio"),
        "capacity.spd_solves": (t.calls("capacity.spd_solve"), "count"),
        "capacity.spd.s": (t.seconds("capacity.spd_solve"), "s"),
        "capacity.target_leaves": (sum(a["target"] for a in solves), "count"),
        "capacity.max_rel_gap": (max((a["gap"] for a in solves), default=0.0), "ratio"),
        "capacity.nonconverged": (sum(not a["converged"] for a in solves), "count"),
        "capacity.self_s": (t.self_seconds("capacity.*"), "s"),
        "quasiadd.family.s": (t.seconds("quasiadd.generate_separated_family"), "s"),
        "quasiadd.families": (t.calls("quasiadd.generate_separated_family"), "count"),
        "quasiadd.skipped": (sum(a["skipped"] for a in
                                 t.attrs("quasiadd.generate_separated_family")), "count"),
        "quasiadd.radius.calls": (radius_calls, "count"),
        "quasiadd.radius_solve_ratio": (t.nested(SOLVE, RADIUS) / radius_calls
                                        if radius_calls else 0.0, "ratio"),
        "quasiadd.report.s": (t.seconds("quasiadd.quasi_additivity_*"), "s"),
        "poisson.extension_builds": (t.calls("poisson.PoissonExtension.__init__"), "count"),
        "poisson.extension_build.s": (t.seconds("poisson.PoissonExtension.__init__"), "s"),
        "poisson.field.calls": (t.calls("poisson.PoissonExtension.field"), "count"),
        "poisson.field.s": (t.seconds("poisson.PoissonExtension.field"), "s"),
        "poisson.calibration.s": (t.seconds("poisson.harnack_constant",
                                            "poisson.exchange_band"), "s"),
        "poisson.self_s": (t.self_seconds("poisson.*"), "s"),
        "convergence.split.s": (t.seconds("convergence.approximation_split"), "s"),
        "convergence.split_solves": (t.nested(SOLVE, "convergence.approximation_split"),
                                     "count"),
        "convergence.thinness.s": (t.seconds("convergence.thinness_decay"), "s"),
        "convergence.thinness_solves": (t.nested(SOLVE, "convergence.thinness_decay"),
                                        "count"),
        "convergence.experiment.s": (t.seconds("convergence.*_experiment"), "s"),
        "cli.emit.s": (t.seconds("cli.Emitter.csv"), "s"),
        "cli.emit_bytes": (sum(a["bytes"] for a in t.attrs("cli.Emitter.csv")), "B"),
        "cli.self_s": (t.self_seconds("cli.*"), "s"),
        "kernel_poisson_space.self_share": (kps_self / wall_s, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    return m
