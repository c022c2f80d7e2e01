"""Config-driven experiment runner.

Configs are flat INI files (sections in square brackets, ``key = value``
lines); the exact grammar is documented in the README.  Every run writes
locale-independent CSV tables plus a JSON manifest recording the config
hash, seed, package versions, and wall time.  Charts are optional SVG
polylines regenerated from the CSV content; the CSV is the source of
truth.  Identical config and seed produce byte-identical CSVs.

On an invalid config the process prints one machine-readable line to
stderr and exits nonzero; on a runtime failure it removes the partial
outputs it created before exiting.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .capacity import ball_capacity_profile, solve_capacity, theoretical_profile_slope
from .convergence import (approximation_split, nontangential_experiment,
                          tangential_experiment, thinness_decay)
from .kernel import RadialKernel, kernel_operator
from .poisson import (CALIBRATION_DEPTH, PoissonExtension, exchange_band,
                      exchange_ratio, harnack_check, harnack_constant,
                      lipschitz_profile)
from .quasiadd import (family_target_sets, generate_separated_family,
                       quasi_additivity_ahlfors, quasi_additivity_tree,
                       verify_separation)
from .space import ahlfors_constants, dump_space, model_space

SUBCOMMANDS = ("space-info", "capacity", "ball-profile", "quasiadd", "poisson",
               "exchange", "converge", "full-suite")


class ConfigError(ValueError):
    pass


# -- config ---------------------------------------------------------------------


def _get(cfg, section, key, cast, default=None, required=False):
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cfg.get(section, key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _float_list(raw: str):
    return [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]


def _int_range(raw: str):
    """Either "a..b" (inclusive) or a comma list."""
    if ".." in raw:
        a, b = raw.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def load_config(path, overrides=()) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = cfg.read(path)
    except configparser.Error as exc:   # repeated key or section, no header, ...
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section.strip(), option.strip(), value.strip())
    validate_config(cfg)
    return cfg


def validate_config(cfg) -> None:
    """Reject a config by building what it describes: the space, the kernel
    and, for a radial kernel, its level table (no dense operator)."""
    if not cfg.has_section("space"):
        raise ConfigError("missing [space] section")
    try:
        space = build_space(cfg)
        build_kernel(cfg).level_table(space)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    inflation = _get(cfg, "quasiadd", "inflation", float, default=1.0)
    margin = _get(cfg, "quasiadd", "radius_margin", float, default=1.0)
    if inflation < 1.0 or margin < 1.0:
        raise ConfigError("inflation and radius_margin must be >= 1")


def build_space(cfg):
    profile = _get(cfg, "space", "mass_profile", str, default="uniform")
    if profile not in ("uniform", "custom"):
        raise ConfigError(f"unknown mass_profile {profile!r}")
    weights = None
    if profile == "custom":
        weights = _get(cfg, "space", "weights", _float_list, required=True)
    return model_space(_get(cfg, "space", "kind", str, required=True),
                       _get(cfg, "space", "branching", int, required=True),
                       _get(cfg, "space", "depth", int, required=True),
                       _get(cfg, "space", "delta", float),
                       _get(cfg, "space", "dimension", float),
                       weights)


def build_kernel(cfg):
    kind = _get(cfg, "kernel", "kind", str, default="riesz")
    p = _get(cfg, "kernel", "p", float, default=2.0)
    if kind == "radial":
        return RadialKernel("radial", p=p,
                            level_values=_get(cfg, "kernel", "levels", _float_list,
                                              required=True))
    return RadialKernel(kind, s=_get(cfg, "kernel", "s", float, default=0.75), p=p)


def parse_targets(raw: str, space):
    """Target specs separated by ';': ball:center:level, set:1,2,3, singleton:x."""
    out = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        head, _, rest = item.partition(":")
        if head == "ball":
            center, level = (int(tok) for tok in rest.split(":"))
            lo, hi = space.grid_ball_range(center, level)
            out.append((item, np.arange(lo, hi)))
        elif head == "set":
            out.append((item, np.asarray([int(t) for t in rest.split(",")], dtype=np.int64)))
        elif head == "singleton":
            out.append((item, np.asarray([int(rest)], dtype=np.int64)))
        else:
            raise ConfigError(f"unknown capacity target {item!r}")
    if not out:
        raise ConfigError("no capacity targets given")
    return out


# -- output helpers ---------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class Emitter:
    """Tracks artifacts so a failed run can remove its partial outputs."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.written: list[Path] = []
        outdir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header, rows) -> Path:
        path = self.outdir / name
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.written.append(path)
        return path

    def cleanup(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


def write_line_chart(path: Path, series, x_label: str, y_label: str,
                     log_x: bool = False, log_y: bool = False,
                     width: int = 640, height: int = 420) -> None:
    """Minimal SVG polyline chart; one (label, xs, ys) triple per series."""
    margin = 50.0

    def txf(vals, log):
        vals = np.asarray(vals, dtype=float)
        return np.log10(vals) if log else vals

    xs_all = np.concatenate([txf(s[1], log_x) for s in series])
    ys_all = np.concatenate([txf(s[2], log_y) for s in series])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 - x0 < 1e-300:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-300:
        y1 = y0 + 1.0

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    colors = ("#1f6f8b", "#c84b31", "#52734d", "#9b5de5", "#e09f3e", "#335c67")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<text x="{width / 2}" y="{height - 12}" font-size="12" '
             f'text-anchor="middle">{x_label}</text>',
             f'<text x="14" y="{height / 2}" font-size="12" text-anchor="middle" '
             f'transform="rotate(-90 14 {height / 2})">{y_label}</text>']
    for i, (label, xs, ys) in enumerate(series):
        xs, ys = txf(xs, log_x), txf(ys, log_y)
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(xs, ys))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts), encoding="ascii")


# -- runners ----------------------------------------------------------------------


class Runner:
    def __init__(self, cfg, outdir: Path, seed: int, charts: bool = True):
        self.cfg = cfg
        self.seed = seed
        self.charts = charts
        self.emit = Emitter(outdir)
        self.space = build_space(cfg)
        self.kernel = build_kernel(cfg)
        self.p = self.kernel.p

    # each runner returns a list of (name, value) summary pairs for stdout

    def run_space_info(self):
        space = self.space
        k1, k2 = ahlfors_constants(space)
        dump_space(space, self.emit.outdir / "space.txt")
        self.emit.written.append(self.emit.outdir / "space.txt")
        rows = [(space.kind, space.tree.branching, space.depth, space.delta,
                 space.dimension, space.n_leaves, space.total_mass, k1, k2)]
        self.emit.csv("space_info.csv",
                      ("kind", "branching", "depth", "delta", "dimension",
                       "leaves", "total_mass", "ahlfors_lower", "ahlfors_upper"),
                      rows)
        return [("leaves", space.n_leaves), ("dimension", space.dimension),
                ("ahlfors_lower", k1), ("ahlfors_upper", k2)]

    def run_capacity(self):
        raw = _get(self.cfg, "capacity", "targets", str,
                   default=f"ball:0:{max(self.space.depth - 2, 1)}")
        tol = _get(self.cfg, "capacity", "tol", float, default=1e-8)
        max_iters = _get(self.cfg, "capacity", "max_iters", int, default=4000)
        s = self.kernel.s if self.kernel.kind == "riesz" else float("nan")
        rows = []
        for set_id, target in parse_targets(raw, self.space):
            sol = solve_capacity(self.space, self.kernel, target, p=self.p,
                                 tol=tol, max_iters=max_iters)
            rows.append((set_id, self.p, s, sol.value, sol.relative_gap,
                         sol.iterations, sol.converged))
        self.emit.csv("capacity.csv",
                      ("set_id", "p", "s", "value", "gap", "iterations", "converged"),
                      rows)
        return [("targets", len(rows)),
                ("first_value", rows[0][3])]

    def run_ball_profile(self):
        center = _get(self.cfg, "ball-profile", "center", int, default=0)
        levels = _get(self.cfg, "ball-profile", "levels", _int_range,
                      default=list(range(1, max(self.space.depth - 1, 2))))
        prof = ball_capacity_profile(self.space, self.kernel, self.p, center, levels)
        rows = [(center, int(n), r, c)
                for n, r, c in zip(prof.levels, prof.radii, prof.capacities)]
        self.emit.csv("ball_profile.csv",
                      ("center", "level", "radius", "capacity"), rows)
        theory = (theoretical_profile_slope(self.space.dimension, self.p, self.kernel.s)
                  if self.kernel.kind == "riesz" else float("nan"))
        self.emit.csv("ball_profile_summary.csv",
                      ("center", "slope", "theory_slope", "product_min", "product_max"),
                      [(center, prof.slope, theory,
                        prof.log_product_range[0], prof.log_product_range[1])])
        if self.charts:
            chart = self.emit.outdir / "ball_profile.svg"
            write_line_chart(chart, [("capacity", prof.radii, prof.capacities)],
                             "log10 radius", "log10 capacity", log_x=True, log_y=True)
            self.emit.written.append(chart)
        return [("slope", prof.slope), ("theory_slope", theory)]

    def run_quasiadd(self):
        mode = _get(self.cfg, "quasiadd", "mode", str, default="tree")
        count = _get(self.cfg, "quasiadd", "count", int, default=4)
        n_seeds = _get(self.cfg, "quasiadd", "seeds", int, default=10)
        shapes = _get(self.cfg, "quasiadd", "shapes", str,
                      default="ball,singleton,half").split(",")
        inflation = _get(self.cfg, "quasiadd", "inflation", float, default=1.0)
        margin = _get(self.cfg, "quasiadd", "radius_margin", float, default=1.0)
        s = self.kernel.s if self.kernel.kind == "riesz" else float("nan")
        rows = []
        ratios = []
        for i in range(n_seeds):
            seed = self.seed + i
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fam = generate_separated_family(
                    self.space, self.kernel, self.p, count, seed, mode=mode,
                    inflation=inflation, radius_margin=margin)
            if len(fam) == 0:
                continue
            if not verify_separation(self.space, fam).ok:
                raise RuntimeError("sampler produced an overlapping family")
            for shape in shapes:
                sets = family_target_sets(self.space, fam, shape.strip(), seed)
                if mode == "tree":
                    rep = quasi_additivity_tree(self.space, self.kernel, self.p, fam, sets)
                    bound = rep.bound
                else:
                    rep = quasi_additivity_ahlfors(self.space, self.kernel, self.p, fam, sets)
                    bound = inflation
                rows.append((f"{mode}-{seed}-{shape.strip()}", mode, rep.n_balls,
                             self.p, s, rep.sum_capacity, rep.union_capacity,
                             rep.ratio, bound, rep.passed))
                ratios.append(rep.ratio)
        self.emit.csv("quasiadd.csv",
                      ("experiment_id", "mode", "n_balls", "p", "s", "sum_capacity",
                       "union_capacity", "ratio", "ratio_bound", "passed"),
                      rows)
        return [("experiments", len(rows)),
                ("max_ratio", max(ratios) if ratios else float("nan")),
                ("all_passed", all(r[-1] for r in rows))]

    def _extension(self):
        n_heights = _get(self.cfg, "poisson", "n_heights", int,
                         default=self.space.depth)
        return PoissonExtension(self.space, n_heights=n_heights)

    def run_poisson(self):
        ext = self._extension()
        profile = _get(self.cfg, "poisson", "profile", str, default="bump")
        n_random = _get(self.cfg, "poisson", "n_random", int, default=5)
        quantile = _get(self.cfg, "poisson", "eps_quantile", float, default=0.7)
        f = lipschitz_profile(self.space, profile)
        op = kernel_operator(self.kernel, self.space)
        field = ext.field(op.apply_function(f))
        rows = [(x, float(y), field.values[x, h])
                for h, y in enumerate(ext.heights)
                for x in range(self.space.n_leaves)]
        self.emit.csv("poisson_field.csv", ("leaf_index", "y", "value"), rows)

        ones_err = float(np.abs(ext.field(np.ones(self.space.n_leaves)).values - 1.0).max())
        ng = ext.normalization_grid()
        checks = [("extension_of_one_minus_one", -ones_err, ones_err, self.space.depth),
                  ("normalizer", float(ng.min()), float(ng.max()), self.space.depth)]
        c_h = harnack_constant(self.space, n_heights=ext.heights.size - 1)
        rng = np.random.default_rng(self.seed)
        worst_margin = math.inf
        for _ in range(n_random):
            g = rng.random(self.space.n_leaves)
            pot_field = ext.field(op.apply_function(g))
            eps = float(np.quantile(pot_field.values, quantile))
            lowest, _, ok = harnack_check(ext, self.kernel, g, eps, c_h=c_h)
            if not ok:
                raise RuntimeError("harnack check failed")
            if math.isfinite(lowest):
                worst_margin = min(worst_margin, lowest / (c_h * eps))
        checks.append(("harnack_margin", c_h,
                       worst_margin if math.isfinite(worst_margin) else float("nan"),
                       self.space.depth))
        self.emit.csv("poisson_checks.csv",
                      ("quantity", "min", "max", "depth"), checks)
        return [("extension_of_one_error", ones_err), ("harnack_constant", c_h)]

    def run_exchange(self):
        ext = self._extension()
        n_random = _get(self.cfg, "exchange", "n_random", int, default=5)
        band = exchange_band(self.space, self.kernel,
                             n_heights=ext.heights.size - 1)
        rows = [("band_calibration", band[0], band[1], CALIBRATION_DEPTH)]
        rng = np.random.default_rng(self.seed)
        for i in range(n_random):
            g = rng.random(self.space.n_leaves)
            lo, hi = exchange_ratio(ext, self.kernel, g)
            rows.append((f"random_{i}", lo, hi, self.space.depth))
        self.emit.csv("exchange.csv", ("quantity", "min", "max", "depth"), rows)
        return [("band_min", band[0]), ("band_max", band[1])]

    def run_converge(self):
        ext = self._extension()
        n_sample = _get(self.cfg, "converge", "sample", int, default=16)
        region = _get(self.cfg, "converge", "region", str, default="polynomial")
        tol_nt = _get(self.cfg, "converge", "tol_nontangential", float, default=0.02)
        tol_tan = _get(self.cfg, "converge", "tol_tangential", float, default=0.05)
        delta_target = _get(self.cfg, "converge", "delta_target", float, default=0.05)
        profile = _get(self.cfg, "converge", "profile", str, default="bump")
        f = lipschitz_profile(self.space, profile)
        rng = np.random.default_rng(self.seed)
        sample = np.sort(rng.choice(self.space.n_leaves,
                                    min(n_sample, self.space.n_leaves), replace=False))
        split = approximation_split(ext, self.kernel, self.p, f, delta_target)
        nt = nontangential_experiment(ext, self.kernel, self.p, f, sample,
                                      tol=tol_nt, split=split)
        tan = tangential_experiment(ext, self.kernel, self.p, f, sample,
                                    region_kind=region, tol=tol_tan, split=split)
        thin = thinness_decay(self.space, self.kernel, self.p,
                              split.exceedance, ext.heights)
        rows = [(r.x0, table.region_kind, r.t, r.sup_error, r.n_points, r.n_excluded)
                for table in (nt, tan) for r in table.rows]
        self.emit.csv("converge.csv",
                      ("x0_leaf", "region_kind", "t", "sup_error",
                       "in_region_points", "excluded"), rows)
        bad_final = tan.bad_set_mass[-1][1] if tan.bad_set_mass else 0.0
        self.emit.csv("converge_summary.csv",
                      ("experiment_id", "fraction_converged", "bad_set_mass",
                       "thin_verdict", "shadow_capacity", "bad_capacity"),
                      [("nontangential", nt.fraction_converged, 0.0,
                        thin.thin, split.shadow_capacity, split.bad_capacity),
                       (f"tangential-{region}", tan.fraction_converged, bad_final,
                        thin.thin, split.shadow_capacity, split.bad_capacity)])
        if self.charts:
            series = []
            for table, label in ((nt, "nontangential"), (tan, f"tangential-{region}")):
                by_t: dict = {}
                for r in table.rows:
                    by_t.setdefault(r.t, []).append(r.sup_error)
                ts = sorted(by_t)
                series.append((label, ts, [max(by_t[t]) for t in ts]))
            chart = self.emit.outdir / "converge_errors.svg"
            write_line_chart(chart, series, "log10 height cutoff", "sup error",
                             log_x=True)
            self.emit.written.append(chart)
        return [("nontangential_fraction", nt.fraction_converged),
                ("tangential_fraction", tan.fraction_converged),
                ("thin", thin.thin)]

    DISPATCH = {
        "space-info": run_space_info,
        "capacity": run_capacity,
        "ball-profile": run_ball_profile,
        "quasiadd": run_quasiadd,
        "poisson": run_poisson,
        "exchange": run_exchange,
        "converge": run_converge,
    }

    def run(self, subcommand: str) -> list:
        started = time.time()
        summary = []
        if subcommand == "full-suite":
            for name in ("space-info", "capacity", "ball-profile", "quasiadd",
                         "poisson", "exchange", "converge"):
                summary.extend(self.DISPATCH[name](self))
        else:
            summary.extend(self.DISPATCH[subcommand](self))
        self._manifest(subcommand, time.time() - started)
        return summary

    def _manifest(self, subcommand: str, wall: float) -> None:
        digest = hashlib.sha256()
        for section in sorted(self.cfg.sections()):
            for key in sorted(self.cfg.options(section)):
                digest.update(f"{section}.{key}={self.cfg.get(section, key)}\n".encode())
        manifest = {
            "command": subcommand,
            "config_sha256": digest.hexdigest(),
            "seed": self.seed,
            "versions": {"potlab": __version__, "python": sys.version.split()[0],
                         "numpy": np.__version__, "scipy": scipy.__version__},
            "wall_time_s": round(wall, 3),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        path = self.emit.outdir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="ascii")
        self.emit.written.append(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="potlab", description="potential-theory experiments on tree boundaries")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", default="potlab-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides [run] seed (default 0)")
    parser.add_argument("--tol-override", action="append", default=[],
                        metavar="SECTION.KEY=VAL", help="config override, repeatable")
    parser.add_argument("--no-charts", action="store_true", help="skip SVG artifacts")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.tol_override)
        seed = args.seed if args.seed is not None else _get(cfg, "run", "seed", int, default=0)
        if seed < 0:
            raise ConfigError("seed must be >= 0")
        if (args.subcommand in ("exchange", "full-suite")
                and _get(cfg, "kernel", "kind", str) == "radial"
                and _get(cfg, "space", "depth", int) != CALIBRATION_DEPTH):
            raise ConfigError("exchange with a radial kernel needs [space] depth = "
                              f"{CALIBRATION_DEPTH}, the calibration depth")
    except ConfigError as exc:
        print(f'error kind=config message="{exc}"', file=sys.stderr)
        return 2
    runner = Runner(cfg, Path(args.out), seed, charts=not args.no_charts)
    try:
        summary = runner.run(args.subcommand)
    except Exception as exc:  # remove partial outputs, report one line
        runner.emit.cleanup()
        print(f'error kind=runtime message="{exc}"', file=sys.stderr)
        return 1
    for name, value in summary:
        print(f"{name} = {_fmt(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
