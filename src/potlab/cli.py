"""Config-driven experiment runner.

Configs are flat INI files (sections in square brackets, ``key = value``
lines); the exact grammar is documented in the README.  Every run writes
locale-independent CSV tables plus a JSON manifest recording the config
hash, seed, package versions, and wall time.  Charts are optional SVG
polylines regenerated from the CSV content; the CSV is the source of
truth.  Identical config and seed produce byte-identical CSVs at a fixed
BLAS thread count; across thread counts the LAPACK solves can move the
last bits (ROADMAP item 10).

On an invalid config the process prints one machine-readable line to
stderr and exits nonzero; on a runtime failure it removes the partial
outputs it created before exiting.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .capacity import (MAX_ROUNDS, ball_capacity_profile, solve_capacity,
                       theoretical_profile_slope)
from .convergence import (TANGENTIAL_KINDS, approximation_split, convergence_experiment,
                          thinness_decay)
from .kernel import KERNEL_KINDS, RadialKernel, kernel_operator
from .poisson import (CALIBRATION_DEPTH, PROFILE_NAMES, exchange_band,
                      exchange_ratio, harnack_check, harnack_constant,
                      lipschitz_profile, poisson_extension)
from .quasiadd import FAMILY_MODES, TARGET_SHAPES, family_batch
from .space import VALID_KINDS, ahlfors_constants, dump_space, model_space

SUITE = ("space-info", "capacity", "ball-profile", "quasiadd", "poisson", "exchange",
         "converge")
SUBCOMMANDS = SUITE + ("full-suite",)


class ConfigError(ValueError):
    pass


# -- config ---------------------------------------------------------------------


def _float_list(raw: str):
    return [float(tok) for tok in raw.replace(";", ",").split(",") if tok.strip()]


def _int_range(raw: str):
    """Either "a..b" (inclusive, as a range, so its ends are checked before
    any level is listed) or a comma list."""
    if ".." in raw:
        a, b = raw.split("..")
        return range(int(a), int(b) + 1)
    return [int(tok) for tok in raw.split(",") if tok.strip()]


_REQUIRED = object()


class _Only(NamedTuple):
    """The default of a key read only when another key of its section holds
    ``value``: required then, rejected otherwise."""
    key: str
    value: str


# every section and key of the README config grammar (any other is rejected),
# in its order: (section, key) -> (parser, default, allowed).  The default is
# a constant, _REQUIRED, an _Only, or a function of the built space; allowed
# is None, a tuple of choices, or a closed (lowest, highest) range
_SCHEMA = {
    ("space", "kind"): (str, _REQUIRED, VALID_KINDS),
    ("space", "branching"): (int, _REQUIRED, (2, math.inf)),
    ("space", "depth"): (int, _REQUIRED, (1, math.inf)),
    ("space", "delta"): (float, lambda sp: sp.delta, None),
    ("space", "dimension"): (float, lambda sp: sp.dimension, None),
    ("space", "mass_profile"): (str, "uniform", ("uniform", "custom")),
    ("space", "weights"): (_float_list, _Only("mass_profile", "custom"), None),
    ("kernel", "kind"): (str, "riesz", KERNEL_KINDS),
    ("kernel", "s"): (float, 0.75, None),
    ("kernel", "p"): (float, 2.0, None),
    ("kernel", "levels"): (_float_list, _Only("kind", "radial"), None),
    ("capacity", "targets"): (str, lambda sp: f"ball:0:{max(sp.depth - 2, 1)}", None),
    ("capacity", "max_iters"): (int, MAX_ROUNDS, (1, math.inf)),
    ("ball-profile", "center"): (int, 0, None),
    ("ball-profile", "levels"): (_int_range, lambda sp: range(1, max(sp.depth - 1, 2)),
                                 None),
    ("quasiadd", "mode"): (str, "tree", FAMILY_MODES),
    ("quasiadd", "count"): (int, 4, (1, math.inf)),
    ("quasiadd", "seeds"): (int, 10, (1, math.inf)),
    ("quasiadd", "shapes"): (lambda raw: tuple(tok.strip() for tok in raw.split(",")),
                             TARGET_SHAPES, TARGET_SHAPES),
    # 2**-1075 underflows to 0, which is not a height
    ("poisson", "n_heights"): (int, lambda sp: sp.depth, (0, 1074)),
    ("poisson", "profile"): (str, "bump", PROFILE_NAMES),
    ("poisson", "eps_quantile"): (float, 0.7, (0.0, 1.0)),
    ("poisson", "n_random"): (int, 5, (0, math.inf)),
    ("exchange", "n_random"): (int, 5, (0, math.inf)),
    ("converge", "sample"): (int, 16, (1, math.inf)),
    ("converge", "region"): (str, "polynomial", TANGENTIAL_KINDS),
    ("converge", "profile"): (str, "bump", PROFILE_NAMES),
    ("converge", "tol_nontangential"): (float, 0.02, (0.0, math.inf)),
    ("converge", "tol_tangential"): (float, 0.05, (0.0, math.inf)),
    ("converge", "delta_target"): (float, 0.05, (0.0, math.inf)),
    ("run", "seed"): (int, 0, (0, math.inf)),
}


def _value(cfg, values: dict, section: str, key: str):
    """The checked value of one key as ``cfg`` gives it, or its default; a
    function of the space is left as None for ``resolve`` to fill in."""
    parse, default, allowed = _SCHEMA[section, key]
    only = isinstance(default, _Only)
    read = not only or values[section, default.key] == default.value
    if not cfg.has_option(section, key):
        if default is _REQUIRED or (only and read):
            raise ConfigError(f"missing [{section}] {key}")
        return None if only or callable(default) else default
    if not read:
        raise ConfigError(f"[{section}] {key} is read only under "
                          f"{default.key} = {default.value}")
    raw = cfg.get(section, key).strip()
    try:
        value = parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if allowed and isinstance(allowed[0], str):
        names = value if isinstance(value, tuple) else (value,)
        if not set(names) <= set(allowed):
            raise ConfigError(f"[{section}] {key} must be one of {', '.join(allowed)}, "
                              f"got {raw!r}")
        if len(set(names)) < len(names):
            raise ConfigError(f"[{section}] {key} names one value twice: {raw!r}")
    elif allowed and not allowed[0] <= value <= allowed[1]:
        raise ConfigError(f"[{section}] {key} must lie in [{allowed[0]}, {allowed[1]}], "
                          f"got {value}")
    return value


def resolve(cfg):
    """(space, kernel, values) of a run: the space and the kernel ``cfg``
    describes, with the kernel's level table checked against the space (no
    operator is built), and the checked value of every schema key, defaults
    included, keyed (section, key).  The capacity targets and the
    ball-profile grid balls are checked against the space too."""
    values = {}
    for section, key in _SCHEMA:
        values[section, key] = _value(cfg, values, section, key)
    try:
        space = model_space(*(values["space", key] for key in (
            "kind", "branching", "depth", "delta", "dimension", "weights")))
        kernel = RadialKernel(*(values["kernel", key]
                                for key in ("kind", "s", "p", "levels")))
        kernel.level_table(space)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name, (_, default, _) in _SCHEMA.items():
        if values[name] is None and callable(default):
            values[name] = default(space)
    parse_targets(values["capacity", "targets"], space)
    center, levels = values["ball-profile", "center"], values["ball-profile", "levels"]
    if not levels:
        raise ConfigError("[ball-profile] levels names no level")
    try:
        for level in levels:
            space.grid_ball_range(center, level)
    except ValueError as exc:
        raise ConfigError(f"[ball-profile] {exc}") from exc
    return space, kernel, values


def load_config(path, overrides=()) -> configparser.ConfigParser:
    # no interpolation: a '%' is text, not a reference to another key
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        read = cfg.read(path)
    except configparser.Error as exc:   # repeated key or section, no header, ...
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for item in overrides:
        key, eq, value = item.partition("=")
        section, dot, option = (part.strip() for part in key.partition("."))
        # configparser reserves its DEFAULT section for keys every section inherits
        if not (eq and dot and section and option) or section == cfg.default_section:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, option, value.strip())
    validate_config(cfg)
    return cfg


def validate_config(cfg) -> None:
    """Reject a config that names a section or key outside the schema (a
    ``[DEFAULT]`` key counts as a key of every section), then resolve it."""
    known = {}
    for section, key in _SCHEMA:
        known.setdefault(section, []).append(key)
    for section in cfg.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]; known: {', '.join(known)}")
        unknown = [key for key in cfg.options(section) if key not in known[section]]
        if unknown:
            raise ConfigError(f"unknown [{section}] key {unknown[0]!r}; known: "
                              f"{', '.join(known[section])}")
    resolve(cfg)


def _check_subcommand(values: dict, subcommand: str) -> None:
    """Reject what only the named subcommand cannot run."""
    runs = SUITE if subcommand == "full-suite" else (subcommand,)
    if ("exchange" in runs and values["kernel", "kind"] == "radial"
            and values["space", "depth"] != CALIBRATION_DEPTH):
        raise ConfigError("exchange with a radial kernel needs [space] depth = "
                          f"{CALIBRATION_DEPTH}, the calibration depth")
    if ("quasiadd" in runs and values["quasiadd", "mode"] == "tree"
            and values["space", "kind"] != "tree-boundary"):
        raise ConfigError("[quasiadd] mode = tree needs a tree-boundary space; "
                          "use mode = ahlfors")
    if ("converge" in runs and values["kernel", "kind"] == "radial"
            and values["converge", "region"] == "polynomial"):
        raise ConfigError("[converge] region = polynomial needs a riesz kernel's s; "
                          "use region = capacity")


def parse_targets(raw: str, space):
    """Target specs separated by ';': ball:center:level, set:1,2,3, singleton:x."""
    out = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        head, _, rest = item.partition(":")
        if head not in ("ball", "set", "singleton"):
            raise ConfigError(f"unknown capacity target {item!r}")
        try:
            if head == "ball":
                center, level = (int(tok) for tok in rest.split(":"))
                leaves = np.arange(*space.grid_ball_range(center, level))
            else:
                toks = rest.split(",") if head == "set" else [rest]
                leaves = np.asarray([int(t) for t in toks], dtype=np.int64)
                if leaves.min() < 0 or leaves.max() >= space.n_leaves:
                    raise ValueError(f"leaves lie in 0..{space.n_leaves - 1}")
        except ValueError as exc:
            raise ConfigError(f"bad capacity target {item!r}: {exc}") from exc
        out.append((item, leaves))
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


def _field(text: str) -> str:
    """A CSV field, quoted (quotes doubled) when it holds a comma, a quote or
    a line break, as ``csv.QUOTE_MINIMAL`` does."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _numeric_fields(values: np.ndarray) -> list:
    """A numeric array converted and formatted in one pass: floats as repr,
    booleans true/false, integers through str."""
    cells = values.tolist()
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in cells]
    return list(map(repr if values.dtype.kind == "f" else str, cells))


def _column(values, n_rows: int, last=None):
    """One CSV column of a block as fields, and the memo that the column in
    the same position of the next block may reuse (``last`` is the memo the
    previous block left).

    A scalar is formatted once and repeated; anything but a numeric array is
    formatted cell by cell through ``_fmt``.  A numeric array takes the
    fields of ``last`` when it equals that column in dtype and bits
    (compared by content, since a caller may refill one buffer between
    blocks); otherwise a float array calls repr once per distinct bit
    pattern, so 0.0 and -0.0 stay apart, and scatters the text back to its
    rows.  A float wider than 8 bytes has no integer view to key on and is
    formatted directly."""
    if np.isscalar(values):
        return [_field(_fmt(values))] * n_rows, None
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "biuf"):
        return [_field(_fmt(v)) for v in values], None
    is_float = values.dtype.kind == "f"
    if is_float and values.itemsize > 8:
        return _numeric_fields(values), None
    bits = values.view(f"i{values.itemsize}") if is_float else values
    if last is not None and last[0] == values.dtype and np.array_equal(last[1], bits):
        return last[2], last
    if is_float:
        keys, inverse = np.unique(bits, return_inverse=True)
        text = np.array(_numeric_fields(keys.view(values.dtype)), dtype=object)
        fields = text[inverse].tolist()
    else:
        fields = _numeric_fields(values)
    return fields, (values.dtype, bits.copy(), fields)


class Emitter:
    """Tracks artifacts so a failed run can remove its partial outputs."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        """The path of output ``name``, recorded before the caller writes
        it, so cleanup also removes a partially written file; the first call
        makes the directory, so a run rejected before it writes makes none."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / name
        self.written.append(path)
        return path

    def csv(self, name: str, header, blocks) -> Path:
        """Write a table whose rows come in blocks.  A block holds one column
        per header name: 1-D arrays or sequences of one length, or scalars
        repeated down the block (so a block of scalars is one row).  Each
        block is formatted a column at a time and written at once, so a
        large table written in blocks never holds all its text; a numeric
        column equal to the previous block's reuses its text."""
        path = self.path(name)
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(",".join(map(_field, header)) + "\n")
            memos = [None] * len(header)
            for block in blocks:
                lengths = {len(col) for col in block if not np.isscalar(col)}
                if len(block) != len(header) or len(lengths) > 1:
                    raise ValueError(f"{name}: a block's columns do not fit the header")
                n_rows = lengths.pop() if lengths else 1
                if n_rows:
                    cols = []
                    for i, col in enumerate(block):
                        fields, memos[i] = _column(col, n_rows, memos[i])
                        cols.append(fields)
                    fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
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


def linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, for finite values and a float
    q in [0, 1], without the ``np.unique`` that loads ``numpy.ma``: numpy's
    linear rule between the sorted neighbours of the index (n - 1) q."""
    values = np.sort(values, axis=None)
    at = (values.size - 1) * q
    lo = min(math.floor(at), values.size - 1)
    a, b = values[lo], values[min(lo + 1, values.size - 1)]
    t = at - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


# -- runners ----------------------------------------------------------------------


class Runner:
    """The runs of one resolved config; a ``seed`` of None takes its ``[run] seed``."""

    def __init__(self, cfg, outdir: Path, seed: int | None, charts: bool = True):
        self.cfg = cfg
        self.space, self.kernel, self.values = resolve(cfg)
        self.seed = self.values["run", "seed"] if seed is None else seed
        self.charts = charts
        self.emit = Emitter(outdir)
        self.p = self.kernel.p
        self.s = self.kernel.s if self.kernel.kind == "riesz" else math.nan

    # each runner returns a list of (name, value) summary pairs for stdout

    def run_space_info(self):
        space = self.space
        k1, k2 = ahlfors_constants(space)
        dump_space(space, self.emit.path("space.txt"))
        self.emit.csv("space_info.csv",
                      ("kind", "branching", "depth", "delta", "dimension",
                       "leaves", "total_mass", "ahlfors_lower", "ahlfors_upper"),
                      [(space.kind, space.branching, space.depth, space.delta,
                        space.dimension, space.n_leaves, space.total_mass, k1, k2)])
        return [("leaves", space.n_leaves), ("dimension", space.dimension),
                ("ahlfors_lower", k1), ("ahlfors_upper", k2)]

    def run_capacity(self):
        targets = parse_targets(self.values["capacity", "targets"], self.space)
        sols = [solve_capacity(self.space, self.kernel, target, p=self.p,
                               max_iters=self.values["capacity", "max_iters"])
                for _, target in targets]
        self.emit.csv("capacity.csv",
                      ("set_id", "p", "s", "value", "gap", "iterations", "converged"),
                      [([set_id for set_id, _ in targets], self.p, self.s,
                        [sol.value for sol in sols], [sol.relative_gap for sol in sols],
                        [sol.iterations for sol in sols], [sol.converged for sol in sols])])
        return [("targets", len(sols)),
                ("first_value", sols[0].value)]

    def run_ball_profile(self):
        center, levels = (self.values["ball-profile", key] for key in ("center", "levels"))
        prof = ball_capacity_profile(self.space, self.kernel, self.p, center, levels)
        self.emit.csv("ball_profile.csv", ("center", "level", "radius", "capacity"),
                      [(center, prof.levels, prof.radii, prof.capacities)])
        theory = theoretical_profile_slope(self.space.dimension, self.p, self.s)
        slope = float("nan") if prof.slope is None else prof.slope   # one level fits none
        self.emit.csv("ball_profile_summary.csv",
                      ("center", "slope", "theory_slope", "product_min", "product_max"),
                      [(center, slope, theory, *prof.log_product_range)])
        if self.charts:
            write_line_chart(self.emit.path("ball_profile.svg"),
                             [("capacity", prof.radii, prof.capacities)],
                             "log10 radius", "log10 capacity", log_x=True, log_y=True)
        return [("slope", slope), ("theory_slope", theory)]

    def run_quasiadd(self):
        mode, count, n_seeds, shapes = (self.values["quasiadd", key]
                                         for key in ("mode", "count", "seeds", "shapes"))
        header = ("experiment_id", "mode", "n_balls", "p", "s", "sum_capacity",
                  "union_capacity", "ratio", "ratio_bound", "passed")
        table = {key: [] for key in header}
        for seed, shape, rep in family_batch(
                self.space, self.kernel, self.p, range(self.seed, self.seed + n_seeds),
                count, mode, shapes):
            for key, value in zip(table, (
                    f"{mode}-{seed}-{shape}", mode, rep.n_balls, self.p, self.s,
                    rep.sum_capacity, rep.union_capacity, rep.ratio, rep.bound,
                    rep.passed)):
                table[key].append(value)
        self.emit.csv("quasiadd.csv", header, [tuple(table.values())])
        ratios, passed = table["ratio"], table["passed"]
        return [("experiments", len(ratios)),
                ("max_ratio", max(ratios) if ratios else float("nan")),
                # no experiment is no evidence: report it as not passed
                ("all_passed", bool(passed) and all(passed))]

    def _extension(self):
        """The run's extension, on the configured height grid."""
        return poisson_extension(self.space, self.values["poisson", "n_heights"])

    def run_poisson(self):
        ext = self._extension()
        profile, quantile, n_random = (self.values["poisson", key]
                                       for key in ("profile", "eps_quantile", "n_random"))
        f = lipschitz_profile(self.space, profile)
        # the profile and the random inputs in one block apply; one
        # (n_random, n) draw gives the same inputs as n_random draws of n
        rng = np.random.default_rng(self.seed)
        pots = kernel_operator(self.kernel, self.space).apply_function(
            np.column_stack((f, *rng.random((n_random, self.space.n_leaves)))))
        field = ext.field(pots[:, 0])
        leaves = np.arange(self.space.n_leaves)
        self.emit.csv("poisson_field.csv", ("leaf_index", "y", "value"),
                      ((leaves, y, field[:, h]) for h, y in enumerate(ext.heights)))

        ones_err = float(np.abs(ext.field(np.ones(self.space.n_leaves)) - 1.0).max())
        ng = ext.normalization_grid()
        checks = [("extension_of_one_minus_one", -ones_err, ones_err),
                  ("normalizer", float(ng.min()), float(ng.max()))]
        c_h = harnack_constant(self.space, n_heights=ext.heights.size - 1)
        worst_margin = math.inf
        for pot in pots[:, 1:].T:
            pot_field = ext.field(pot)
            eps = linear_quantile(pot_field, quantile)
            lowest, ok = harnack_check(self.space, ext, pot_field, eps, c_h)
            if not ok:
                raise RuntimeError("harnack check failed")
            if math.isfinite(lowest):
                worst_margin = min(worst_margin, lowest / (c_h * eps))
        checks.append(("harnack_margin", c_h,
                       worst_margin if math.isfinite(worst_margin) else float("nan")))
        self.emit.csv("poisson_checks.csv", ("quantity", "min", "max", "depth"),
                      [(*zip(*checks), self.space.depth)])
        return [("extension_of_one_error", ones_err), ("harnack_constant", c_h)]

    def run_exchange(self):
        ext = self._extension()
        n_random = self.values["exchange", "n_random"]
        band = exchange_band(self.space, self.kernel,
                             n_heights=ext.heights.size - 1)
        rng = np.random.default_rng(self.seed)
        ratios = [exchange_ratio(self.space, ext, self.kernel, rng.random(self.space.n_leaves))
                  for _ in range(n_random)]
        self.emit.csv("exchange.csv", ("quantity", "min", "max", "depth"),
                      [("band_calibration", *band, CALIBRATION_DEPTH),
                       ([f"random_{i}" for i in range(n_random)], [lo for lo, _ in ratios],
                        [hi for _, hi in ratios], self.space.depth)])
        return [("band_min", band[0]), ("band_max", band[1])]

    def run_converge(self):
        ext = self._extension()
        n_sample, region, profile, tol_nt, tol_tan, delta_target = (
            self.values["converge", key] for key in (
                "sample", "region", "profile", "tol_nontangential", "tol_tangential",
                "delta_target"))
        f = lipschitz_profile(self.space, profile)
        rng = np.random.default_rng(self.seed)
        sample = np.sort(rng.choice(self.space.n_leaves,
                                    min(n_sample, self.space.n_leaves), replace=False))
        split = approximation_split(self.space, ext, self.kernel, self.p, f, delta_target)
        pot = kernel_operator(self.kernel, self.space).apply_function(f)
        field = ext.field(pot)
        nt = convergence_experiment(self.space, ext, self.kernel, self.p, pot, field, sample,
                                    split, "nontangential", tol_nt)
        tan = convergence_experiment(self.space, ext, self.kernel, self.p, pot, field, sample,
                                     split, region, tol_tan)
        thin = thinness_decay(self.space, self.kernel, self.p,
                              split.exceedance, ext.heights)
        tables = (("nontangential", nt), (f"tangential-{region}", tan))
        self.emit.csv("converge.csv",
                      ("x0_leaf", "region_kind", "t", "sup_error",
                       "in_region_points", "excluded"),
                      [([r.x0 for r in table.rows], table.region_kind,
                        [r.t for r in table.rows], [r.sup_error for r in table.rows],
                        [r.n_points for r in table.rows], [r.n_excluded for r in table.rows])
                       for _, table in tables])
        self.emit.csv("converge_summary.csv",
                      ("experiment_id", "fraction_converged", "bad_set_mass",
                       "thin_verdict", "shadow_capacity", "bad_capacity"),
                      [([label for label, _ in tables],
                        [table.fraction_converged for _, table in tables],
                        [table.bad_set_mass[-1][1] for _, table in tables],
                        thin.thin, split.shadow_capacity, split.bad_capacity)])
        if self.charts:
            series = []
            for label, table in tables:
                by_t: dict = {}
                for r in table.rows:
                    by_t.setdefault(r.t, []).append(r.sup_error)
                ts = sorted(by_t)
                series.append((label, ts, [max(by_t[t]) for t in ts]))
            write_line_chart(self.emit.path("converge_errors.svg"), series,
                             "log10 height cutoff", "sup error", log_x=True)
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
        for name in SUITE if subcommand == "full-suite" else (subcommand,):
            summary.extend(self.DISPATCH[name](self))
        self._manifest(subcommand, time.time() - started)
        return summary

    def _manifest(self, subcommand: str, wall: float) -> None:
        digest = hashlib.sha256()
        for section in sorted(self.cfg.sections()):
            for key in sorted(self.cfg.options(section)):
                digest.update(f"{section}.{key}={self.cfg.get(section, key)}\n".encode())
        manifest = {
            "command": subcommand,
            "config": {f"{section}.{key}": _json_value(value)
                       for (section, key), value in self.values.items()},
            "config_sha256": digest.hexdigest(),
            "seed": self.seed,
            "versions": {"potlab": __version__, "python": sys.version.split()[0],
                         "numpy": np.__version__},
            "wall_time_s": round(wall, 3),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self.emit.path("manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="ascii")


def _json_value(value):
    """A config value in strict JSON: a level range or a tuple as its list, a
    non-finite float as the string "inf", "-inf" or "nan" (null is a key the
    run did not read)."""
    if isinstance(value, (tuple, list, range)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


def _error_line(kind: str, exc: Exception) -> str:
    """``error kind=KIND message="..."`` on one line: the message's whitespace
    joined, and its backslashes and quotes escaped, so the field ends at the
    last quote."""
    message = " ".join(str(exc).split()).replace("\\", "\\\\").replace('"', '\\"')
    return f'error kind={kind} message="{message}"'


def main(argv=None) -> int:
    import argparse   # here, not at the top: a run through Runner never parses arguments
    parser = argparse.ArgumentParser(
        prog="potlab", description="potential-theory experiments on tree boundaries")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", default="potlab-out", help="output directory")
    parser.add_argument("--seed", type=int,
                        help="overrides [run] seed (default 0)")
    parser.add_argument("--tol-override", action="append", default=[],
                        metavar="SECTION.KEY=VAL", help="config override, repeatable")
    parser.add_argument("--no-charts", action="store_true", help="skip SVG artifacts")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.tol_override)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("seed must be >= 0")
        runner = Runner(cfg, Path(args.out), args.seed, charts=not args.no_charts)
        _check_subcommand(runner.values, args.subcommand)
    except ConfigError as exc:
        print(_error_line("config", exc), file=sys.stderr)
        return 2
    try:
        summary = runner.run(args.subcommand)
    except Exception as exc:  # remove partial outputs, report one line
        runner.emit.cleanup()
        print(_error_line("runtime", exc), file=sys.stderr)
        return 1
    for name, value in summary:
        print(f"{name} = {_fmt(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
