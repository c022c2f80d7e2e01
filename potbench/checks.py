"""Output checks built on the certificates potlab already writes.

No check compares bytes: each reads a certified quantity from the CSVs (or,
in traced runs, from the recorded solves) and tests it against the bound the
program or its acceptance criteria state, so a change that moves the last
bits of a result still passes.  Every check is one operation; a failed one
counts against the run.
"""

from __future__ import annotations

import csv
from pathlib import Path

GAP_ACCEPT = 1e-3          # solve_capacity's default certified-gap threshold
RATIO_LOWER = 1.0 - 1e-9   # quasiadd subadditivity slack
EXTENSION_TOL = 1e-12      # |extension of 1 - 1|
EXCHANGE_SLACK = 0.10      # acceptance criterion 7: calibrated band +-10%


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _quasiadd(outdir: Path, params) -> list:
    rows = _rows(outdir / "quasiadd.csv")
    out = [("quasiadd.rows", bool(rows), f"{len(rows)} rows")]
    for r in rows:
        ratio, bound = float(r["ratio"]), float(r["ratio_bound"])
        ok = r["passed"] == "true" and RATIO_LOWER <= ratio <= bound
        out.append((f"quasiadd.{r['experiment_id']}", ok,
                    f"passed={r['passed']} ratio={ratio!r} bound={bound!r}"))
    return out


def _poisson(outdir: Path, params) -> list:
    rows = {r["quantity"]: r for r in _rows(outdir / "poisson_checks.csv")}
    one = rows["extension_of_one_minus_one"]
    err = max(abs(float(one["min"])), abs(float(one["max"])))
    margin = float(rows["harnack_margin"]["max"])
    return [("poisson.extension_of_one", err <= EXTENSION_TOL, f"error={err!r}"),
            ("poisson.harnack_margin", margin >= 1.0, f"margin={margin!r}")]


def _exchange(outdir: Path, params) -> list:
    rows = _rows(outdir / "exchange.csv")
    band = next(r for r in rows if r["quantity"] == "band_calibration")
    lo = float(band["min"]) * (1.0 - EXCHANGE_SLACK)
    hi = float(band["max"]) * (1.0 + EXCHANGE_SLACK)
    return [(f"exchange.{r['quantity']}",
             lo <= float(r["min"]) and float(r["max"]) <= hi,
             f"ratios=[{r['min']}, {r['max']}] band+-10%=[{lo!r}, {hi!r}]")
            for r in rows if r["quantity"] != "band_calibration"]


def _converge(outdir: Path, params) -> list:
    target = params["delta_target"]
    out = []
    for r in _rows(outdir / "converge_summary.csv"):
        for col in ("shadow_capacity", "bad_capacity"):
            value = float(r[col])
            out.append((f"converge.{r['experiment_id']}.{col}", value < target,
                        f"{col}={value!r} delta_target={target!r}"))
    return out


CHECKS = {"quasiadd": _quasiadd, "poisson": _poisson, "exchange": _exchange,
          "converge": _converge}


def check_outputs(outdir: Path, subcommands, params) -> list:
    """(name, ok, detail) for each certificate in the run's CSVs."""
    out = []
    for sub in subcommands:
        try:
            out.extend(CHECKS[sub](outdir, params))
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            out.append((f"{sub}.readable", False, f"{type(exc).__name__}: {exc}"))
    return out


def check_solves(solve_attrs) -> list:
    """One check per traced capacity solve: converged with a small gap."""
    return [(f"solve.{i}", a["converged"] and a["gap"] <= GAP_ACCEPT,
             f"converged={a['converged']} gap={a['gap']!r}")
            for i, a in enumerate(solve_attrs)]
