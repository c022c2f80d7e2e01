"""Self-test of the benchmark at toy size (depth 6; about a minute).

Usage: ``python3 potbench/selftest.py``.  Checks that

1. a corrupted output CSV makes its check fail, for every workload;
2. a synthetic span tree gives the expected self times and layer metrics;
3. every metric in BENCHMARK.json is printed with its unit, by name, and
   the result line has the contract's keys;
4. without the potlab source the benchmark exits nonzero and prints no
   result.

Exits nonzero when any check fails.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import run
from checks import check_outputs
from spans import layer_metrics, self_times

TOY_DEPTH = 6


def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _set(rows, key, col, value):
    for r in rows:
        if r[next(iter(r))] == key:
            r[col] = value
            return
    raise KeyError(key)


# (workload, file, edit, name of the check that must fail)
CORRUPTIONS = [
    ("tree-quasiadd", "quasiadd.csv",
     lambda rows: rows[0].update(ratio=str(float(rows[0]["ratio_bound"]) * 2)), "quasiadd."),
    ("tree-quasiadd", "quasiadd.csv", lambda rows: rows[-1].update(passed="false"), "quasiadd."),
    ("cantor-poisson", "poisson_checks.csv",
     lambda rows: _set(rows, "extension_of_one_minus_one", "max", "1e-09"),
     "poisson.extension_of_one"),
    ("cantor-poisson", "poisson_checks.csv",
     lambda rows: _set(rows, "harnack_margin", "max", "0.5"), "poisson.harnack_margin"),
    ("cantor-poisson", "exchange.csv", lambda rows: _set(rows, "random_0", "max", "1e9"),
     "exchange.random_0"),
    ("interval-converge", "converge_summary.csv",
     lambda rows: rows[0].update(shadow_capacity="0.5"), "converge.nontangential"),
]


def test_corrupted_outputs_fail() -> None:
    workdir = run.WORK / "selftest-outputs"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name in run.WORKLOADS:
            job_dir = workdir / name
            code, err = run.spawn(run.write_job(job_dir, name, 0, 0, "plain", TOY_DEPTH), 120)
            assert code == 0, f"{name} child failed: {err}"
            workload = run.WORKLOADS[name]
            params = workload.sections.get("converge", {})
            clean = check_outputs(job_dir / "out", workload.subcommands, params)
            assert clean and all(ok for _, ok, _ in clean), f"{name} clean: {clean}"
            for target, filename, edit, expect in CORRUPTIONS:
                if target != name:
                    continue
                copy = job_dir / "corrupt"
                shutil.copytree(job_dir / "out", copy)
                _rewrite(copy / filename, edit)
                failed = [n for n, ok, _ in check_outputs(copy, workload.subcommands, params)
                          if not ok]
                assert len(failed) == 1 and failed[0].startswith(expect), \
                    f"{name}/{filename}: failed checks {failed}, expected {expect}*"
                shutil.rmtree(copy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_synthetic_self_times() -> None:
    # run [0, 100] > solve [10, 60] > {apply [20, 30], apply [25, 40], spd [50, 55]}
    #     run > field [70, 90];  apply intervals overlap, so they cover 20 ns
    ms = 1_000_000
    spans = [
        ["cli.Runner.run", 0, 100 * ms, -1, None],
        ["capacity.solve_capacity", 10 * ms, 60 * ms, 0,
         {"target": 4, "iterations": 7, "converged": True, "gap": 1e-12}],
        ["kernel.DenseKernelOperator.apply_measure", 20 * ms, 30 * ms, 1, None],
        ["kernel.DenseKernelOperator.apply_function", 25 * ms, 40 * ms, 1, None],
        ["capacity.spd_solve", 50 * ms, 55 * ms, 1, None],
        ["poisson.PoissonExtension.field", 70 * ms, 90 * ms, 0, None],
    ]
    expect = [30, 25, 10, 15, 5, 20]
    got = [t // ms for t in self_times(spans)]
    assert got == expect, f"self times {got}, expected {expect}"
    m = layer_metrics(spans, wall_s=0.1)
    checks = {"capacity.solve.s": 0.05, "capacity.solve.self_s": 0.025,
              "capacity.spd.s": 0.005, "kernel.apply.calls": 2, "kernel.apply.s": 0.025,
              "kernel.self_s": 0.025, "poisson.field.s": 0.02,
              "capacity.iterations_per_solve": 7, "capacity.solve.share": 0.5,
              "kernel_poisson_space.self_share": 0.45, "cli.self_s": 0.03}
    for key, value in checks.items():
        assert abs(m[key][0] - value) < 1e-12, f"{key} = {m[key][0]}, expected {value}"


def test_metric_names_and_units() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for name in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--depth", str(TOY_DEPTH)],
                capture_output=True, text=True, timeout=170, cwd=run.ROOT)
            assert proc.returncode == 0, f"{name} trace={trace}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, lines
            assert result["attempted"] >= 1, result
            declared = {m["name"]: m["unit"] for m in spec[group]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, f"{name} trace={trace}: {printed} != {declared}"
            for key, unit in declared.items():
                assert any(line.startswith(f"{name} {key} = ") and f" {unit}" in line
                           for line in lines[:-1]), f"{name}: no line for {key} [{unit}]"


def test_refuses_without_source() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tree-quasiadd",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare)
        assert proc.returncode != 0, "ran without potlab source"
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [test_synthetic_self_times, test_refuses_without_source,
             test_corrupted_outputs_fail, test_metric_names_and_units]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except Exception:  # report every failing case, then exit nonzero
            failures += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
