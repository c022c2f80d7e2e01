"""potlab benchmark: three CLI workloads, timed end to end and per layer.

Usage::

    python3 potbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of a workload starts a fresh interpreter (``child.py``) that does
what a user of the CLI does: load the workload's INI config, build a
``Runner`` and call ``Runner.run`` for each subcommand.  Children run one
at a time, single-threaded BLAS, until ``--seconds`` is used up; child ``i``
gets the runner seed ``N * 10**6 + 16 * i``, so the same ``--seed`` gives
the same inputs and children within one run draw disjoint quasiadd families.
A fresh interpreter per run means the calibration caches of
``potlab.poisson`` start empty every time, as they do for a CLI user.

With ``--trace 0`` the end-to-end metrics are medians over the run's
children: ``wall_s`` (the ``Runner.run`` calls) and ``peak_rss_mb`` of the
workload children, and ``setup_s`` (potlab import, ``load_config`` and
``Runner`` construction) of those and of a set-up-only child after each.
With ``--trace 1`` traced and untraced children alternate with the same
seeds; the per-layer metrics are medians over the traced ones (see
``spans.py``) and ``trace.overhead_s`` is the traced minus the untraced
median ``wall_s``.

Every child's outputs go through ``checks.py``.  An operation is a child
run or one output check; ``failed`` counts children that exit nonzero and
checks that fail.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".potbench"

sys.path.insert(0, str(HERE))
from checks import check_outputs, check_solves  # noqa: E402
from spans import SpanTable, layer_metrics, tail_quantile  # noqa: E402

RUN_LIMIT_S = 150.0        # start no round after this; a run must end within 180 s
CHILD_DEADLINE_S = 170.0   # kill a child still running this long after the start
SETUP_ONLY = 1             # set-up-only children per untraced round
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
KERNEL = {"kind": "riesz", "s": "0.75", "p": "2"}


@dataclass(frozen=True)
class Workload:
    space: dict
    sections: dict
    subcommands: tuple


# Depths and counts are sized so one run takes 1-3 s on one core: this
# machine's speed wanders on a scale of seconds, and the median of many
# short runs is steadier than that of a few long ones.
WORKLOADS = {
    # Nested capacity solves on the dense operator: approximation_split and
    # thinness_decay.  Warm starts, a matrix-free polish and a Toeplitz
    # operator act here.
    "interval-converge": Workload(
        {"kind": "unit-interval", "branching": 2, "depth": 9},
        {"converge": {"sample": 8, "region": "polynomial", "delta_target": 0.05}},
        ("converge",)),
    # About 75 moderate solves on the O(nN) tree operator plus matching radii;
    # no dense matrix, so operator reuse and Toeplitz must show no change.
    "tree-quasiadd": Workload(
        {"kind": "tree-boundary", "branching": 2, "depth": 10, "delta": 0.5},
        {"quasiadd": {"mode": "tree", "count": 4, "seeds": 4,
                      "shapes": "ball,singleton,half"}},
        ("quasiadd",)),
    # No capacity solve at all: dense operator rebuilds, kernel applies,
    # Poisson fields, calibration and a 53k-row CSV.  Solver changes must
    # show no change here.
    "cantor-poisson": Workload(
        {"kind": "cantor-set", "branching": 2, "depth": 12},
        {"poisson": {"n_random": 2}, "exchange": {"n_random": 2}},
        ("poisson", "exchange")),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def render_config(workload: Workload, depth: int | None = None) -> str:
    space = dict(workload.space)
    if depth is not None:
        space["depth"] = depth
    sections = {"space": space, "kernel": KERNEL, **workload.sections}
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    return "\n".join(lines) + "\n"


def runner_seed(seed: int, index: int) -> int:
    return seed * 10**6 + 16 * index


def write_job(job_dir: Path, name: str, seed: int, index: int, mode: str,
              depth: int | None) -> Path:
    """Config and job file for one child; returns the job path.

    ``mode`` is "plain", "traced" or "setup" (set up, then run nothing).
    """
    job_dir.mkdir(parents=True)
    config = job_dir / "config.ini"
    config.write_text(render_config(WORKLOADS[name], depth))
    subcommands = [] if mode == "setup" else list(WORKLOADS[name].subcommands)
    job = {"src": str(SRC), "config": str(config), "out": str(job_dir / "out"),
           "seed": runner_seed(seed, index), "subcommands": subcommands,
           "trace": mode == "traced", "result": str(job_dir / "result.json")}
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job))
    return job_path


def spawn(job_path: Path, timeout: float) -> tuple:
    """Run child.py on a job; returns (exit code, last stderr lines)."""
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        stderr = f"killed after {timeout:.0f} s\n{stderr}"
    return proc.returncode, stderr.strip().splitlines()[-3:]


def run_child(workdir: Path, name: str, seed: int, index: int, mode: str,
              depth: int | None, timeout: float) -> dict:
    """One fresh interpreter running the workload, with its output checks."""
    tag = f"{index}-{mode}"
    job_dir = workdir / tag
    job_path = write_job(job_dir, name, seed, index, mode, depth)
    returncode, stderr = spawn(job_path, timeout)
    record = {"index": index, "mode": mode, "result": None}
    ops = [(f"{tag}.exit", returncode == 0, f"exit {returncode}: " + " | ".join(stderr))]
    if returncode == 0:
        workload = WORKLOADS[name]
        record["result"] = json.loads((job_dir / "result.json").read_text())
        if mode != "setup":
            ops += [(f"{tag}.{n}", ok, d) for n, ok, d in check_outputs(
                job_dir / "out", workload.subcommands, workload.sections.get("converge", {}))]
        if mode == "traced":
            solves = SpanTable(record["result"]["spans"]).attrs("capacity.solve_capacity")
            ops += [(f"{tag}.{n}", ok, d) for n, ok, d in check_solves(solves)]
    record["ops"] = ops
    shutil.rmtree(job_dir)
    return record


def measure(name: str, seed: int, seconds: float, trace: bool,
            depth: int | None = None) -> list:
    """Rounds of children run back to back until the next round would overrun.

    An untraced round is one workload child and SETUP_ONLY set-up-only
    children, so set-up time gets more samples for a steady median.  A
    traced round is a traced and an untraced child on the same seed, in
    alternating order.
    """
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    records = []
    began = time.perf_counter()
    try:
        index = 0
        while True:
            start = time.perf_counter()
            if trace:
                order = ("traced", "plain") if index % 2 == 0 else ("plain", "traced")
            else:
                order = ("plain",) + ("setup",) * SETUP_ONLY
            for mode in order:
                left = CHILD_DEADLINE_S - (time.perf_counter() - began)
                records.append(run_child(workdir, name, seed, index, mode, depth,
                                         timeout=max(left, 1.0)))
            index += 1
            now = time.perf_counter()
            elapsed = now - began
            if elapsed + (now - start) > seconds or elapsed > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return records


def _done(records, *modes) -> list:
    return [r for r in records if r["result"] and r["mode"] in modes]


def _median(records, key) -> float:
    return statistics.median(r["result"][key] for r in records)


def end_to_end_samples(records) -> dict:
    """Per-metric samples: set-up from every child, the rest from workload runs."""
    plain = _done(records, "plain")
    return {"wall_s": [r["result"]["wall_s"] for r in plain],
            "setup_s": [r["result"]["setup_s"] for r in _done(records, "plain", "setup")],
            "peak_rss_mb": [r["result"]["peak_rss_mb"] for r in plain]}


def per_layer_metrics(records) -> dict:
    traced, plain = _done(records, "traced"), _done(records, "plain")
    per_child = [layer_metrics(r["result"]["spans"], r["result"]["wall_s"]) for r in traced]
    out = {key: (statistics.median(m[key][0] for m in per_child), unit)
           for key, (_, unit) in per_child[0].items()}
    traced_wall = _median(traced, "wall_s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - _median(plain, "wall_s"), "s")
    return out


def environment(records) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True)
        commit = git.stdout.strip() or None
    done = _done(records, "plain", "traced", "setup")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "versions": done[0]["result"]["versions"] if done else None,
            "thread_env": THREAD_ENV}


def write_spans(name: str, records) -> Path:
    """All traced spans of this measurement; replaces the previous file."""
    path = WORK / f"spans-{name}.json"
    rows = [[*span[:4], r["index"], span[4]]
            for r in _done(records, "traced") for span in r["result"]["spans"]]
    path.write_text(json.dumps({"columns": ["name", "start_ns", "end_ns", "parent",
                                            "run_id", "attrs"], "spans": rows}))
    return path


def report(name: str, trace: bool, records) -> dict:
    """Print the human-readable lines and return the result object."""
    ops = [op for r in records for op in r["ops"]]
    failed = [op for op in ops if not op[1]]
    print("env " + json.dumps(environment(records), sort_keys=True))
    for op_name, _, detail in failed:
        print(f"FAILED {name} {op_name}: {detail}")
    metrics = {}
    if trace and _done(records, "traced") and _done(records, "plain"):
        metrics = per_layer_metrics(records)
        for key, (value, unit) in metrics.items():
            print(f"{name} {key} = {value:.6g} {unit}")
        print(f"spans written to {write_spans(name, records)}")
    elif not trace and _done(records, "plain"):
        for key, values in end_to_end_samples(records).items():
            unit = END_TO_END_UNITS[key]
            metrics[key] = (statistics.median(values), unit)
            tail = tail_quantile(values)
            print(f"{name} {key} = {metrics[key][0]:.6g} {unit}  (median of {len(values)} "
                  "runs; " + (f"p{tail[0]:g} = {tail[1]:.6g} {unit})" if tail else
                              "no percentile has 10 runs beyond it)"))
    print(f"{name} failed_frac = {len(failed) / max(len(ops), 1):.6g} "
          f"({len(failed)} of {len(ops)} operations)")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--depth", type=int, default=None,
                        help="override the space depth (toy-size self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "potlab" / "__init__.py").is_file():
        print(f"potbench: no potlab source at {SRC}", file=sys.stderr)
        return 2
    records = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.depth)
    result = report(args.workload, bool(args.trace), records)
    if not result["metrics"]:
        print("potbench: no run completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
