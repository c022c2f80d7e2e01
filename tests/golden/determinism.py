"""Compare the determinism outputs of this checkout with another source tree,
or with itself at another BLAS thread count.

Usage, from the repository root::

    python tests/golden/determinism.py OTHER_SRC
    python tests/golden/determinism.py --threads

``OTHER_SRC`` is the ``src`` directory of another potlab checkout, say the
parent commit unpacked with ``git archive``.  ``--threads`` runs this
checkout twice instead, under one and under two BLAS threads.  The
determinism set is
``full-suite`` (charts on) on every golden config next to this script, at
its ``[run] seed``, and every workload of ``potbench/run.py``: the config
``render_config`` writes for it, its subcommands, runner seed 0.  Each run
goes through ``load_config`` and ``Runner`` in a fresh interpreter on
each side, single-threaded as the benchmark's children are unless the side
is the two-thread one.  Every
CSV, SVG and ``space.txt`` output is compared byte for byte; manifests
record times and are left out.  Each output that differs, or that only one
side wrote, is listed, and the script exits 1 when there is any.  A CSV
that differs is also compared field by field: the line gives the number of
numeric fields that moved and, for each column that moved, the worst
relative move in it, |ours - theirs| / max(|ours|, |theirs|).
"""

from __future__ import annotations

import configparser
import csv
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
COMPARED = ("*.csv", "*.svg", "space.txt")

RUN = """if True:
    import sys
    from pathlib import Path
    from potlab.cli import Runner, load_config
    config, out, seed, *subcommands = sys.argv[1:]
    runner = Runner(load_config(config), Path(out), int(seed))
    for subcommand in subcommands:
        runner.run(subcommand)
"""


def _benchmark():
    """``potbench/run.py`` as a module, for its workloads and config writer."""
    spec = importlib.util.spec_from_file_location("potbench_run", ROOT / "potbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def determinism_set(workdir: Path) -> list:
    """(name, config path, seed, subcommands) of every determinism run."""
    runs = []
    for config in sorted(GOLDEN.glob("*/config.ini")):
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cfg.read(config)
        runs.append((config.parent.name, config, cfg.getint("run", "seed", fallback=0),
                     ("full-suite",)))
    bench = _benchmark()
    for name, workload in sorted(bench.WORKLOADS.items()):
        config = workdir / f"{name}.ini"
        config.write_text(bench.render_config(workload))
        runs.append((name, config, bench.runner_seed(0, 0), workload.subcommands))
    return runs


def run(src: Path, threads: int, config: Path, seed: int, subcommands, out: Path) -> dict:
    """name -> bytes of the compared outputs of one run on source tree ``src``
    with ``threads`` BLAS threads."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    subprocess.run([sys.executable, "-c", RUN, str(config), str(out), str(seed),
                    *subcommands], env=env, check=True)
    return {p.name: p.read_bytes() for pattern in COMPARED for p in sorted(out.glob(pattern))}


def csv_moves(ours: bytes, theirs: bytes) -> str:
    """How two CSVs differ field by field: the numeric fields that moved, the
    worst relative move of each column that moved, and the count of other
    fields that changed."""
    a, b = (list(csv.reader(io.StringIO(side.decode()))) for side in (ours, theirs))
    if [len(row) for row in a] != [len(row) for row in b]:
        return "rows or fields differ"
    moved, other, worst = 0, 0, {}
    for row_a, row_b in zip(a[1:], b[1:]):
        for name, x, y in zip(a[0], row_a, row_b):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                fx = fy = math.nan
            if not (math.isfinite(fx) and math.isfinite(fy)):
                other += 1
                continue
            moved += 1
            move = abs(fx - fy) / max(abs(fx), abs(fy))
            worst[name] = max(worst.get(name, 0.0), move)
    text = f"{moved} numeric fields moved"
    if moved:
        text += ", worst relative " + ", ".join(f"{worst[name]:.2g} ({name})"
                                                for name in a[0] if name in worst)
    if a[0] != b[0]:
        other += 1
    return text + (f", {other} other fields differ" if other else "")


def main(argv) -> int:
    # each side: source tree, BLAS threads, and its name when it alone wrote an output
    if argv == ["--threads"]:
        sides = ((ROOT / "src", 1, "1 thread"), (ROOT / "src", 2, "2 threads"))
    elif len(argv) == 1 and (Path(argv[0]) / "potlab" / "__init__.py").is_file():
        other = Path(argv[0]).resolve()
        sides = ((ROOT / "src", 1, "this checkout"), (other, 1, str(other)))
    else:
        print("usage: python tests/golden/determinism.py OTHER_SRC | --threads, "
              "OTHER_SRC the src directory of another potlab checkout", file=sys.stderr)
        return 2
    differ, total = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, config, seed, subcommands in determinism_set(tmp):
            ours, theirs = (run(src, threads, config, seed, subcommands, tmp / side / name)
                            for side, (src, threads, _) in zip(("ours", "theirs"), sides))
            for output in sorted(ours.keys() | theirs.keys()):
                total += 1
                if ours.get(output) != theirs.get(output):
                    side = ("" if output in ours and output in theirs
                            else f" ({sides[0][2]} only)" if output in ours
                            else f" ({sides[1][2]} only)")
                    if not side and output.endswith(".csv"):
                        side = f": {csv_moves(ours[output], theirs[output])}"
                    differ.append(f"{name}/{output}{side}")
    for line in differ:
        print(f"differs: {line}")
    print(f"{total - len(differ)} of {total} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
