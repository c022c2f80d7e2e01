"""One benchmark run in a fresh interpreter: set potlab up, run, report.

Usage: ``python3 child.py JOB.json``.  The job names the source tree, the
INI config, the output directory, the runner seed, the subcommands and
whether to trace.  The child times set-up (potlab import, ``load_config``
and ``Runner`` construction) and each ``Runner.run`` call, and writes its
timings, peak resident memory, versions and, when traced, its spans to the
job's result path.  Any failure exits nonzero, and the parent counts it.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    import potlab.cli
    if not Path(potlab.cli.__file__).resolve().is_relative_to(src):
        print(f"potlab imported from {potlab.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.install()
    cfg = potlab.cli.load_config(job["config"])
    runner = potlab.cli.Runner(cfg, Path(job["out"]), job["seed"], 1)
    setup_s = time.perf_counter() - STARTED
    wall_s = 0.0
    for sub in job["subcommands"]:
        begin = time.perf_counter()
        runner.run(sub)
        wall_s += time.perf_counter() - begin
    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "spans": tracer.spans if tracer is not None else None,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
