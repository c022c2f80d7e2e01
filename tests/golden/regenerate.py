"""Regenerate the golden outputs that tests/test_golden.py compares against.

Usage, from the repository root::

    python tests/golden/regenerate.py

Every directory next to this script that holds a ``config.ini`` is one
golden run: ``potlab full-suite`` on that config (its ``[run] seed``), with
every CSV and ``space.txt`` of the run written back into the directory.
Manifests and charts are not kept: they record times and drawing, not
results.  A change that regenerates goldens lists each changed file and the
reason in CHANGES.md.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
KEPT = ("*.csv", "space.txt")


def golden_runs() -> list:
    return sorted(d for d in GOLDEN.iterdir() if (d / "config.ini").is_file())


def kept_outputs(outdir: Path) -> dict:
    """name -> path of the outputs a golden run keeps."""
    return {p.name: p for pattern in KEPT for p in sorted(outdir.glob(pattern))}


def run_full_suite(config: Path, outdir: Path) -> dict:
    from potlab.cli import main

    code = main(["full-suite", "--config", str(config), "--out", str(outdir),
                 "--no-charts"])
    if code != 0:
        raise RuntimeError(f"full-suite on {config} exited {code}")
    return kept_outputs(outdir)


def main() -> int:
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    for run in golden_runs():
        for old in kept_outputs(run).values():
            old.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            for name, path in run_full_suite(run / "config.ini", Path(tmp)).items():
                (run / name).write_bytes(path.read_bytes())
        print(f"{run.name}: {', '.join(sorted(kept_outputs(run)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
