"""Committed golden outputs of three full-suite runs, compared per column.

The rule: labels, counts and verdicts match exactly; a capacity that carries
its certified duality gap (the ``value`` column next to ``gap``) matches
within that gap plus 1e-12, relative; every other float matches within
1e-12, relative.  ``python tests/golden/regenerate.py`` rewrites the goldens.
"""

import csv
import math
import re

import pytest

from golden.regenerate import golden_runs, kept_outputs, run_full_suite

INTEGER = re.compile(r"-?\d+")
FLOAT_REL = 1e-12


def _rows(path) -> list:
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    return [line.split() for line in path.read_text().splitlines()]


def _float(text: str):
    if INTEGER.fullmatch(text):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _same(gold: str, new: str, rel: float) -> bool:
    g, n = _float(gold), _float(new)
    if g is None:   # label, count or verdict
        return gold == new
    if n is None:
        return False
    if math.isnan(g) or math.isnan(n):
        return math.isnan(g) and math.isnan(n)
    return math.isclose(g, n, rel_tol=rel, abs_tol=0.0)


def mismatches(gold_path, new_path) -> list:
    """One line per field of ``new_path`` that breaks the golden rule."""
    gold, new = _rows(gold_path), _rows(new_path)
    header = gold[0] if gold_path.suffix == ".csv" else []
    if len(new) != len(gold) or (header and new[0] != header):
        return [f"{gold_path.name}: {len(new)} rows or header differ from the golden"]
    gap = header.index("gap") if "gap" in header else None
    out = []
    for i, (grow, nrow) in enumerate(zip(gold, new)):
        if len(grow) != len(nrow):
            out.append(f"{gold_path.name} row {i}: {len(nrow)} fields, golden {len(grow)}")
            continue
        for j, (g, n) in enumerate(zip(grow, nrow)):
            rel = FLOAT_REL
            if gap is not None and i > 0 and header[j] == "value":
                # a capacity is certified only to within its duality gap
                rel += max(float(grow[gap]), float(nrow[gap]))
            if not _same(g, n, rel):
                out.append(f"{gold_path.name} row {i} {header[j] if header else j}: "
                           f"{n} != golden {g}")
    return out


@pytest.fixture(scope="module", params=golden_runs(), ids=lambda run: run.name)
def golden(request, tmp_path_factory):
    run = request.param
    out = tmp_path_factory.mktemp(run.name)
    return kept_outputs(run), run_full_suite(run / "config.ini", out)


def test_golden_runs_are_committed():
    assert [run.name for run in golden_runs()] == [
        "cantor-set", "tree-boundary", "unit-interval"]


def test_outputs_match_golden(golden):
    gold, new = golden
    assert sorted(new) == sorted(gold)
    problems = [line for name in sorted(gold) for line in mismatches(gold[name], new[name])]
    assert not problems, "\n".join(problems[:20])


def test_rule_rejects_a_capacity_moved_beyond_its_gap(tmp_path):
    gold = next(r for r in golden_runs() if r.name == "tree-boundary") / "capacity.csv"
    header, first, *rest = _rows(gold)
    value, gap, verdict = (header.index(c) for c in ("value", "gap", "converged"))

    def edited(column: int, text: str) -> list:
        row = list(first)
        row[column] = text
        path = tmp_path / "capacity.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, row, *rest])
        return mismatches(gold, path)

    allowed = float(first[gap]) + FLOAT_REL
    assert edited(value, repr(float(first[value]) * (1.0 + 0.5 * allowed))) == []
    assert edited(value, repr(float(first[value]) * (1.0 + 3.0 * allowed)))
    assert edited(verdict, "false")


def test_csv_moves_gives_the_worst_move_of_each_column():
    from golden.determinism import csv_moves

    ours = b"id,value,gap\na,1.0,0.0\nb,2.0,1e-16\nc,x,3\n"
    theirs = b"id,value,gap\na,1.0000000000000002,1.7e-16\nb,2.5,1e-16\nc,y,3\n"
    assert csv_moves(ours, theirs) == \
        "3 numeric fields moved, worst relative 0.2 (value), 1 (gap), 1 other fields differ"
