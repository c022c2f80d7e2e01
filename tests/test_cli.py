import configparser
import io
import json
import time
from pathlib import Path

import pytest

from potlab.capacity import singleton_capacity
from potlab.cli import main
from potlab.kernel import RadialKernel
from potlab.space import load_space, model_space

BASE_CONFIG = """\
[space]
kind = tree-boundary
branching = 2
depth = 6
delta = 0.5

[kernel]
kind = riesz
s = 0.75
p = 2.0

[capacity]
targets = singleton:7; ball:13:3; set:1,2,5,40

[ball-profile]
center = 0
levels = 1..5

[quasiadd]
mode = tree
count = 4
seeds = 4

[converge]
sample = 8

[run]
seed = 7
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(BASE_CONFIG)
    return path


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_space_info(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["space-info", "--config", str(config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "leaves = 64" in printed
    assert "dimension = 1.0" in printed
    assert "ahlfors_lower" in printed and "ahlfors_upper" in printed
    rows = read_csv(out / "space_info.csv")
    assert rows[0]["leaves"] == "64"
    back = load_space(out / "space.txt")
    assert back.n_leaves == 64


def test_capacity_singleton_matches_closed_form(config, tmp_path):
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(config), "--out", str(out)]) == 0
    rows = read_csv(out / "capacity.csv")
    ms = model_space("tree-boundary", 2, 6, 0.5)
    expected = singleton_capacity(ms, RadialKernel("riesz", s=0.75, p=2.0), 7)
    row = next(r for r in rows if r["set_id"] == "singleton:7")
    assert float(row["value"]) == pytest.approx(expected, rel=1e-6)
    assert row["converged"] == "true"


def test_full_suite_fast_and_passing(config, tmp_path):
    out = tmp_path / "suite"
    started = time.time()
    assert main(["full-suite", "--config", str(config), "--out", str(out)]) == 0
    assert time.time() - started < 60.0
    expected = {"space_info.csv", "capacity.csv", "ball_profile.csv",
                "ball_profile_summary.csv", "quasiadd.csv", "poisson_field.csv",
                "poisson_checks.csv", "exchange.csv", "converge.csv",
                "converge_summary.csv", "manifest.json", "space.txt"}
    names = {p.name for p in out.iterdir()}
    assert expected <= names
    assert any(n.endswith(".svg") for n in names)
    assert all(r["passed"] == "true" for r in read_csv(out / "quasiadd.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["command"] == "full-suite"


def test_full_suite_deterministic(config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["full-suite", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["full-suite", "--config", str(config), "--out", str(out2)]) == 0
    for path in sorted(out1.glob("*.csv")):
        assert path.read_bytes() == (out2 / path.name).read_bytes(), path.name


def test_seed_changes_outputs(config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["quasiadd", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["quasiadd", "--config", str(config), "--out", str(out2),
                 "--seed", "99"]) == 0
    assert (out1 / "quasiadd.csv").read_bytes() != (out2 / "quasiadd.csv").read_bytes()


def mutate(mutation: str) -> str:
    """BASE_CONFIG with each ``[section] key = value`` item of the
    ';'-separated mutation set; a bare key keeps its BASE_CONFIG section."""
    cfg = configparser.ConfigParser()
    cfg.read_string(BASE_CONFIG)
    for item in mutation.split(";"):
        section, _, assignment = item.strip().rpartition("] ")
        key, value = (part.strip() for part in assignment.split("="))
        section = section.lstrip("[") or next(
            name for name in cfg.sections() if cfg.has_option(name, key))
        cfg.set(section, key, value)
    out = io.StringIO()
    cfg.write(out)
    return out.getvalue()


@pytest.mark.parametrize("mutation,phrase", [
    ("branching = 1", "branching"),
    ("delta = 1.5", "delta"),
    ("p = 1.0", "p must"),
    ("s = 0.2", "riesz exponent"),
    # these used to pass validation and then fail inside the run
    ("[space] kind = unit-interval; delta = 0.3", "unit-interval"),
    ("[space] kind = cantor-set; delta = 0.6", "cantor-set"),
    ("depth = 3; [space] mass_profile = custom; [space] weights = 1,2,3", "leaf weights"),
    ("[space] kind = cantor-set; delta = 0.3; [kernel] kind = radial; "
     "[kernel] levels = 1,1,1,1,1,1,1", "riesz kernel"),
    ("depth = 4; [kernel] kind = radial; [kernel] levels = 1,1,1", "level table"),
])
def test_invalid_config_rejected(tmp_path, capsys, mutation, phrase):
    bad = tmp_path / "bad.ini"
    bad.write_text(mutate(mutation))
    code = main(["space-info", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=config")
    assert err.count("\n") == 1
    assert phrase in err


def test_missing_config_rejected(tmp_path, capsys):
    code = main(["space-info", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_tol_override(config, tmp_path):
    out = tmp_path / "out"
    assert main(["capacity", "--config", str(config), "--out", str(out),
                 "--tol-override", "capacity.targets=singleton:3"]) == 0
    rows = read_csv(out / "capacity.csv")
    assert len(rows) == 1 and rows[0]["set_id"] == "singleton:3"
    code = main(["capacity", "--config", str(config), "--out", str(out),
                 "--tol-override", "nonsense"])
    assert code == 2


def test_runtime_failure_cleans_outputs(config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["capacity", "--config", str(config), "--out", str(out),
                 "--tol-override", "capacity.targets=set:9999"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error kind=runtime")
    assert not list(out.glob("*.csv"))


def test_custom_weights_space(tmp_path):
    cfg = tmp_path / "cfg.ini"
    weights = ",".join(["1"] * 4 + ["2"] * 4)
    cfg.write_text(f"""\
[space]
kind = tree-boundary
branching = 2
depth = 3
delta = 0.5
mass_profile = custom
weights = {weights}
""")
    out = tmp_path / "out"
    assert main(["space-info", "--config", str(cfg), "--out", str(out)]) == 0
    back = load_space(out / "space.txt")
    assert back.total_mass == pytest.approx(12.0)
