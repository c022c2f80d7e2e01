import configparser
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from potlab import cli, poisson
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
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
    # the effective config: every schema key, defaults resolved against the space
    config = manifest["config"]
    assert set(config) == {f"{section}.{key}" for section, key in cli._SCHEMA}
    assert config["poisson.n_heights"] == 6
    assert config["quasiadd.seeds"] == 4


def test_full_suite_csvs_parse_to_header_width(config, tmp_path):
    # the set:1,2,5,40 target label holds commas, so its field must be quoted
    out = tmp_path / "suite"
    assert main(["full-suite", "--config", str(config), "--out", str(out)]) == 0
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path.name
        assert all(len(row) == len(header) for row in rows), path.name
    labels = [r["set_id"] for r in read_csv(out / "capacity.csv")]
    assert labels == ["singleton:7", "ball:13:3", "set:1,2,5,40"]


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
        if not cfg.has_section(section) and section != cfg.default_section:
            cfg.add_section(section)
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
    ("depth = 3; [space] mass_profile = custom; [space] weights = 1,1,1,1,1,1,1,inf",
     "leaf weights"),
    ("[space] dimension = nan", "dimension"),
    ("[space] dimension = inf", "dimension"),
    ("[space] kind = cantor-set; delta = 0.3; [kernel] kind = radial; "
     "[kernel] levels = 1,1,1,1,1,1,1", "riesz kernel"),
    ("depth = 4; [kernel] kind = radial; [kernel] levels = 1,1,1", "level table"),
    ("[kernel] kind = radial; [kernel] levels = 0,0,0,0,0,0,0", "all be zero"),
    # run-time keys, checked at validation against what the run accepts
    ("targets = ball:999:3", "leaf 999"),
    ("targets = ball:13:9", "level 9"),
    ("targets = ball:13:-1", "level -1"),
    ("targets = set:1,2,500", "set:1,2,500"),
    ("targets = singleton:-1", "singleton:-1"),
    ("targets = singleton:x", "singleton:x"),
    ("[ball-profile] center = 99", "leaf 99"),
    ("[ball-profile] levels = 1..9", "level 7"),
    ("[ball-profile] levels = -2..2", "level -2"),
    ("[quasiadd] mode = nosuch", "mode"),
    ("[quasiadd] shapes = ball,cube", "shapes"),
    ("[quasiadd] count = 0", "count"),
    ("[quasiadd] seeds = 0", "seeds"),
    ("[capacity] max_iters = 0", "max_iters"),
    ("[converge] region = nontangential", "region"),
    ("[poisson] profile = nosuch", "profile"),
    ("[converge] profile = nosuch", "profile"),
    ("[poisson] n_heights = -1", "n_heights"),
    ("[poisson] eps_quantile = 2", "eps_quantile"),
    ("[poisson] n_heights = 1075", "n_heights"),
    ("[poisson] n_random = many", "n_random"),
    ("[poisson] n_random = -1", "n_random"),
    ("[exchange] n_random = 2.5", "n_random"),
    ("[exchange] n_random = -1", "n_random"),
    ("[converge] tol_nontangential = tight", "tol_nontangential"),
    ("[converge] tol_tangential = loose", "tol_tangential"),
    ("[converge] delta_target = small", "delta_target"),
    # keys the config's own choices leave unread, and a shape named twice
    ("[space] weights = 5,5", "mass_profile = custom"),
    ("[kernel] levels = 1,2", "kind = radial"),
    ("[quasiadd] shapes = ball,ball", "twice"),
    # a level range is checked before it is listed, a space before it is built
    ("[ball-profile] levels = 1..1000000000000", "level 7"),
    ("depth = 40", "16777216 leaves"),
    # sections and keys outside the grammar, which used to be ignored
    ("[converge] sampel = 3", "'sampel'"),
    ("[quasiadd] shape = ball", "'shape'"),
    ("[quasiadd] inflation = 1.5", "'inflation'"),
    ("[colour] hue = red", "[colour]"),
    ("[DEFAULT] sampel = 3", "'sampel'"),
    ("--tol-override converge.sampel=3", "'sampel'"),
    # command-line overrides that name no usable section or key
    ("--tol-override DEFAULT.x=1", "section.key=value"),
    ("--tol-override .n=1", "section.key=value"),
    ("--tol-override space.=3", "section.key=value"),
])
def test_invalid_config_rejected(tmp_path, capsys, mutation, phrase):
    flag, _, override = mutation.partition(" ")
    bad = tmp_path / "bad.ini"
    extra = []
    if flag == "--tol-override":
        bad.write_text(BASE_CONFIG)
        extra = [flag, override]
    else:
        bad.write_text(mutate(mutation))
    code = main(["space-info", "--config", str(bad), "--out", str(tmp_path / "x"), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=config")
    assert err.count("\n") == 1
    assert phrase in err


@pytest.mark.parametrize("text", [
    BASE_CONFIG.replace("depth = 6\n", "depth = 6\ndepth = 7\n"),
    BASE_CONFIG.split("\n", 1)[1],
], ids=["repeated-key", "no-section-header"])
def test_unparsable_config_rejected(tmp_path, capsys, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    code = main(["space-info", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=config")
    assert err.count("\n") == 1


def test_negative_config_seed_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(mutate("[run] seed = -1"))
    with pytest.raises(cli.ConfigError, match=r"\[run\] seed"):
        cli.load_config(bad)
    # a --seed argument does not hide the bad key
    assert main(["space-info", "--config", str(bad), "--out", str(tmp_path / "x"),
                 "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith("error kind=config")


def readme_grammar():
    """(section, key) -> (value, comment) of README's config grammar block,
    in its order; a comment-only line continues the comment above it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1]
    entries, section = {}, None
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line.lstrip().startswith(";"):
            value, comment = entries[name]
            entries[name] = value, f"{comment} {line.strip(' ;')}"
        elif line:
            key, _, rest = line.partition("=")
            value, _, comment = rest.partition("  ;")
            name = section, key.strip()
            entries[name] = value.strip(), comment.strip()
    return entries


def test_readme_grammar_matches_schema():
    grammar = readme_grammar()
    assert list(grammar) == list(cli._SCHEMA)
    for (section, key), (parse, default, allowed) in cli._SCHEMA.items():
        value, comment = grammar[section, key]
        if allowed and isinstance(allowed[0], str):
            assert " | ".join(allowed) in comment, key
        elif allowed:
            lo, hi = allowed
            text = (f">= {lo:g}" if hi == math.inf
                    else f"[{lo:g}, {hi:g}]" if isinstance(lo, float) else f"{lo}..{hi}")
            assert text in comment, key
        if default is cli._REQUIRED:
            assert comment.startswith("required"), key
        elif isinstance(default, cli._Only):
            assert comment.startswith("required, and read only when "
                                      f"{default.key} = {default.value}"), key
        elif callable(default):
            assert comment.startswith("default: "), key
        else:
            assert parse(value) == default, key


RADIAL_DEPTH8 = "depth = 8; [kernel] kind = radial; [kernel] levels = " + ",".join(["1"] * 9)


@pytest.mark.parametrize("subcommand,code", [
    ("exchange", 2), ("full-suite", 2), ("capacity", 0)])
def test_radial_exchange_needs_calibration_depth(tmp_path, capsys, subcommand, code):
    cfg = tmp_path / "radial.ini"
    cfg.write_text(mutate(RADIAL_DEPTH8))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error kind=config") and err.count("\n") == 1
        assert "calibration depth" in err


RADIAL_DEPTH6 = "[kernel] kind = radial; [kernel] levels = 1,2,4,8,16,32,0"


@pytest.mark.parametrize("mutation,subcommand,code", [
    (RADIAL_DEPTH6, "converge", 2), (RADIAL_DEPTH6, "full-suite", 2),
    (RADIAL_DEPTH6 + "; [converge] region = capacity", "converge", 0)])
def test_radial_kernel_has_no_polynomial_region(tmp_path, capsys, mutation, subcommand,
                                                code):
    # the polynomial width reads the riesz exponent s, which a radial table lacks
    cfg = tmp_path / "radial.ini"
    cfg.write_text(mutate(mutation))
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error kind=config") and err.count("\n") == 1
        assert "region = polynomial" in err


@pytest.mark.parametrize("subcommand,code", [
    ("quasiadd", 2), ("full-suite", 2), ("space-info", 0)])
def test_tree_quasiadd_needs_tree_boundary(tmp_path, capsys, subcommand, code):
    # no mode line: the default tree mode cannot run on an embedded space
    cfg = tmp_path / "interval.ini"
    text = mutate("[space] kind = unit-interval").replace("mode = tree\n", "")
    assert "mode" not in text
    cfg.write_text(text)
    assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error kind=config") and err.count("\n") == 1
        assert "tree-boundary" in err


def test_rejected_subcommand_makes_no_output_directory(tmp_path, capsys):
    # the runner is set up before the subcommand is checked; it makes nothing
    cfg = tmp_path / "interval.ini"
    cfg.write_text(mutate("[space] kind = unit-interval"))
    assert main(["quasiadd", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error kind=config")
    assert not (tmp_path / "x").exists()


def test_quasiadd_without_experiments_does_not_pass(tmp_path, capsys):
    # a tiny kernel gives every ball a capacity above the total mass, so no
    # ball has an enlargement and every family comes out empty
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(mutate("[kernel] kind = radial; [kernel] levels = "
                          + ",".join(["1e-3"] * 7)))
    out = tmp_path / "out"
    assert main(["quasiadd", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "experiments = 0" in printed
    assert "all_passed = false" in printed
    assert read_csv(out / "quasiadd.csv") == []


def test_ahlfors_quasiadd_writes_no_ratio_bound(tmp_path):
    # ahlfors mode checks the ratio against no upper constant, so the bound
    # column stays empty (nan)
    cfg = tmp_path / "ahlfors.ini"
    cfg.write_text(mutate("[space] kind = unit-interval; [quasiadd] mode = ahlfors; "
                          "[quasiadd] seeds = 2"))
    out = tmp_path / "out"
    assert main(["quasiadd", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "quasiadd.csv")
    assert rows
    assert all(r["ratio_bound"] == "nan" for r in rows)
    assert all(r["passed"] == "true" and float(r["ratio"]) >= 1.0 - 1e-9 for r in rows)


@pytest.mark.parametrize("kind,mode", [("tree-boundary", "tree"),
                                       ("unit-interval", "ahlfors")])
@pytest.mark.parametrize("depth", [2, 3])
def test_shallow_quasiadd_runs(tmp_path, kind, mode, depth):
    # the default radius levels 2..depth-2 are empty below depth 4
    cfg = tmp_path / "shallow.ini"
    cfg.write_text(f"[space]\nkind = {kind}\nbranching = 2\ndepth = {depth}\n\n"
                   f"[quasiadd]\nmode = {mode}\nseeds = 3\n")
    out = tmp_path / "out"
    assert main(["quasiadd", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "quasiadd.csv")
    assert rows and all(r["passed"] == "true" for r in rows)


def test_single_level_ball_profile_runs(config, tmp_path, capsys):
    # one level fits no slope, which the summary writes as nan
    out = tmp_path / "out"
    assert main(["ball-profile", "--config", str(config), "--out", str(out),
                 "--tol-override", "ball-profile.levels=3"]) == 0
    assert "slope = nan" in capsys.readouterr().out
    assert read_csv(out / "ball_profile_summary.csv")[0]["slope"] == "nan"


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
    # blanks around a section name name the same section, new or not
    assert main(["space-info", "--config", str(config), "--out", str(out),
                 "--tol-override", "poisson .n_random=2"]) == 0
    cfg = cli.load_config(config, ["poisson .n_random=2", " capacity .targets=singleton:3"])
    assert cfg.sections() == ["space", "kernel", "capacity", "ball-profile", "quasiadd",
                              "converge", "run", "poisson"]
    assert cfg.get("poisson", "n_random") == "2"
    assert cfg.get("capacity", "targets") == "singleton:3"


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_cli_import_loads_no_scipy():
    loaded = run_python("import sys, potlab.cli; print(*sys.modules)").split()
    assert "potlab.cli" in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_runs_import_nothing_after_set_up(tmp_path):
    # every module a run needs is loaded by the time the Runner exists, so the
    # run times measure work alone; the codec registry's ``encodings.*``
    # entries, loaded on the first ASCII write, are the standard library's own
    config = tmp_path / "depth5.ini"
    config.write_text(BASE_CONFIG.replace("depth = 6", "depth = 5").replace(",40", ",20"))
    code = """if True:
        import sys
        from pathlib import Path
        import potlab.cli as cli
        runner = cli.Runner(cli.load_config(sys.argv[1]), Path(sys.argv[2]), 7)
        before = set(sys.modules)
        runner.run("full-suite")
        print(*(m for m in set(sys.modules) - before if not m.startswith("encodings.")))
    """
    assert run_python(code, config, tmp_path / "out").split() == []
    assert (tmp_path / "out" / "converge_summary.csv").is_file()


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval"])
def test_runs_load_neither_numpy_ma_nor_argparse(tmp_path, kind):
    # numpy.ma costs about 20 ms of start-up and argparse a few more; a run
    # through Runner needs neither, so neither is loaded from import to exit
    text = BASE_CONFIG.replace("depth = 6", "depth = 5").replace(",40", ",20")
    if kind != "tree-boundary":
        text = text.replace("tree-boundary", kind).replace("mode = tree", "mode = ahlfors")
    config = tmp_path / "depth5.ini"
    config.write_text(text.replace("[run]", "[poisson]\nn_random = 2\n\n[run]"))
    code = """if True:
        import sys
        from pathlib import Path
        import potlab.cli as cli
        runner = cli.Runner(cli.load_config(sys.argv[1]), Path(sys.argv[2]), 7)
        for subcommand in ("quasiadd", "poisson", "converge"):
            runner.run(subcommand)
        print(*sorted(m for m in sys.modules if m in ("argparse", "numpy.ma")))
    """
    assert run_python(code, config, tmp_path / "out").split() == []
    assert (tmp_path / "out" / "poisson_checks.csv").is_file()


def test_linear_quantile_is_np_quantile_bit_for_bit(rng):
    for _ in range(300):
        values = rng.standard_normal(int(rng.integers(1, 50))) * 10.0 ** int(rng.integers(-3, 4))
        if rng.random() < 0.3:
            values = values.round(1).reshape(-1, 1)
        for q in (0.0, 0.5, 0.7, 1.0, float(rng.random())):
            ours = cli.linear_quantile(values, q)
            assert type(ours) is float and ours == np.quantile(values, q)


def test_runtime_failure_cleans_outputs(config, tmp_path, capsys, monkeypatch):
    # validation leaves no config key that fails inside a run, so the failure
    # is raised from inside: ball-profile has written its first CSV by then
    out = tmp_path / "out"
    seen = []

    def fail(*args):
        seen.append(sorted(p.name for p in out.glob("*.csv")))
        raise RuntimeError("failure inside the run")

    monkeypatch.setattr(cli, "theoretical_profile_slope", fail)
    code = main(["ball-profile", "--config", str(config), "--out", str(out)])
    assert seen == [["ball_profile.csv"]]
    assert code == 1
    assert capsys.readouterr().err.startswith("error kind=runtime")
    assert not list(out.glob("*.csv"))


def test_manifest_is_strict_json(config, tmp_path):
    # inf lies inside tol_tangential's range; JSON has no Infinity
    out = tmp_path / "out"
    assert main(["space-info", "--config", str(config), "--out", str(out),
                 "--tol-override", "converge.tol_tangential=inf"]) == 0

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["config"]["converge.tol_tangential"] == "inf"
    assert manifest["config"]["ball-profile.levels"] == [1, 2, 3, 4, 5]


def error_message(err):
    """The message field of one ``error kind=...`` line, unescaped."""
    line, = err.splitlines()
    head, field = line.split(" message=", 1)
    assert field[0] == field[-1] == '"' and '"' not in field[1:-1].replace('\\"', "")
    return re.sub(r"\\(.)", r"\1", field[1:-1])


def test_error_message_field_is_escaped(config, tmp_path, capsys, monkeypatch):
    # a quote or a backslash in the message stays inside the quoted field
    override = 'space.depth="\\'
    with pytest.raises(cli.ConfigError) as info:
        cli.Runner(cli.load_config(config, [override]), tmp_path / "y", None, charts=False)
    assert '"' in str(info.value) and "\\" in str(info.value)
    assert main(["space-info", "--config", str(config), "--out", str(tmp_path / "x"),
                 "--tol-override", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error kind=config ")
    assert error_message(err) == str(info.value)
    text = 'cannot write "out\\put"\nsecond line'

    def fail(*args):
        raise OSError(text)

    monkeypatch.setattr(cli, "dump_space", fail)
    assert main(["space-info", "--config", str(config), "--out", str(tmp_path / "z")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=runtime ")
    assert error_message(err) == " ".join(text.split())


def test_partial_space_dump_cleaned(config, tmp_path, capsys, monkeypatch):
    # space.txt is recorded before it is written, so a dump that fails half
    # way leaves nothing behind
    out = tmp_path / "out"

    def partial_dump(space, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("tree-boundary 2 6\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "dump_space", partial_dump)
    assert main(["space-info", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error kind=runtime")
    assert not (out / "space.txt").exists()


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


def test_cantor_default_delta_fits_the_branching(tmp_path):
    # no delta key: the default 1/(b + 1) is below 1/b at every branching
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[space]\nkind = cantor-set\nbranching = 3\ndepth = 3\n")
    out = tmp_path / "out"
    assert main(["space-info", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_space(out / "space.txt").delta == 0.25


def reference_csv(path, header, rows):
    # the row writer Emitter.csv replaced: the stdlib csv module over a
    # per-cell formatter
    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(x)

    with open(path, "w", encoding="ascii", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([fmt(v) for v in row] for row in rows)


EMIT_HEADER = ("flag", "np_flag", "x", "np_x", "n", "np_n", "label,text")
EMIT_ROWS = [
    (True, np.bool_(False), 0.1, np.float64(1 / 3), 3, np.int64(-7), "plain"),
    (False, np.bool_(True), math.nan, np.float64(math.inf), 0, np.int64(2**40), "a,b"),
    (True, np.bool_(True), -0.0, np.float64(-math.inf), -1, np.int64(0), 'say "hi"'),
    (False, np.bool_(False), 1e300, np.float64(-0.0), 10**20, np.int64(5), '"a","b"'),
]


def emit_blocks():
    """The same table in every form Emitter.csv takes."""
    lists = [list(col) for col in zip(*EMIT_ROWS)]
    arrays = [np.array(lists[0]), np.array(lists[1]), np.array(lists[2]),
              np.array(lists[3]), lists[4], np.array(lists[5]), np.array(lists[6])]
    return {"rows": EMIT_ROWS,
            "lists": [lists],
            "arrays": [arrays],
            "split": [[col[:2] for col in arrays], [col[2:] for col in lists]]}


@pytest.mark.parametrize("form", ["rows", "lists", "arrays", "split"])
def test_emitter_matches_the_stdlib_row_writer(form, tmp_path):
    reference_csv(tmp_path / "ref.csv", EMIT_HEADER, EMIT_ROWS)
    path = cli.Emitter(tmp_path).csv("out.csv", EMIT_HEADER, emit_blocks()[form])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_emitter_repeats_scalars_and_checks_widths(tmp_path):
    emit = cli.Emitter(tmp_path)
    path = emit.csv("t.csv", ("a", "b", "c"),
                    [("x,y", np.arange(3), np.float64(0.5)), (True, [], 1.0)])
    reference_csv(tmp_path / "ref.csv", ("a", "b", "c"),
                  [("x,y", i, 0.5) for i in range(3)])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    for bad in ([(np.arange(3), np.arange(2), 0.5)], [(1, 2, 3), (1, 2)]):
        with pytest.raises(ValueError):
            emit.csv("bad.csv", ("a", "b", "c"), bad)
        emit.cleanup()     # a failed write leaves no partial file behind
        assert not (tmp_path / "bad.csv").exists()


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, 0.1 + 0.2]


def test_emitter_formats_long_float_columns_with_repeats(tmp_path, rng):
    # each distinct float of a long column is formatted once, keyed on its
    # bits, so 0.0 and -0.0 keep their own text; the same values at 32 bits
    # and a column that repeats the last block's are formatted alike
    x = rng.choice(np.array(SPECIAL_FLOATS + [1 / 3, -2.5]), 500)
    blocks = [(np.arange(500), x, x.astype(np.float32)),
              (np.arange(500), x[::-1].copy(), x[::-1].astype(np.float32)),
              (np.arange(500), x[::-1].copy(), x[::-1].astype(np.float32))]
    header = ("i", "x", "x32")
    path = cli.Emitter(tmp_path).csv("t.csv", header, blocks)
    reference_csv(tmp_path / "ref.csv", header, [row for block in blocks for row in zip(*block)])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    text = path.read_text()
    assert ",0.0," in text and ",-0.0," in text and ",5e-324," in text


def test_emitter_formats_a_refilled_buffer_afresh(tmp_path, monkeypatch):
    # a generator that refills one buffer between blocks: a changed fill
    # gets new text, and only a fill equal to the last block's reuses it;
    # repr runs once per distinct value of each block it formats
    calls = []
    monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or float.__repr__(v),
                        raising=False)
    fills = [np.arange(200) % 7 * 0.5, np.arange(200) % 5 * -0.25, np.arange(200) % 5 * -0.25]
    buffer = np.empty(200)

    def blocks():
        for fill in fills:
            buffer[:] = fill
            yield np.arange(200), buffer

    path = cli.Emitter(tmp_path).csv("t.csv", ("i", "x"), blocks())
    monkeypatch.undo()
    reference_csv(tmp_path / "ref.csv", ("i", "x"),
                  [(i, v) for fill in fills for i, v in enumerate(fill)])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(calls) == 7 + 5


def test_emitter_reuses_equal_columns_of_one_dtype(tmp_path):
    # consecutive blocks with equal integer columns (one array, an equal
    # copy, another integer width); a bool column equal to an integer one
    # in value still prints true/false
    leaves = np.arange(100)
    flags = leaves % 3 == 0
    blocks = [(leaves, flags, leaves * 0.5),
              (leaves, flags.astype(np.int64), leaves * 0.25),
              (leaves.copy(), flags.astype(np.int64), leaves * 0.25),
              (leaves.astype(np.int32), flags, -leaves),
              (leaves[::-1].copy(), flags, -leaves)]
    header = ("leaf", "flag", "value")
    path = cli.Emitter(tmp_path).csv("t.csv", header, blocks)
    reference_csv(tmp_path / "ref.csv", header, [row for block in blocks for row in zip(*block)])
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_poisson_field_csv_matches_the_row_writer(config, tmp_path, monkeypatch):
    # a cantor-set depth-8 run: the emitted field equals the stdlib row
    # writer over the same rows of the extension's field
    fields = []
    field = poisson.PoissonExtension.field
    monkeypatch.setattr(poisson.PoissonExtension, "field",
                        lambda ext, f: fields.append(field(ext, f)) or fields[-1])
    cfg = cli.load_config(config, ["space.kind=cantor-set", "space.depth=8",
                                   "space.delta=0.3333333333333333"])
    runner = cli.Runner(cfg, tmp_path / "out", 7, charts=False)
    runner.run("poisson")
    heights = runner._extension().heights
    leaves = range(runner.space.n_leaves)
    reference_csv(tmp_path / "ref.csv", ("leaf_index", "y", "value"),
                  [(x, y, fields[0][x, h]) for h, y in enumerate(heights) for x in leaves])
    assert ((tmp_path / "out" / "poisson_field.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_run_builds_one_extension_per_grid(config, tmp_path, monkeypatch):
    built = []

    class Counted(poisson.PoissonExtension):
        def __init__(self, space, n_heights):
            built.append((space.depth, n_heights))
            super().__init__(space, n_heights=n_heights)

    monkeypatch.setattr(poisson, "PoissonExtension", Counted)
    runner = cli.Runner(cli.load_config(config), tmp_path / "out", 7, charts=False)
    for subcommand in ("poisson", "exchange", "converge"):
        runner.run(subcommand)
    # the run's grid, and one calibration extension that the Harnack
    # constant and the exchange band share
    assert built == [(runner.space.depth, 6), (poisson.CALIBRATION_DEPTH, 6)]
