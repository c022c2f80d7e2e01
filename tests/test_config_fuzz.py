"""The config surface, fuzzed from the schema.

Each drawn config starts from ``BASE_CONFIG`` and sets some schema keys to
their default (the line removed), a range end or one past it, a choice or
junk; some ``--tol-override`` strings are drawn too.  ``space-info`` on it
must exit 0, or exit 2 with exactly one ``error kind=config`` line.  The
run subcommands that build an extension take the ends of the height grid
on every space kind, and finish.
"""

import configparser
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from potlab import cli  # noqa: E402
from test_cli import BASE_CONFIG  # noqa: E402

KEYS = list(cli._SCHEMA)
JUNK = ("", "x", "nan", "inf", "-1", "1e400", "1..3", "1,,2")
# a depth past 8 whose arrays fit in memory would be built, so none is drawn
EXTRA = {("space", "depth"): ("8", "40"), ("space", "branching"): ("4", "1000000")}


def candidates(section: str, key: str) -> list:
    """None (no line, so the default) and the texts a drawn key may take."""
    allowed = cli._SCHEMA[section, key][2]
    out = [None, *JUNK, *EXTRA.get((section, key), ())]
    if allowed and isinstance(allowed[0], str):
        out.extend(allowed)
    elif allowed:
        out.extend(str(end + step) for end in allowed if math.isfinite(end)
                   for step in (-1, 0, 1))
    return out


@st.composite
def configs(draw) -> str:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(BASE_CONFIG)
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=6, unique=True)):
        value = draw(st.sampled_from(candidates(section, key)))
        if value is None:
            if cfg.has_section(section):
                cfg.remove_option(section, key)
            continue
        if not cfg.has_section(section):
            cfg.add_section(section)
        cfg.set(section, key, value)
    out = io.StringIO()
    cfg.write(out)
    return out.getvalue()


@st.composite
def schema_overrides(draw) -> str:
    section, key = draw(st.sampled_from(KEYS))
    return f"{section}.{key}={draw(st.sampled_from(candidates(section, key)[1:]))}"


OVERRIDES = st.lists(st.one_of(schema_overrides(), st.text("ab.=% -[]:;#1\n", max_size=12)),
                     max_size=2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=configs(), overrides=OVERRIDES)
# found by the fuzz: a '%' that configparser read as an interpolation, and a
# line break in a section name that split the error line in two
@example(text=BASE_CONFIG.replace("seed = 7", "seed = %(x)s"), overrides=["space.depth=%"])
@example(text=BASE_CONFIG, overrides=["1\n1.1="])
def test_drawn_config_runs_or_is_rejected_in_one_line(text, overrides):
    runs_or_is_rejected_in_one_line("space-info", text, overrides)


@pytest.mark.parametrize("n_heights", ["0", "1", str(cli._SCHEMA["poisson", "n_heights"][2][1])])
@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
@pytest.mark.parametrize("subcommand", ["poisson", "exchange", "converge"])
def test_height_grid_ends_run(subcommand, kind, n_heights):
    # every kind at its default delta, and n_heights inside its range, so
    # the config is valid and the run must finish
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string(BASE_CONFIG)
    cfg.set("space", "kind", kind)
    cfg.remove_option("space", "delta")
    cfg.add_section("poisson")
    cfg.set("poisson", "n_heights", n_heights)
    out = io.StringIO()
    cfg.write(out)
    assert runs_or_is_rejected_in_one_line(subcommand, out.getvalue(), []) == 0


def runs_or_is_rejected_in_one_line(subcommand: str, text: str, overrides) -> int:
    """The exit code of ``subcommand`` on the config ``text``, after checking
    that it is 0, or 2 with one ``error kind=config`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.ini"
        config.write_text(text)
        args = [subcommand, "--config", str(config), "--out", str(Path(tmp) / "out"),
                "--no-charts", *(f"--tol-override={item}" for item in overrides)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(args)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error kind=config")
        assert err.getvalue().count("\n") == 1
    return code
