"""Every public module-level function of potlab is reached from the package
itself, or is a named oracle that tests check the fast paths against.

The scan is static: a function counts as reached when some module of
``src/potlab`` other than ``__init__.py`` names it outside its own ``def``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "potlab"

# exact quadratic or closed-form references of the fast paths, and the
# reader of the space.txt a run writes; no run calls them
ORACLES = ("convolve_naive", "capacity_p2_exact", "singleton_capacity", "load_space")


def _scan():
    """(public function -> module, names used outside their own def)."""
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                defined[top.name] = path.name
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != getattr(top, "name", None):
                    used.add(name)
    return defined, used


def test_every_public_function_is_reached_or_an_oracle():
    defined, used = _scan()
    unreached = sorted(f"{module}:{name}" for name, module in defined.items()
                       if name not in used and name not in ORACLES)
    assert not unreached, f"public functions no module calls: {unreached}"


def test_oracles_are_defined_and_unreached():
    # a stale entry would exempt nothing; a reached one needs no exemption
    defined, used = _scan()
    assert all(name in defined for name in ORACLES)
    assert not [name for name in ORACLES if name in used]
