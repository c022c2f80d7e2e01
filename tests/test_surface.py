"""Every public function and method of potlab is reached from the package
itself, and every dataclass field is read by it; the exceptions are named:
oracles that tests check the fast paths against, and certificates that
tests check the solves against.

The scan is static and by name.  A function or method counts as reached
when some module of ``src/potlab`` other than ``__init__.py`` names it
outside its own ``def``.  A field counts as read when some module loads it
as an attribute, other than to append to it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "potlab"

# exact quadratic or closed-form references of the fast paths, the reader of
# the space.txt a run writes, and the metric itself, pairwise and all-pairs;
# no run calls them
ORACLES = ("convolve_naive", "capacity_p2_exact", "singleton_capacity",
           "uniform_ball_capacity", "load_space", "distance", "distance_matrix")

# fields no run reads that the tests check: the two sides of each capacity
# solve and of each matching radius, and what the converge verdicts rest on
CERTIFICATES = ("CapacitySolution.density", "CapacitySolution.measure",
                "CapacitySolution.dual_value", "EnlargementRadius.matching",
                "SplitResult.ok", "SplitResult.bad_leaves",
                "ThinSetReport.t_values", "ThinSetReport.capacities")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


class _Scan(ast.NodeVisitor):
    """Public functions and methods, dataclass fields, the names used outside
    their own def, and the attributes loaded other than to append to them."""

    def __init__(self):
        self.functions, self.methods, self.fields = {}, {}, {}
        self.used, self.loaded = set(), set()
        self._defs = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    def visit_ClassDef(self, node):
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                self.methods[item.name] = node.name
            if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                self.fields[f"{node.name}.{item.target.id}"] = item.target.id
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id not in self._defs:
            self.used.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._defs:
            self.used.add(node.attr)
        if isinstance(node.ctx, ast.Load):
            self.loaded.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        # x.field.append(...) writes to the field; it does not read it
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "append"
                and isinstance(func.value, ast.Attribute)):
            self.visit(func.value.value)
            for arg in (*node.args, *node.keywords):
                self.visit(arg)
            return
        self.generic_visit(node)


def _scan() -> _Scan:
    scan = _Scan()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                scan.functions[top.name] = path.name
        scan.visit(tree)
    return scan


def test_every_public_function_is_reached_or_an_oracle():
    scan = _scan()
    unreached = sorted(f"{module}:{name}" for name, module in scan.functions.items()
                       if name not in scan.used and name not in ORACLES)
    assert not unreached, f"public functions no module calls: {unreached}"


def test_every_public_method_is_reached_or_an_oracle():
    scan = _scan()
    unreached = sorted(f"{cls}.{name}" for name, cls in scan.methods.items()
                       if name not in scan.used and name not in ORACLES)
    assert not unreached, f"public methods no module calls: {unreached}"


def test_every_dataclass_field_is_read_or_a_certificate():
    scan = _scan()
    unread = sorted(qualified for qualified, name in scan.fields.items()
                    if name not in scan.loaded and qualified not in CERTIFICATES)
    assert not unread, f"dataclass fields no module reads: {unread}"


def test_oracles_are_defined_and_unreached():
    # a stale entry would exempt nothing; a reached one needs no exemption
    scan = _scan()
    defined = {**scan.functions, **scan.methods}
    assert all(name in defined for name in ORACLES)
    assert not [name for name in ORACLES if name in scan.used]


def test_certificates_are_fields():
    # field names are shared across classes (``capacities`` is also a ball
    # profile's), so a certificate may be read by name; it must still exist
    assert all(entry in _scan().fields for entry in CERTIFICATES)
