"""Structural guards: only ``schedule`` knows the coupling variants.

Every per-variant fact is a method of the variant's class, so no other
module branches on the variant with ``isinstance``, and ``bounds`` and
``kernels`` do not name a variant at all.  The one exemption is the
positive-definiteness test of ``pekar.lower_bound_sandwich``.
"""

import ast
from pathlib import Path

import fkbound

VARIANTS = {"Constant", "ExpDecay", "Indicator", "PowerLaw", "Tabulated"}
COUPLING_CLASSES = VARIANTS | {"CouplingFunction", "_Coupling"}
EXEMPT = {("pekar.py", "lower_bound_sandwich", "ExpDecay")}
SRC = Path(fkbound.__file__).parent


class _IsinstanceFinder(ast.NodeVisitor):
    """(enclosing function, class name) of each isinstance test on a coupling class."""

    def __init__(self):
        self.func = None
        self.found = []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            for sub in ast.walk(node.args[1]):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in COUPLING_CLASSES:
                    self.found.append((self.func, name))
        self.generic_visit(node)


def _coupling_isinstance(source: str) -> list:
    finder = _IsinstanceFinder()
    finder.visit(ast.parse(source))
    return finder.found


def test_guard_sees_coupling_isinstance():
    source = ("def f(g):\n"
              "    if isinstance(g, (schedule.Constant, float)):\n"
              "        return isinstance(g, Tabulated)\n")
    assert _coupling_isinstance(source) == [("f", "Constant"), ("f", "Tabulated")]


def test_only_schedule_branches_on_the_coupling_variant():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "schedule.py":
            continue
        offenders += [(path.name, func, name)
                      for func, name in _coupling_isinstance(path.read_text())
                      if (path.name, func, name) not in EXEMPT]
    assert offenders == []


def test_bounds_and_kernels_name_no_coupling_variant():
    for module in ("bounds.py", "kernels.py"):
        tree = ast.parse((SRC / module).read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert named & VARIANTS == set(), module
