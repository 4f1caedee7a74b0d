"""Structural guards: only ``schedule`` knows the coupling variants, it has
one outer quadrature rule, the Monte Carlo engine makes no BLAS call and
builds no O(N^2) pair-index table, the Pekar kernel is assembled only
through its unit-grid cache, and the modules import each other one way.

Every per-variant fact is a method of the variant's class, so no other
module branches on the variant with ``isinstance``, and ``bounds`` and
``kernels`` do not name a variant at all.  Every package import sits at
module level, and those imports form an acyclic graph.
"""

import ast
from pathlib import Path

import fkbound

VARIANTS = {"Constant", "ExpDecay", "Indicator", "PowerLaw", "Tabulated"}
COUPLING_CLASSES = VARIANTS | {"CouplingFunction", "_Coupling"}
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
                      for func, name in _coupling_isinstance(path.read_text())]
    assert offenders == []


def test_bounds_and_kernels_name_no_coupling_variant():
    for module in ("bounds.py", "kernels.py"):
        tree = ast.parse((SRC / module).read_text())
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert named & VARIANTS == set(), module


def test_schedule_has_one_outer_quadrature():
    # every variant's iterated norm is the panel rule of _Coupling; no adaptive quadrature
    tree = ast.parse((SRC / "schedule.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}"} | {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not any(name.startswith("scipy.integrate") for name in imported)
    owners = [cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "iterated_norm"]
    assert owners == ["_Coupling"]


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _blas_uses(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in BLAS_CALLS:
            found.append(node.id)
    return found


def test_guard_sees_blas_calls():
    source = "from numpy import inner\ng = x @ x.T\ng @= y\nv = np.dot(w, v) + a.vdot(b) + inner(a, b)\n"
    assert sorted(_blas_uses(source)) == ["@", "@", "dot", "inner", "vdot"]


def test_mc_makes_no_blas_call():
    # a BLAS call splits long sums over the BLAS threads, so its result would
    # depend on the host's thread count
    assert _blas_uses((SRC / "mc.py").read_text()) == []


INDEX_TABLES = {"tril_indices", "triu_indices", "take"}


def _index_table_calls(source: str) -> list:
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    names = [getattr(func, "attr", getattr(func, "id", None)) for func in calls]
    return [name for name in names if name in INDEX_TABLES]


def test_guard_sees_index_tables():
    source = "i, j = np.tril_indices(n, -1)\nd = x.take(i) - take(x, j)\n"
    assert sorted(_index_table_calls(source)) == ["take", "take", "tril_indices"]


def test_mc_builds_no_pair_index_tables():
    # gathering every node pair through index tables of N^2 / 2 entries made
    # the pair kernel cache-bound; it runs on row blocks and a Toeplitz view
    assert _index_table_calls((SRC / "mc.py").read_text()) == []


def _callers(source: str, callee: str) -> list:
    """Enclosing function (None at module level) of each call to ``callee``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name == callee:
                    found.append(func)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_kernel_assembly_calls():
    source = ("W = _assemble_kernel(r, h, t, d)\n"
              "def solve(p):\n"
              "    def inner():\n"
              "        return pekar._assemble_kernel(r, h, t, d)\n"
              "    return _assemble_kernel(r, h, t, d)\n")
    assert _callers(source, "_assemble_kernel") == [None, "inner", "solve"]


def test_only_the_unit_grid_cache_assembles_the_pekar_kernel():
    # the kernel does not depend on the coupling or r_max: a solve that
    # assembled its own would repeat the work every solve of a sweep shares
    callers = [(path.name, func) for path in sorted(SRC.glob("*.py"))
               for func in _callers(path.read_text(), "_assemble_kernel")]
    assert callers == [("pekar.py", "_unit_kernel")]


def _package_imports(source: str) -> list:
    """(enclosing function or None, imported module) of each package import;
    ``from . import a, b`` imports the modules a and b."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and (child.level
                                                      or child.module.startswith("fkbound")):
                base = (child.module or "").removeprefix("fkbound").lstrip(".")
                found.extend((func, base or alias.name) for alias in child.names)
            elif isinstance(child, ast.Import):
                found.extend((func, alias.name.removeprefix("fkbound.")) for alias in child.names
                             if alias.name.startswith("fkbound."))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_package_imports():
    source = ("import numpy as np\n"
              "from . import bounds as B, mc\n"
              "from .schedule import norm\n"
              "def f():\n"
              "    from . import kernels\n"
              "    import fkbound.pekar\n")
    assert _package_imports(source) == [(None, "bounds"), (None, "mc"), (None, "schedule"),
                                        ("f", "kernels"), ("f", "pekar")]


def test_no_package_import_inside_a_function():
    # a function-level import hides a dependency that points back up the stack
    inside = [(path.name, func, module) for path in sorted(SRC.glob("*.py"))
              for func, module in _package_imports(path.read_text()) if func is not None]
    assert inside == []


def _cycle(graph: dict) -> list:
    """One cycle of a {module: imported modules} graph as a closed path, or []."""
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (found := visit(nxt, path + [nxt])):
                return found
        state[node] = "done"
        return []

    for start in sorted(graph):
        if start not in state and (found := visit(start, [start])):
            return found
    return []


def test_guard_sees_import_cycles():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def test_module_import_graph_is_acyclic():
    graph = {path.stem: {module for func, module in _package_imports(path.read_text())
                         if func is None}
             for path in SRC.glob("*.py") if path.stem != "__init__"}
    assert _cycle(graph) == []
