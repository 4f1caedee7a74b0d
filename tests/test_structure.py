"""Structural guards: only ``schedule`` knows the coupling variants, it has
one outer quadrature rule, which ``bounds`` and ``kernels`` reach only
through ``iterated_norm`` imported by name, ``bounds`` calls its norms in one
step, the Monte Carlo engine makes no BLAS call and builds no O(N^2)
pair-index table, its single and quadratic samplers draw no midpoint noise,
its single sampler calls no ``cumsum`` or ``einsum``, only ``mc`` counts
cores and starts worker threads, no module reads ``FKBOUND_THREADS``, the
Pekar kernel is assembled only through its unit-grid cache, a table's norms
look up one cell per panel row, no module calls a ladder fit, the modules
import each other one way, no public function only forwards its arguments to
another, every name a module exports exists, and only the conditioned-
derivative trio is exported for tests alone.

Every per-variant fact is a method of the variant's class and every
heat-kernel weight is read as one profile, so no module tests
``isinstance`` against a class the package defines, and ``bounds`` and
``kernels`` do not name a variant at all.  Every package import sits at
module level, and those imports form an acyclic graph.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import fkbound
from fkbound import bounds, mc
from fkbound.schedule import Constant, Tabulated, _panel_rule, envelope

VARIANTS = {"Constant", "ExpDecay", "Indicator", "PowerLaw", "Tabulated"}
SRC = Path(fkbound.__file__).parent
ROOT = Path(__file__).parents[1]


def _package_classes() -> set:
    """Names of the classes the package defines, and of its type unions."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                  and getattr(node.value.value, "id", None) == "Union"):
                names |= {target.id for target in node.targets}
    return names


PACKAGE_CLASSES = _package_classes()


class _IsinstanceFinder(ast.NodeVisitor):
    """(enclosing function, class name) of each isinstance test on a package class."""

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
                if name in PACKAGE_CLASSES:
                    self.found.append((self.func, name))
        self.generic_visit(node)


def _package_isinstance(source: str) -> list:
    finder = _IsinstanceFinder()
    finder.visit(ast.parse(source))
    return finder.found


def test_guard_sees_coupling_isinstance():
    source = ("def f(g):\n"
              "    if isinstance(g, (schedule.Constant, float)):\n"
              "        return isinstance(g, Tabulated)\n")
    assert _package_isinstance(source) == [("f", "Constant"), ("f", "Tabulated")]


def test_guard_sees_weight_isinstance():
    source = ("def g(h):\n"
              "    if isinstance(h, (kernels.ExpWeight, dict)):\n"
              "        return isinstance(h, One) or isinstance(h, CouplingFunction)\n")
    assert _package_isinstance(source) == [("g", "ExpWeight"), ("g", "One"),
                                           ("g", "CouplingFunction")]


def test_no_module_branches_on_a_package_class():
    # every per-variant fact is a method of the variant, and every heat-kernel
    # weight is one (amplitude, rate, length) profile read by value
    offenders = [(path.name, func, name) for path in sorted(SRC.glob("*.py"))
                 for func, name in _package_isinstance(path.read_text())]
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


QUADRATURE = {"iterated_norm", "_panel_rule"}


def _quadrature_reach(source: str) -> tuple:
    """(bare calls of ``iterated_norm``, every other way ``source`` reaches
    schedule's outer quadrature): an attribute ``.iterated_norm`` (a method of a
    coupling, or the module function through ``schedule.``), ``_panel_rule``, or
    an ``iterated_norm`` imported from elsewhere or under another name."""
    calls, other = 0, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "iterated_norm":
            calls += 1
        elif isinstance(node, ast.Attribute) and node.attr in QUADRATURE:
            other.append(f".{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "_panel_rule":
            other.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            from_schedule = (node.module or "").rpartition(".")[2] == "schedule"
            other += [f"import {alias.name}" + (f" as {alias.asname}" if alias.asname else "")
                      for alias in node.names if alias.name in QUADRATURE
                      and not (from_schedule and alias.name == "iterated_norm" and not alias.asname)]
    return calls, other


def test_guard_sees_other_ways_to_the_outer_quadrature():
    source = ("from .schedule import iterated_norm, _panel_rule\n"
              "from .schedule import iterated_norm as inorm\n"
              "from .kernels import iterated_norm\n"
              "a = iterated_norm(f, T, 1.0, 0.0, 2.0) + schedule.iterated_norm(f, T)\n"
              "b = f.iterated_norm(T, [(1.0, 0.0, 1.0)]) + sum(_panel_rule(c, g)[1])\n")
    assert _quadrature_reach(source) == (1, [
        "import _panel_rule", "import iterated_norm as inorm", "import iterated_norm",
        ".iterated_norm", ".iterated_norm", "_panel_rule"])


def test_bounds_and_kernels_reach_the_outer_quadrature_only_through_iterated_norm():
    # perfbench's tracer wraps schedule.iterated_norm where it is bound by name:
    # a bound that took its iterated norms another way would read 0 calls and 0 s there
    for module in ("bounds.py", "kernels.py"):
        calls, other = _quadrature_reach((SRC / module).read_text())
        assert calls >= 1 and other == [], module


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


def _calls_named(source: str, names: set) -> list:
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return [name for name in (getattr(func, "attr", getattr(func, "id", None)) for func in calls)
            if name in names]


INDEX_TABLES = {"tril_indices", "triu_indices", "take"}


def _index_table_calls(source: str) -> list:
    return _calls_named(source, INDEX_TABLES)


def test_guard_sees_index_tables():
    source = "i, j = np.tril_indices(n, -1)\nd = x.take(i) - take(x, j)\n"
    assert sorted(_index_table_calls(source)) == ["take", "take", "tril_indices"]


def test_mc_builds_no_pair_index_tables():
    # gathering every node pair through index tables of N^2 / 2 entries made
    # the pair kernel cache-bound; it runs on row blocks and a Toeplitz view.
    # The one gather is the single action's: its coefficient table, by cell
    tree = ast.parse((SRC / "mc.py").read_text())
    single = [node for node in tree.body if getattr(node, "name", None) == "_SingleSampler"]
    tree.body = [node for node in tree.body if node not in single]
    assert _index_table_calls(ast.unparse(tree)) == []
    assert _index_table_calls(ast.unparse(single[0])) == ["take"]


GIL_HOLDERS = {"cumsum", "einsum"}


def test_guard_sees_cumsum_and_einsum():
    source = ("class _SingleSampler:\n"
              "    def f(self, z):\n"
              "        mu = np.cumsum(z, axis=1) + z.cumsum(axis=0)\n"
              "        return einsum('bij,bij->bi', mu, mu)\n")
    assert sorted(_calls_named(source, GIL_HOLDERS)) == ["cumsum", "cumsum", "einsum"]


def test_single_sampler_calls_no_cumsum_or_einsum():
    # both held the GIL for a whole d-vector batch, so the engine's workers queued
    # behind them; the radial chain reads the path through two draws a step
    tree = ast.parse((SRC / "mc.py").read_text())
    (single,) = [node for node in tree.body if getattr(node, "name", None) == "_SingleSampler"]
    assert _calls_named(ast.unparse(single), GIL_HOLDERS) == []


WORKER_NAMES = {"ThreadPoolExecutor", "sched_getaffinity", "cpu_count", "FKBOUND_THREADS"}


def _worker_names(source: str) -> list:
    """Each worker-pool or core-count name ``source`` uses or imports, and each FKBOUND_THREADS key."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.alias):
            found.append(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant):
            found.append(node.value)
    return [name for name in found if name in WORKER_NAMES]


def test_guard_sees_worker_names():
    source = ('"""FKBOUND_THREADS in prose is no read."""\n'
              "from concurrent.futures import ThreadPoolExecutor as Pool\n"
              "n = len(os.sched_getaffinity(0)) or cpu_count()\n"
              "env = os.environ.get('FKBOUND_THREADS', '')\n")
    assert sorted(_worker_names(source)) == ["FKBOUND_THREADS", "ThreadPoolExecutor",
                                             "cpu_count", "sched_getaffinity"]


def test_only_mc_counts_cores_and_no_module_reads_the_thread_variable():
    # mc reads the worker count off the CPU affinity mask and starts the pool; no
    # variable, flag or keyword sets it another way
    users = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _worker_names(path.read_text()):
            users.setdefault(name, set()).add(path.stem)
    assert users == {"ThreadPoolExecutor": {"mc"}, "sched_getaffinity": {"mc"},
                     "cpu_count": {"mc"}}


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


LADDERS = ("ladder_slope", "ladder_allowance")


def _ladder_callers(source: str) -> list:
    return [(ladder, func) for ladder in LADDERS for func in _callers(source, ladder)]


def test_guard_sees_ladder_calls():
    source = ("def energy_lower_bound(model):\n"
              "    return B.ladder_slope(2, model.f, model.theta, model.d)\n"
              "allowance = mc.ladder_allowance(spec, 100, 64, 3, 1.0)\n")
    assert _ladder_callers(source) == [("ladder_slope", "energy_lower_bound"),
                                       ("ladder_allowance", None)]


def test_no_module_reads_a_ladder_fit():
    # energies come from the closed-form slope alone; the T ladder settles on
    # finite quotients for superlinear bounds of tiny coupling, so the two
    # ladder fits remain cross-checks that nothing in the package calls
    callers = [(path.name, *found) for path in sorted(SRC.glob("*.py"))
               for found in _ladder_callers(path.read_text())]
    assert callers == []


def test_bounds_evaluates_every_norm_in_one_step():
    # _evaluate computes each distinct norm of a bound's branches once and the
    # term formulas read them: a theorem whose terms called norm themselves
    # would repeat, at theta = 1, the norms both branches take
    source = (SRC / "bounds.py").read_text()
    assert _callers(source, "norm") == ["_evaluate"]
    assert _callers(source, "iterated_norm") == ["_evaluate"]


def _table_lookup_load(monkeypatch) -> tuple:
    """(keys passed to ``np.searchsorted``, the allowance of panels + 1 per
    distinct inner norm) for one theorem-2 bound at theta 1 on a 1000-cell
    table, where it takes both branches."""
    rng = np.random.default_rng(1000)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 1000))])
    f = Tabulated(tuple(2.0 * grid / grid[-1]), tuple(rng.uniform(0.1, 1.0, 1001)))
    env = envelope(f, 2.0)
    panels = len(_panel_rule(env.breakpoints(2.0), [(env.support_start(), 2.0)])[0])
    inner = {(p, a) for branch in ("theta_geq_1", "theta_leq_1")
             for p, a, _ in bounds._norms("T2", 1.0, branch)}
    keys = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda a, v, **kw: keys.append(np.size(v)) or searchsorted(a, v, **kw))
    bounds.theorem_bound(2, f, bounds.BoundParams(1.0, 3, 2.0))
    return sum(keys), len(inner) * (panels + 1)


def test_guard_sees_an_elementwise_table_lookup(monkeypatch):
    def elementwise(self, s):
        return np.minimum(np.searchsorted(self._grid_array, s, side="right"), len(self._upper)) - 1

    monkeypatch.setattr(Tabulated, "_cell_index", elementwise)
    keys, allowed = _table_lookup_load(monkeypatch)
    assert keys > allowed


def test_table_norms_look_up_one_cell_per_panel_row(monkeypatch):
    # the panel rule cuts at every grid point, so each row of 16 nodes lies in
    # one cell: a search over every node cost 0.2 ms per inner norm at G = 1000
    keys, allowed = _table_lookup_load(monkeypatch)
    assert keys <= allowed


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


def _forwarding_functions(source: str) -> list:
    """Public module-level functions whose body, after its docstring, is one
    ``return`` of a call on nothing but their own parameters and constants."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
            continue
        params = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        call = body[0].value
        args = [arg.value if isinstance(arg, ast.Starred) else arg for arg in call.args]
        args += [keyword.value for keyword in call.keywords]
        if all(isinstance(arg, ast.Constant) or getattr(arg, "id", None) in params for arg in args):
            found.append(node.name)
    return found


def test_guard_sees_forwarding_functions():
    source = ("def one(f, params):\n"
              "    \"\"\"Doc.\"\"\"\n"
              "    return _evaluate('T1', f, params)\n"
              "def method(f):\n"
              "    return f.to_dict()\n"
              "def spread(f, *args, p=2, **kw):\n"
              "    return g(f, *args, weight=p, **kw)\n"
              "def _private(f):\n"
              "    return g(f)\n"
              "def computes(f, t):\n"
              "    return g(f, t + 1.0)\n"
              "def global_arg(f):\n"
              "    return g(f, T)\n"
              "def two_steps(f):\n"
              "    out = g(f)\n"
              "    return out\n"
              "class C:\n"
              "    def m(self):\n"
              "        return g(self)\n")
    assert _forwarding_functions(source) == ["one", "method", "spread"]


def test_no_public_function_only_forwards():
    # one name per operation: a function that only hands its arguments on is a
    # second name for the function it calls
    offenders = [(path.name, name) for path in sorted(SRC.glob("*.py"))
                 for name in _forwarding_functions(path.read_text())]
    assert offenders == []


def test_every_exported_name_exists():
    for path in sorted(SRC.glob("*.py")):
        module = fkbound if path.stem == "__init__" else importlib.import_module(f"fkbound.{path.stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], path.name


def _named(nodes) -> set:
    """Every identifier the nodes use: names, attributes and imported names."""
    found = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(getattr(target, "id", None) == name for target in targets)


def _test_only_exports(package: dict, callers: list) -> list:
    """Each ``__all__`` name, as "module.name", of the package sources {module: source}
    that no caller source names at all and no package source names outside the
    module-level definitions of the name and of the names found so far, scanned again
    until no name is added: a chain of names that only each other and tests reach is
    listed whole.  In ``__all__`` order."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    outside = _named(ast.parse(source) for source in callers)
    exported = [(module, elt.value) for module, tree in trees.items() for node in tree.body
                if _defines(node, "__all__") for elt in node.value.elts]

    def reached(module: str, name: str, gone: set) -> bool:
        """Whether a package source names ``name`` outside the definitions of it and of ``gone``."""
        gone = gone | {(module, name)}
        return name in _named(node for other, tree in trees.items() for node in tree.body
                              if not any(other == m and _defines(node, n) for m, n in gone))

    found = set()
    while more := {(m, n) for m, n in exported
                   if (m, n) not in found and n not in outside and not reached(m, n, found)}:
        found |= more
    return [f"{m}.{n}" for m, n in exported if (m, n) in found]


def test_guard_sees_test_only_exports():
    package = {"a": ('__all__ = ["used", "only_tested", "by_caller", "Cls", "LIMIT"]\n'
                     "LIMIT = 3\n"
                     "def used(): pass\n"
                     "def only_tested(n):\n"
                     "    return only_tested(n - 1) if n else LIMIT\n"
                     "def by_caller(): pass\n"
                     "class Cls:\n"
                     "    def copy(self):\n"
                     "        return Cls()\n"),
               "b": "from .a import used\n"}
    callers = ["from fkbound import a\na.by_caller()\n"]
    # LIMIT's one package caller is only_tested
    assert _test_only_exports(package, callers) == ["a.only_tested", "a.Cls", "a.LIMIT"]


def test_guard_lists_a_chain_of_test_only_exports_whole():
    # inner's one package caller is outer, which only tests reach: the first scan finds
    # outer, the second inner
    package = {"a": ('__all__ = ["inner", "outer", "used"]\n'
                     "def inner(): pass\n"
                     "def outer():\n"
                     "    return inner()\n"
                     "def used(): pass\n"),
               "b": "from .a import used\n"}
    assert _test_only_exports(package, []) == ["a.inner", "a.outer"]


def test_only_the_derivative_trio_is_exported_for_tests_alone():
    # every other public name has a caller in the package, its command line, scripts/ or
    # perfbench/; the three functions behind the pointwise bound on the conditioned
    # derivative wait for the check of the paper's representation on sampled paths,
    # and this list loses them when it lands
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [path.read_text() for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py")) if not path.name.startswith("test_")]
    assert callers
    assert _test_only_exports(package, callers) == [
        "kernels.clark_ocone_variance_bound", "kernels.conditioned_derivative_magnitude",
        "kernels.stochastic_derivative_bound"]


def test_single_and_quadratic_samplers_draw_only_the_increments():
    # each midpoint term is its expectation given the grid nodes: no bridge noise is drawn.
    # The single action draws the increments' radial components, one normal and one
    # chi-square value a step, whatever d and the offsets; the quadratic one draws them whole
    for d in (1, 3, 64):
        spec = mc.ActionSpec("single", Constant(0.5), 1.2, d, 1.0, epsilon=0.1)
        assert mc._SingleSampler(spec, 48, (0.0, 0.5)).draws == 2 * 48
    ensemble = mc.PathEnsemble(seed=1, paths=10, steps=48, horizon=1.0, dim=1)
    assert mc._QuadraticSampler(1.0, ensemble).draws == 48
