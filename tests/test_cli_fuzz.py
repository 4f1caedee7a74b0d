"""Argv fuzzing of the closed-form subcommands and of the small-budget
Monte Carlo ones.

Every input ends in a finite strict-JSON record (exit 0) or one of the
documented exit codes 2, 3 and 4; none escapes ``cli.main`` as an
exception, which the ``fkbound`` script would print as a traceback.
Numeric flags draw the edges: nan, +-inf, +-0, negatives and 1e+-300.
Coupling fields are now and then a JSON integer too large for any float.
``simulate``, ``model verify`` and ``oscillator --mc`` run at most 200
paths of 32 steps, around the budget floor of 100 paths and 16 steps.
``pekar`` runs on grids of at most 100 nodes, mostly 16 to 48, where a
descent that cannot reach its tolerance stops at its roundoff floor.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fkbound import cli

# extreme finite inputs make numpy warn on the way to an exit code; the
# exit code is what is checked here
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e300, 1e300, 1e-300, -1e-300]


def _mostly(valid, other):
    """valid nine times in ten, other the tenth."""
    return st.integers(0, 9).flatmap(lambda i: other if i == 9 else valid)


def numbers(lo, hi):
    """Mostly a value in [lo, hi], where the input is valid; else an edge or any float."""
    return _mostly(st.floats(lo, hi), st.one_of(st.sampled_from(EDGES), st.floats()))


INTEGERS = _mostly(st.integers(2, 6), st.integers(-10, 10**6))
THETAS = numbers(0.01, 1.99)
TIMES = numbers(0.01, 8.0)
LEVELS = numbers(0.0, 3.0)
# a coupling field: now and then a JSON integer of 309 to 401 digits, past any float
FIELDS = _mostly(LEVELS, st.integers(10 ** 308, 10 ** 400) | st.integers(-10 ** 400, -10 ** 308))


@st.composite
def couplings(draw):
    kind = draw(st.sampled_from(["constant", "exp_decay", "indicator", "power_law", "tabulated"]))
    if kind == "tabulated":
        cells = draw(st.integers(0, 5))
        steps = draw(st.lists(numbers(1e-3, 3.0), min_size=cells, max_size=cells))
        grid = [0.0] + [sum(steps[:k + 1]) for k in range(cells)]
        values = draw(st.lists(FIELDS, min_size=len(grid), max_size=len(grid)))
        spec = {"grid": grid, "values": values}
    else:
        names = {"constant": ["level"], "exp_decay": ["amplitude", "rate"],
                 "indicator": ["height", "cutoff"], "power_law": ["amplitude", "exponent"]}[kind]
        spec = {name: draw(FIELDS if name != "exponent" else numbers(-1.5, 2.0)) for name in names}
    return json.dumps({"kind": kind, **spec})


def _flag(name, value):
    # --x=value, so that a negative value is not taken for a flag
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def _run(argv, capsys):
    try:
        code = cli.main(argv + ["--format", "json"])
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code in (0, 4):
        _strict_json(out)
    else:
        assert out == "", (argv, out)


# capsys is read out after every example, so one fixture serves them all
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(theorem=_mostly(st.integers(1, 3), st.integers(-1, 5)), theta=THETAS, dim=INTEGERS,
       T=TIMES, coupling=couplings())
def test_bound_argv(theorem, theta, dim, T, coupling, capsys):
    _run(["bound", _flag("theorem", theorem), _flag("theta", theta), _flag("dim", dim),
          _flag("T", T), f"--coupling={coupling}"], capsys)


MODEL_FLAGS = {"alpha": LEVELS, "gamma": LEVELS, "tau": numbers(0.01, 3.0),
               "theta": numbers(1.0, 1.99), "dim": INTEGERS}
USED = {"hydrogen": {"alpha"}, "inverse_square": {"alpha", "theta", "dim"}, "polaron": {"alpha"},
        "bipolaron": {"alpha"}, "nelson_q": {"gamma", "tau", "theta"}}


@st.composite
def model_argv(draw):
    """--name and the model's flags, now and then one missing or one it does not use."""
    name = draw(st.sampled_from(sorted(USED)))
    used = set(USED[name])
    if draw(_mostly(st.just(False), st.just(True))):
        used ^= {draw(st.sampled_from(sorted(MODEL_FLAGS)))}
    return [f"--name={name}", *(_flag(k, draw(MODEL_FLAGS[k])) for k in sorted(used))]


@FUZZ
@given(model=model_argv())
def test_model_show_argv(model, capsys):
    _run(["model", *model, "show"], capsys)


@settings(FUZZ, max_examples=100)
@given(model=model_argv(), T=TIMES, grid=st.lists(numbers(0.0, 4.0), min_size=1, max_size=3),
       data=st.data())
def test_sweep_argv(model, T, grid, data, capsys):
    name = model[0].removeprefix("--name=")
    param = data.draw(st.sampled_from(sorted(USED[name] | {"T"})).map(
        lambda p: "d" if p == "dim" else p))
    _run(["sweep", f"--model={name}", f"--param={param}",
          f"--grid={','.join(repr(g) for g in grid)}", _flag("T", T), *model[1:]], capsys)


@settings(FUZZ, max_examples=60)
@given(omega=numbers(0.0, 4.0), T=TIMES, grid=st.integers(-4, 256))
def test_oscillator_argv(omega, T, grid, capsys):
    _run(["oscillator", _flag("omega", omega), _flag("T", T), _flag("grid", grid)], capsys)


@settings(FUZZ, max_examples=80)
@given(theta=THETAS, coupling=numbers(0.1, 3.0), dim=_mostly(st.integers(3, 5), st.integers(-10, 10)),
       r_max=_mostly(st.floats(0.0, 3.0).map(lambda e: 10.0 ** e),
                     st.one_of(st.sampled_from(EDGES), st.floats())),
       nodes=_mostly(st.integers(16, 48), st.integers(-4, 100)),
       scaling=st.booleans())
def test_pekar_argv(theta, coupling, dim, r_max, nodes, scaling, capsys):
    _run(["pekar", _flag("theta", theta), _flag("coupling", coupling), _flag("dim", dim),
          f"--grid={r_max!r},{nodes}", *(["--scaling"] if scaling else [])], capsys)


PATHS = _mostly(st.integers(100, 200), st.integers(-10, 200))
STEPS = _mostly(st.integers(16, 32), st.integers(-4, 32))
SEEDS = _mostly(st.integers(0, 2**64 - 1), st.integers(-10, 2**70))


@settings(FUZZ, max_examples=40)
@given(omega=numbers(0.0, 2.0), T=numbers(0.01, 2.0), paths=PATHS, steps=STEPS, seed=SEEDS)
def test_oscillator_mc_argv(omega, T, paths, steps, seed, capsys):
    _run(["oscillator", _flag("omega", omega), _flag("T", T), "--grid=128", "--mc",
          _flag("paths", paths), _flag("steps", steps), _flag("seed", seed)], capsys)


@settings(FUZZ, max_examples=60)
@given(model=model_argv(), T=numbers(0.01, 2.0), paths=PATHS, steps=STEPS, seed=SEEDS,
       offset=numbers(0.0, 2.0), epsilon=numbers(0.0, 0.5))
def test_simulate_argv(model, T, paths, steps, seed, offset, epsilon, capsys):
    name = model[0].removeprefix("--name=")
    _run(["simulate", f"--model={name}", *model[1:], _flag("T", T), _flag("paths", paths),
          _flag("steps", steps), _flag("seed", seed), _flag("offset", offset),
          _flag("epsilon", epsilon), "--threads=1"], capsys)


@settings(FUZZ, max_examples=4)
@given(check=st.sampled_from(["subordination", "convolution", "expectation", "all", "none"]))
def test_kernels_argv(check, capsys):
    _run(["kernels", f"--check={check}"], capsys)


@settings(FUZZ, max_examples=40)
@given(model=model_argv(), T=numbers(0.01, 2.0), paths=PATHS, steps=STEPS, seed=SEEDS)
def test_model_verify_argv(model, T, paths, steps, seed, capsys):
    _run(["model", *model, _flag("T", T), "verify", _flag("paths", paths),
          _flag("steps", steps), _flag("seed", seed), "--threads=1"], capsys)
