"""Argv fuzzing of the closed-form subcommands.

Every input ends in a finite strict-JSON record (exit 0) or one of the
documented exit codes 2, 3 and 4; none escapes ``cli.main`` as an
exception, which the ``fkbound`` script would print as a traceback.
Numeric flags draw the edges: nan, +-inf, +-0, negatives and 1e+-300.
``simulate``, ``model verify`` and ``pekar`` are left out: their Monte
Carlo and descent budgets are too slow to fuzz.
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


@st.composite
def couplings(draw):
    kind = draw(st.sampled_from(["constant", "exp_decay", "indicator", "power_law", "tabulated"]))
    if kind == "tabulated":
        cells = draw(st.integers(0, 5))
        steps = draw(st.lists(numbers(1e-3, 3.0), min_size=cells, max_size=cells))
        grid = [0.0] + [sum(steps[:k + 1]) for k in range(cells)]
        values = draw(st.lists(LEVELS, min_size=len(grid), max_size=len(grid)))
        spec = {"grid": grid, "values": values}
    else:
        names = {"constant": ["level"], "exp_decay": ["amplitude", "rate"],
                 "indicator": ["height", "cutoff"], "power_law": ["amplitude", "exponent"]}[kind]
        spec = {name: draw(LEVELS if name != "exponent" else numbers(-1.5, 2.0)) for name in names}
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


@settings(FUZZ, max_examples=4)
@given(check=st.sampled_from(["subordination", "convolution", "expectation", "all", "none"]))
def test_kernels_argv(check, capsys):
    _run(["kernels", f"--check={check}"], capsys)
