"""Command line surface.

Subcommands: bound, simulate, model, oscillator, pekar, kernels, sweep.
Every run emits a machine-readable record carrying all inputs needed to
reproduce it bit-exactly; a simulate report can be fed back via --spec.

Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 failed verification assertion.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

from . import bounds as B
from . import kernels, mc, models, oscillator, pekar
from .errors import (
    DomainError,
    FkboundError,
    NoLinearSlope,
    NonIntegrable,
    NumericalFailure,
    VerificationError,
)
from .schedule import Constant, ExpDecay, Tabulated, coupling_from_dict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

_MODEL_PARAM_FLAGS = ("alpha", "gamma", "tau", "theta", "dim")


def _load_coupling(text: str):
    """Coupling from an inline JSON object or a path to JSON/CSV."""
    text = text.strip()
    if text.startswith("{"):
        return coupling_from_dict(json.loads(text))
    if text.endswith(".csv"):
        grid, values = [], []
        with open(text, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), 1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    grid.append(float(row[0]))
                    values.append(float(row[1]))
                except (IndexError, ValueError):
                    raise DomainError(
                        f"{text} row {line}: expected 't,value', got {row!r}") from None
        return Tabulated(tuple(grid), tuple(values))
    with open(text) as fh:
        return coupling_from_dict(json.load(fh))


def _finite(val, path: str, non_finite: dict):
    """val with each non-finite float replaced by None and listed by its dotted path."""
    if isinstance(val, float) and not math.isfinite(val):
        non_finite[path] = json.dumps(val)
        return None
    if isinstance(val, dict):
        return {k: _finite(v, f"{path}.{k}" if path else str(k), non_finite) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_finite(v, f"{path}.{i}", non_finite) for i, v in enumerate(val)]
    return val


def _emit(record: dict, fmt: str, out: str, csv_rows=None) -> None:
    if fmt == "json":
        non_finite = {}
        record = _finite(record, "", non_finite)
        if non_finite:
            record["non_finite"] = non_finite
        text = json.dumps(record, indent=2, default=str, allow_nan=False)
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else [_flatten(record)]
        buf = io.StringIO()
        # rows of mixed checks carry different keys: every key, in first-seen order
        writer = csv.DictWriter(buf, restval="",
                                fieldnames=list(dict.fromkeys(k for row in rows for k in row)))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    else:  # pretty
        text = _pretty(record)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, val in record.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            flat.update(_flatten(val, f"{name}_"))
        elif isinstance(val, (list, tuple)):
            flat[name] = json.dumps(val, default=str)
        else:
            flat[name] = val
    return flat


def _pretty(record: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, val in record.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_pretty(val, indent + 1))
        elif isinstance(val, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in val:
                if isinstance(item, dict):
                    lines.append(_pretty(item, indent + 1))
                    lines.append("")
                else:
                    lines.append(f"{pad}  {item}")
            while lines and lines[-1] == "":
                lines.pop()
        elif isinstance(val, float):
            lines.append(f"{pad}{key}: {val:.10g}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(lines)


def _model_params(args) -> dict:
    return {flag: getattr(args, flag) for flag in _MODEL_PARAM_FLAGS
            if getattr(args, flag, None) is not None}


def _build_model(name: str, params: dict) -> models.ModelSpec:
    # the flag --dim is build()'s d; a sweep over d sets d itself
    return models.build(name, **{("d" if k == "dim" else k): v for k, v in params.items()})


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> int:
    f = _load_coupling(args.coupling)
    params = B.BoundParams(args.theta, args.dim, args.T)
    report = B.theorem_bound(args.theorem, f, params)
    record = {
        "command": "bound",
        "inputs": {
            "theorem": args.theorem,
            "theta": args.theta,
            "dim": args.dim,
            "T": args.T,
            "coupling": f.to_dict(),
        },
        "log_bound": report.log_bound,
        "branch": report.branch,
        "terms": [t.as_dict() for t in report.terms],
    }
    row = {
        "theorem": args.theorem, "theta": args.theta, "d": args.dim, "T": args.T,
        "branch": report.branch, "log_bound": report.log_bound,
    }
    for i, t in enumerate(report.terms, 1):
        row[f"term{i}_label"] = t.label
        row[f"term{i}_coefficient"] = t.coefficient
        row[f"term{i}_norm"] = t.norm_value
        row[f"term{i}_exponent"] = t.exponent
        row[f"term{i}_contribution"] = t.contribution
    _emit(record, args.format, args.out, csv_rows=[row])
    return EXIT_OK


def _simulate_inputs_from_args(args) -> dict:
    if args.spec:
        with open(args.spec) as fh:
            payload = json.load(fh)
        inputs = payload.get("inputs", payload) if isinstance(payload, dict) else payload
        if not isinstance(inputs, dict):
            raise DomainError("a simulate spec is a JSON object, and so are its inputs")
    else:
        if not args.model:
            raise DomainError("simulate needs --model or --spec")
        inputs = {
            "model": args.model,
            "params": _model_params(args),
            "T": args.T,
            "paths": args.paths,
            "steps": args.steps,
            "seed": args.seed,
            "offset": args.offset,
            "epsilon": args.epsilon,
        }
    for key in ("model", "T", "paths", "steps", "seed"):
        if inputs.get(key) is None:
            raise DomainError(f"simulate input {key!r} missing")
    inputs.setdefault("params", {})
    inputs.setdefault("offset", 0.0)
    inputs.setdefault("epsilon", 0.0)
    # paths, steps and seed are left to PathEnsemble, which takes integers only
    if not isinstance(inputs["model"], str):
        raise DomainError(f"simulate input 'model' must be a name, got {inputs['model']!r}")
    params = inputs["params"]
    if not (isinstance(params, dict) and set(params) <= {*_MODEL_PARAM_FLAGS, "d"}
            and all(map(_is_number, params.values()))):
        raise DomainError(f"simulate input 'params' must map {', '.join(_MODEL_PARAM_FLAGS)} "
                          f"to finite numbers, got {params!r}")
    for key in ("T", "offset", "epsilon"):
        if not _is_number(inputs[key]):
            raise DomainError(f"simulate input {key!r} must be a finite number, got {inputs[key]!r}")
    return inputs


def _is_number(value) -> bool:
    """A finite JSON number: not a boolean, nor an integer past every float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _cmd_simulate(args) -> int:
    inputs = _simulate_inputs_from_args(args)
    model = _build_model(inputs["model"], inputs["params"])
    spec = model.action_spec(inputs["T"], offset=inputs["offset"],
                             epsilon=inputs["epsilon"])
    est = mc.estimate(spec, inputs["paths"], inputs["steps"], inputs["seed"])
    comp = models.composed_bound(model, inputs["T"])
    record = {
        "command": "simulate",
        "inputs": inputs,
        "estimate": est.as_dict(),
        "bound": {
            "log_bound": comp["log_bound"],
            "components": [
                {"power": c["power"], **c["report"].as_dict()}
                for c in comp["components"]
            ],
        },
        "mc_below_bound": bool(est.log_mean <= comp["log_bound"] + 3 * est.stderr_log),
    }
    row = {
        "model": inputs["model"], "T": inputs["T"], "paths": inputs["paths"],
        "steps": inputs["steps"], "seed": inputs["seed"],
        "offset": inputs["offset"], "epsilon": inputs["epsilon"],
        **est.as_dict(), "log_bound": comp["log_bound"],
    }
    _emit(record, args.format, args.out, csv_rows=[row])
    return EXIT_OK


def _cmd_model(args) -> int:
    model = _build_model(args.name, _model_params(args))
    if args.action == "show":
        record = {"command": "model", "spec": model.as_dict()}
        try:
            eb = B.energy_lower_bound(model)
            record["energy_lower_bound"] = eb.energy
            record["bound_slope"] = eb.slope
        except NoLinearSlope as exc:
            record["energy_lower_bound"] = f"none: {exc}"
        _emit(record, args.format, args.out)
        return EXIT_OK
    report = models.verify(model, T=args.T, paths=args.paths, steps=args.steps,
                           seed=args.seed)
    record = {"command": "model verify", **report.as_dict()}
    _emit(record, args.format, args.out)
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def _cmd_oscillator(args) -> int:
    cfg = oscillator.OscillatorConfig(args.omega, args.T, grid=args.grid)
    expectation = oscillator.log_expectation(cfg)
    sol = expectation.riccati
    tanh_err = float(abs(sol.values - sol.closed_form(args.omega, args.T)).max())
    record = {
        "command": "oscillator",
        "inputs": {"omega": args.omega, "T": args.T, "grid": args.grid},
        "log_expectation": expectation.as_dict(),
        "riccati": {"integral_equation_residual": sol.residual,
                    "tanh_max_error": tanh_err},
        "ground_state_energy": args.omega / 2.0,
    }
    within = True
    if args.mc:
        rep = oscillator.mc_crosscheck(cfg, args.paths, args.steps, args.seed)
        record["mc"] = rep.as_dict()
        record["mc_within_tolerance"] = within = rep.within_tolerance
    _emit(record, args.format, args.out)
    return EXIT_OK if within else EXIT_VERIFICATION


def _cmd_pekar(args) -> int:
    r_max, nodes = None, 320
    if args.grid:
        r_text, n_text = args.grid.split(",")
        r_max, nodes = float(r_text), int(n_text)
    problem = pekar.PekarProblem(theta=args.theta, coupling=args.coupling,
                                 d=args.dim, r_max=r_max, nodes=nodes)
    sol = pekar.solve(problem)
    record = {
        "command": "pekar",
        "inputs": {"theta": args.theta, "coupling": args.coupling, "dim": args.dim,
                   "r_max": r_max, "nodes": nodes},
        "solution": sol.as_dict(),
    }
    if args.scaling:
        doubled = pekar.solve(dataclasses.replace(problem, coupling=2.0 * args.coupling))
        target = 2.0 ** (2.0 / (2.0 - args.theta))
        ratio = doubled.energy / sol.energy if sol.energy else math.nan
        record["scaling"] = {
            "ratio_energy_2g_over_g": ratio,
            "target": target,
            "relative_error": abs(ratio - target) / target if sol.energy else math.nan,
        }
    _emit(record, args.format, args.out)
    return EXIT_OK


def _cmd_kernels(args) -> int:
    checks = []
    which = args.check
    if which in ("subordination", "all"):
        for theta in (0.5, 1.0, 1.5):
            for d in (2, 3, 5):
                if theta >= d:
                    continue
                for r in (0.1, 1.0, 10.0):
                    res = kernels.subordination_check(theta, r, d)
                    checks.append({"check": "subordination", "theta": theta, "d": d,
                                   "r": r, "residual": res,
                                   "passed": bool(res <= 1e-8)})
    if which in ("convolution", "all"):
        for theta, d, r, h in (
            (1.0, 3, 1.0, kernels.One()),
            (0.5, 3, 2.0, kernels.IndicatorWeight(1.0)),
            (1.5, 4, 0.5, kernels.ExpWeight(2.0)),
            (1.9, 3, 1.0, kernels.IndicatorWeight(10.0)),
        ):
            cc = kernels.convolution_coefficient(theta, r, h, d)
            checks.append({"check": "convolution", "theta": theta, "d": d, "r": r,
                           "weight": type(h).__name__, "value": cc.value,
                           "bound": cc.bound, "passed": bool(abs(cc.value) <= cc.bound)})
    if which in ("expectation", "all"):
        params = B.BoundParams(1.0, 3, 1.0)
        single = kernels.expected_action("single", Constant(1.0), params)
        expected = kernels.expectation_constant(1.0, 3) * 2.0
        checks.append({"check": "expectation_single", "value": single.value,
                       "target": expected,
                       "passed": bool(abs(single.value - expected) <= 1e-10)})
        pol = kernels.expected_action("self_double", ExpDecay(1.0 / math.sqrt(2.0), 1.0),
                                      B.BoundParams(1.0, 3, 60.0))
        checks.append({"check": "expectation_self_double_slope", "value": pol.value / 60.0,
                       "target": 1.0,
                       "passed": bool(abs(pol.value / 60.0 - 1.0) <= 0.05)})
    ok = all(c["passed"] for c in checks)
    record = {"command": "kernels", "checks": checks, "all_passed": ok}
    _emit(record, args.format, args.out, csv_rows=[_flatten(c) for c in checks])
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_sweep(args) -> int:
    grid = [g for g in (s.strip() for s in args.grid.split(",")) if g]
    if not grid:
        raise DomainError("sweep grid is empty")
    values = [float(g) for g in grid]
    rows = []
    for val in values:
        params = {**_model_params(args), **({} if args.param == "T" else {args.param: val})}
        model = _build_model(args.name, params)
        T = val if args.param == "T" else args.T
        comp = models.composed_bound(model, T)
        row = {"param": args.param, "value": val, "T": T,
               "log_bound": comp["log_bound"]}
        try:
            eb = B.energy_lower_bound(model)
            row["bound_slope"] = eb.slope
            row["energy_lower_bound"] = eb.energy
        except NoLinearSlope:
            row["bound_slope"] = math.nan
            row["energy_lower_bound"] = math.nan
        if model.name == "inverse_square":
            row["energy_log10_magnitude"] = (
                B.inverse_square_log_magnitude(model.params["alpha"], model.theta,
                                               model.d) / math.log(10.0)
            )
            row["critical_coupling"] = B.critical_coupling(model.d)
        if model.jensen_kind is not None:
            row["jensen"] = model.expected_action(T).value
        if args.mc:
            est = mc.estimate(model.action_spec(T), args.paths, args.steps, args.seed)
            row["log_mean"] = est.log_mean
            row["stderr_log"] = est.stderr_log
        rows.append(row)
    record = {"command": "sweep", "inputs": {"model": args.name, "param": args.param,
                                             "grid": values}, "rows": rows}
    keys = sorted({k for row in rows for k in row}, key=lambda k: (k != "param", k))
    _emit(record, args.format, args.out,
          csv_rows=[{k: row.get(k, "") for k in keys} for row in rows])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, default_format: str = "json") -> None:
    p.add_argument("--format", choices=("json", "csv", "pretty"), default=default_format)
    p.add_argument("--out", default="", help="write the report to a file instead of stdout")


def _add_model_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    # reads no environment, so one parser serves every call of main in a process
    parser = argparse.ArgumentParser(
        prog="fkbound",
        description="Bounds, Monte Carlo checks and reference solutions for "
                    "exponential Brownian functionals.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bound", help="evaluate a theorem bound for a coupling")
    p.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--coupling", required=True,
                   help='inline JSON like {"kind":"constant","level":1} or a JSON/CSV path')
    _add_common(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo estimate for a model action")
    p.add_argument("--model", default="", help=f"one of {models.MODEL_NAMES}")
    p.add_argument("--spec", default="", help="JSON report to reproduce bit-exactly")
    _add_model_params(p)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    _add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("model", help="inspect or verify a preconfigured model")
    p.add_argument("--name", required=True)
    _add_model_params(p)
    p.add_argument("--T", type=float, default=4.0)
    p.add_argument("action", choices=("show", "verify"))
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--seed", type=int, default=7)
    _add_common(p)
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser("oscillator", help="quadratic-action reference solution")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--steps", type=int, default=512)
    p.add_argument("--seed", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_oscillator)

    p = sub.add_parser("pekar", help="strong-coupling variational energy")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--coupling", type=float, required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--grid", default="", help="r_max,node_count")
    p.add_argument("--scaling", action="store_true",
                   help="also solve at doubled coupling and report the ratio")
    _add_common(p)
    p.set_defaults(fn=_cmd_pekar)

    p = sub.add_parser("kernels", help="run the heat-kernel residual suites")
    p.add_argument("--check", choices=("subordination", "convolution", "expectation", "all"),
                   default="all")
    _add_common(p)
    p.set_defaults(fn=_cmd_kernels)

    p = sub.add_parser("sweep", help="one-parameter grid sweep, CSV by default")
    p.add_argument("--model", dest="name", required=True)
    p.add_argument("--param", required=True, choices=("theta", "alpha", "gamma", "tau", "T", "d"))
    p.add_argument("--grid", required=True, help="comma-separated values")
    _add_model_params(p)
    p.add_argument("--T", type=float, default=4.0)
    p.add_argument("--mc", action="store_true")
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, default_format="csv")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, NonIntegrable, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, NoLinearSlope) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except FkboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
