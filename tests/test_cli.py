import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fkbound import cli, oscillator, pekar


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_json_hydrogen(capsys):
    code, out, _ = run_cli([
        "bound", "--theorem", "1", "--theta", "1", "--dim", "3", "--T", "1",
        "--coupling", '{"kind":"constant","level":1}',
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["log_bound"] == pytest.approx(2.0958, abs=5e-5)
    assert payload["branch"] == "theta_geq_1"
    assert len(payload["terms"]) == 2
    contrib = sum(t["contribution"] for t in payload["terms"])
    assert contrib == pytest.approx(payload["log_bound"], rel=1e-12)


def test_bound_csv_columns_stable(capsys):
    code, out, _ = run_cli([
        "bound", "--theorem", "3", "--theta", "1.5", "--dim", "3", "--T", "2",
        "--coupling", '{"kind":"exp_decay","amplitude":0.7071,"rate":1.0}',
        "--format", "csv",
    ], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    for col in ("theorem", "theta", "d", "T", "branch", "log_bound",
                "term1_contribution", "term2_contribution"):
        assert col in rows[0]


def test_bound_validation_exit_code(capsys):
    code, _, err = run_cli([
        "bound", "--theorem", "1", "--theta", "2.5", "--dim", "3", "--T", "1",
        "--coupling", '{"kind":"constant","level":1}',
    ], capsys)
    assert code == 2
    assert "error" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--nonsense", "1"])
    assert exc.value.code == 2


def test_oscillator_pretty(capsys):
    code, out, _ = run_cli(["oscillator", "--omega", "1", "--T", "2",
                            "--format", "pretty"], capsys)
    assert code == 0
    assert "-0.662501" in out
    assert "ground_state_energy: 0.5" in out


def test_oscillator_solves_the_riccati_problem_once(monkeypatch, capsys):
    calls = []
    solve = oscillator.solve_riccati
    monkeypatch.setattr(oscillator, "solve_riccati", lambda cfg: calls.append(cfg) or solve(cfg))
    code, out, _ = run_cli(["oscillator", "--omega", "1", "--T", "2", "--grid", "64"], capsys)
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["riccati"]["tanh_max_error"] < 1e-6


def test_oscillator_mc_verifies(capsys):
    code, out, _ = run_cli(["oscillator", "--omega", "1", "--T", "2", "--mc",
                            "--paths", "5000", "--steps", "128", "--seed", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mc_within_tolerance"]


@pytest.mark.parametrize("argv", [
    ["oscillator", "--omega", "1", "--T", "2", "--mc", "--paths", "3", "--steps", "4"],
    ["oscillator", "--omega", "1", "--T", "2", "--mc", "--paths", "200", "--steps", "8"],
    ["simulate", "--model", "hydrogen", "--alpha", "0.5", "--T", "1", "--paths", "1",
     "--steps", "32"],
])
def test_monte_carlo_below_the_budget_floor_exit_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "need at least" in err


def test_simulate_round_trip_bit_exact(tmp_path, capsys):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    base = ["simulate", "--model", "hydrogen", "--alpha", "0.5", "--T", "1",
            "--paths", "300", "--steps", "32", "--seed", "11"]
    code, _, _ = run_cli(base + ["--out", str(out1)], capsys)
    assert code == 0
    code, _, _ = run_cli(["simulate", "--spec", str(out1), "--out", str(out2)], capsys)
    assert code == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["estimate"] == r2["estimate"]
    assert r1["bound"]["log_bound"] == r2["bound"]["log_bound"]


def test_simulate_reports_bound_next_to_estimate(capsys):
    code, out, _ = run_cli(["simulate", "--model", "polaron", "--alpha", "0.3",
                            "--T", "1", "--paths", "200", "--steps", "32",
                            "--seed", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "log_mean" in payload["estimate"]
    assert payload["bound"]["log_bound"] > 0
    assert payload["mc_below_bound"] is True


def test_simulate_missing_model_exit_2(capsys):
    code, _, err = run_cli(["simulate", "--paths", "200", "--steps", "32",
                            "--seed", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("extra", [["--epsilon", "nan"], ["--offset", "inf"], ["--T", "inf"],
                                   ["--epsilon", "1e300"]])
def test_simulate_non_finite_input_exit_2(extra, capsys):
    code, out, err = run_cli(["simulate", "--model", "hydrogen", "--alpha", "0.5",
                              "--T", "1", "--paths", "100", "--steps", "16",
                              "--seed", "1", *extra], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


_OFFSET_MODELS = [["--model", "hydrogen", "--alpha", "0.5"], ["--model", "bipolaron", "--alpha", "0.3"]]


@pytest.mark.parametrize("model", _OFFSET_MODELS)
@pytest.mark.filterwarnings("error")
def test_simulate_offset_with_an_overflowing_square_exit_2(model, capsys):
    # 1e160 is finite, but the single and cross-pair samplers square it; the single
    # action then gathered at a NaN cell index, the bipolaron overflowed with exit 0
    code, out, err = run_cli(["simulate", *model, "--T", "1", "--paths", "100", "--steps", "16",
                              "--seed", "1", "--offset", "1e160"], capsys)
    assert code == 2
    assert out == ""
    assert "finite square" in err


@pytest.mark.parametrize("model", _OFFSET_MODELS)
@pytest.mark.filterwarnings("error")
def test_simulate_large_offset_with_a_finite_square_runs(model, capsys):
    code, out, _ = run_cli(["simulate", *model, "--T", "1", "--paths", "100", "--steps", "16",
                            "--seed", "1", "--offset", "1e150"], capsys)
    assert code == 0
    assert json.loads(out)["inputs"]["offset"] == 1e150


@pytest.mark.parametrize("extra", [["--omega", "inf", "--T", "2"], ["--omega", "1", "--T", "inf"],
                                   ["--omega", "1e200", "--T", "2"]])
def test_oscillator_non_finite_input_exit_2(extra, capsys):
    # omega = 1e200 is finite, but the Riccati solve squares it
    code, out, err = run_cli(["oscillator", *extra], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_model_show_energy(capsys):
    code, out, _ = run_cli(["model", "--name", "polaron", "--alpha", "1.0", "show"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["energy_lower_bound"] == pytest.approx(-1.25, rel=1e-12)


def test_model_verify_exit_codes(capsys):
    code, out, _ = run_cli(["model", "--name", "hydrogen", "--alpha", "0.5",
                            "--T", "1", "verify", "--paths", "2000",
                            "--steps", "128", "--seed", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True


def test_pekar_cli_scaling(capsys):
    code, out, _ = run_cli(["pekar", "--theta", "1.0", "--coupling", "1.0",
                            "--grid", "25,384", "--scaling"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["solution"]["energy"] == pytest.approx(-0.217, rel=5e-3)
    assert payload["scaling"]["relative_error"] < 0.02
    # the doubled solve keeps the requested r_max
    code, out, _ = run_cli(["pekar", "--theta", "1.0", "--coupling", "1.0",
                            "--grid", "8,200", "--scaling"], capsys)
    assert code == 0
    energies = [pekar.solve(pekar.PekarProblem(theta=1.0, coupling=g, r_max=8.0,
                                               nodes=200)).energy for g in (1.0, 2.0)]
    assert json.loads(out)["scaling"]["ratio_energy_2g_over_g"] == energies[1] / energies[0]


@pytest.mark.parametrize("extra", [
    ["--theta", "1.2", "--coupling", "inf"],
    ["--theta", "1.0", "--coupling", "1e308"],
    ["--theta", "1.2", "--coupling", "1e-300"],
    ["--theta", "0.1", "--coupling", "5e-324"],
    ["--theta", "1.0", "--coupling", "1", "--grid", "1e-300,64"],
    ["--theta", "1.0", "--coupling", "1", "--grid", "inf,100"],
])
def test_pekar_out_of_range_scales_exit_cleanly(extra, capsys):
    code, out, err = run_cli(["pekar", *extra], capsys)
    assert code in (2, 3)
    assert out == ""
    assert "Traceback" not in err


def test_kernels_suite(capsys):
    code, out, _ = run_cli(["kernels", "--check", "subordination"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    assert all(c["residual"] < 1e-8 for c in payload["checks"])


def test_kernels_csv_has_one_row_per_check(capsys):
    # the three checks carry different columns; every row gets every column
    code, out, _ = run_cli(["kernels"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    code, out, _ = run_cli(["kernels", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["check"] for row in rows] == [c["check"] for c in checks]
    assert {"residual", "weight", "bound", "target"} <= set(rows[0])
    assert rows[0]["weight"] == "" and rows[-1]["residual"] == ""


def test_sweep_inverse_square_threshold(capsys):
    code, out, _ = run_cli([
        "sweep", "--model", "inverse_square", "--alpha", "0.1",
        "--param", "theta", "--grid", "1.5,1.9,1.99", "--T", "4",
    ], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    mags = [abs(float(r["energy_lower_bound"])) for r in rows]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_sweep_empty_grid_exit_2(capsys):
    code, _, err = run_cli([
        "sweep", "--model", "hydrogen", "--alpha", "1.0",
        "--param", "alpha", "--grid", ",",
    ], capsys)
    assert code == 2


def test_sweep_hydrogen_alpha_energy_column(capsys):
    code, out, _ = run_cli([
        "sweep", "--model", "hydrogen", "--param", "alpha",
        "--grid", "0.5,1,2", "--T", "1",
    ], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        a = float(row["value"])
        assert float(row["energy_lower_bound"]) == pytest.approx(-a * a / 2, rel=1e-12)
    code, out, _ = run_cli([
        "sweep", "--model", "hydrogen", "--param", "alpha",
        "--grid", "0.5,1,2", "--T", "1", "--format", "pretty",
    ], capsys)
    assert code == 0
    assert out.startswith("command: sweep\n")
    assert "energy_lower_bound: -0.125" in out


@pytest.mark.parametrize("argv", [
    ["bound", "--theorem", "1", "--theta", "1", "--dim", "3", "--T", "1",
     "--coupling", '{"kind":"constant","level":1}'],
    ["pekar", "--theta", "1", "--coupling", "1"],
    ["kernels", "--check", "subordination"],
    ["oscillator", "--omega", "1", "--T", "2"],
    ["simulate", "--model", "hydrogen", "--alpha", "0.5", "--T", "1"],
    ["model", "--name", "hydrogen", "verify"],
    ["sweep", "--model", "hydrogen", "--param", "alpha", "--grid", "0.5"],
])
def test_threads_is_rejected_by_every_subcommand(argv, capsys):
    # the worker count follows the CPU affinity mask alone
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "pretty"])
@pytest.mark.parametrize("argv", [  # each subcommand at the fuzz suite's budgets
    ["bound", "--theorem", "2", "--theta", "1", "--dim", "3", "--T", "1",
     "--coupling", '{"kind":"exp_decay","amplitude":1,"rate":1}'],
    ["simulate", "--model", "polaron", "--alpha", "0.5", "--T", "1", "--paths", "100",
     "--steps", "16"],
    ["model", "--name", "nelson_q", "--gamma", "1", "--tau", "1", "show"],
    ["model", "--name", "hydrogen", "--alpha", "0.5", "--T", "1", "verify", "--paths", "200",
     "--steps", "32"],
    ["oscillator", "--omega", "1", "--T", "1", "--grid", "128", "--mc", "--paths", "200",
     "--steps", "32"],
    ["pekar", "--theta", "1", "--coupling", "1", "--grid", "10,48", "--scaling"],
    ["kernels"],
    ["sweep", "--model", "hydrogen", "--param", "alpha", "--grid", "0.5,1", "--mc",
     "--paths", "100", "--steps", "16"],
])
def test_every_subcommand_writes_csv_and_pretty(argv, fmt, capsys):
    code, out, err = run_cli(argv + ["--format", fmt], capsys)
    assert (code, err) == (0, "")
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header[0] in ("command", "check", "param", "theorem", "model") and rows
        assert all(len(row) == len(header) for row in rows)
    else:
        assert out.startswith(f"command: {argv[0]}")


_CLI_SCRIPT = """
import sys
from fkbound import cli, mc
print(mc._workers(), file=sys.stderr)
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_simulate_threads_leave_the_estimate_unchanged():
    # 200 paths of 32 steps are five groups in two batches: on two or more cores a pool runs them
    argv = ["simulate", "--model", "hydrogen", "--alpha", "0.5", "--T", "1",
            "--paths", "200", "--steps", "32", "--seed", "3"]
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    one = min(os.sched_getaffinity(0))
    runs = [subprocess.run([sys.executable, "-c", _CLI_SCRIPT, *argv], env=env, preexec_fn=narrow,
                           capture_output=True, text=True, timeout=300, check=True)
            for narrow in (None, lambda: os.sched_setaffinity(0, {one}))]
    assert runs[0].stderr == f"{len(os.sched_getaffinity(0))}\n" and runs[1].stderr == "1\n"
    assert json.loads(runs[0].stdout)["estimate"] == json.loads(runs[1].stdout)["estimate"]


def test_coupling_from_csv_file(tmp_path, capsys):
    table = tmp_path / "coupling.csv"
    table.write_text("# t,value\n0.0,1.0\n0.5,3.0\n1.0,2.0\n")
    code, out, _ = run_cli(["bound", "--theorem", "1", "--theta", "1.0",
                            "--dim", "3", "--T", "1",
                            "--coupling", str(table)], capsys)
    assert code == 0
    payload = json.loads(out)
    # envelope of the table is the running maximum (3, 3, 2)
    assert payload["log_bound"] > 0
    assert payload["inputs"]["coupling"]["kind"] == "tabulated"



@pytest.mark.parametrize("coupling", [
    '{"kind":"tabulated","grid":[0,0.5,1],"values":[1,NaN,1]}',
    '{"kind":"tabulated","grid":[0,0.5,Infinity],"values":[1,1,1]}',
    '{"kind":"power_law","amplitude":1,"exponent":NaN}',
    '{"kind":"constant","level":Infinity}',
    '{"kind":"indicator","height":1,"cutoff":Infinity}',
    '{"kind":"exp_decay","amplitude":1,"rate":Infinity}',
])
def test_bound_non_finite_coupling_exit_2(coupling, capsys):
    code, out, err = run_cli(["bound", "--theorem", "1", "--theta", "1", "--dim", "3",
                              "--T", "1", "--coupling", coupling], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_coupling_csv_short_row_names_the_row(tmp_path, capsys):
    table = tmp_path / "coupling.csv"
    table.write_text("# t,value\n0.0,1.0\n0.5\n1.0,2.0\n")
    code, out, err = run_cli(["bound", "--theorem", "1", "--theta", "1.0", "--dim", "3",
                              "--T", "1", "--coupling", str(table)], capsys)
    assert code == 2
    assert out == ""
    assert "row 3" in err


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("paths", 100.5)])
def test_simulate_spec_non_integer_exit_2(field, value, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    inputs = {"model": "hydrogen", "params": {"alpha": 0.5}, "T": 1.0, "paths": 100,
              "steps": 16, "seed": 1, field: value}
    spec.write_text(json.dumps({"inputs": inputs}))
    code, out, err = run_cli(["simulate", "--spec", str(spec)], capsys)
    assert code == 2
    assert out == ""
    assert f"{field} must be an integer" in err

_SPEC_INPUTS = {"model": "hydrogen", "params": {"alpha": 0.5}, "T": 1.0, "paths": 100,
                "steps": 16, "seed": 1}


@pytest.mark.parametrize("payload", [
    {"inputs": {**_SPEC_INPUTS, "params": 5}},
    {"inputs": {**_SPEC_INPUTS, "T": "1"}},
    {"inputs": {**_SPEC_INPUTS, "T": True}},
    {"inputs": {**_SPEC_INPUTS, "offset": [0.0]}},
    {"inputs": {**_SPEC_INPUTS, "T": 10 ** 400}},
    {"inputs": {**_SPEC_INPUTS, "params": {"alpha": "x"}}},
    {"inputs": {**_SPEC_INPUTS, "params": {"alpha": False}}},
    {"inputs": {**_SPEC_INPUTS, "params": {"beta": 0.5}}},
    {"inputs": {**_SPEC_INPUTS, "model": 5}},
    {"inputs": [1, 2]},
    [1, 2],
])
def test_simulate_spec_mistyped_field_exit_2(payload, tmp_path, capsys):
    # each of these raised AttributeError, TypeError or OverflowError out of cli.main
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(payload))
    code, out, err = run_cli(["simulate", "--spec", str(spec)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_out_file_writes_valid_json(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["bound", "--theorem", "2", "--theta", "1.0",
                            "--dim", "3", "--T", "2",
                            "--coupling", '{"kind":"indicator","height":1,"cutoff":1}',
                            "--out", str(target)], capsys)
    assert code == 0
    assert out == ""  # nothing on stdout when --out given
    payload = json.loads(target.read_text())
    assert payload["log_bound"] > 0


_BOUND = ["bound", "--theorem", "1", "--theta", "1", "--dim", "3", "--T", "1"]


@pytest.mark.parametrize("argv", [
    [*_BOUND, "--coupling", "DIR"],
    ["simulate", "--spec", "DIR"],
    [*_BOUND, "--coupling", '{"kind":"constant","level":1}', "--out", "DIR/"],
])
def test_directory_path_exit_2(argv, tmp_path, capsys):
    code, out, err = run_cli([arg.replace("DIR", str(tmp_path)) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_bound_infinite_horizon_exit_2(capsys):
    code, out, err = run_cli([
        "bound", "--theorem", "1", "--theta", "1", "--dim", "3", "--T", "inf",
        "--coupling", '{"kind":"constant","level":1}',
    ], capsys)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("name,params,unused", [
    ("hydrogen", ["--alpha", "1", "--theta", "1.5"], "theta"),
    ("inverse_square", ["--alpha", "0.1", "--gamma", "1"], "gamma"),
    ("polaron", ["--alpha", "1", "--dim", "5"], "d"),
    ("bipolaron", ["--alpha", "1", "--tau", "2"], "tau"),
    ("nelson_q", ["--gamma", "1", "--tau", "1", "--alpha", "1"], "alpha"),
])
def test_model_rejects_unused_parameter_exit_2(name, params, unused, capsys):
    code, out, err = run_cli(["model", "--name", name, *params, "show"], capsys)
    assert code == 2
    assert out == ""
    assert f"not {unused}" in err


def test_sweep_non_integer_dimension_exit_2(capsys):
    code, out, err = run_cli(["sweep", "--model", "inverse_square", "--alpha", "0.1",
                              "--param", "d", "--grid", "3.5", "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert "integer d" in err


def test_sweep_rejects_parameter_the_model_does_not_use(capsys):
    code, out, err = run_cli(["sweep", "--model", "hydrogen", "--alpha", "0.5",
                              "--param", "d", "--grid", "3,4"], capsys)
    assert code == 2
    assert "not d" in err


@pytest.mark.parametrize("argv", [
    ["bound", "--theorem", "1", "--theta", "1.9999999", "--dim", "3", "--T", "1e6",
     "--coupling", '{"kind":"constant","level":1}'],
    ["sweep", "--model", "inverse_square", "--alpha", "0.2", "--param", "theta",
     "--grid", "1.999999999", "--T", "400"],
    ["model", "--name", "hydrogen", "--alpha", "1e300", "show"],
    ["model", "--name", "bipolaron", "--alpha", "1e200", "show"],
    ["bound", "--theorem", "1", "--theta", "1", "--dim", "3", "--T", "1",
     "--coupling", '{"kind":"tabulated","grid":[0,1],"values":[1e308,1e308]}'],
])
def test_overflowing_bound_exit_3(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert "overflow" in err


def test_pekar_unreachable_tolerance_exits_3_at_once(monkeypatch, capsys):
    # near theta = 2 the gradient's roundoff floor at the starting point lies
    # far above the tolerance: the solver refuses before its first descent step
    def no_descent(*args):
        raise AssertionError("descent step taken")
    monkeypatch.setattr(pekar, "dgtsv", no_descent)
    code, out, err = run_cli(["pekar", "--theta", "1.99", "--coupling", "1"], capsys)
    assert code == 3
    assert out == ""
    assert "roundoff floor" in err


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_pekar_zero_coupling_scaling_is_strict_json(capsys):
    code, out, _ = run_cli(["pekar", "--theta", "1.0", "--coupling", "0", "--scaling"], capsys)
    assert code == 0
    payload = _strict_json(out)
    assert payload["scaling"]["ratio_energy_2g_over_g"] is None
    assert payload["non_finite"] == {"scaling.ratio_energy_2g_over_g": "NaN",
                                     "scaling.relative_error": "NaN"}


def test_sweep_json_is_strict(capsys):
    # alpha = 0 has energy magnitude 0, so its log10 is -inf
    code, out, _ = run_cli(["sweep", "--model", "inverse_square", "--param", "alpha",
                            "--grid", "0,0.1", "--T", "1", "--format", "json"], capsys)
    assert code == 0
    payload = _strict_json(out)
    assert [row["energy_log10_magnitude"] is None for row in payload["rows"]] == [True, False]
    assert payload["non_finite"] == {"rows.0.energy_log10_magnitude": "-Infinity"}


@pytest.mark.parametrize("argv", [
    "model --name hydrogen --alpha 1e-20 --T 1 verify --paths 400 --steps 32 --seed 3",
    "model --name=inverse_square --alpha=2.225073858507e-311 --dim=4 --theta=1.0742622270551208 "
    "--T=1.287964020303058 verify --paths=195 --steps=30 --seed=286",
    "bound --theorem 1 --theta 1 --dim 3 --T 1 --coupling {\"kind\":\"constant\",\"level\":1e-170}",
    "model --name polaron --alpha 1e-179 --T 1.93 verify --paths 400 --steps 32 --seed 3",
    "model --name bipolaron --alpha 1.76e-179 --T 1.93 verify --paths 400 --steps 32 --seed 3",
])
def test_tiny_couplings_bound_and_verify(argv, capsys):
    # actions far below an ulp of 1 (down to subnormal) and squared norms that underflow at theta 1
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 0, err
    assert json.loads(out).get("all_passed", True) is True


@pytest.mark.parametrize("amplitude", ["1", "1e10"])
def test_subnormal_decay_rate_bounds_like_a_tiny_one(amplitude, capsys):
    # rate^-1 overflows below about 5.6e-309 (and its product with amplitude^2 at 1e10):
    # the norm formed that power before the incomplete gamma and exited 3
    def bound(rate):
        coupling = f'{{"kind":"exp_decay","amplitude":{amplitude},"rate":{rate}}}'
        code, out, err = run_cli(["bound", "--theorem", "1", "--theta", "1", "--dim", "3",
                                  "--T", "1", "--coupling", coupling], capsys)
        assert code == 0, err
        return json.loads(out)["log_bound"]

    tiny = bound("1e-300")
    assert tiny == {"1": 2.0957691216057217, "1e10": 5.000000001595769e+19}[amplitude]
    assert abs(bound("4e-309") - tiny) <= 1e-12 * max(1.0, tiny)


def test_large_dimension_inverse_square_verifies(capsys):
    # the moment table's scale X0 = 8 crowded its change into the last cells at large d:
    # the action mean read 15.5% below the exact E[A_N] and jensen_below_mc failed (exit 4)
    argv = ("model --name=inverse_square --alpha=0.01 --dim=65527 --theta=1.3833613493801604 "
            "--T=0.01 verify --paths=189 --steps=27 --seed=2873924")
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 0, err
    assert json.loads(out)["all_passed"] is True
