import csv
import io
import json

import pytest

from fkbound import cli


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


def test_oscillator_mc_verifies(capsys):
    code, out, _ = run_cli(["oscillator", "--omega", "1", "--T", "2", "--mc",
                            "--paths", "5000", "--steps", "128", "--seed", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["mc_within_tolerance"]


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


@pytest.mark.parametrize("extra", [["--epsilon", "nan"], ["--offset", "inf"], ["--T", "inf"]])
def test_simulate_non_finite_input_exit_2(extra, capsys):
    code, out, err = run_cli(["simulate", "--model", "hydrogen", "--alpha", "0.5",
                              "--T", "1", "--paths", "100", "--steps", "16",
                              "--seed", "1", *extra], capsys)
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


def test_kernels_suite(capsys):
    code, out, _ = run_cli(["kernels", "--check", "subordination"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    assert all(c["residual"] < 1e-8 for c in payload["checks"])


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


def test_threads_default_from_environment(monkeypatch):
    monkeypatch.setenv("FKBOUND_THREADS", "6")
    parser = cli.build_parser()
    args = parser.parse_args(["simulate", "--model", "hydrogen", "--alpha", "1",
                              "--T", "1"])
    assert args.threads == 6


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
