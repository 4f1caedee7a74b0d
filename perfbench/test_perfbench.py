"""The benchmark's own tests:  python3 -m pytest perfbench -q  (from the repo root)."""

import json
import math
import os
import re
import sys

import numpy as np
import pytest
from scipy.special import hyp1f1

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import fkbound.cli  # noqa: E402  (the runner reaches fkbound.cli through the package)
from fkbound import bounds, mc, models, schedule  # noqa: E402

SEEDS = (0, 1, 2, 17, 123456789)
MODEL_PARAMS = {"hydrogen": {"alpha"}, "inverse_square": {"alpha", "theta", "d"},
                "polaron": {"alpha"}, "bipolaron": {"alpha"},
                "nelson_q": {"gamma", "tau", "theta"}}


def _spec(path="BENCHMARK.json"):
    with open(os.path.join(ROOT, path)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert jobs.generate(workload, 5) == jobs.generate(workload, 5)
    assert jobs.generate(workload, 5) != jobs.generate(workload, 6)
    # the seed moves parameters, never the slot mix
    assert sorted(j.slot for j in jobs.generate(workload, 5)) == \
        sorted(j.slot for j in jobs.generate(workload, 6))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generated_inputs_stay_in_the_program_domain(workload, seed):
    runner = jobs.Runner(fkbound)
    for job in jobs.generate(workload, seed):
        p = job.p
        if job.kind in jobs.MC_KINDS:
            assert p["paths"] >= 100 and p["steps"] >= 64
            assert 0 <= p["seed"] < 2 ** 63
        if job.kind == "verify":
            assert set(p["params"]) == MODEL_PARAMS[p["model"]]
            model = models.build(p["model"], **p["params"])
            # the program's own heavy-tail guard, with room to spare
            assert bounds.energy_lower_bound(model).slope * p["T"] <= 1.5 + 1e-12
        if job.kind == "estimate":
            runner._spec(p)
        if job.kind in ("theorem_bound", "ladder_slope", "expected_action"):
            f = schedule.coupling_from_dict(p["coupling"])
            if f.__class__.__name__ == "Tabulated":
                assert f.grid[-1] == p["T"]
        if job.kind == "ladder_slope":
            assert p["coupling"]["kind"] in ("exp_decay", "indicator")
        if job.kind == "energies":
            for name, params in p["models"]:
                assert set(params) == MODEL_PARAMS[name]
        if job.kind == "cli":
            assert "--threads" not in p["argv"]


def test_checks_pass_on_one_job_of_each_cheap_kind():
    runner, checker = jobs.Runner(fkbound), jobs.Checker()
    deck = jobs.generate("closed_form", 3)
    seen = set()
    for i, job in enumerate(deck):
        if job.kind in seen or "1000" in job.slot or job.kind == "pekar_scaling":
            continue
        seen.add(job.kind)
        fails, _ = checker.check(i, job, runner.run(job))
        assert fails == [], (job.slot, fails)
    assert {"theorem_bound", "cli", "energies", "convolution"} <= seen


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

def test_reference_quadrature_is_exact_for_a_constant_table():
    T, level = 2.0, 0.7
    const = {"kind": "constant", "level": level}
    grid = list(np.cumsum([0.0] + [0.1, 0.25, 0.05, 0.6, 0.3, 0.7]))
    grid[-1] = T
    table = {"kind": "tabulated", "grid": grid, "values": [level] * len(grid)}
    for weight, outer in ((0.0, 1.0), (0.0, 2.0), (0.5, 1.0), (0.7, 1.0), (0.0, 2.0 / 0.6)):
        a = 1.0 - weight
        exact = (level / a) ** outer * T ** (a * outer + 1.0) / (a * outer + 1.0)
        for c in (const, table):
            assert refs.iterated(c, T, weight=weight, outer=outer) == pytest.approx(exact, rel=1e-13)
    for theorem in (1, 2, 3):
        for theta in (0.6, 1.0, 1.5):
            assert refs.theorem_bound(theorem, table, theta, 3, T) == pytest.approx(
                refs.theorem_bound(theorem, const, theta, 3, T), rel=1e-13)


def test_reference_bounds_match_closed_forms():
    a, T = 0.8, 1.7
    closed = a * a * T / 2.0 + 2.0 * math.sqrt(2.0) * a * math.sqrt(T) / math.sqrt(math.pi)
    assert refs.theorem_bound(1, {"kind": "constant", "level": a}, 1.0, 3, T) == \
        pytest.approx(closed, rel=1e-14)
    assert refs.coefficients(1.0, 3) == pytest.approx((0.5, math.sqrt(2 / math.pi)) * 2, rel=1e-15)
    assert refs.model_slope("polaron", {"alpha": a}) == pytest.approx(a + a * a / 4.0, rel=1e-14)
    assert refs.model_slope("bipolaron", {"alpha": a}) == pytest.approx(2 * a + 2 * a * a, rel=1e-14)


def test_inverse_moment_matches_closed_forms():
    sig = np.array([1e-3, 0.3, 2.0, 7.0])
    for theta, d in ((0.5, 3), (1.0, 3), (1.7, 3), (1.2, 5)):
        K = refs.expectation_constant(theta, d)
        np.testing.assert_allclose(refs.inverse_moment(sig, 0.0, 0.0, theta, d),
                                   K * sig ** (-theta / 2.0), rtol=1e-12)
        # noncentral: E|Z|^-theta = K sigma^-theta 1F1(theta/2; d/2; -|mu|^2 / (2 sigma^2))
        mu2 = 0.8
        np.testing.assert_allclose(
            refs.inverse_moment(sig, mu2, 0.0, theta, d),
            K * sig ** (-theta / 2.0) * hyp1f1(theta / 2.0, d / 2.0, -mu2 / (2.0 * sig)),
            rtol=1e-10)


def test_oscillator_recursion_matches_the_dense_determinant():
    for omega, T, steps in ((0.5, 1.0, 1), (1.2, 2.0, 7), (0.9, 1.5, 256)):
        dt = T / steps
        tm = (np.arange(steps) + 0.5) * dt
        _, logdet = np.linalg.slogdet(np.eye(steps) + omega * omega * dt * np.minimum.outer(tm, tm))
        assert refs.oscillator_discrete_log_moment(omega, T, steps) == pytest.approx(
            -0.5 * logdet, rel=1e-12)


def test_reference_matches_the_program_on_analytic_bounds():
    c = {"kind": "exp_decay", "amplitude": 0.6, "rate": 1.3}
    f = schedule.coupling_from_dict(c)
    for theorem in (1, 2, 3):
        for theta in (0.7, 1.0, 1.4):
            got = bounds.theorem_bound(theorem, f, bounds.BoundParams(theta, 3, 2.0)).log_bound
            assert refs.digits(got, refs.theorem_bound(theorem, c, theta, 3, 2.0)) > 12


def test_discrete_expectation_matches_the_sampled_action_mean():
    c = {"kind": "exp_decay", "amplitude": 0.4, "rate": 1.0}
    for kind, offset, eps in (("single", 0.3, 0.05), ("self_double", 0.0, 0.0),
                              ("cross_double", 0.5, 0.0), ("bipolaron", 0.0, 0.0)):
        spec = mc.ActionSpec(kind, schedule.coupling_from_dict(c), 1.0, 3, 1.0,
                             offset=offset, epsilon=eps)
        est = mc.estimate(spec, 400, 64, 11)
        ref = refs.discrete_expectation(kind, c, 1.0, 3, 1.0, 64, offset, eps)
        assert abs(est.action_mean - ref) <= 5.0 * est.action_stderr


def test_references_stay_small_in_memory():
    # the checker runs in the workload's process, so its transients must stay
    # far below the program's own buffers, or peak_rss_mb would measure them
    import tracemalloc

    c = {"kind": "exp_decay", "amplitude": 0.4, "rate": 1.0}
    tracemalloc.start()
    try:
        for kind, steps in (("single", 512), ("self_double", 1024), ("bipolaron", 256)):
            refs.discrete_expectation(kind, c, 1.0, 3, 1.0, steps)
        refs.oscillator_discrete_log_moment(1.0, 1.0, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


# ---------------------------------------------------------------------------
# metrics and tracing
# ---------------------------------------------------------------------------

def test_metric_names_and_benchmark_json_agree():
    spec = _spec()
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name_re.fullmatch(n) for n in names) and len(set(names)) == len(names)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tracer_wraps_every_namespace_and_restores_them():
    original = schedule.norm
    tracer = spans.Tracer()
    tracer.install({name: getattr(fkbound, name) for name in spans.LAYERS})
    try:
        assert bounds.norm is schedule.norm is fkbound.kernels.norm is not original
        f = schedule.ExpDecay(0.5, 1.0)
        bounds.ladder_slope(2, f, 1.2, 3)
        bounds.theorem_bound(2, f, bounds.BoundParams(1.0, 3, 2.0))
    finally:
        tracer.uninstall()
    assert bounds.norm is schedule.norm is original
    m = tracer.metrics(wall_s=1.0)
    assert m["bounds.ladder_slope.calls"] == 1.0
    assert m["bounds.theorem_bound.calls"] == m["bounds.ladder_slope.bound_evals"] + 1
    assert m["schedule.iterated_norm.calls"] > 0 and m["schedule.norm.calls"] > 0
    total = sum(m[f"layer.{layer}.share"] for layer in spans.LAYERS)
    assert 0.0 < total <= 1.0


def test_ladder_draw_ratio_is_observed_from_the_estimate_spans():
    spec = mc.ActionSpec("single", schedule.Constant(0.5), 1.0, 3, 1.0, epsilon=0.1)
    tracer = spans.Tracer()
    tracer.install({name: getattr(fkbound, name) for name in spans.LAYERS})
    try:
        mc.estimate(spec, 100, 64, 3)  # outside any ladder: not counted
        mc.ladder_allowance(spec, 100, 64, 3, 1.0)
    finally:
        tracer.uninstall()
    m = tracer.metrics(wall_s=1.0)
    assert m["mc.estimate.calls"] == 4.0
    # the program's ladder runs the estimator at N/4, N/2 and N
    assert m["mc.ladder_allowance.draw_ratio"] == (16 + 32 + 64) / 64
