"""Acceptance suite: one test per release criterion, at its stated budget.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream them).
Budgets are chosen so the whole module finishes in a few minutes on a
laptop; the Monte Carlo seeds are fixed so every number here is
reproducible bit for bit.  Each Monte Carlo sandwich runs one estimate and
allows the exact grid bias of its N-step action; the last test checks that
no N ladder comes back.
"""

import math

import numpy as np
import pytest

from fkbound import bounds as B
from fkbound import kernels, mc, models, oscillator, pekar
from fkbound.schedule import Constant

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SEED = 20250808


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared expensive runs
# ---------------------------------------------------------------------------

HYDROGEN = mc.ActionSpec("single", Constant(0.5), 1.0, 3, 1.0)


def _hydrogen_estimate():
    return mc.estimate(HYDROGEN, paths=100_000, steps=512, seed=SEED)


@pytest.fixture(scope="module")
def hydrogen_estimate():
    return _hydrogen_estimate()


def test_criterion_01_coefficient_exactness():
    co = B.coefficients(1.0, 3)
    ok = (abs(co.A - 0.5) <= 1e-12 and abs(co.B - SQRT_2_OVER_PI) <= 1e-12
          and abs(co.C - 0.5) <= 1e-12 and abs(co.D - SQRT_2_OVER_PI) <= 1e-12)
    # cross-check against the constant-coupling bound form
    # alpha^2 T / 2 + 2 sqrt(2) alpha sqrt(T) / sqrt(pi)
    for alpha, T in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
        rep = B.theorem1_bound(Constant(alpha), B.BoundParams(1.0, 3, T))
        closed = alpha * alpha * T / 2.0 + 2.0 * math.sqrt(2.0) * alpha * math.sqrt(T) / math.sqrt(math.pi)
        ok = ok and abs(rep.log_bound - closed) <= 1e-12 * closed
    report(1, ok, f"coefficients(1,3) = ({co.A}, {co.B:.12f}, {co.C}, {co.D:.12f})")


def test_criterion_02_hydrogen_energy_exact():
    ok = True
    vals = {}
    for alpha in (0.5, 1.0, 2.0):
        eb = B.energy_lower_bound(models.build("hydrogen", alpha=alpha))
        vals[alpha] = eb.energy
        ok = ok and math.isclose(eb.energy, -alpha * alpha / 2.0, rel_tol=1e-13)
    report(2, ok, f"hydrogen energy lower bounds {vals} equal -alpha^2/2")


def test_criterion_03_hydrogen_sandwich_mc(hydrogen_estimate):
    est = hydrogen_estimate
    jensen = 2.0 * SQRT_2_OVER_PI * 0.5
    # the exact grid bias of the N-step action, as models.verify allows it
    allowance = max(0.0, jensen - mc.discrete_expectation(HYDROGEN, 512))
    upper = 0.125 + 2.0 * SQRT_2_OVER_PI * 0.5
    slack = 3.0 * est.stderr_log + allowance
    ok = (est.stderr_log <= 0.01
          and jensen - slack <= est.log_mean <= upper + slack)
    report(3, ok,
           f"hydrogen log_mean {est.log_mean:.5f} in [{jensen:.5f}, {upper:.5f}] "
           f"+- (3se {3 * est.stderr_log:.5f} + grid {allowance:.5f}), M=1e5 N=512")


def test_criterion_04_polaron_bound_composition():
    # analytic slope
    slopes_ok = True
    for alpha in (0.5, 1.0, 2.0):
        eb = B.energy_lower_bound(models.build("polaron", alpha=alpha))
        slopes_ok = slopes_ok and math.isclose(eb.slope, alpha + alpha * alpha / 4.0,
                                               rel_tol=1e-12)
    # Monte Carlo below the bound at the stated budget
    model = models.build("polaron", alpha=0.5)
    T = 2.0
    log_bound = models.composed_bound(model, T)["log_bound"]
    est = mc.estimate(model.action_spec(T), paths=10_000, steps=512, seed=SEED)
    ok = slopes_ok and est.log_mean <= log_bound
    report(4, ok,
           f"polaron slope alpha + alpha^2/4 exact; MC log_mean {est.log_mean:.5f} "
           f"<= log_bound {log_bound:.5f} (M=1e4, N=512)")


def test_criterion_05_bipolaron_composition():
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        eb = B.energy_lower_bound(models.build("bipolaron", alpha=alpha))
        ok = ok and math.isclose(eb.slope, 2 * alpha + 2 * alpha * alpha, rel_tol=1e-12)
    alpha = 1.0
    model = models.build("bipolaron", alpha=alpha)
    slope = 2 * alpha + 2 * alpha * alpha
    t1, t2 = 100.0, 400.0
    c1 = models.composed_bound(model, t1)["log_bound"]
    c2 = models.composed_bound(model, t2)["log_bound"]
    coeff = (c2 - c1 - slope * (t2 - t1)) / (math.sqrt(t2) - math.sqrt(t1))
    ok = ok and math.isclose(coeff, 4.0 * alpha / math.sqrt(2.0 * math.pi), rel_tol=1e-6)
    # literature comparison is a printed note only, never asserted
    print(f"           note: {model.note}")
    report(5, ok,
           f"bipolaron slope 2a+2a^2 exact, sqrt(T) coefficient {coeff:.6f} "
           f"= 4a/sqrt(2 pi) = {4 * alpha / math.sqrt(2 * math.pi):.6f}")


def test_criterion_06_oscillator_exactness():
    cfg = oscillator.OscillatorConfig(1.0, 2.0)
    sol = oscillator.solve_riccati(cfg)
    tanh_err = float(np.abs(sol.values - sol.closed_form(1.0, 2.0)).max())
    expectation = oscillator.log_expectation(cfg)
    rep = oscillator.mc_crosscheck(cfg, paths=100_000, steps=1024, seed=SEED)
    ok = (tanh_err <= 1e-6 and expectation.residual <= 1e-7 and rep.within_tolerance)
    report(6, ok,
           f"oscillator |log_mean - closed| {abs(rep.log_difference):.5f} <= {rep.tolerance:.5f} "
           f"= 3se + exact grid bias {abs(rep.grid_bias):.2e} (M=1e5 N=1024); "
           f"tanh err {tanh_err:.2e}; reconstruction residual {expectation.residual:.2e}")


def test_criterion_07_convolution_lemma():
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        theta = float(rng.uniform(0.15, min(1.9, d - 0.05)))
        r = float(10.0 ** rng.uniform(-1.0, 1.0))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            h = kernels.One()
        elif pick == 1:
            h = kernels.IndicatorWeight(float(10.0 ** rng.uniform(-1.3, 1.7)))
        else:
            h = kernels.ExpWeight(float(10.0 ** rng.uniform(-1.3, 1.7)))
        cc = kernels.convolution_coefficient(theta, r, h, d)
        if abs(cc.value) > cc.bound:
            violations += 1
    residuals = [kernels.subordination_check(theta, r, d)
                 for theta in (0.5, 1.0, 1.5)
                 for d in (3, 4, 5)
                 for r in (0.1, 1.0, 10.0)]
    ok = violations == 0 and max(residuals) <= 1e-8
    report(7, ok,
           f"convolution coefficient bound: {violations} violations in 200 draws; "
           f"subordination residual max {max(residuals):.2e} on the 3x3x3 grid")


def test_criterion_08_maximality_at_origin():
    spec = mc.ActionSpec("single", Constant(0.5), 1.0, 3, 1.0)
    rows = mc.maximality_check(spec, offsets=[0.5, 1.0, 2.0], paths=40_000,
                               steps=256, seed=SEED)
    ok = all(r.ok for r in rows)
    detail = ", ".join(f"r={r.radius:g}: gap {r.gap_from_origin:.4f} "
                       f"(se {r.gap_stderr:.4f})" for r in rows[1:])
    report(8, ok, f"origin maximality with common random numbers: {detail}")


def test_criterion_09_inverse_square_dichotomy():
    alpha_c = B.critical_coupling(3)
    thetas = (1.5, 1.9, 1.99)
    below = [abs(B.inverse_square_energy(0.1, th, 3)) for th in thetas]
    above = [B.inverse_square_log_magnitude(0.2, th, 3) for th in thetas]
    ok = (math.isclose(alpha_c, 0.125)
          and all(b < a for a, b in zip(below, below[1:]))
          and below[-1] <= 1e-20
          and all(b > a for a, b in zip(above, above[1:])))
    report(9, ok,
           f"alpha_c = {alpha_c}; |bound|(alpha=0.1) over theta {thetas} = "
           f"{[f'{v:.2e}' for v in below]} down; log-magnitude(alpha=0.2) up "
           f"{[f'{v:.1f}' for v in above]}")


def test_criterion_10_nelson_log_linearity():
    model = models.build("nelson_q", gamma=1.0, tau=1.0, theta=1.5)
    gaps = []
    for T in (4.0, 8.0, 16.0, 32.0):
        g2 = models.composed_bound(model, 2 * T)["log_bound"] / (2 * T)
        g1 = models.composed_bound(model, T)["log_bound"] / T
        gaps.append(abs(g2 - g1))
    shrinking = all(b < a for a, b in zip(gaps, gaps[1:]))
    T = 2.0
    log_bound = models.composed_bound(model, T)["log_bound"]
    est = mc.estimate(model.action_spec(T), paths=5_000, steps=512, seed=SEED)
    ok = shrinking and est.log_mean <= log_bound
    report(10, ok,
           f"nelson slope differences {[f'{g:.4f}' for g in gaps]} shrink; "
           f"MC log_mean {est.log_mean:.4f} <= log_bound {log_bound:.4f} "
           f"(M=5e3, N=512)")


def test_criterion_11_pekar_scaling_and_normalization():
    """Scaling law on independent grids, then the coupling-mass dictionary.

    Calibration (documented): solving at unit coupling gives
    E(g) = -0.21703 g^2 for theta = 1, d = 3; with the self-interaction
    model's coupling mass g = alpha/sqrt(2), this is -0.10851 alpha^2
    against the literature strong-coupling value -0.109 alpha^2, so the
    calibration factor is exactly 1 (no correction applied).
    """
    ok = True
    details = []
    for theta in (0.5, 1.0, 1.5):
        width = pekar.gaussian_width(theta, 1.0, 3)
        r_max = 14.0 * width
        e1 = pekar.solve(pekar.PekarProblem(theta=theta, coupling=1.0, r_max=r_max)).energy
        e2 = pekar.solve(pekar.PekarProblem(theta=theta, coupling=2.0, r_max=r_max)).energy
        target = 2.0 ** (2.0 / (2.0 - theta))
        rel = abs(e2 / e1 - target) / target
        details.append(f"theta={theta}: ratio {e2 / e1:.4f} vs {target:.4f}")
        ok = ok and rel <= 0.02
    alpha = 2.0
    sol = pekar.solve(pekar.PekarProblem(theta=1.0, coupling=alpha / math.sqrt(2.0)))
    per_alpha2 = sol.energy / alpha ** 2
    ok = ok and abs(per_alpha2 - (-0.109)) / 0.109 <= 0.10
    report(11, ok,
           "; ".join(details) + f"; polaron-normalized {per_alpha2:.5f} vs -0.109 "
           f"(calibration factor 1, see docstring)")


def test_criterion_12_determinism_across_threads(hydrogen_estimate):
    base = hydrogen_estimate  # computed with one worker
    same = True
    for threads in (1, 2, 8):
        est = mc.estimate(HYDROGEN, paths=100_000, steps=512, seed=SEED, threads=threads)
        same = same and est == base
    report(12, same,
           "hydrogen criterion rerun bit-identical under 1, 2 and 8 worker threads")


def test_each_sandwich_draws_one_monte_carlo_run(monkeypatch, capsys):
    # the hydrogen fixture and criterion 6 each make one run, at a tiny budget here
    calls = []

    def record(fn):
        def run(*args, **kwargs):
            calls.append((fn.__name__, kwargs["steps"]))
            return fn(*args, **{**kwargs, "paths": 200})
        return run

    monkeypatch.setattr(mc, "estimate", record(mc.estimate))
    monkeypatch.setattr(oscillator, "mc_crosscheck", record(oscillator.mc_crosscheck))
    _hydrogen_estimate()
    test_criterion_06_oscillator_exactness()
    capsys.readouterr()
    assert calls == [("estimate", 512), ("mc_crosscheck", 1024)]
