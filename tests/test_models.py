import math
import re

import pytest

from fkbound import bounds as B
from fkbound import kernels, mc, models
from fkbound.errors import DomainError
from fkbound.schedule import Constant, ExpDecay


def test_hydrogen_binding():
    m = models.build("hydrogen", alpha=0.7)
    assert m.theta == 1.0 and m.d == 3
    assert m.mc_f == Constant(0.7)
    assert m.mc_kind == "single"
    assert m.bound_components[0].theorem == 1


def test_polaron_binding_and_slope():
    m = models.build("polaron", alpha=1.0)
    assert m.mc_f == ExpDecay(1.0 / math.sqrt(2.0), 1.0)
    eb = B.energy_lower_bound(m)
    assert eb.slope == pytest.approx(1.0 + 0.25, rel=1e-12)
    assert eb.energy == pytest.approx(-1.25, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_polaron_slope_formula(alpha):
    eb = B.energy_lower_bound(models.build("polaron", alpha=alpha))
    assert eb.slope == pytest.approx(alpha + alpha * alpha / 4.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_bipolaron_slope_formula(alpha):
    eb = B.energy_lower_bound(models.build("bipolaron", alpha=alpha))
    assert eb.slope == pytest.approx(2 * alpha + 2 * alpha * alpha, rel=1e-12)


def test_bipolaron_composed_bound_of_a_tiny_coupling():
    # the squared coupling underflows on the way; the bound is linear in alpha there
    tiny = models.composed_bound(models.build("bipolaron", alpha=1.76e-179), 1.93)["log_bound"]
    small = models.composed_bound(models.build("bipolaron", alpha=1.76e-100), 1.93)["log_bound"]
    assert tiny == pytest.approx(1e-79 * small, rel=1e-12)


def test_bipolaron_sqrt_time_coefficient():
    # composed(T2) - composed(T1) - slope (T2 - T1) isolates the sqrt term
    alpha = 1.0
    m = models.build("bipolaron", alpha=alpha)
    slope = B.energy_lower_bound(m).slope
    t1, t2 = 100.0, 400.0
    c1 = models.composed_bound(m, t1)["log_bound"]
    c2 = models.composed_bound(m, t2)["log_bound"]
    coeff = (c2 - c1 - slope * (t2 - t1)) / (math.sqrt(t2) - math.sqrt(t1))
    assert coeff == pytest.approx(4.0 * alpha / math.sqrt(2.0 * math.pi), rel=1e-6)


def test_bipolaron_prints_literature_note():
    m = models.build("bipolaron", alpha=1.0)
    assert "0.87" in m.note  # comparison value carried as text, never asserted


def test_nelson_constant_is_finite_for_every_gamma():
    # slope(gamma) <= c (1 + gamma^(2/(2-theta))) with computed c
    m = models.build("nelson_q", gamma=1.0, tau=1.0, theta=1.5)
    c = B.coefficients(1.5, 3)
    c1 = c.A * 1.0 ** 4
    c2 = c.B * 1.0 ** 0.25 / 0.25
    total = c1 + c2
    assert f"{total:.6g}" in m.note
    for gamma in (0.1, 1.0, 10.0):
        slope = B.energy_lower_bound(models.build(
            "nelson_q", gamma=gamma, tau=1.0, theta=1.5)).slope
        assert slope <= total * (1.0 + gamma ** 4.0) * (1 + 1e-12)


def test_nelson_log_linearity_differences_shrink():
    m = models.build("nelson_q", gamma=1.0, tau=1.0, theta=1.5)
    gaps = []
    for T in (4.0, 8.0, 16.0):
        g2 = models.composed_bound(m, 2 * T)["log_bound"] / (2 * T)
        g1 = models.composed_bound(m, T)["log_bound"] / T
        gaps.append(abs(g2 - g1))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_inverse_square_model_threshold_note():
    m = models.build("inverse_square", alpha=0.1, theta=1.5, d=3)
    assert "0.125" in m.note


def test_jensen_values():
    m = models.build("hydrogen", alpha=0.5)
    assert m.expected_action(1.0).value == pytest.approx(
        2 * math.sqrt(2 / math.pi) * 0.5, rel=1e-12)
    assert m.jensen_slope() == 0.0
    mp = models.build("polaron", alpha=2.0)
    assert mp.jensen_slope() == pytest.approx(2.0, rel=1e-12)


def test_jensen_below_bound_strictly():
    for name, kw in (("hydrogen", {"alpha": 0.5}), ("polaron", {"alpha": 0.5}),
                     ("inverse_square", {"alpha": 0.05, "theta": 1.5, "d": 3}),
                     ("nelson_q", {"gamma": 0.5, "tau": 1.0, "theta": 1.5})):
        m = models.build(name, **kw)
        T = 2.0
        jens = m.expected_action(T).value
        bnd = models.composed_bound(m, T)["log_bound"]
        assert jens < bnd


def test_build_validation():
    with pytest.raises(DomainError):
        models.build("hydrogen")
    with pytest.raises(DomainError):
        models.build("polaron", alpha=-1.0)
    with pytest.raises(DomainError):
        models.build("nelson_q", gamma=1.0, tau=1.0, theta=1.0)
    with pytest.raises(DomainError):
        models.build("inverse_square", alpha=0.1, d=2)
    with pytest.raises(DomainError, match="integer"):
        models.build("inverse_square", alpha=0.1, d=3.5)
    with pytest.raises(DomainError):
        models.build("unknown", alpha=1.0)


def test_verify_hydrogen_small_budget_passes():
    m = models.build("hydrogen", alpha=0.5)
    rep = models.verify(m, T=1.0, paths=4000, steps=128, seed=3)
    assert rep.all_passed, [r.as_dict() for r in rep.rows]
    names = {r.check for r in rep.rows}
    assert {"mc_below_bound", "sample_jensen", "jensen_below_mc",
            "action_mean_below_expectation"} <= names


@pytest.mark.parametrize("name, kw", [("hydrogen", {"alpha": 0.5}), ("polaron", {"alpha": 0.5})])
def test_verify_reads_one_expectation(name, kw, monkeypatch):
    # the Jensen row and the action-mean row judge against the same E[action]
    calls = []
    expected_action = kernels.expected_action
    monkeypatch.setattr(kernels, "expected_action",
                        lambda *a, **k: calls.append(a) or expected_action(*a, **k))
    models.verify(models.build(name, **kw), T=1.0, paths=200, steps=32, seed=1)
    assert len(calls) == 1


@pytest.mark.parametrize("name, kw", [
    ("hydrogen", {"alpha": 0.5}), ("inverse_square", {"alpha": 0.05, "theta": 1.5, "d": 4}),
    ("polaron", {"alpha": 0.5}), ("nelson_q", {"gamma": 0.3, "tau": 0.5})])
def test_verify_runs_one_estimate_against_the_exact_grid_bias(name, kw, monkeypatch):
    # no N-ladder: the Jensen row allows jensen - E[A_N], exact on the estimate's own grid
    calls = {"estimate": 0, "ladder_allowance": 0}
    estimate = mc.estimate

    def counted(fn, key):
        return lambda *a, **k: calls.__setitem__(key, calls[key] + 1) or fn(*a, **k)

    monkeypatch.setattr(mc, "estimate", counted(estimate, "estimate"))
    monkeypatch.setattr(mc, "ladder_allowance", counted(mc.ladder_allowance, "ladder_allowance"))
    model, T, paths, steps, seed = models.build(name, **kw), 1.0, 200, 64, 4
    rep = models.verify(model, T, paths, steps, seed)
    assert calls == {"estimate": 1, "ladder_allowance": 0}
    spec = model.action_spec(T)
    assert rep.estimate == estimate(spec, paths, steps, seed)  # every float bit-identical
    jens = model.expected_action(T).value
    bias = max(0.0, jens - mc.discrete_expectation(spec, steps))
    row = next(r for r in rep.rows if r.check == "jensen_below_mc")
    assert row.detail.endswith(f"+ exact grid bias {bias:.2g}")
    assert row.passed == (jens <= rep.estimate.log_mean + 3.0 * rep.estimate.stderr_log + bias)


def test_verify_details_show_the_numbers_of_a_tiny_coupling():
    # at alpha 1e-20 every compared number is near 1e-20: fixed-point details printed 0.000000
    rep = models.verify(models.build("hydrogen", alpha=1e-20), T=1.0, paths=400, steps=32, seed=3)
    assert rep.all_passed
    for row in rep.rows:
        numbers = [float(x) for x in re.findall(r"\d[\d.]*(?:e[-+]\d+)?", row.detail)]
        assert len(numbers) >= 3 and 0.0 not in numbers, row.detail
    mc_row = next(r for r in rep.rows if r.check == "mc_below_bound")
    assert mc_row.detail.startswith(f"log_mean {rep.estimate.log_mean:.6g} <= log_bound "
                                    f"{rep.log_bound:.6g}")
    assert "e-20" in mc_row.detail


def test_verify_polaron_small_budget_passes():
    m = models.build("polaron", alpha=0.5)
    rep = models.verify(m, T=2.0, paths=800, steps=128, seed=5)
    assert rep.all_passed, [r.as_dict() for r in rep.rows]


def test_verify_zero_coupling_all_equalities():
    m = models.build("hydrogen", alpha=0.0)
    rep = models.verify(m, T=1.0, paths=200, steps=32, seed=1)
    assert rep.all_passed
    assert rep.log_bound == 0.0
    assert rep.estimate.log_mean == 0.0


def test_verify_heavy_tail_guard():
    m = models.build("polaron", alpha=2.0)  # slope 3, T 4 -> 12 > 3
    with pytest.raises(DomainError):
        models.verify(m, T=4.0, paths=200, steps=64, seed=1)


def test_verify_inverse_square_small_budget_passes():
    m = models.build("inverse_square", alpha=0.05, theta=1.5, d=3)
    rep = models.verify(m, T=1.0, paths=2000, steps=128, seed=8)
    assert rep.all_passed, [r.as_dict() for r in rep.rows]


def test_bipolaron_verify_runs_without_jensen():
    m = models.build("bipolaron", alpha=0.3)
    rep = models.verify(m, T=1.0, paths=300, steps=64, seed=2)
    checks = [r.check for r in rep.rows]
    assert "jensen_below_mc" not in checks
    assert rep.all_passed, [r.as_dict() for r in rep.rows]
