import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

from fkbound import bounds as B
from fkbound import schedule
from fkbound.errors import DomainError, NoLinearSlope, NonIntegrable
from fkbound.schedule import Constant, ExpDecay, Indicator, PowerLaw, Tabulated

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_coefficients_at_theta_one_d_three():
    co = B.coefficients(1.0, 3)
    assert co.A == pytest.approx(0.5, abs=1e-12)
    assert co.B == pytest.approx(SQRT_2_OVER_PI, abs=1e-12)
    assert co.C == pytest.approx(0.5, abs=1e-12)
    assert co.D == pytest.approx(SQRT_2_OVER_PI, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_coefficient_branch_continuity(d):
    co = B.coefficients(1.0, d)
    assert co.A == pytest.approx(co.C, rel=1e-14)
    assert co.B == pytest.approx(co.D, rel=1e-14)


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("d", [2, 3, 10, 50])
def test_coefficients_positive_finite(theta, d):
    co = B.coefficients(theta, d)
    for val in (co.A, co.B, co.C, co.D):
        assert val > 0.0
        assert math.isfinite(val)


def test_coefficients_domain():
    with pytest.raises(DomainError):
        B.coefficients(2.0, 3)
    with pytest.raises(DomainError):
        B.coefficients(1.0, 1)


# ---------------------------------------------------------------------------
# theorem 1
# ---------------------------------------------------------------------------

def test_hydrogen_bound_closed_form():
    # alpha^2 T / 2 + 2 sqrt(2/pi) alpha sqrt(T)
    rep = B.theorem1_bound(Constant(1.0), B.BoundParams(1.0, 3, 1.0))
    assert rep.log_bound == pytest.approx(0.5 + 2.0 * SQRT_2_OVER_PI, rel=1e-14)
    assert rep.branch == "theta_geq_1"
    assert rep.log_bound == pytest.approx(2.0958, abs=5e-5)


def test_zero_coupling_bound_is_one():
    for fn in (B.theorem1_bound, B.theorem2_bound, B.theorem3_bound):
        rep = fn(Constant(0.0), B.BoundParams(1.3, 3, 2.0))
        assert rep.log_bound == 0.0
        assert rep.zero_coupling


def test_terms_sum_to_log_bound():
    rep = B.theorem1_bound(ExpDecay(1.0, 0.5), B.BoundParams(1.4, 4, 3.0))
    assert sum(t.contribution for t in rep.terms) == pytest.approx(rep.log_bound, rel=1e-12)


def _second_branch_independent(f_level, theta, d, T):
    """Independent re-derivation of the theta <= 1 display with raw quadrature
    and direct gamma calls (no shared code with the package norms)."""
    s = 2.0 - theta
    C = 2 ** ((3 * theta - 2) / s) * theta ** (theta / s) * s / (d - 1) ** (2 * theta / s)
    D = (theta ** (1 / s) * gamma_fn((d - 1) / 2) * (d - 1) ** ((2 - 2 * theta) / s)
         / (2 ** ((6 - 5 * theta) / (2 * s)) * gamma_fn(d / 2)))
    m1, _ = integrate.quad(lambda t: f_level, 0, T)
    m2, _ = integrate.quad(lambda t: f_level ** 2, 0, T)
    m3, _ = integrate.quad(lambda t: f_level, 0, T, weight="alg", wvar=(-0.5, 0.0))
    return (C * m1 ** ((2 - 2 * theta) / s) * m2 ** (theta / s)
            + D * (m1 / m2) ** ((1 - theta) / s) * m3)


def test_theorem1_low_theta_independent_rederivation():
    val = B.theorem1_bound(Constant(1.0), B.BoundParams(0.5, 3, 1.0)).log_bound
    oracle = _second_branch_independent(1.0, 0.5, 3, 1.0)
    assert val == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("theorem", [1, 2, 3])
@pytest.mark.parametrize("f", [Constant(0.8), ExpDecay(1.2, 0.9), Indicator(0.6, 1.5)])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_branch_agreement_at_theta_one(theorem, f, d):
    # theorem_bound computes both branches at theta = 1 and raises on mismatch
    rep = B.theorem_bound(theorem, f, B.BoundParams(1.0, d, 2.0))
    assert math.isfinite(rep.log_bound)
    # explicit comparison at the term level
    if theorem == 1:
        params = B.BoundParams(1.0, d, 2.0)
        hi = B._report(B._t1_terms, f, params, "T1", "theta_geq_1")
        lo = B._report(B._t1_terms, f, params, "T1", "theta_leq_1")
        assert hi.log_bound == pytest.approx(lo.log_bound, rel=1e-10)


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_theta_one_bound_survives_an_underflowed_squared_norm(theorem):
    # the theta <= 1 branch raises a ratio over a squared norm to the power 0 at theta = 1;
    # at level 1e-170 that norm underflows to 0 and only the linear term is left
    params = B.BoundParams(1.0, 3, 1.0)
    tiny = B.theorem_bound(theorem, Constant(1e-170), params).log_bound
    small = B.theorem_bound(theorem, Constant(1e-100), params).log_bound
    assert tiny == pytest.approx(1e-70 * small, rel=1e-12)


def test_bound_monotone_in_horizon_and_coupling():
    params = [B.BoundParams(1.2, 3, T) for T in (0.5, 1.0, 2.0, 4.0)]
    vals = [B.theorem1_bound(Constant(0.7), p).log_bound for p in params]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    small = B.theorem2_bound(ExpDecay(0.5, 1.0), B.BoundParams(1.2, 3, 2.0)).log_bound
    large = B.theorem2_bound(ExpDecay(1.0, 1.0), B.BoundParams(1.2, 3, 2.0)).log_bound
    assert large > small


def test_theorem1_coupling_scaling_exponents():
    # first term scales as alpha^(2/(2-theta)), second as alpha
    theta, d, T = 1.5, 3, 1.0
    r1 = B.theorem1_bound(Constant(1.0), B.BoundParams(theta, d, T))
    r2 = B.theorem1_bound(Constant(2.0), B.BoundParams(theta, d, T))
    q = 2.0 / (2.0 - theta)
    assert r2.terms[0].contribution / r1.terms[0].contribution == pytest.approx(2 ** q, rel=1e-12)
    assert r2.terms[1].contribution / r1.terms[1].contribution == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# theorem 3
# ---------------------------------------------------------------------------

def test_theorem3_unit_example():
    rep = B.theorem3_bound(Constant(1.0), B.BoundParams(1.0, 3, 1.0))
    assert rep.log_bound == pytest.approx(0.25 + 2.0 / math.sqrt(math.pi), rel=1e-12)


def test_theorem3_equals_theorem1_with_rescaled_constant_coupling():
    # the two-path bound is the single-path bound at constant coupling
    # 2^(-theta/2) |f|_{1,T}
    theta, d, T = 1.4, 3, 2.5
    f = ExpDecay(1.1, 0.8)
    L = 1.1 / 0.8 * (1 - math.exp(-0.8 * T))
    lhs = B.theorem3_bound(f, B.BoundParams(theta, d, T)).log_bound
    rhs = B.theorem1_bound(Constant(2 ** (-theta / 2) * L), B.BoundParams(theta, d, T)).log_bound
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_theorem3_matches_pair_coupling_closed_form():
    # f = (4 alpha / sqrt 2) e^-t at large T: log_bound ~ 2 alpha^2 T + 4 sqrt(2/pi) alpha sqrt(T)
    alpha = 0.5
    f = ExpDecay(4 * alpha / math.sqrt(2.0), 1.0)
    T = 800.0
    rep = B.theorem3_bound(f, B.BoundParams(1.0, 3, T))
    slope = B.analytic_slope(3, f, 1.0, 3)
    assert slope == pytest.approx(2 * alpha ** 2, rel=1e-12)
    sqrt_coeff = (rep.log_bound - slope * T) / math.sqrt(T)
    assert sqrt_coeff == pytest.approx(4 * SQRT_2_OVER_PI * alpha, rel=1e-6)


# ---------------------------------------------------------------------------
# energy slopes
# ---------------------------------------------------------------------------

def test_analytic_slope_constant_alpha_powers():
    # single-integral bound slope A alpha^(2/(2-theta))
    theta, d = 1.5, 3
    co = B.coefficients(theta, d)
    assert B.analytic_slope(1, Constant(0.3), theta, d) == pytest.approx(
        co.A * 0.3 ** (2 / 0.5), rel=1e-12)


def test_analytic_slope_matches_ladder():
    for theta, f in ((1.0, ExpDecay(0.5 / math.sqrt(2), 1.0)),
                     (1.5, Indicator(1.0, 1.0)),
                     (0.7, ExpDecay(0.4, 0.5))):
        analytic = B.analytic_slope(2, f, theta, 3)
        ladder = B.ladder_slope(2, f, theta, 3)
        assert ladder == pytest.approx(analytic, rel=1e-5)



def test_ladder_slope_evaluates_each_rung_once(monkeypatch):
    horizons = []
    original = B.theorem_bound

    def counting(theorem, f, params):
        horizons.append(params.T)
        return original(theorem, f, params)

    monkeypatch.setattr(B, "theorem_bound", counting)
    f = ExpDecay(0.4, 0.5)
    slope = B.ladder_slope(2, f, 0.7, 3)
    # rungs T = 4, 8, 16, ..., each bound evaluated once: one more call than quotients
    assert horizons == [4.0 * 2 ** k for k in range(len(horizons))]
    assert len(horizons) >= 3
    low, high, top = (original(2, f, B.BoundParams(0.7, 3, T)).log_bound
                      for T in horizons[-3:])
    assert slope == (top - high) / horizons[-2]

def test_slope_superlinear_raises():
    with pytest.raises(NoLinearSlope):
        B.analytic_slope(2, Constant(1.0), 1.0, 3)
    with pytest.raises(NoLinearSlope):
        B.ladder_slope(2, Constant(1.0), 1.0, 3)


def test_ladder_slope_for_tabulated_coupling():
    # step-left table equal to an indicator: ladder must recover its slope
    tab_slope = None
    analytic = B.analytic_slope(2, Indicator(1.0, 1.0), 1.5, 3)

    def tab_for(T):
        return Tabulated((0.0, 1.0, T), (1.0, 0.0, 0.0))

    T0 = 4.0
    quots = []
    T = T0
    for _ in range(6):
        lb2 = B.theorem2_bound(tab_for(2 * T), B.BoundParams(1.5, 3, 2 * T)).log_bound
        lb1 = B.theorem2_bound(tab_for(T), B.BoundParams(1.5, 3, T)).log_bound
        quots.append((lb2 - lb1) / T)
        T *= 2
    assert quots[-1] == pytest.approx(analytic, rel=1e-4)


# ---------------------------------------------------------------------------
# inverse-power potential
# ---------------------------------------------------------------------------

def test_critical_coupling():
    assert B.critical_coupling(3) == pytest.approx(0.125)
    assert B.critical_coupling(4) == pytest.approx(0.5)


def test_inverse_square_energy_equals_first_term_slope():
    for theta in (1.0, 1.3, 1.7):
        direct = B.inverse_square_energy(0.1, theta, 3)
        via_slope = -B.analytic_slope(1, Constant(0.1), theta, 3)
        assert direct == pytest.approx(via_slope, rel=1e-12)


def test_inverse_square_dichotomy():
    thetas = [1.5, 1.9, 1.99, 1.999]
    below = [abs(B.inverse_square_energy(0.1, th, 3)) for th in thetas]
    assert all(b < a for a, b in zip(below, below[1:]))
    assert below[-1] < 1e-100
    above = [B.inverse_square_log_magnitude(0.2, th, 3) for th in thetas]
    assert all(b > a for a, b in zip(above, above[1:]))
    assert B.inverse_square_energy(0.2, 1.999, 3) == -math.inf


def test_inverse_square_domain():
    with pytest.raises(DomainError):
        B.inverse_square_energy(0.1, 0.9, 3)
    with pytest.raises(DomainError):
        B.inverse_square_energy(-0.1, 1.5, 3)
    with pytest.raises(DomainError):
        B.inverse_square_energy(0.1, 1.5, 2)


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------

def test_log_bound_nonnegative_across_grid():
    for theta in (0.3, 0.8, 1.0, 1.4, 1.9):
        for f in (Constant(0.5), ExpDecay(1.0, 1.0), Indicator(0.7, 0.4)):
            for theorem in (1, 2, 3):
                rep = B.theorem_bound(theorem, f, B.BoundParams(theta, 3, 1.5))
                assert rep.log_bound >= 0.0


def test_horizon_zero_gives_unit_bound():
    rep = B.theorem1_bound(Constant(1.0), B.BoundParams(1.0, 3, 0.0))
    assert rep.log_bound == 0.0


# ---------------------------------------------------------------------------
# theorem 2: one panel rule per bound
# ---------------------------------------------------------------------------

def _pinned_couplings(T):
    yield "constant", Constant(0.8)
    yield "exp_decay", ExpDecay(0.9, 1.3)
    yield "indicator", Indicator(1.1, 0.7)
    yield "power_law", PowerLaw(0.6, -0.2)
    for cells in (20, 200, 1000):
        rng = np.random.default_rng(cells)
        grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, cells))))
        grid = grid * (T / grid[-1])
        grid[-1] = T
        yield f"table{cells}", Tabulated(tuple(grid), tuple(rng.uniform(0.1, 1.0, cells + 1)))


PINNED_COUPLINGS = dict(_pinned_couplings(2.0))

# theorem-2 bounds at d = 3, T = 2 from one iterated_norm call per term, which the
# shared rule must reproduce bit for bit: the log bound, then
# norm_value:contribution of each reported term, as float.hex
T2_PINS = {
    "constant:0.7": ("0x1.5878b7e022068p+1",
                    "0x1.9999999999999p+0:0x1.c6f970fe452a8p-1 0x1.822cb17ff2eb9p+1:0x1.cd74b7412177dp+0"),
    "constant:1.0": ("0x1.a1597293ccec0p+1",
                    "0x1.b4e81b4e81b50p+0:0x1.b4e81b4e81b50p-1 0x1.822cb17ff2eb9p+1:0x1.341f6bc02c7ecp+1"),
    "constant:1.4": ("0x1.3ad6952009127p+3",
                    "0x1.1b053be6e0046p+1:0x1.07b4ec3c4cbd8p+2 0x1.43411ba41240ep+2:0x1.6df83e03c5676p+2"),
    "exp_decay:0.7": ("0x1.f27ee1a7487b4p+0",
                     "0x1.c88311d81ae08p-1:0x1.56a9563da92f6p-2 0x1.2410107913297p+1:0x1.9cd48c17de2f7p+0"),
    "exp_decay:1.0": ("0x1.066d81ba7a6acp+1",
                     "0x1.d6538fa32e775p-2:0x1.d6538fa32e775p-3 0x1.2410107913297p+1:0x1.d21091808f069p+0"),
    "exp_decay:1.4": ("0x1.58dc672f800fcp+2",
                     "0x1.a65b7056b02d1p-3:0x1.8988f13fe6f05p-2 0x1.1ae25c575a5ffp+2:0x1.4043d81b81a0cp+2"),
    "indicator:0.7": ("0x1.5989235f606fap+1",
                     "0x1.453f7ced91688p+0:0x1.2364cecf2983ap-1 0x1.a03b97d410935p+1:0x1.10afefab960ecp+1"),
    "indicator:1.0": ("0x1.8649f9b65a6ecp+1",
                     "0x1.d1774d860c65bp-1:0x1.d1774d860c65bp-2 0x1.a03b97d410935p+1:0x1.4c1b100598e21p+1"),
    "indicator:1.4": ("0x1.ffcf2643af13ep+2",
                     "0x1.391fabc020692p-1:0x1.23c17627df52ap+0 0x1.83a563a773f5ep+2:0x1.b6dec8b9b73f4p+2"),
    "power_law:0.7": ("0x1.8b54a7ff75958p+1",
                     "0x1.736f5610c90eep+0:0x1.796b632bd8366p-1 0x1.e4e1a9761b616p+1:0x1.2cf9cf347f87fp+1"),
    "power_law:1.0": ("0x1.d6d3ab7bab13ap+1",
                     "0x1.4fca1dbd0c81cp+0:0x1.4fca1dbd0c81cp-1 0x1.e4e1a9761b616p+1:0x1.82e1240c67f33p+1"),
    "power_law:1.4": ("0x1.f6c01af135415p+3",
                     "0x1.53d8b0913b420p+0:0x1.3ca7a3ba1f12fp+1 0x1.762578a8f9454p+3:0x1.a7963202ad7c9p+3"),
    "table20:0.7": ("0x1.8556362502408p+1",
                   "0x1.c725d79384171p+0:0x1.08c549ce65f17p+0 0x1.b6b096494038dp+1:0x1.00f3913dcf47dp+1"),
    "table20:1.0": ("0x1.e24d43e584a5ap+1",
                   "0x1.088e569490e0bp+1:0x1.088e569490e0bp+0 0x1.b6b096494038dp+1:0x1.5e06189b3c354p+1"),
    "table20:1.4": ("0x1.82334cbd48a54p+3",
                   "0x1.7b0d1fd5bef83p+1:0x1.612f2c777e32ap+2 0x1.7249485f393bbp+2:0x1.a3376d031317fp+2"),
    "table200:0.7": ("0x1.a92a334447f19p+1",
                    "0x1.f554f9ff7f555p+0:0x1.3630fde1971d0p+0 0x1.d96fb46d2cef0p+1:0x1.0e11b4537c631p+1"),
    "table200:1.0": ("0x1.0e90c0beb4604p+2",
                    "0x1.46c443e345d8ap+1:0x1.46c443e345d8ap+0 0x1.d96fb46d2cef0p+1:0x1.79bf5f8bc5d44p+1"),
    "table200:1.4": ("0x1.e1e3720b1701ep+3",
                    "0x1.14448e121692cp+2:0x1.016a3615c478fp+3 0x1.8c8bfa292fa58p+2:0x1.c0f277eaa511ep+2"),
    "table1000:0.7": ("0x1.b1be321117a2cp+1",
                     "0x1.ff61f5fd927cbp+0:0x1.4009fb1b81decp+0 0x1.e2317a221d60bp+1:0x1.11b9348356b36p+1"),
    "table1000:1.0": ("0x1.157af49fd26bep+2",
                     "0x1.5473b98c81f20p+1:0x1.5473b98c81f20p+0 0x1.e2317a221d60bp+1:0x1.80bc0c7963dedp+1"),
    "table1000:1.4": ("0x1.f89cc3810ce6cp+3",
                     "0x1.28584a0a4644cp+2:0x1.141f33e9e963cp+3 0x1.93a494d9316d8p+2:0x1.c8fb1f2e47061p+2"),
}


@pytest.mark.parametrize("case", sorted(T2_PINS))
def test_theorem2_bound_is_pinned_bit_for_bit(case):
    name, theta = case.rsplit(":", 1)
    rep = B.theorem_bound(2, PINNED_COUPLINGS[name], B.BoundParams(float(theta), 3, 2.0))
    terms = " ".join(f"{t.norm_value.hex()}:{t.contribution.hex()}" for t in rep.terms)
    assert (rep.log_bound.hex(), terms) == T2_PINS[case]


def _count_panel_rules(monkeypatch) -> list:
    calls = []
    rule = schedule._panel_rule
    monkeypatch.setattr(schedule, "_panel_rule", lambda *a: calls.append(a) or rule(*a))
    return calls


@pytest.mark.parametrize("theta", [0.7, 1.0, 1.4])
@pytest.mark.parametrize("name", sorted(PINNED_COUPLINGS))
def test_theorem2_bound_builds_one_panel_rule(monkeypatch, name, theta):
    # every iterated norm of the evaluated branches (3 below theta = 1, 2 above,
    # 5 at it) shares one rule and each distinct inner norm
    calls = _count_panel_rules(monkeypatch)
    B.theorem_bound(2, PINNED_COUPLINGS[name], B.BoundParams(theta, 3, 2.0))
    assert len(calls) == 1


@pytest.mark.parametrize("theta", [0.7, 1.0, 1.4])
def test_theorem2_divergent_inner_norm_raises_before_any_panel_rule(monkeypatch, theta):
    # t^-0.8 against s^(-theta/2) or s^-0.5 is not integrable at 0; |f|_{1,t} is
    calls = _count_panel_rules(monkeypatch)
    with pytest.raises(NonIntegrable):
        B.theorem_bound(2, PowerLaw(0.6, -0.8), B.BoundParams(theta, 3, 2.0))
    assert calls == []
