import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln, hyp2f1

from fkbound import kernels as K
from fkbound.bounds import BoundParams
from fkbound.config import sharp_hls_constant
from fkbound.errors import DomainError, NonIntegrable
from fkbound.schedule import Constant, ExpDecay, Indicator, PowerLaw, Tabulated


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

def test_heat_kernel_values():
    assert K.heat_kernel(K.HeatKernelQuery(1.0, 0.0, 3)) == pytest.approx(
        (2 * math.pi) ** -1.5, rel=1e-14)
    assert K.heat_kernel(K.HeatKernelQuery(2.0, 1.0, 2)) == pytest.approx(
        math.exp(-0.25) / (4 * math.pi), rel=1e-14)


@pytest.mark.parametrize("lam", [0.3, 2.0, 7.5])
def test_heat_kernel_brownian_scaling(lam):
    t, r, d = 1.7, 0.9, 4
    lhs = K.heat_kernel(K.HeatKernelQuery(lam * t, math.sqrt(lam) * r, d))
    rhs = lam ** (-d / 2) * K.heat_kernel(K.HeatKernelQuery(t, r, d))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_expectation_constant_value():
    assert K.expectation_constant(1.0, 3) == pytest.approx(
        math.sqrt(2 / math.pi), abs=1e-12)
    with pytest.raises(DomainError):
        K.expectation_constant(3.0, 3)


# ---------------------------------------------------------------------------
# subordination identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta,d,r", [
    (1.0, 3, 1.0), (0.5, 2, 2.0), (1.5, 4, 0.3),
    (0.9, 5, 10.0), (1.9, 3, 0.1),
])
def test_subordination_residual(theta, d, r):
    assert K.subordination_check(theta, r, d) < 1e-8


def test_subordination_scale_free():
    vals = [K.subordination_check(1.2, r, 3) for r in (0.1, 1.0, 10.0)]
    assert max(vals) < 1e-10


# ---------------------------------------------------------------------------
# convolution coefficient
# ---------------------------------------------------------------------------

def test_convolution_constant_weight_closed_form():
    cc = K.convolution_coefficient(1.0, 1.0, K.One(), 3)
    assert cc.value == pytest.approx(1.0, abs=0.0)
    assert cc.bound == pytest.approx(1.0)
    # r-independence
    for r in (0.1, 1.0, 25.0):
        assert K.convolution_coefficient(1.3, r, K.One(), 4).value == pytest.approx(
            2 / (1.3 * 2.7), rel=1e-14)


def test_convolution_quadrature_agrees_with_closed_form():
    for theta, d in ((0.5, 2), (1.0, 3), (1.7, 5)):
        quad_val = K._quadrature_value(theta, 1.0, K.One(), d)
        assert quad_val == pytest.approx(2 / (theta * (d - theta)), rel=1e-10)


def _raw_nested_coefficient(theta, r, d, h_callable):
    """Oracle: nested adaptive quadrature of the original (t, s) representation."""
    pref = (2 * math.pi) ** (d / 2) / (2 ** (theta / 2) * math.exp(gammaln(theta / 2)) * theta)

    def inner(t):
        def f(s):
            return (s ** ((d - theta - 2) / 2) / (t + s)
                    * (2 * math.pi * (t + s)) ** (-d / 2)
                    * math.exp(-1 / (2 * (t + s))))
        v1, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, limit=200)
        v2, _ = integrate.quad(f, 1.0, np.inf, epsabs=1e-13, limit=200)
        return v1 + v2

    fn = lambda t: h_callable(t * r * r) * inner(t)
    v1, _ = integrate.quad(fn, 0.0, 1.0, epsabs=1e-12, limit=200)
    v2, _ = integrate.quad(fn, 1.0, np.inf, epsabs=1e-12, limit=200)
    return pref * (v1 + v2)


def test_convolution_indicator_against_raw_nested_quadrature():
    val = K.convolution_coefficient(1.0, 1.0, K.IndicatorWeight(1.0), 3).value
    oracle = _raw_nested_coefficient(1.0, 1.0, 3, lambda x: 1.0 if x <= 1.0 else 0.0)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_convolution_exp_weight_against_raw_nested_quadrature():
    val = K.convolution_coefficient(1.2, 0.8, K.ExpWeight(1.5), 3).value
    oracle = _raw_nested_coefficient(1.2, 0.8, 3, lambda x: math.exp(-1.5 * x))
    assert val == pytest.approx(oracle, rel=1e-8)


def test_convolution_indicator_ladder_monotone_to_constant():
    target = 2 / (1.0 * 2.0)
    vals = [K.convolution_coefficient(1.0, 1.0, K.IndicatorWeight(L), 3).value
            for L in (1.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < target for v in vals)
    assert vals[-1] == pytest.approx(target, rel=0.1)


def test_convolution_bound_holds_on_sample():
    rng = np.random.default_rng(7)
    for _ in range(40):
        theta = rng.uniform(0.1, 1.9)
        d = int(rng.integers(2, 7))
        if theta >= d:
            continue
        r = float(10.0 ** rng.uniform(-1, 1))
        h = [K.One(), K.IndicatorWeight(float(10 ** rng.uniform(-1, 1.5))),
             K.ExpWeight(float(10 ** rng.uniform(-1, 1.5)))][int(rng.integers(0, 3))]
        cc = K.convolution_coefficient(theta, r, h, d)
        assert abs(cc.value) <= cc.bound


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def test_expected_action_single_hydrogen():
    ea = K.expected_action("single", Constant(0.5), BoundParams(1.0, 3, 1.0))
    assert ea.value == pytest.approx(math.sqrt(2 / math.pi) * 2 * 0.5, rel=1e-12)
    assert not ea.is_upper_bound
    off = K.expected_action("single", Constant(0.5), BoundParams(1.0, 3, 1.0),
                            offset_radius=1.0)
    assert off.is_upper_bound


def test_expected_action_self_double_large_time_slope():
    f = ExpDecay(1.0 / math.sqrt(2.0), 1.0)
    v40 = K.expected_action("self_double", f, BoundParams(1.0, 3, 40.0)).value
    v80 = K.expected_action("self_double", f, BoundParams(1.0, 3, 80.0)).value
    # slope from differencing cancels the constant offset: equals alpha = 1
    assert (v80 - v40) / 40.0 == pytest.approx(1.0, rel=1e-8)


def test_expected_action_zero():
    assert K.expected_action("single", Constant(0.0), BoundParams(1.0, 3, 1.0)).value == 0.0


def _exact_cross_expectation(f_amp, f_rate, theta, d, T):
    """Oracle: exact cross-pair expectation at coincident starts, by 2D
    quadrature of K f(t-s) (t+s)^(-theta/2) over the triangle."""
    Kc = K.expectation_constant(theta, d)

    def outer(t):
        val, _ = integrate.quad(
            lambda s: f_amp * math.exp(-f_rate * (t - s)) * (t + s) ** (-theta / 2),
            0.0, t, epsabs=1e-12, limit=200)
        return val

    val, _ = integrate.quad(outer, 0.0, T, epsabs=1e-11, limit=200)
    return Kc * val


def test_cross_expectation_hls_dominates_exact():
    theta, d, T = 1.0, 3, 2.0
    hls = K.expected_action("cross_double", ExpDecay(1.0, 1.0), BoundParams(theta, d, T))
    exact = _exact_cross_expectation(1.0, 1.0, theta, d, T)
    assert hls.is_upper_bound
    assert hls.value >= exact
    assert hls.value == pytest.approx(exact, rel=1.0)  # same order of magnitude


def test_sharp_hls_constant_sane():
    # theta = d it diverges; interior values positive and finite
    for d, theta in ((3, 1.0), (3, 1.5), (4, 0.7)):
        c = sharp_hls_constant(d, theta)
        assert c > 0 and math.isfinite(c)


# ---------------------------------------------------------------------------
# stochastic derivative bound
# ---------------------------------------------------------------------------

def test_derivative_bound_theta_one_radius_free():
    for r in (0.5, 2.0, 100.0):
        assert K.stochastic_derivative_bound(Constant(1.0), 1.0, 3, 0.3, r) == pytest.approx(1.0)


def test_derivative_bound_worked_example():
    val = K.stochastic_derivative_bound(Constant(1.0), 1.5, 3, 0.0, 4.0)
    assert val == pytest.approx(2.0 / (1.5 * 2.0), rel=1e-14)


def test_derivative_bound_decays_in_radius():
    vals = [K.stochastic_derivative_bound(Constant(1.0), 1.5, 3, 0.0, r)
            for r in (1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(2.0 / (1.5 * 10.0), rel=1e-14)


def test_derivative_bound_rejects_low_theta_and_increasing_coupling():
    with pytest.raises(DomainError):
        K.stochastic_derivative_bound(Constant(1.0), 0.8, 3, 0.0, 1.0)
    with pytest.raises(DomainError):
        K.stochastic_derivative_bound(PowerLaw(1.0, 1.0), 1.5, 3, 0.0, 1.0)


@pytest.mark.parametrize("f,theta,u,r", [
    (Constant(1.0), 1.5, 0.0, 4.0),
    (Constant(2.0), 1.2, 0.5, 0.7),
    (ExpDecay(1.0, 1.0), 1.5, 0.3, 2.0),
    (Indicator(1.0, 1.0), 1.1, 0.2, 1.0),
])
def test_conditioned_derivative_below_pointwise_bound(f, theta, u, r):
    direct = K.conditioned_derivative_magnitude(f, theta, 3, u, r, T=5.0)
    bound = K.stochastic_derivative_bound(f, theta, 3, u, r)
    assert direct <= bound * (1 + 1e-9)
    assert direct > 0


def test_cross_expectation_of_a_non_integrable_coupling_raises():
    with pytest.raises(NonIntegrable):
        K.expected_action("cross_double", PowerLaw(1.0, -1.0), BoundParams(1.2, 3, 2.0))


@pytest.mark.parametrize("kind", ["single", "self_double", "cross_double"])
def test_expected_action_past_the_table_horizon_raises(kind):
    table = Tabulated((0.0, 0.5, 1.2, 2.0), (0.5, 0.9, 0.3, 0.4))
    with pytest.raises(DomainError, match="beyond the tabulated horizon"):
        K.expected_action(kind, table, BoundParams(1.2, 3, 3.0))


def test_clark_ocone_variance_bound_value():
    assert K.clark_ocone_variance_bound(Constant(0.5), 3, 1.0) == pytest.approx(0.25)


def _cross_double_per_cell(grid, values, theta, d, T):
    # the HLS bound of expected_action with the outer integral done by a tight
    # adaptive quadrature inside each cell of the table
    a = theta / 4.0

    def inner(u):
        z = (T - u) / u
        return u ** (1.0 - 2.0 * a) * z ** (1.0 - a) / (1.0 - a) * hyp2f1(a, 1.0 - a, 2.0 - a, -z)

    total = sum(v * integrate.quad(inner, lo, min(hi, T), epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for lo, hi, v in zip(grid, grid[1:], values) if lo < T)
    p, q = 2.0 * d / (2.0 * d - theta), 2.0 * d / theta
    return sharp_hls_constant(d, theta) * p ** (-d / p) * (2.0 * math.pi) ** (-d / q) * total


# the golden tests' analytic couplings, with the PowerLaw of the schedule tests and
# one close to the non-integrable u^-1 at u = 0
_ANALYTIC = {
    "constant": Constant(0.8), "exp_decay": ExpDecay(0.9, 1.1), "indicator": Indicator(0.7, 1.3),
    "power_law": PowerLaw(0.6, -0.2), "power_law_up": PowerLaw(0.5, 0.4),
    "power_law_steep": PowerLaw(0.6, -0.9),
}


def _mp_cross_double(f, theta, d, T):
    """The HLS bound of expected_action in 20-digit arithmetic, integrating
    over the later time y last: pref int_0^T y^-a g(y) dy with
    g(y) = int_0^y f(u) (y-u)^-a du.  g is a beta function times a power for
    Constant and PowerLaw and a Kummer function for ExpDecay, whose y-integral
    is a 2F2; for Indicator the y-integral is an elementary tanh-sinh quadrature."""
    mp.mp.dps = 20
    a, T = mp.mpf(theta) / 4, mp.mpf(T)
    s = 2 - 2 * a
    if isinstance(f, ExpDecay):
        rho = mp.mpf(f.rate)
        total = f.amplitude / (1 - a) * T ** s / s * mp.hyp2f2(1, s, 2 - a, s + 1, -rho * T)
    elif isinstance(f, Indicator):
        c = mp.mpf(f.cutoff)
        total = mp.quad(lambda y: y ** -a * f.height * (y ** (1 - a) - max(y - c, 0) ** (1 - a)) / (1 - a),
                        [0, min(c, T), T])
    else:
        amp, k = (f.level, 0) if isinstance(f, Constant) else (f.amplitude, mp.mpf(f.exponent))
        total = amp * mp.beta(k + 1, 1 - a) * T ** (k + s) / (k + s)
    p, q = 2 * mp.mpf(d) / (2 * d - mp.mpf(theta)), 2 * mp.mpf(d) / mp.mpf(theta)
    return float(sharp_hls_constant(d, theta) * p ** (-d / p) * (2 * mp.pi) ** (-d / q) * total)


@pytest.mark.parametrize("cells", [64, 1000, *_ANALYTIC])
@pytest.mark.parametrize("theta", [0.8, 1.2])
def test_cross_expectation_on_tables_respects_every_cell(cells, theta):
    if cells in _ANALYTIC:
        # at the indicator's cutoff, inside a piece, and at the T ladder's far end
        for T in (1.3, 2.0, 4.0 * 2.0 ** 20):
            got = K.expected_action("cross_double", _ANALYTIC[cells], BoundParams(theta, 3, T))
            assert got.value == pytest.approx(_mp_cross_double(_ANALYTIC[cells], theta, 3, T),
                                              rel=1e-13)
        return
    if cells == 64:  # the golden tests' LONG_TABLE
        grid = np.arange(65) / 32.0
        values = 0.5 + 0.4 * np.sin(np.arange(65))
    else:
        grid = np.linspace(0.0, 2.0, cells + 1)
        values = np.random.default_rng(cells).uniform(0.1, 1.0, cells + 1)
    f = Tabulated(tuple(grid), tuple(values))
    for T in (2.0, float(0.5 * (grid[cells // 3] + grid[cells // 3 + 1]))):
        got = K.expected_action("cross_double", f, BoundParams(theta, 3, T))
        assert got.is_upper_bound
        assert got.value == pytest.approx(_cross_double_per_cell(grid, values, theta, 3, T), rel=1e-10)
