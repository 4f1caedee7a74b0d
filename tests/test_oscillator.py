import math

import numpy as np
import pytest

from fkbound import oscillator as osc
from fkbound.errors import DomainError


def test_riccati_matches_tanh():
    for omega, T in ((1.0, 2.0), (2.0, 4.0), (0.5, 8.0)):
        sol = osc.solve_riccati(osc.OscillatorConfig(omega, T))
        err = float(np.abs(sol.values - sol.closed_form(omega, T)).max())
        assert err <= 1e-6
        assert sol.residual <= 1e-8


def test_riccati_boundary_and_sign():
    sol = osc.solve_riccati(osc.OscillatorConfig(1.0, 2.0))
    assert sol.values[-1] == 0.0
    assert (sol.values[:-1] < 0.0).all()
    # magnitude shrinks toward s = T
    mags = np.abs(sol.values)
    assert (np.diff(mags) <= 1e-12).all()


def test_riccati_zero_frequency():
    sol = osc.solve_riccati(osc.OscillatorConfig(0.0, 2.0))
    assert np.allclose(sol.values, 0.0)


def test_log_expectation_closed_form_value():
    rep = osc.log_expectation(osc.OscillatorConfig(1.0, 2.0))
    assert rep.closed_form == pytest.approx(-0.5 * math.log(math.cosh(2.0)), rel=1e-14)
    assert rep.closed_form == pytest.approx(-0.66250, abs=5e-6)
    assert math.exp(rep.closed_form) == pytest.approx(0.51556, abs=5e-6)
    assert rep.residual <= 1e-7


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("T", [1.0, 2.0, 4.0])
def test_reconstruction_identity_grid(omega, T):
    rep = osc.log_expectation(osc.OscillatorConfig(omega, T))
    assert abs(rep.reconstructed - rep.closed_form) <= 1e-7


def test_energy_ladder_monotone_from_below():
    omega = 1.0
    vals = []
    for T in (1.0, 2.0, 4.0, 8.0):
        rep = osc.log_expectation(osc.OscillatorConfig(omega, T))
        vals.append(-rep.closed_form / T)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < omega / 2 for v in vals)
    assert vals[-1] == pytest.approx(omega / 2, rel=0.1)


def test_small_time_expansion():
    # -ln(cosh(x))/2 = -x^2/4 + O(x^4)
    rep = osc.log_expectation(osc.OscillatorConfig(1.0, 0.1))
    assert rep.closed_form == pytest.approx(-0.1 ** 2 / 4.0, rel=2e-3)


def test_mc_crosscheck_small_budget():
    rep = osc.mc_crosscheck(osc.OscillatorConfig(1.0, 2.0), paths=20_000, steps=256, seed=3)
    assert abs(rep.log_difference) <= 3.0 * rep.estimate.stderr_log + 2e-3
    assert rep.estimate.infinite_paths == 0


def _discrete_log_moment(omega, T, steps):
    """ln E[exp(-(omega^2/2) sum_k X(t_k)^2 dt)] at the midpoints t_k, exactly.

    The midpoint values are a Gaussian random walk with steps of variance dt/2
    and then dt; integrating them out from the last one back maps a step of
    variance v to b -> b / (1 + 2 b v) and multiplies by (1 + 2 b v)^(-1/2).
    """
    dt = T / steps
    a = 0.5 * omega * omega * dt
    b, log_c = a, 0.0
    for _ in range(steps - 1):
        log_c -= 0.5 * math.log1p(2.0 * b * dt)
        b = a + b / (1.0 + 2.0 * b * dt)
    return log_c - 0.5 * math.log1p(b * dt)


@pytest.mark.parametrize("omega, T, steps", [(1.0, 2.0, 64), (1.5, 2.5, 32)])
def test_mc_crosscheck_matches_the_exact_discrete_moment(omega, T, steps):
    # each path's conditional log-moment has E[exp] equal to the midpoint rule's moment
    rep = osc.mc_crosscheck(osc.OscillatorConfig(omega, T), paths=20_000, steps=steps, seed=5)
    exact = _discrete_log_moment(omega, T, steps)
    assert abs(rep.estimate.log_mean - exact) <= 4.0 * rep.estimate.stderr_log


def test_mc_crosscheck_zero_frequency_exact():
    rep = osc.mc_crosscheck(osc.OscillatorConfig(0.0, 2.0), paths=200, steps=32, seed=1)
    assert rep.estimate.log_mean == 0.0
    assert rep.estimate.stderr_log == 0.0
    assert rep.closed_form == 0.0


@pytest.mark.parametrize("paths, steps", [(1, 1), (3, 4), (99, 32), (200, 15)])
def test_mc_crosscheck_budget_floor(paths, steps):
    with pytest.raises(DomainError, match="need at least"):
        osc.mc_crosscheck(osc.OscillatorConfig(1.0, 2.0), paths=paths, steps=steps, seed=1)


def test_mc_crosscheck_tail_guard():
    with pytest.raises(DomainError):
        osc.mc_crosscheck(osc.OscillatorConfig(3.0, 2.0), paths=200, steps=32, seed=1)
