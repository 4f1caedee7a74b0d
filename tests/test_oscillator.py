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
    assert rep.tolerance == 3.0 * rep.estimate.stderr_log + abs(rep.grid_bias)
    assert rep.within_tolerance
    assert rep.estimate.infinite_paths == 0


def _dense_log_moment(omega, T, steps):
    """-(1/2) ln det(I + omega^2 dt Sigma), Sigma = min(t_j, t_k) at the midpoints t_k:
    the Gaussian integral of exp(-(omega^2/2) sum_k X(t_k)^2 dt), with the N x N matrix."""
    dt = T / steps
    t = (np.arange(steps) + 0.5) * dt
    sign, logdet = np.linalg.slogdet(np.eye(steps) + omega * omega * dt * np.minimum.outer(t, t))
    assert sign == 1.0
    return -0.5 * logdet


@pytest.mark.parametrize("omega, T, steps", [(0.5, 1.0, 1), (1.2, 2.0, 7), (1.0, 2.0, 256)])
def test_discrete_log_moment_is_the_dense_determinant(omega, T, steps):
    got = osc.discrete_log_moment(osc.OscillatorConfig(omega, T), steps)
    assert got == pytest.approx(_dense_log_moment(omega, T, steps), rel=1e-12)


def test_discrete_log_moment_converges_at_second_order():
    # the midpoint rule's gap to -ln(cosh(omega T))/2 falls about 4 times per doubling of N
    cfg = osc.OscillatorConfig(1.0, 2.0)
    closed = osc.log_expectation(cfg).closed_form
    gaps = [osc.discrete_log_moment(cfg, n) - closed for n in (256, 512, 1024)]
    assert 2.4e-6 < gaps[0] < 2.5e-6
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.9 < coarse / fine < 4.1


def test_discrete_log_moment_needs_a_step():
    assert osc.discrete_log_moment(osc.OscillatorConfig(0.0, 2.0), 16) == 0.0
    with pytest.raises(DomainError):
        osc.discrete_log_moment(osc.OscillatorConfig(1.0, 2.0), 0)


@pytest.mark.parametrize("omega, T, steps", [(1.0, 2.0, 64), (1.5, 2.5, 32)])
def test_mc_crosscheck_matches_the_exact_discrete_moment(omega, T, steps):
    # each path's conditional log-moment has E[exp] equal to the midpoint rule's moment
    rep = osc.mc_crosscheck(osc.OscillatorConfig(omega, T), paths=20_000, steps=steps, seed=5)
    assert rep.discrete == pytest.approx(_dense_log_moment(omega, T, steps), rel=1e-12)
    assert rep.grid_bias == rep.discrete - rep.closed_form
    assert abs(rep.estimate.log_mean - rep.discrete) <= 4.0 * rep.estimate.stderr_log


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
