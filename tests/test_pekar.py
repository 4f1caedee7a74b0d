import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fkbound import models, pekar
from fkbound.errors import DomainError, GridTooSmall, NotPositiveDefinite


def test_choquard_anchor_value():
    # known minimum of (1/2)|grad psi|^2 - iint psi^2 psi^2/|x-y| at unit
    # coupling: -0.217026 (twice the strong-coupling constant 0.108513);
    # the Gaussian trial gives -2/(3 pi) = -0.21221, a strict upper bound
    sol = pekar.solve(pekar.PekarProblem(theta=1.0, coupling=1.0))
    assert sol.energy == pytest.approx(-0.217026, rel=2e-3)
    assert sol.energy <= -2.0 / (3.0 * math.pi)


@pytest.mark.parametrize("theta, d", [
    pytest.param(theta, d, id=f"{theta}" if d == 3 else f"{theta}-d{d}")
    for d in (3, 4, 5) for theta in (0.5, 1.0, 1.5)
])
def test_scaling_law_on_independent_grids(theta, d):
    # fix a common r_max so the two solves are not exact rescalings of each other
    width = pekar.gaussian_width(theta, 1.0, d)
    r_max = 14.0 * width
    e1 = pekar.solve(pekar.PekarProblem(theta=theta, coupling=1.0, d=d, r_max=r_max)).energy
    e2 = pekar.solve(pekar.PekarProblem(theta=theta, coupling=2.0, d=d, r_max=r_max)).energy
    target = 2.0 ** (2.0 / (2.0 - theta))
    assert e2 / e1 == pytest.approx(target, rel=0.02)
    assert e1 < 0 and e2 < 0


def test_small_coupling_energy_tends_to_zero_from_below():
    es = [pekar.solve(pekar.PekarProblem(theta=1.0, coupling=g)).energy
          for g in (0.5, 0.1, 0.02)]
    assert all(e < 0 for e in es)
    assert all(abs(b) < abs(a) for a, b in zip(es, es[1:]))
    assert abs(es[-1]) < 1e-3


def test_zero_coupling():
    sol = pekar.solve(pekar.PekarProblem(theta=1.0, coupling=0.0))
    assert sol.energy == 0.0


def test_virial_stationarity():
    for theta in (0.5, 1.0, 1.5):
        sol = pekar.solve(pekar.PekarProblem(theta=theta, coupling=1.0))
        assert sol.virial_residual <= 1e-4


def test_grid_convergence_half_percent():
    for d in (3, 4, 5):
        for theta in (0.5, 1.5):
            e1 = pekar.solve(pekar.PekarProblem(theta=theta, coupling=1.0, d=d, nodes=384)).energy
            e2 = pekar.solve(pekar.PekarProblem(theta=theta, coupling=1.0, d=d, nodes=768)).energy
            assert abs(e2 - e1) / abs(e2) <= 0.005, (d, theta)


def test_kernel_assembly_memory_stays_quadratic():
    # the closed form builds no (n, n, k) angular tensor: a d = 5 kernel at
    # n = 320 is a few (n, n) arrays of 0.8 MB each
    pekar._unit_kernel.cache_clear()
    tracemalloc.start()
    try:
        pekar._unit_kernel(320, 1.2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("d", [3, 4, 5])
def test_kernel_assembly_matches_the_full_evaluation(d):
    # at d > 3 each unordered pair is evaluated once and mirrored: off the three
    # cell-averaged bands the kernel is the full (n, n) evaluation, bit for bit
    n = 41
    r = np.arange(1.0, n + 1.0)
    W = pekar._unit_kernel(n, 1.2, d)
    full = pekar.radial_kernel(r[:, None], r[None, :], 1.2, d)
    far = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
    assert np.array_equal(W[far], full[far])
    assert np.array_equal(W, W.T)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_unit_kernel_scales_to_every_grid(d):
    # w and its cell averages are homogeneous of degree -theta on a uniform grid
    n = 37
    for theta in (0.5, 1.2, 1.7):
        W1 = pekar._unit_kernel(n, theta, d)
        for h in (1e-3, 0.037, 7.0):
            direct = pekar._assemble_kernel(h * np.arange(1, n + 1), h, theta, d)
            assert np.allclose(h ** -theta * W1, direct, rtol=1e-13, atol=0), (theta, h)


def test_solves_differing_in_coupling_or_cutoff_share_one_assembly(monkeypatch):
    calls = []
    assemble = pekar._assemble_kernel
    monkeypatch.setattr(pekar, "_assemble_kernel", lambda *a: calls.append(a) or assemble(*a))
    pekar._unit_kernel.cache_clear()
    for g, r_max in ((1.0, None), (2.0, None), (1.0, 60.0)):
        pekar.solve(pekar.PekarProblem(theta=1.3, coupling=g, d=4, r_max=r_max, nodes=96))
    assert len(calls) == 1
    info = pekar._unit_kernel.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_cached_kernel_is_read_only():
    W = pekar._unit_kernel(24, 1.0, 3)
    with pytest.raises(ValueError):
        W[0, 0] = 0.0
    assert pekar._unit_kernel(24, 1.0, 3) is W


@pytest.mark.parametrize("theta, d, nodes, g, r_max, energy, iterations", [
    # captured from the solver that assembled the kernel on each solve's own grid
    (1.0, 3, 768, 1.0, None, -0.21703141838996298, 24),
    (0.5, 3, 320, 2.0, None, -1.0768818238513924, 29),
    (1.5, 3, 128, 0.7, None, -0.030455195745379762, 26),
    (1.2, 4, 128, 1.0, None, -0.05050064810665175, 39),
    (0.8, 4, 256, 1.5, 9.0, -0.3376352374689878, 20),
    (1.2, 5, 128, 1.0, None, -0.02152668857425806, 37),
    (1.6, 5, 320, 0.6, None, -2.6772555800527042e-05, 25),
])
def test_unit_grid_kernel_keeps_energies_and_iterations(theta, d, nodes, g, r_max,
                                                        energy, iterations):
    sol = pekar.solve(pekar.PekarProblem(theta, g, d, r_max=r_max, nodes=nodes))
    assert sol.energy == pytest.approx(energy, rel=1e-12, abs=0)
    assert sol.iterations == iterations


def test_profile_nonnegative_and_monotone():
    sol = pekar.solve(pekar.PekarProblem(theta=1.0, coupling=1.0))
    assert (sol.psi >= -1e-12).all()
    assert (np.diff(sol.psi) <= 1e-9).all()
    # normalized on the radial grid
    h = sol.radii[1] - sol.radii[0]
    area = 4.0 * math.pi
    mass = float(np.sum(sol.psi ** 2 * sol.radii ** 2) * h) * area
    assert mass == pytest.approx(1.0, rel=1e-6)


def test_grid_too_small_raises():
    with pytest.raises(GridTooSmall):
        pekar.solve(pekar.PekarProblem(theta=1.0, coupling=1.0, r_max=1.5, nodes=64))


def test_problem_validation():
    with pytest.raises(DomainError):
        pekar.PekarProblem(theta=2.0, coupling=1.0)
    with pytest.raises(DomainError):
        pekar.PekarProblem(theta=1.0, coupling=-1.0)
    with pytest.raises(DomainError):
        pekar.PekarProblem(theta=1.0, coupling=1.0, d=2)


def test_radial_kernel_newton_identity():
    # theta = 1, d = 3: the spherical average collapses to 1/max(r, r')
    r = np.array([0.5, 1.0, 2.0])
    rp = np.array([0.7, 1.0, 3.0])
    newt = pekar.radial_kernel(r, rp, 1.0, d=3)
    assert newt == pytest.approx(1.0 / np.maximum(r, rp), rel=1e-12)


def test_radial_kernel_against_mpmath_angular_integral():
    # oracle: the polar-angle integral with the sin^(d-2) weight at 30 digits;
    # |x - y|^2 = (r - r')^2 + 4 r r' sin^2(phi/2) does not cancel at r = r'
    pairs = ((1.0, 1.0), (0.5, 0.9), (1.0, 1.7), (2.0, 0.002), (3.0, 3.0 + 1e-9))
    with mp.workdps(30):
        for d in (4, 5, 7):
            z = mp.quad(lambda phi: mp.sin(phi) ** (d - 2), [0, mp.pi])
            for theta in (0.6, 1.6):
                for r, rp in pairs:
                    def integrand(phi):
                        dist2 = (r - rp) ** 2 + 4 * r * rp * mp.sin(phi / 2) ** 2
                        return dist2 ** (-mp.mpf(theta) / 2) * mp.sin(phi) ** (d - 2)
                    oracle = float(mp.quad(integrand, [0, mp.pi]) / z)
                    val = float(pekar.radial_kernel(r, rp, theta, d))
                    assert val == pytest.approx(oracle, rel=1e-12, abs=0), (d, theta, r, rp)


def test_sandwich_ordering_at_strong_coupling():
    rep = pekar.lower_bound_sandwich(models.build("polaron", alpha=12.0))
    assert rep.ordering_applies
    assert rep.ordering_ok
    assert rep.jensen_slope <= rep.pekar_slope <= rep.upper_slope


def test_sandwich_below_crossover_reports_without_ordering():
    rep = pekar.lower_bound_sandwich(models.build("polaron", alpha=5.0))
    assert not rep.ordering_applies
    assert rep.ordering_ok  # pekar <= upper still holds
    assert rep.pekar_slope < rep.jensen_slope


def test_sandwich_weak_coupling_slopes_agree_to_first_order():
    alpha = 0.05
    rep = pekar.lower_bound_sandwich(models.build("polaron", alpha=alpha))
    # jensen and upper slopes differ at O(alpha^2)
    assert rep.jensen_slope == pytest.approx(alpha, rel=1e-9)
    assert rep.upper_slope == pytest.approx(alpha, rel=0.02)


def test_virial_residual_is_the_exact_dilation_derivative():
    # E(lambda) = lambda^2 K - lambda^theta I has the derivative 2 K - theta I at 1
    sol = pekar.solve(pekar.PekarProblem(theta=1.3, coupling=1.0, nodes=128))
    exact = abs(2.0 * sol.kinetic - 1.3 * sol.interaction) / max(abs(sol.energy), sol.kinetic)
    assert sol.virial_residual == exact


def test_sandwich_rejects_indicator_coupling():
    model = models.build("nelson_q", gamma=1.0, tau=1.0, theta=1.5)
    with pytest.raises(NotPositiveDefinite):
        pekar.lower_bound_sandwich(model)
