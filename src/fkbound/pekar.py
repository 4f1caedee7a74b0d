"""Radial variational solver for the strong-coupling energy functional

    E(g, theta) = inf over ||psi||_2 = 1 of
        (1/2) int |grad psi|^2 dx  -  g iint psi(x)^2 psi(y)^2 / |x - y|^theta dx dy.

-E(g, theta) is the complementary *lower* bound on the log-slope of
E[exp(action)] for self-interacting paths with integrable positive definite
coupling (g playing the coupling mass), sandwiching the norm-based upper
bound at strong coupling.  E scales exactly as g^(2/(2-theta)), which the
solver reproduces rather than assumes.

Numerics: ground states are radial, so the problem reduces to the half-line
density amplitude v(r) (v^2 is the radial probability density) with

    E(v) = (1/2) int (v')^2 + c_d v^2/r^2 dr
           - g iint v(r)^2 w(r, r') v(r')^2 dr dr',
    c_d = (d-1)(d-3)/4,

where w is the spherical average of |x - y|^(-theta).  With R = max(r, r')
and rho = min(r, r') / R, the Gegenbauer expansion of |x - y|^(-theta) sums to

    w(r, r') = R^(-theta) 2F1(theta/2, 1 + (theta - d)/2; d/2; rho^2),

finite at rho = 1 since d - 1 - theta > 0.  In three dimensions the 2F1 is
elementary, and an order of magnitude cheaper than ``hyp2f1``, so d = 3 uses

    w(r, r') = ((r + r')^(2-theta) - |r - r'|^(2-theta)) / (2 r r' (2 - theta)),

which collapses to Newton's 1/max(r, r') at theta = 1.  The kernel matrix is
assembled once per (theta, d, n) on the unit grid r = 1..n and scaled by
h^-theta (at most 8 kept, 8 n^2 bytes each); rows near the diagonal are
cell-averaged with the integration split at the |r - r'| kink so the
quadratic form carries no low-order kink error.  Minimisation is projected
gradient descent on the mass sphere: the descent direction is the
Riemannian gradient run through an inverse shifted-Laplacian (Sobolev)
preconditioner so the step count does not grow with the grid resolution,
with Barzilai-Borwein step sizes and a monotone backtracking safeguard;
convergence is still judged on the plain projected-gradient norm.  The
preconditioner is tridiagonal and is applied by one LAPACK ``gtsv`` call
per step, the routine ``solve_banded((1, 1), ...)`` wraps.  Each iterate
also measures the gradient's roundoff floor, eps times the norm of the
gradient's terms (about 4 eps/h^2, from the Laplacian); the descent stops
with NoConvergence when PEKAR_GRAD lies far below that floor or the
projected gradient keeps landing on it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.special import gammaln, hyp2f1

from . import bounds as B
from .errors import DomainError, GridTooSmall, NoConvergence, NotPositiveDefinite, NumericalFailure
from .kernels import expectation_constant

__all__ = [
    "PekarProblem",
    "PekarSolution",
    "SandwichReport",
    "lower_bound_sandwich",
    "radial_kernel",
    "solve",
]

PEKAR_GRAD = 1e-8          # projected-gradient norm at convergence
PEKAR_ITERATIONS = 40000   # iteration cap of the descent
PEKAR_STALL = 16           # iterations on the gradient's roundoff floor before giving up
PEKAR_FLOOR_REACH = 64.0   # a floor this many times PEKAR_GRAD is out of reach


@dataclass(frozen=True)
class PekarProblem:
    theta: float
    coupling: float          # g, the mass of the coupling schedule
    d: int = 3
    r_max: float = None      # half-line cutoff; None picks one from the Gaussian scale
    nodes: int = 768

    def __post_init__(self):
        if not 0.0 < self.theta < 2.0:
            raise DomainError(f"theta must lie in (0, 2), got {self.theta}")
        if self.theta >= self.d:
            raise DomainError(f"need theta < d, got theta={self.theta}, d={self.d}")
        if not 0 <= self.coupling < math.inf:
            raise DomainError(f"coupling must be finite and nonnegative, got {self.coupling}")
        if self.d < 3:
            raise DomainError("radial reduction implemented for d >= 3")
        if self.nodes < 16:
            raise DomainError(f"node count must be >= 16, got {self.nodes}")
        if self.r_max is not None and not 0 < self.r_max < math.inf:
            raise DomainError(f"r_max must be positive and finite, got {self.r_max}")


@dataclass(frozen=True)
class PekarSolution:
    energy: float
    radii: np.ndarray
    psi: np.ndarray          # radial profile, nonneg and non-increasing
    iterations: int
    residual: float          # projected-gradient norm at exit
    kinetic: float
    interaction: float       # the (positive) magnitude of the attractive part
    virial_residual: float   # |dE(lambda)/dlambda at lambda=1| of the dilation family

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in ("radii", "psi")}


def gaussian_width(theta: float, coupling: float, d: int) -> float:
    """Stationary width of the Gaussian trial state, used for grid sizing
    and as the descent starting point."""
    c = coupling * expectation_constant(theta, d) * 2.0 ** (-theta / 2.0)
    return (d / (4.0 * theta * c)) ** (1.0 / (2.0 - theta))


def radial_kernel(r, rp, theta: float, d: int = 3):
    """Spherical average of |x - y|^(-theta) at radii r, r' (elementwise):
    R^(-theta) 2F1(theta/2, 1 + (theta - d)/2; d/2; (min/R)^2), R = max(r, r'),
    accurate to about 1e-13 in every dimension, the diagonal included.  At
    d = 3 the same function is elementary and about 13 times cheaper than
    ``hyp2f1`` on a kernel matrix, so that case keeps its form.
    """
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if d == 3:
        s = 2.0 - theta
        return ((r + rp) ** s - np.abs(r - rp) ** s) / (2.0 * r * rp * s)
    big = np.maximum(r, rp)
    rho2 = (np.minimum(r, rp) / big) ** 2
    return big ** -theta * hyp2f1(theta / 2.0, 1.0 + (theta - d) / 2.0, d / 2.0, rho2)


def _assemble_kernel(r: np.ndarray, h: float, theta: float, d: int) -> np.ndarray:
    n = len(r)
    if d == 3:  # elementary, and cheaper on the full matrix than through pair indices
        W = radial_kernel(r[:, None], r[None, :], theta, d)
    else:
        # the hyp2f1 form is exactly symmetric in (r, r'): evaluate each unordered pair
        # once and mirror it, skipping the three bands the loop below overwrites
        iu, ju = np.triu_indices(n, 2)
        W = np.zeros((n, n))
        W[iu, ju] = radial_kernel(r[iu], r[ju], theta, d)
        W += W.T
    # cell-average the three near-diagonal bands, splitting at the kink
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    for off in (-1, 0, 1):
        idx = np.arange(max(0, -off), min(n, n - off))
        rj = r[idx]
        rk = r[idx + off]
        lo, hi = rk - h / 2.0, rk + h / 2.0
        split = np.clip(rj, lo, hi)
        acc = np.zeros_like(rj)
        for a, b in ((lo, split), (split, hi)):
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            for x, wt in zip(gl_x, gl_w):
                acc += wt * half * radial_kernel(rj, mid + half * x, theta, d)
        W[idx, idx + off] = acc / h
    # symmetrise: quadratic form unchanged, gradient exactly consistent
    return 0.5 * (W + W.T)


@functools.lru_cache(maxsize=8)
def _unit_kernel(n: int, theta: float, d: int) -> np.ndarray:
    """Read-only kernel on the unit grid r = 1..n.  w and its cell averages
    are homogeneous of degree -theta, so the kernel on r = h (1..n) is h^-theta
    times this one.  Holds at most 8 kernels of 8 n^2 bytes (4.7 MB at 768 nodes).
    """
    W = _assemble_kernel(np.arange(1.0, n + 1.0), 1.0, theta, d)
    W.flags.writeable = False
    return W


def _tridiagonal_solver(band: np.ndarray):
    """vec -> x solving A x = vec, for the tridiagonal A in the (1, 1) layout
    of ``solve_banded``: one LAPACK gtsv call, the routine ``solve_banded``
    runs, without its validation and batching wrapper.  gtsv factors copies
    of the three diagonals, which are sliced from band once."""
    du, diag, dl = band[0, 1:], band[1], band[2, :-1]

    def solve_tridiagonal(vec: np.ndarray) -> np.ndarray:
        x, info = dgtsv(dl, diag, du, vec)[3:]
        if info:
            raise NumericalFailure(f"preconditioner is singular at row {info}")
        return x

    return solve_tridiagonal


def solve(problem: PekarProblem) -> PekarSolution:
    """Minimise the discretised radial functional on the mass sphere.

    Raises NoConvergence if the projected gradient stalls above PEKAR_GRAD,
    if an iterate's roundoff floor exceeds PEKAR_FLOOR_REACH times PEKAR_GRAD
    (a stalled projected gradient sits at 0.07-0.5 of the floor, measured at
    d 3-5 on 16-768 nodes), or if the projected gradient has fallen onto that
    floor on PEKAR_STALL iterations; GridTooSmall if the minimiser presses
    against r_max; and NumericalFailure if the Gaussian width or the grid
    step leaves floating-point range or the projected gradient is not finite.
    """
    theta, g, d, n = problem.theta, problem.coupling, problem.d, problem.nodes
    if g == 0.0:
        # zero coupling: infimum 0, not attained; report the trivial profile
        r_max = problem.r_max if problem.r_max is not None else 1.0
        r = r_max / (n + 1) * np.arange(1, n + 1)
        return PekarSolution(0.0, r, np.zeros(n), 0, 0.0, 0.0, 0.0, 0.0)
    try:
        width = gaussian_width(theta, g, d)
    except ArithmeticError:  # the width overflows, or its scale c underflows to 0
        width = math.inf
    r_max = problem.r_max if problem.r_max is not None else 14.0 * width
    h = r_max / (n + 1)
    for name, scale in (("Gaussian width", width), ("grid step", h)):
        # width^2, h^2 and the preconditioner's 1/width^2 and 1/h^2 stay finite
        if not sys.float_info.min <= scale * scale < math.inf:
            raise NumericalFailure(f"{name} {scale!r} is out of floating-point range")
    r = h * np.arange(1, n + 1)
    r2 = r * r
    W = _unit_kernel(n, theta, d)
    gh = g * h ** (2.0 - theta)  # g h^2 times the h^-theta of the unit-grid kernel
    cd = (d - 1) * (d - 3) / 4.0

    dv = np.zeros(n + 1)  # (v_0, v_1 - v_0, ..., -v_(n-1)): v vanishes off the grid

    def energy_grad(v: np.ndarray):
        dv[0], dv[n] = v[0], -v[-1]
        np.subtract(v[1:], v[:-1], out=dv[1:n])
        kin = 0.5 * float(dv @ dv) / h
        q = v * v
        if cd:
            kin += 0.5 * cd * float(np.sum(q / r2)) * h
        Wq = W @ q
        inter = gh * float(q @ Wq)
        # grad = lap / h - 4 gh v Wq (+ c_d v / r^2 h), in place in that order
        grad = 2.0 * v
        grad[1:] -= v[:-1]
        grad[:-1] -= v[1:]
        grad /= h
        term = 4.0 * gh * v
        term *= Wq
        grad -= term
        if cd:
            np.multiply(cd, v, out=term)
            term /= r2
            term *= h
            grad += term
        return kin - inter, grad, kin, inter

    # Sobolev preconditioner: (sigma + L_h + c_d/r^2)^-1 applied by a
    # tridiagonal solve; sigma sits at the soft-mode curvature scale so smooth
    # and stiff directions step comparably
    sigma = 1.0 / (width * width)
    band = np.zeros((3, n))
    band[0, 1:] = -1.0 / (h * h)
    band[1, :] = sigma + 2.0 / (h * h) + (cd / r2 if cd else 0.0)
    band[2, :-1] = -1.0 / (h * h)
    precondition = _tridiagonal_solver(band)
    # G_i sums terms of magnitude (2 v_i + v_(i-1) + v_(i+1))/h^2, 4 gh v_i (W q)_i / h
    # and c_d v_i/r_i^2, all nonnegative since v >= 0, so their sum is
    # (4/h^2 + 2 c_d/r^2) v - G; each entry of G is rounded at relative eps of it
    term_scale = 4.0 / (h * h) + (2.0 * cd / r2 if cd else 0.0)

    v = r * np.exp(-r2 / (4.0 * width * width))
    mass = float(v @ v) * h
    if not 0.0 < mass < math.inf:
        raise NumericalFailure(f"grid step {h!r} does not resolve the Gaussian width {width!r}")
    v /= math.sqrt(mass)
    E, grad, kin, inter = energy_grad(v)
    step = 1.0
    prev_v = prev_dir = None
    pg_norm = math.inf
    iterations = on_floor = 0
    # backtracking accepts up to additive float roundoff of the energy scale
    eps = np.finfo(float).eps
    slack = 64.0 * eps
    for iterations in range(1, PEKAR_ITERATIONS + 1):
        G = grad / h
        pg = G - (float(G @ v) * h) * v
        pg_norm = math.sqrt(float(pg @ pg) * h)
        if pg_norm <= PEKAR_GRAD:
            break
        if not pg_norm < math.inf:
            raise NumericalFailure(f"projected gradient is not finite at iteration {iterations}")
        terms = term_scale * v - G
        floor = eps * math.sqrt(float(terms @ terms) * h)
        on_floor += pg_norm <= floor
        if on_floor == PEKAR_STALL or floor > PEKAR_FLOOR_REACH * PEKAR_GRAD:
            raise NoConvergence(
                f"tolerance {PEKAR_GRAD} is out of reach of the gradient's roundoff floor "
                f"{floor:.3e} (projected gradient {pg_norm:.3e} at iteration {iterations})"
            )
        dirn = precondition(pg)
        dirn -= (float(dirn @ v) * h) * v
        if prev_v is not None:
            sv = v - prev_v
            sg = dirn - prev_dir
            denom = float(sv @ sg) * h
            step = float(sv @ sv) * h / denom if denom > 1e-300 else 1.0
        step = min(max(step, 1e-8), 1e6)
        prev_v, prev_dir = v, dirn  # neither is written to again
        t = step
        accepted = False
        tol_e = slack * max(1.0, abs(E))
        for _ in range(60):
            vn = np.abs(v - t * dirn)
            vn /= math.sqrt(float(vn @ vn) * h)
            En, gn, kn, intn = energy_grad(vn)
            if En <= E + tol_e:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        v, E, grad, kin, inter = vn, En, gn, kn, intn
    if not pg_norm <= PEKAR_GRAD:
        raise NoConvergence(
            f"projected gradient {pg_norm:.3e} above {PEKAR_GRAD} after {iterations} iterations"
        )
    tail_mass = float(v[-3:] @ v[-3:]) * h
    if tail_mass > 1e-6:
        raise GridTooSmall(
            f"mass {tail_mass:.3e} in the last grid cells; increase r_max"
        )
    # dilation stationarity: E(lambda) = lambda^2 K - lambda^theta I has the
    # derivative 2 K - theta I at lambda = 1, taken relative to the energy scale
    virial = abs(2.0 * kin - theta * inter) / max(abs(E), kin)
    psi = v / np.sqrt(_sphere_area(d) * r ** (d - 1))
    return PekarSolution(energy=E, radii=r, psi=psi, iterations=iterations,
                         residual=pg_norm, kinetic=kin, interaction=inter,
                         virial_residual=virial)


def _sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0))


# ---------------------------------------------------------------------------
# sandwich against the norm-based machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichReport:
    """Three log-slopes for one self-interaction model.

    jensen_slope <= true slope and pekar_slope <= true slope are both
    rigorous; upper_slope >= true slope.  The variational slope overtakes the
    expectation slope only beyond a coupling crossover, so the full ordering
    jensen <= pekar <= upper is asserted only there.
    """

    model: str
    jensen_slope: float
    pekar_slope: float
    upper_slope: float
    ordering_applies: bool
    ordering_ok: bool

    def as_dict(self) -> dict:
        return asdict(self)


def lower_bound_sandwich(model, nodes: int = 320) -> SandwichReport:
    """Slope triple (Jensen, variational, norm-bound) for a self-interaction model.

    Requires the model's coupling to extend to a symmetric positive definite
    function with finite mass g; exponential decay qualifies, a sharp cutoff
    does not (its symmetric extension has a sign-changing transform) and is
    rejected.
    """
    if model.mc_kind != "self_double":
        raise DomainError("sandwich applies to self-interaction models")
    f = model.mc_f
    if not f.positive_definite_extension():
        raise NotPositiveDefinite(
            f"{type(f).__name__} coupling has no positive definite symmetric extension"
        )
    g = f.mass_limit()
    jens = model.jensen_slope()
    upper = B.energy_lower_bound(model).slope
    if g == 0.0:
        return SandwichReport(model.name, 0.0, 0.0, 0.0, True, True)
    sol = solve(PekarProblem(theta=model.theta, coupling=g, d=model.d, nodes=nodes))
    pek = -sol.energy
    # pekar <= upper and jensen <= upper hold for every coupling; jensen <= pekar
    # only beyond the strong-coupling crossover
    applies = pek >= jens * (1.0 - 1e-9)
    ok = pek <= upper * (1.0 + 1e-9)
    if applies:
        ok = ok and jens <= pek * (1.0 + 1e-9)
    return SandwichReport(model.name, jens, pek, upper, applies, ok)
