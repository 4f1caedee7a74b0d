"""Harmonic-oscillator reference solution.

The quadratic action S_T = -(w^2/2) int_0^T X_t^2 dt over one-dimensional
Brownian motion is exactly solvable: ln E[exp(S_T)] = -ln(cosh(w T))/2.
The same number is reconstructed here through a stochastic-integral route,
by solving the deterministic integral equation

    -w^2 (T - s) = r(s, T) - int_s^T r(t, T)^2 dt,      r(T, T) = 0,

for the coefficient r(s, T) of the integrand rho(s) = r(s, T) X_s, and then
assembling

    ln E[exp(S_T)] = E[S_T] + (1/2) E[ int_0^T rho(s)^2 ds ]
                   = -w^2 T^2 / 4 + (1/2) int_0^T r(s, T)^2 s ds.

The integral equation is differentiated to the terminal-value problem
r' = w^2 - r^2, integrated backward with a fourth-order scheme; the original
integral form is used only as a residual certificate.  The known solution
r(s, T) = w tanh(w (s - T)) anchors the tests.  This module certifies the
exactness route for a quadratic action, the case the norm-based bounds do
not cover.  The N-step midpoint action the Monte Carlo check samples has an
exact log-moment too (``discrete_log_moment``, O(N)), so the check's grid
bias is computed, not fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .config import ODE_RESIDUAL
from .errors import DomainError, StepSizeFailure, VerificationError
from .mc import McEstimate, PathEnsemble, _QuadraticSampler, _estimates

__all__ = [
    "OscillatorConfig",
    "OscillatorExpectation",
    "OscillatorMcReport",
    "RiccatiSolution",
    "discrete_log_moment",
    "log_expectation",
    "mc_crosscheck",
    "solve_riccati",
]


@dataclass(frozen=True)
class OscillatorConfig:
    omega: float
    T: float
    grid: int = 2048

    def __post_init__(self):
        if not 0 <= self.omega < 2.0 ** 511:  # the Riccati solve squares it
            raise DomainError(f"frequency must be nonnegative with a finite square, got {self.omega}")
        if not 0 < self.T < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.T}")
        if self.grid < 8:
            raise DomainError(f"grid must have at least 8 steps, got {self.grid}")


@dataclass(frozen=True)
class RiccatiSolution:
    nodes: np.ndarray        # s_0 = 0 ... s_n = T
    values: np.ndarray       # r(s_i, T), terminal value 0
    residual: float          # max residual of the integral equation

    def closed_form(self, omega: float, T: float) -> np.ndarray:
        return omega * np.tanh(omega * (self.nodes - T))


def solve_riccati(cfg: OscillatorConfig) -> RiccatiSolution:
    """Backward RK4 integration of r' = w^2 - r^2 from r(T) = 0.

    Refines the grid until the residual of the integral equation
    -w^2(T - s) = r(s) - int_s^T r^2 dt drops below the tolerance at every
    node, or raises StepSizeFailure.
    """
    w, T = cfg.omega, cfg.T
    n = cfg.grid
    for _ in range(6):
        s = np.linspace(0.0, T, n + 1)
        h = T / n
        r = np.zeros(n + 1)
        rv = 0.0

        def rhs(v: float) -> float:
            return w * w - v * v

        for i in range(n, 0, -1):
            k1 = rhs(rv)
            k2 = rhs(rv - 0.5 * h * k1)
            k3 = rhs(rv - 0.5 * h * k2)
            k4 = rhs(rv - h * k3)
            rv -= h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            r[i - 1] = rv
        cum = np.concatenate([[0.0], cumulative_simpson(r * r, x=s)])
        tail = cum[-1] - cum
        residual = float(np.abs(-w * w * (T - s) - (r - tail)).max())
        if residual <= ODE_RESIDUAL:
            return RiccatiSolution(nodes=s, values=r, residual=residual)
        n *= 2
    raise StepSizeFailure(
        f"integral-equation residual {residual:.3e} above {ODE_RESIDUAL} "
        f"at maximum refinement"
    )


@dataclass(frozen=True)
class OscillatorExpectation:
    closed_form: float       # -ln(cosh(w T)) / 2
    reconstructed: float     # -w^2 T^2/4 + (1/2) int r^2 s ds
    residual: float
    riccati: RiccatiSolution = field(repr=False, compare=False)  # the solve behind it

    def as_dict(self) -> dict:
        return {"closed_form": self.closed_form, "reconstructed": self.reconstructed,
                "residual": self.residual}


def _log_cosh(x: float) -> float:
    # overflow-safe ln cosh
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def log_expectation(cfg: OscillatorConfig) -> OscillatorExpectation:
    """ln E[exp(S_T)] by closed form and by stochastic-integral reconstruction.

    The reconstruction uses E[X_s^2] = s for the one-dimensional path.  The
    two values must agree to 1e-7; disagreement means the solver residual
    certificate failed and raises.
    """
    w, T = cfg.omega, cfg.T
    closed = -0.5 * _log_cosh(w * T)
    sol = solve_riccati(cfg)
    if w == 0.0:
        return OscillatorExpectation(0.0, 0.0, 0.0, sol)
    recon = -w * w * T * T / 4.0 + 0.5 * float(
        simpson(sol.values ** 2 * sol.nodes, x=sol.nodes)
    )
    residual = abs(recon - closed)
    if residual > 1e-7:
        raise VerificationError(
            f"oscillator reconstruction residual {residual:.3e} exceeds 1e-7"
        )
    return OscillatorExpectation(closed, recon, residual, sol)


def discrete_log_moment(cfg: OscillatorConfig, steps: int) -> float:
    """Exact ln E[exp(A_N)] of the N-step midpoint action A_N = -(w^2/2) sum_k X(t_k)^2 dt.

    The midpoint values X(t_k), t_k = (k + 1/2) dt, are a Gaussian random walk
    with independent steps of variance dt/2 and then dt.  Integrating them out
    from the last one back keeps the conditional moment of the form
    C exp(-b x^2): a step of variance v maps b to b / (1 + 2 b v) and
    multiplies C by (1 + 2 b v)^(-1/2).  The O(N) recursion equals
    -(1/2) ln det(I + w^2 dt min(t_j, t_k)) without the N x N matrix.
    """
    if steps < 1:
        raise DomainError(f"need at least one step, got {steps}")
    dt = cfg.T / steps
    a = 0.5 * cfg.omega * cfg.omega * dt
    b, log_c = a, 0.0
    for _ in range(steps - 1):
        log_c -= 0.5 * math.log1p(2.0 * b * dt)
        b = a + b / (1.0 + 2.0 * b * dt)
    return log_c - 0.5 * math.log1p(b * dt)


@dataclass(frozen=True)
class OscillatorMcReport:
    estimate: McEstimate
    closed_form: float
    log_difference: float
    discrete: float          # the exact N-step value the estimate estimates
    grid_bias: float         # discrete - closed_form

    @property
    def tolerance(self) -> float:
        """3 se about the exact N-step value, plus its distance |grid_bias| to the closed form."""
        return 3.0 * self.estimate.stderr_log + abs(self.grid_bias)

    @property
    def within_tolerance(self) -> bool:
        """|log_mean - closed_form| <= ``tolerance``."""
        return bool(abs(self.log_difference) <= self.tolerance)

    def as_dict(self) -> dict:
        out = self.estimate.as_dict()
        out.update({"closed_form": self.closed_form,
                    "log_difference": self.log_difference,
                    "discrete": self.discrete, "grid_bias": self.grid_bias})
        return out


def mc_crosscheck(cfg: OscillatorConfig, paths: int, steps: int,
                  seed: int) -> OscillatorMcReport:
    """Monte Carlo estimate of E[exp(S_T)] against the closed form.

    One-dimensional paths, midpoint rule: each path gives its exact log-moment
    given the grid nodes (``mc``'s quadratic sampler draws only increments), so
    E[exp] is that of bridge-sampled midpoints, whose exact value is
    ``discrete_log_moment``.  Bit-identical for given
    (omega, T, paths, steps, seed) whatever the batch size.
    Restricted to w T <= 4, where the exponential moment is comfortably
    estimable.
    """
    w, T = cfg.omega, cfg.T
    if w * T > 4.0:
        raise DomainError(f"crosscheck restricted to omega*T <= 4, got {w * T}")
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps, horizon=T, dim=1)
    est = _estimates(_QuadraticSampler(w, ensemble), ensemble)[1][0]
    closed = -0.5 * _log_cosh(w * T)
    discrete = discrete_log_moment(cfg, steps)
    return OscillatorMcReport(estimate=est, closed_form=closed,
                              log_difference=est.log_mean - closed,
                              discrete=discrete, grid_bias=discrete - closed)
