"""Heat-kernel analytics behind the bounds.

Contents:

* the Gaussian transition density p_t(z) of d-dimensional Brownian motion,
* a numeric verification of the subordination identity writing 1/|x|^theta
  as a time integral of heat kernels,
* the smoothing coefficient a(theta, r, h) produced when a heat kernel is
  convolved against the gradient of the singular potential, together with
  its uniform bound 2 ||h||_inf / (theta (d - theta)),
* closed-form expectations of the three action types (single, self-pair,
  cross-pair), the cross-pair one as a Hardy-Littlewood-Sobolev upper bound,
* the pointwise bound on the conditioned stochastic derivative of the
  single action, plus its direct quadrature companion.

The a(theta, r, h) evaluation starts from the final two-time-variable
integral representation (not the d-dimensional convolution) and applies the
same changes of variables used to prove its bound; for the supported weight
shapes the inner integral collapses to incomplete-gamma or Bessel-K terms,
leaving one adaptive quadrature with an algebraic endpoint weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from scipy import integrate
from scipy.special import gammaincc, gammaln, hyp2f1, kv

from .bounds import BoundParams
from .config import QUAD_ABS, QUAD_REL, sharp_hls_constant
from .errors import DomainError, QuadratureFailure
from .schedule import CouplingFunction, evaluate, is_zero, iterated_norm, norm

__all__ = [
    "ConvolutionCoefficient",
    "ExpectationFormula",
    "ExpWeight",
    "HeatKernelQuery",
    "IndicatorWeight",
    "One",
    "clark_ocone_variance_bound",
    "conditioned_derivative_magnitude",
    "convolution_bound",
    "convolution_coefficient",
    "expectation_constant",
    "expected_action",
    "heat_kernel",
    "stochastic_derivative_bound",
    "subordination_check",
]


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatKernelQuery:
    t: float
    r: float
    d: int

    def __post_init__(self):
        if not self.t > 0:
            raise DomainError(f"time must be positive, got {self.t}")
        if self.r < 0:
            raise DomainError(f"radius must be nonnegative, got {self.r}")
        if int(self.d) != self.d or self.d < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.d}")


def heat_kernel(q: HeatKernelQuery) -> float:
    """p_t(z) = (2 pi t)^(-d/2) exp(-|z|^2 / (2t)) at |z| = r."""
    return (2.0 * math.pi * q.t) ** (-q.d / 2.0) * math.exp(-q.r * q.r / (2.0 * q.t))


def expectation_constant(theta: float, d: int) -> float:
    """K = Gamma((d - theta)/2) / (2^(theta/2) Gamma(d/2)).

    E[ |X_t|^(-theta) ] = K t^(-theta/2) for a standard d-dimensional
    Brownian motion; K is the prefactor of every closed-form expectation
    below.  Needs theta < d.
    """
    if not 0.0 < theta < d:
        raise DomainError(f"need 0 < theta < d, got theta={theta}, d={d}")
    return math.exp(gammaln((d - theta) / 2.0) - gammaln(d / 2.0) - (theta / 2.0) * math.log(2.0))


# ---------------------------------------------------------------------------
# subordination identity
# ---------------------------------------------------------------------------

def subordination_check(theta: float, r: float, d: int) -> float:
    """Relative residual of the identity

        1/r^theta = (2 pi)^(d/2) / (2^(theta/2) Gamma(theta/2))
                    * int_0^inf s^((d-theta-2)/2) p_s(r) ds.

    The right side is integrated numerically: directly on (0, r^2], and via
    the substitution u = r^2/(2s) on the power-law tail, where the weight
    u^(theta/2 - 1) is handled by an algebraic-endpoint quadrature rule.
    """
    if not 0.0 < theta < d:
        raise DomainError(f"need 0 < theta < d, got theta={theta}, d={d}")
    if not r > 0:
        raise DomainError(f"radius must be positive, got {r}")
    pref = (2.0 * math.pi) ** (-d / 2.0)

    def head(s):
        log_val = -(theta + 2.0) / 2.0 * math.log(s) - r * r / (2.0 * s)
        return pref * math.exp(log_val) if log_val > -745.0 else 0.0

    i_head, e_head = integrate.quad(head, 0.0, r * r,
                                    epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=200)
    # tail: int_{r^2}^inf -> (2 pi)^(-d/2) 2^(theta/2) r^-theta int_0^(1/2) u^(theta/2-1) e^-u du
    i_tail, e_tail = integrate.quad(lambda u: math.exp(-u), 0.0, 0.5,
                                    weight="alg", wvar=(theta / 2.0 - 1.0, 0.0),
                                    epsabs=QUAD_ABS, limit=200)
    i_tail *= pref * 2.0 ** (theta / 2.0) * r ** (-theta)
    rhs = (2.0 * math.pi) ** (d / 2.0) / (2.0 ** (theta / 2.0) * math.exp(gammaln(theta / 2.0)))
    rhs *= i_head + i_tail
    lhs = r ** (-theta)
    residual = abs(rhs - lhs) / lhs
    if e_head + e_tail > 1e-6 * lhs:
        raise QuadratureFailure(
            f"subordination quadrature error {e_head + e_tail:.3e} too large"
        )
    return residual


# ---------------------------------------------------------------------------
# convolution coefficient a(theta, r, h)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class One:
    """h identically 1."""

    amplitude: float = 1.0


@dataclass(frozen=True)
class IndicatorWeight:
    """h(x) = amplitude on [0, length], zero afterwards."""

    length: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.length > 0:
            raise DomainError(f"weight length must be positive, got {self.length}")


@dataclass(frozen=True)
class ExpWeight:
    """h(x) = amplitude * exp(-rate x)."""

    rate: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise DomainError(f"weight rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class _ProfileWeight:
    """h(x) = amplitude * exp(-rate x) on [0, length]; internal, used to carry
    a shifted coupling profile into the conditioned-derivative check."""

    amplitude: float
    rate: float
    length: float


Weight = Union[One, IndicatorWeight, ExpWeight, _ProfileWeight]


@dataclass(frozen=True)
class ConvolutionCoefficient:
    theta: float
    r: float
    d: int
    value: float
    bound: float


def convolution_bound(theta: float, d: int, sup_h: float = 1.0) -> float:
    """The uniform coefficient bound 2 ||h||_inf / (theta (d - theta))."""
    if not 0.0 < theta < 2.0 or theta >= d:
        raise DomainError(f"need 0 < theta < min(2, d), got theta={theta}, d={d}")
    return 2.0 * sup_h / (theta * (d - theta))


def _inner_over_gamma(h: Weight, theta: float, x2: float) -> Callable[[float], float]:
    """Returns xi -> J(xi) / (Gamma(theta/2) theta) where

        J(xi) = int_0^inf h(xi x2 / (2u)) u^(theta/2 - 1) e^-u du.

    For the supported shapes J is an (incomplete-)gamma or Bessel-K value;
    the mixed profile falls back to one adaptive quadrature in u.
    """
    half = theta / 2.0
    lg = gammaln(half)

    if isinstance(h, One):
        c = h.amplitude / theta
        return lambda xi: c
    if isinstance(h, IndicatorWeight):
        # h != 0 iff u >= xi x2 / (2 length): upper incomplete gamma
        scale = x2 / (2.0 * h.length)
        c = h.amplitude / theta
        return lambda xi: c * float(gammaincc(half, xi * scale))
    if isinstance(h, ExpWeight):
        scale = h.rate * x2 / 2.0
        c = h.amplitude / theta

        def g(xi: float) -> float:
            beta = xi * scale
            if beta < 1e-290:
                return c
            val = 2.0 * beta ** (half / 2.0) * float(kv(half, 2.0 * math.sqrt(beta)))
            return c * val * math.exp(-lg)

        return g
    if isinstance(h, _ProfileWeight):
        ustar_scale = x2 / (2.0 * h.length) if h.length > 0 else math.inf
        beta_scale = h.rate * x2 / 2.0
        c = h.amplitude / theta

        def g(xi: float) -> float:
            lo = xi * ustar_scale
            beta = xi * beta_scale

            def f(u: float) -> float:
                return u ** (half - 1.0) * math.exp(-u - (beta / u if u > 0 else 0.0))

            # split at the peak of e^(-u - beta/u), where the integrand turns
            top = max(lo, math.sqrt(beta), 1e-300)
            val = sum(_checked(integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=200),
                               "profile weight")
                      for a, b in ((max(lo, 1e-300), top), (top, math.inf)))
            if lo < 1e-300 and beta == 0.0:
                val = math.exp(lg)
            return c * val * math.exp(-lg)

        return g
    raise DomainError(f"unknown weight variant {type(h).__name__}")


def convolution_coefficient(theta: float, r: float, h: Weight, d: int) -> ConvolutionCoefficient:
    """Coefficient a(theta, r, h) of the smoothed singular gradient.

    Defined through

        int_0^inf h(t) int p_t(y) (x - y) / |x - y|^(theta+2) dy dt
            = a(theta, |x|, h) x / |x|^theta,

    and evaluated from the equivalent two-variable representation after the
    rescaling t -> |x|^2 t and the substitution u = 1/(2(t+s)):

        a = 1/(Gamma(theta/2) theta) int_0^1 (1 - xi)^((d-theta-2)/2)
            int_0^inf h(xi r^2 / (2u)) u^(theta/2 - 1) e^-u du dxi.

    For h identically constant the double integral collapses exactly to
    2 h / (theta (d - theta)), which is returned without quadrature so that
    the coefficient never exceeds its bound by roundoff.
    """
    if not 0.0 < theta < 2.0 or theta >= d:
        raise DomainError(f"need 0 < theta < min(2, d), got theta={theta}, d={d}")
    if not r > 0:
        raise DomainError(f"radius must be positive, got {r}")
    bound = convolution_bound(theta, d, abs(h.amplitude))
    if isinstance(h, One):
        value = h.amplitude * 2.0 / (theta * (d - theta))
        return ConvolutionCoefficient(theta, r, d, value, bound)
    value = _quadrature_value(theta, r, h, d)
    return ConvolutionCoefficient(theta, r, d, value, bound)


def _checked(quad_result: tuple, what: str) -> float:
    """The value of a (value, error estimate) pair whose error is within 1e-6 max(1, |value|)."""
    val, err = quad_result
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureFailure(f"{what} error estimate {err:.3e} too large")
    return val


def _quadrature_value(theta: float, r: float, h: Weight, d: int) -> float:
    """Quadrature path for a(theta, r, h); also the cross-check for h = One."""
    g = _inner_over_gamma(h, theta, r * r)
    gamma_exp = (d - theta - 2.0) / 2.0
    return _checked(integrate.quad(g, 0.0, 1.0, weight="alg", wvar=(0.0, gamma_exp),
                                   epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=200),
                    "convolution coefficient")


# ---------------------------------------------------------------------------
# closed-form expectations of the actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpectationFormula:
    """E[action] (or an upper bound on it, when flagged)."""

    kind: str                # "single" | "self_double" | "cross_double"
    K: float
    value: float
    is_upper_bound: bool = False
    note: str = ""


def expected_action(kind: str, f: CouplingFunction, params: BoundParams,
                    offset_radius: float = 0.0) -> ExpectationFormula:
    """Closed-form expectation of the action over Brownian paths.

    single:      K |f(t)/t^(theta/2)|_{1,T}; exact when the path starts at
                 the origin, an upper bound otherwise (flagged).
    self_double: K int_0^T |f(s)/s^(theta/2)|_{1,t} dt, exact regardless of
                 the starting point.
    cross_double: no exact display is exposed; returns the
                 Hardy-Littlewood-Sobolev upper bound with the sharp
                 constant.
    """
    theta, d, T = params.theta, params.d, params.T
    K = expectation_constant(theta, d)
    if is_zero(f) or T == 0.0:
        return ExpectationFormula(kind, K, 0.0)
    if kind == "single":
        val = K * norm(f, 1.0, T, weight=theta / 2.0)
        up = offset_radius > 0.0
        return ExpectationFormula(
            kind, K, val,
            is_upper_bound=up,
            note="upper bound away from the origin" if up else "exact at the origin",
        )
    if kind == "self_double":
        val = K * iterated_norm(f, T, 1.0, theta / 2.0, 1.0)
        return ExpectationFormula(kind, K, val, note="exact")
    if kind == "cross_double":
        hls = sharp_hls_constant(d, theta)
        p = 2.0 * d / (2.0 * d - theta)
        q = 2.0 * d / theta
        pref = hls * p ** (-d / p) * (2.0 * math.pi) ** (-d / q)
        a = theta / 4.0  # = d/(2q)

        def inner(u):
            # int_0^(T-u) (u+x)^-a x^-a dx = u^(1-2a) z^(1-a)/(1-a) 2F1(a, 1-a; 2-a; -z),
            # z = (T-u)/u, on an array of 0 < u <= T; hypergeometric form stays
            # stable as u -> 0
            z = (T - u) / u
            return u ** (1.0 - 2.0 * a) * z ** (1.0 - a) / (1.0 - a) * hyp2f1(a, 1.0 - a, 2.0 - a, -z)

        def primitive(s):
            # int_0^s inner(u) du up to a constant; in the later time y = u + x
            # it is int_s^T y^-a (y-s)^(1-a) dy / (a-1), an Euler integral
            return ((T - s) ** (2.0 - a) * T ** -a / ((a - 1.0) * (2.0 - a))
                    * hyp2f1(a, 1.0, 3.0 - a, 1.0 - s / T))

        val = f.integral_against(T, inner, primitive)
        return ExpectationFormula(
            kind, K, pref * val,
            is_upper_bound=True,
            note=f"HLS upper bound, constant {hls:.6g}",
        )
    raise DomainError(f"unknown action kind {kind!r}")


# ---------------------------------------------------------------------------
# conditioned stochastic derivative of the single action
# ---------------------------------------------------------------------------

def _require_non_increasing(f: CouplingFunction) -> None:
    if not f.non_increasing():
        raise DomainError("coupling must be non-increasing; apply the envelope first")


def stochastic_derivative_bound(f: CouplingFunction, theta: float, d: int,
                                u: float, x_radius: float) -> float:
    """Pointwise bound 2 f(u) / ((d - theta) |z|^(theta-1)) on the conditioned
    derivative of the single action at time u, path position radius |z|.

    Valid for non-increasing couplings and 1 <= theta < 2; for theta below 1
    the derivative estimate takes a different form and is not used.
    """
    if not 1.0 <= theta < 2.0:
        raise DomainError(f"derivative bound needs 1 <= theta < 2, got {theta}")
    if not x_radius > 0:
        raise DomainError(f"radius must be positive, got {x_radius}")
    _require_non_increasing(f)
    return 2.0 * float(evaluate(f, u)) / ((d - theta) * x_radius ** (theta - 1.0))


def conditioned_derivative_magnitude(f: CouplingFunction, theta: float, d: int,
                                     u: float, x_radius: float, T: float) -> float:
    """|conditioned derivative| computed directly, theta |a| |z|^(1-theta),
    with the weight h carrying the shifted coupling profile f(. + u) on
    [0, T - u].  Companion to :func:`stochastic_derivative_bound`; the
    quadrature value never exceeds the pointwise bound.
    """
    if not 0.0 < theta < 2.0 or theta >= d:
        raise DomainError(f"need 0 < theta < min(2, d), got theta={theta}, d={d}")
    if not 0.0 <= u < T:
        raise DomainError(f"need 0 <= u < T, got u={u}, T={T}")
    _require_non_increasing(f)
    amplitude, rate, length = f.shifted_profile(u, T)
    if length <= 0.0:
        return 0.0
    if rate == 0.0:
        h: Weight = IndicatorWeight(length=length, amplitude=amplitude)
    else:
        h = _ProfileWeight(amplitude=amplitude, rate=rate, length=length)
    a = convolution_coefficient(theta, x_radius, h, d)
    return theta * abs(a.value) * x_radius ** (1.0 - theta)


def clark_ocone_variance_bound(f: CouplingFunction, d: int, T: float) -> float:
    """Variance bound for the single action at theta = 1.

    The decomposition action = mean + stochastic integral gives, by the
    integral isometry, Var = E int rho_u^2 du, and |rho_u| <= 2 f(u)/(d-1)
    pointwise, so Var <= (2/(d-1))^2 |f^2|_{1,T}.
    """
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    return (2.0 / (d - 1.0)) ** 2 * norm(f, 2.0, T) ** 2
