"""Closed-form upper bounds on ln E[exp(action)] and the energies they imply.

Three families of exponential Brownian functionals are covered, indexed by
how the singular interaction 1/|.|^theta is driven:

* theorem 1: a single time integral along one path,
* theorem 2: a double time integral of the path against its own past,
* theorem 3: a double time integral between two independent paths.

``theorem_bound(theorem, f, params)`` is the one entry point for all three.
Each bound is a sum of two explicit terms built from coupling-schedule norms
and the dimension/exponent coefficients A, B, C, D below.  Everything is
computed and reported in the natural-log domain; exp-domain values overflow
for moderate coupling and every consumer (energy extraction, Monte Carlo
comparison) works with logs.

For theta exactly 1 the two analytic branches of each theorem coincide; both
are evaluated and cross-checked rather than privileging one.  Each distinct
norm of the evaluated branches is computed once, so at theta = 1 both read
one set of norms.  Theorems 1 and 2 share the shape of their terms and differ
only in those norms: |f|-norms for theorem 1, their time integrals for
theorem 2.

Energy bounds, energy >= -lim log_bound(T)/T, take that slope in closed form
only (``analytic_slope``); ``ladder_slope`` is a cross-check on the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaln

from .errors import DomainError, NoLinearSlope, NumericalFailure, VerificationError
from .schedule import CouplingFunction, envelope, iterated_norm, norm

__all__ = [
    "BoundParams",
    "BoundReport",
    "BoundTerm",
    "CoefficientSet",
    "EnergyBound",
    "analytic_slope",
    "coefficients",
    "critical_coupling",
    "energy_lower_bound",
    "inverse_square_energy",
    "inverse_square_log_magnitude",
    "ladder_slope",
    "theorem_bound",
]

_BRANCH_TOL = 1e-10  # relative agreement required of the two theta=1 branches
SLOPE_REL = 1e-6      # T-ladder slope extrapolation
SLOPE_DOUBLINGS = 18  # T-ladder doublings before a slope counts as unsettled


@dataclass(frozen=True)
class BoundParams:
    """Exponent theta in (0,2), dimension d >= 2, finite horizon T >= 0."""

    theta: float
    d: int
    T: float

    def __post_init__(self):
        if not 0.0 < self.theta < 2.0:
            raise DomainError(f"theta must lie in (0, 2), got {self.theta}")
        if int(self.d) != self.d or self.d < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.d}")
        if not 0.0 <= self.T < math.inf:
            raise DomainError(f"horizon must be finite and nonnegative, got {self.T}")


@dataclass(frozen=True)
class CoefficientSet:
    """The four positive coefficients entering the bounds, A and B for the
    theta >= 1 branch, C and D for theta <= 1.  A = C and B = D at theta = 1."""

    A: float
    B: float
    C: float
    D: float


def coefficients(theta: float, d: int) -> CoefficientSet:
    """Evaluate the coefficient quadruple via log-gamma (stable to d ~ 50).

        A = 2^((3 theta - 2)/(2 - theta)) theta^(theta/(2 - theta)) (2 - theta)
            / (d - theta)^(2 theta/(2 - theta))
        B = theta Gamma((d - theta)/2) / (2^(theta/2) Gamma(d/2))
        C = same as A with (d - theta) replaced by (d - 1)
        D = theta^(1/(2 - theta)) Gamma((d - 1)/2) (d - 1)^((2 - 2 theta)/(2 - theta))
            / (2^((6 - 5 theta)/(4 - 2 theta)) Gamma(d/2))
    """
    if not 0.0 < theta < 2.0:
        raise DomainError(f"theta must lie in (0, 2), got {theta}")
    if int(d) != d or d < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {d}")
    s = 2.0 - theta
    try:
        A = 2.0 ** ((3.0 * theta - 2.0) / s) * theta ** (theta / s) * s / (d - theta) ** (2.0 * theta / s)
        B = theta * math.exp(gammaln((d - theta) / 2.0) - gammaln(d / 2.0)) / 2.0 ** (theta / 2.0)
        C = 2.0 ** ((3.0 * theta - 2.0) / s) * theta ** (theta / s) * s / (d - 1.0) ** (2.0 * theta / s)
        D = (
            theta ** (1.0 / s)
            * math.exp(gammaln((d - 1.0) / 2.0) - gammaln(d / 2.0))
            * (d - 1.0) ** ((2.0 - 2.0 * theta) / s)
            / 2.0 ** ((6.0 - 5.0 * theta) / (4.0 - 2.0 * theta))
        )
    except (OverflowError, ZeroDivisionError) as exc:  # a power out of range, or a zero divisor
        raise NumericalFailure(f"bound coefficients overflow at theta={theta}, d={d}") from exc
    return CoefficientSet(A=A, B=B, C=C, D=D)


@dataclass(frozen=True)
class BoundTerm:
    """One additive term of a log-domain bound.

    The contribution is coefficient * norm_value**exponent; any secondary
    norm factors of the composite theta <= 1 terms are folded into the
    coefficient so that contributions always sum to the log bound.
    """

    label: str
    coefficient: float
    norm_value: float
    exponent: float

    @property
    def contribution(self) -> float:
        return self.coefficient * self.norm_value ** self.exponent

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "coefficient": self.coefficient,
            "norm_value": self.norm_value,
            "exponent": self.exponent,
            "contribution": self.contribution,
        }


@dataclass(frozen=True)
class BoundReport:
    """Audit-friendly result of a theorem bound evaluation."""

    log_bound: float
    terms: tuple
    params: BoundParams
    theorem: str            # "T1" | "T2" | "T3"
    branch: str             # "theta_geq_1" | "theta_leq_1"
    zero_coupling: bool = False

    def as_dict(self) -> dict:
        return {
            "log_bound": self.log_bound,
            "theorem": self.theorem,
            "branch": self.branch,
            "theta": self.params.theta,
            "d": self.params.d,
            "T": self.params.T,
            "zero_coupling": self.zero_coupling,
            "terms": [t.as_dict() for t in self.terms],
        }


_LABELS = {
    ("T1", "theta_geq_1"): ("A |f|_q^q, q=2/(2-theta)", "B |f/t^(theta/2)|_1"),
    ("T1", "theta_leq_1"): ("C |f|_1^((2-2theta)/(2-theta)) |f^2|_1^(theta/(2-theta))",
                            "D (|f|_1/|f^2|_1)^((1-theta)/(2-theta)) |f/sqrt(t)|_1"),
    ("T2", "theta_geq_1"): ("A int |f|_{1,t}^(2/(2-theta)) dt", "B int |f/s^(theta/2)|_{1,t} dt"),
    ("T2", "theta_leq_1"): (
        "C (int |f|_{1,t})^((2-2theta)/(2-theta)) (int |f|_{1,t}^2)^(theta/(2-theta))",
        "D (int |f|_{1,t} / int |f|_{1,t}^2)^((1-theta)/(2-theta)) int |f/sqrt(s)|_{1,t}"),
    ("T3", "theta_geq_1"): ("2^(-theta/(2-theta)) A |f|_1^(2/(2-theta)) T",
                            "2^(-theta/2) (1-theta/2)^(-1) B |f|_1 T^(1-theta/2)"),
    ("T3", "theta_leq_1"): ("2^(-theta/(2-theta)) C |f|_1^(2/(2-theta)) T",
                            "2^((4-3theta)/(2(2-theta))) D |f|_1^(1/(2-theta)) sqrt(T)"),
}


def _norms(theorem: str, theta: float, branch: str) -> list:
    """The norms a branch's terms take, in order: the (p, weight) of |f/t^weight|_p
    for theorems 1 and 3, and for theorem 2 the (inner_p, inner_weight,
    outer_power) = (1, weight, p) of the time integral of |f/s^weight|_{1,t}^p."""
    if theorem == "T3":
        return [(1.0, 0.0)]
    if branch == "theta_geq_1":
        pairs = [(2.0 / (2.0 - theta), 0.0), (1.0, theta / 2.0)]
    else:
        pairs = [(1.0, 0.0), (2.0, 0.0), (1.0, 0.5)]
    return pairs if theorem == "T1" else [(1.0, weight, p) for p, weight in pairs]


def _terms(theorem: str, co: CoefficientSet, params: BoundParams, branch: str, values: dict) -> list:
    """A branch's two terms, reading each of its _norms from ``values``."""
    theta, T = params.theta, params.T
    s = 2.0 - theta
    first, second = _LABELS[theorem, branch]
    norms = [values[key] for key in _norms(theorem, theta, branch)]
    if theorem == "T3":  # the two-path bound takes only the mass of f itself
        (L,) = norms
        if branch == "theta_geq_1":
            return [BoundTerm(first, 2.0 ** (-theta / s) * co.A * T, L, 2.0 / s),
                    BoundTerm(second, 2.0 ** (-theta / 2.0) / (1.0 - theta / 2.0) * co.B
                              * T ** (1.0 - theta / 2.0), L, 1.0)]
        return [BoundTerm(first, 2.0 ** (-theta / s) * co.C * T, L, 2.0 / s),
                BoundTerm(second, 2.0 ** ((4.0 - 3.0 * theta) / (2.0 * s)) * co.D * math.sqrt(T),
                          L, 1.0 / s)]
    if branch == "theta_geq_1":
        # theorem 2's first value already integrates the power q = 2/(2-theta)
        x, y = norms
        return [BoundTerm(first, co.A, x, 2.0 / s if theorem == "T1" else 1.0),
                BoundTerm(second, co.B, y, 1.0)]
    x, z, w = norms
    if theorem == "T1":
        z = z ** 2  # |f^2|_1 from |f|_2
    # at theta = 1 the ratio's power is 0: never form it over a square that underflowed
    return [BoundTerm(first, co.C * z ** (theta / s), x, (2.0 - 2.0 * theta) / s),
            BoundTerm(second, co.D * ((x / z) ** ((1.0 - theta) / s) if theta != 1.0 else 1.0),
                      w, 1.0)]


def _evaluate(theorem: str, f: CouplingFunction, params: BoundParams) -> BoundReport:
    theta, T = params.theta, params.T
    # at theta == 1 both branches are evaluated and must agree; the >= branch is reported
    branches = [branch for branch, applies in (("theta_geq_1", theta >= 1.0),
                                               ("theta_leq_1", theta <= 1.0)) if applies]
    zero = f.is_zero()
    if zero or T == 0.0:
        return BoundReport(0.0, (), params, theorem, branches[0], zero_coupling=zero)
    source = f if theorem == "T3" else envelope(f, T)
    co = coefficients(theta, params.d)
    # each distinct norm of the evaluated branches once; for theorem 2 one
    # iterated_norm call, so one panel rule
    wanted = dict.fromkeys(key for branch in branches for key in _norms(theorem, theta, branch))
    if theorem == "T2":
        values = dict(zip(wanted, iterated_norm(source, T, *zip(*wanted))))
    else:
        values = {(p, weight): norm(source, p, T, weight=weight) for p, weight in wanted}
    reports = []
    for branch in branches:
        try:
            terms = _terms(theorem, co, params, branch, values)
            log_bound = sum(t.contribution for t in terms)
        except (OverflowError, ZeroDivisionError):  # a power or ratio of norms out of range
            log_bound = math.inf
        if not math.isfinite(log_bound):
            raise NumericalFailure(f"log bound out of range at theta={theta}, T={T}")
        reports.append(BoundReport(log_bound, tuple(terms), params, theorem, branch))
    hi, lo = reports[0], reports[-1]
    scale = max(abs(hi.log_bound), abs(lo.log_bound), 1e-300)
    if abs(hi.log_bound - lo.log_bound) > _BRANCH_TOL * scale:
        raise VerificationError(
            f"{theorem} branch mismatch at theta=1: {hi.log_bound!r} vs {lo.log_bound!r}"
        )
    return hi


def theorem_bound(theorem: int, f: CouplingFunction, params: BoundParams) -> BoundReport:
    """Log-domain bound of theorem 1, 2 or 3: the single time integral, the
    self-interaction or the two-independent-paths functional.

    Theorem 1's value bounds the supremum over starting points; the
    supremum is attained at the origin (checked by Monte Carlo elsewhere,
    not re-derived here).  Theorem 3 takes f itself, no envelope: only its
    [0, T] mass enters.
    """
    return _evaluate(f"T{_theorem_number(theorem)}", f, params)


def _theorem_number(theorem) -> int:
    """``theorem`` as the int 1, 2 or 3: whatever ``int()`` maps there."""
    try:
        n = int(theorem)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n not in (1, 2, 3):
        raise DomainError(f"theorem must be 1, 2 or 3, got {theorem}")
    return n


# ---------------------------------------------------------------------------
# energy extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBound:
    """Linear-in-T content of a log bound: energy >= -slope."""

    slope: float
    model: str

    @property
    def energy(self) -> float:
        return -self.slope


def analytic_slope(theorem: int, f: CouplingFunction, theta: float, d: int) -> float:
    """lim_{T->inf} log_bound(T)/T in closed form.

    Available for Constant, ExpDecay and Indicator couplings (after noting
    these equal their own envelopes, except that an increasing coupling is
    not accepted here), and 0 for a zero coupling of any variant; other
    variants raise DomainError.  Raises
    NoLinearSlope when the bound grows superlinearly (e.g. the
    self-interaction bound with constant coupling), NumericalFailure when
    the slope leaves floating-point range.
    """
    co = coefficients(theta, d)
    n = _theorem_number(theorem)
    if f.is_zero():
        return 0.0
    s = 2.0 - theta
    first_coeff = co.A if theta >= 1.0 else co.C
    try:
        if n == 1:
            # the weighted second term grows like T^(1-theta/2): sublinear; an
            # integrable coupling saturates the single-integral bound
            slope = first_coeff * f.mean_power_limit(2.0 / s)
        elif math.isinf(L := f.mass_limit()):
            bound = "self-interaction" if n == 2 else "two-path"
            raise NoLinearSlope(f"{bound} bound is superlinear for non-integrable coupling")
        elif n == 3:
            slope = 2.0 ** (-theta / s) * first_coeff * L ** (2.0 / s)
        elif L == 0.0:  # an underflowed mass
            slope = 0.0
        elif theta >= 1.0:
            slope = co.A * L ** (2.0 / s) + co.B * f.weighted_limit(theta / 2.0)
        else:
            slope = co.C * L ** (2.0 / s) + co.D * L ** (-(1.0 - theta) / s) * f.weighted_limit(0.5)
    except OverflowError:  # a scalar power out of range
        slope = math.inf
    if not math.isfinite(slope):
        raise NumericalFailure(f"T{n} slope overflows at theta={theta}, d={d}")
    return slope


def ladder_slope(theorem: int, f: CouplingFunction, theta: float, d: int) -> float:
    """Slope of log_bound(T) in T by a doubling difference quotient: a
    cross-check of ``analytic_slope``, which no energy bound reads.

    (log_bound(2T) - log_bound(T)) / T cancels additive constants and
    halves the sqrt(T) contamination each doubling; the ladder starts at
    T = 4, evaluates each rung's bound once and stops when two successive
    quotients agree to SLOPE_REL, absolutely below unit slopes: so it can
    settle for a superlinear bound of tiny coupling (5.5e-12 for
    PowerLaw(1e-12, 0.0) at theorem 2 and theta 1).
    """
    def lb(T):
        return theorem_bound(theorem, f, BoundParams(theta, d, T)).log_bound

    T = 4.0
    low = lb(T)
    prev = None
    for _ in range(SLOPE_DOUBLINGS):
        high = lb(2.0 * T)
        quot = (high - low) / T
        if prev is not None:
            scale = max(abs(quot), abs(prev), 1.0)
            if abs(quot - prev) <= SLOPE_REL * scale:
                return quot
        if abs(quot) > 1e12:
            raise NoLinearSlope("difference quotients diverge along the T ladder")
        prev, low = quot, high
        T *= 2.0
    raise NoLinearSlope(
        f"difference quotient did not settle to {SLOPE_REL} within {SLOPE_DOUBLINGS} doublings"
    )


def energy_lower_bound(model) -> EnergyBound:
    """Ground-state energy lower bound from a model's composed log bound.

    ``model`` provides ``bound_components`` (an iterable of objects with
    ``theorem``, ``f`` and ``power``), plus ``theta``, ``d`` and ``name``.
    The slope is the power-weighted sum of the components' closed-form
    slopes (``analytic_slope``), added in order; a component without one
    raises its DomainError, NoLinearSlope or NumericalFailure.
    """
    total = 0.0
    for comp in model.bound_components:
        total += comp.power * analytic_slope(comp.theorem, comp.f, model.theta, model.d)
    return EnergyBound(slope=total, model=model.name)


# ---------------------------------------------------------------------------
# the inverse-power potential with constant coupling
# ---------------------------------------------------------------------------

def critical_coupling(d: int) -> float:
    """Stability threshold (d - 2)^2 / 8 of the inverse-square potential."""
    if int(d) != d or d < 3:
        raise DomainError(f"dimension must be an integer >= 3, got {d}")
    return (d - 2) ** 2 / 8.0


def inverse_square_log_magnitude(alpha: float, theta: float, d: int) -> float:
    """ln of the energy-bound magnitude, safe against under/overflow.

    The magnitude is 2^(2(theta-1)/(2-theta)) (2-theta) theta^(theta/(2-theta))
    2^(theta/(2-theta)) (d-theta)^(-2 theta/(2-theta)) alpha^(2/(2-theta)),
    which underflows near theta = 2 for alpha below the critical coupling
    and overflows above it.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if not 1.0 <= theta < 2.0:
        raise DomainError(f"theta must lie in [1, 2), got {theta}")
    if int(d) != d or d < 3:
        raise DomainError(f"dimension must be an integer >= 3, got {d}")
    if alpha == 0.0:
        return -math.inf
    s = 2.0 - theta
    log_mag = (
        (2.0 * (theta - 1.0) / s) * math.log(2.0)
        + math.log(s)
        + (theta / s) * math.log(theta)
        + (theta / s) * math.log(2.0)
        - (2.0 * theta / s) * math.log(d - theta)
        + (2.0 / s) * math.log(alpha)
    )
    return log_mag


def inverse_square_energy(alpha: float, theta: float, d: int) -> float:
    """Energy lower bound for the attractive inverse-power potential.

    Returns the (negative) bound value; magnitudes beyond float range come
    back as -inf, signalling the diverging side of the critical-coupling
    dichotomy.  Use :func:`inverse_square_log_magnitude` for sweeps near
    theta = 2.
    """
    log_mag = inverse_square_log_magnitude(alpha, theta, d)
    if log_mag == -math.inf:
        return 0.0
    if log_mag > 709.0:
        return -math.inf
    return -math.exp(log_mag)
