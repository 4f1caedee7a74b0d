"""Coupling schedules: weight functions f on [0, T] and their norms.

A coupling schedule is a nonnegative measurable weight f(t) multiplying the
singular interaction.  This module provides

* one frozen dataclass per JSON ``kind``: a small closed-under-envelope
  family of analytic forms plus a tabulated fallback (:class:`Constant`,
  :class:`ExpDecay`, :class:`Indicator`, :class:`PowerLaw`,
  :class:`Tabulated`),
* the non-increasing envelope  f_env(t) = sup over s in [t, T] of f(s),
* L^p norms of f restricted to [0, s], optionally against a t^(-a) weight,
* iterated time integrals of those norms, as consumed by the double-time
  bounds.

Every per-variant fact is a method of the variant's class; no other module
branches on the variant.  A new variant derives from ``_Coupling``, names
its ``kind`` (the key :func:`coupling_from_dict` looks up), rejects
negative or non-finite fields with DomainError in ``__post_init__``, and
implements ``at(t)`` (values on a float array), ``is_zero()`` and
``power_integral(q, b, s)`` (the exact integral of f^q t^(-b) over
[0, s], vectorised over s).  It overrides the ``_Coupling`` defaults
where they do not hold: the JSON form, ``normalized()`` (f over a power of
two), ``majorant(T)`` (the envelope as a coupling), ``breakpoints``,
``support_start``, the large-T limits, ``non_increasing()``,
``positive_definite_extension()`` and ``shifted_profile``.  The outer time
integrals ``iterated_norm`` and ``integral_against`` (f times a kernel) are
one composite Gauss-Legendre rule for every variant, O(G) for G table cells;
:class:`Tabulated` keeps an exact per-cell sum for ``integral_against``.
``iterated_norm`` takes every (inner_p, inner_weight, outer_power) term of
one bound at once: they share one panel rule, and each distinct inner norm
is evaluated once on its nodes.

Tabulated data uses step-left (previous-value) interpolation, so envelopes
and norms are exact on the representation; no interpolation-order ambiguity
enters the almost-everywhere statements.  Sets of measure zero in user data
are not distinguishable: the envelope of a table is realised as the pointwise
running maximum over grid values, right to left (the right endpoint value
participates even though it carries no integral mass).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Union

import numpy as np
from scipy.special import gammainc, gammaln, hyp1f1

from .errors import DomainError, NonIntegrable, NumericalFailure

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)  # nodes per panel of the outer integrals

__all__ = [
    "Constant",
    "ExpDecay",
    "Indicator",
    "PowerLaw",
    "Tabulated",
    "CouplingFunction",
    "coupling_from_dict",
    "envelope",
    "evaluate",
    "iterated_norm",
    "norm",
]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise DomainError(message)


def _finite_mass(mass: float) -> float:
    """An integrable coupling's mass; NumericalFailure where it overflowed."""
    if mass == math.inf:
        raise NumericalFailure("coupling mass overflows")
    return mass


def _panel_rule(cuts, graded) -> tuple:
    """(nodes, weights) of the 16-point Gauss-Legendre rule on the panels
    between the cuts and, for each (end, other) in graded, the edges end and
    end + (other - end) 2^-k, k = 0..64: no panel is wider than its distance
    from a graded end, where the integrand may be singular."""
    x = np.unique(np.concatenate([cuts, *(np.append(end + (other - end) * 2.0 ** -np.arange(65.0), end)
                                          for end, other in graded)]))
    half = 0.5 * np.diff(x)[:, None]
    return x[:-1, None] + half * (_GL_X + 1.0), half * _GL_W


# ---------------------------------------------------------------------------
# coupling variants
# ---------------------------------------------------------------------------

class _Coupling:
    """Defaults shared by the variants; see the module docstring."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{fld.name: getattr(self, fld.name) for fld in fields(self)}}

    @classmethod
    def from_dict(cls, spec: dict):
        return cls(*(float(spec[fld.name]) for fld in fields(cls)))

    def normalized(self) -> tuple:
        """(k, 2^-k f), the first field of 2^-k f in [0.5, 1): f is linear in it."""
        name = fields(self)[0].name
        mantissa, k = math.frexp(getattr(self, name))
        return k, replace(self, **{name: mantissa})

    def majorant(self, T: float):
        """The non-increasing envelope on [0, T], as a coupling."""
        return self

    def breakpoints(self, T: float) -> list:
        """Points of (0, T) where f jumps; the panel rule cuts there."""
        return []

    def support_start(self) -> float:
        """The time before which f vanishes."""
        return 0.0

    def iterated_norm(self, T: float, terms: list) -> list:
        """The outer integrals of :func:`iterated_norm`, one per (inner_p,
        inner_weight, outer_power) term, on one panel rule graded toward the
        start s0 of the support, where the integrand grows like t^(ar) or
        (t - s0)^r; each distinct inner norm is evaluated once on its nodes."""
        s0 = self.support_start()
        if s0 >= T:
            return [0.0] * len(terms)
        t, w = _panel_rule(self.breakpoints(T), [(s0, T)])
        inner = {(p, a): self.power_integral(p, a * p, t)
                 for p, a in dict.fromkeys((p, a) for p, a, _ in terms)}
        return [float(np.sum(w * inner[p, a] ** (o / p))) for p, a, o in terms]

    def integral_against(self, T: float, density, primitive, leading) -> float:
        """int_0^T f(u) density(u) du; primitive(s) = int_0^s density + const,
        and leading the pairs (c, e) with density(u) = sum of c u^e + O(u)
        near 0.  The density takes an array; it is bounded but may be rough
        at both ends of each piece.  The rule stops at h = 2^-65 of the first
        piece, or 2^-1000 where f is unbounded at 0 (a negative power); on
        [0, h] f's exact weighted powers int_0^h f u^e take the leading terms."""
        ends = [0.0, *self.breakpoints(T), T]
        levels = 1000 if np.isinf(self.at(np.zeros(1)))[0] else 65
        u, w = _panel_rule(ends[1] * 2.0 ** -np.arange(65.0, levels + 1.0),
                           [(end, 0.5 * (lo + hi)) for lo, hi in zip(ends, ends[1:]) for end in (lo, hi)])
        h, u, w = ends[1] * 2.0 ** -levels, u[1:], w[1:]
        head = sum(c * self.power_integral(1.0, -e, h) for c, e in leading)
        return float(head + np.sum(w * self.at(u) * density(u)))

    def mean_power_limit(self, q: float) -> float:
        """lim_{T->inf} |f|_{q,T}^q / T."""
        raise DomainError(f"no analytic slope for {type(self).__name__}")

    def mass_limit(self) -> float:
        """lim_{T->inf} |f|_{1,T} of a nonzero coupling."""
        raise DomainError(f"no closed-form mass limit for {type(self).__name__}")

    def weighted_limit(self, a: float) -> float:
        """lim_{T->inf} |f(t)/t^a|_{1,T} of a nonzero coupling."""
        raise DomainError(f"no closed-form weighted limit for {type(self).__name__}")

    def non_increasing(self) -> bool:
        return True

    def positive_definite_extension(self) -> bool:
        """Whether f(|t|) is vouched for as a positive definite function of
        finite mass, as the variational lower bound needs."""
        return False

    def shifted_profile(self, u: float, T: float) -> tuple:
        """(amplitude, rate, length) with f(u + x) = amplitude * exp(-rate x)
        for 0 <= x < length <= T - u and zero beyond; length <= 0 means f
        vanishes after u."""
        raise DomainError(f"no profile weight for {type(self).__name__}")


@dataclass(frozen=True)
class Constant(_Coupling):
    """f(t) = level."""

    level: float
    kind = "constant"

    def __post_init__(self):
        _require(0 <= self.level < math.inf,
                 f"Constant level must be finite and nonnegative, got {self.level}")

    def at(self, t):
        return np.full_like(t, self.level)

    def is_zero(self) -> bool:
        return self.level == 0.0

    def power_integral(self, q: float, b: float, s: float) -> float:
        return self.level ** q * s ** (1.0 - b) / (1.0 - b)

    def mean_power_limit(self, q: float) -> float:
        return self.level ** q

    def mass_limit(self) -> float:
        return math.inf

    def weighted_limit(self, a: float) -> float:
        return math.inf

    def shifted_profile(self, u: float, T: float) -> tuple:
        return self.level, 0.0, T - u


@dataclass(frozen=True)
class ExpDecay(_Coupling):
    """f(t) = amplitude * exp(-rate * t)."""

    amplitude: float
    rate: float
    kind = "exp_decay"

    def __post_init__(self):
        _require(0 <= self.amplitude < math.inf,
                 f"ExpDecay amplitude must be finite and nonnegative, got {self.amplitude}")
        _require(0 < self.rate < math.inf,
                 f"ExpDecay rate must be finite and positive, got {self.rate}")

    def at(self, t):
        return self.amplitude * np.exp(-self.rate * t)

    def is_zero(self) -> bool:
        return self.amplitude == 0.0

    def power_integral(self, q: float, b: float, s: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        # int_0^s e^{-lam t} t^{-b} dt = lam^{b-1} * Gamma(1-b) * P(1-b, lam s)
        lam = q * self.rate
        a = 1.0 - b
        try:
            head = self.amplitude ** q * lam ** (b - 1.0)
        except OverflowError:
            head = math.inf
        # f^q lam^(b-1) overflows at a tiny rate, and gammainc reads a subnormal lam s
        # inexactly: there take the small-x form s^a 1F1(a; a+1; -lam s) / a (DLMF 8.5.1)
        x = lam * s
        if head == math.inf or (x.max() if isinstance(x, np.ndarray) else x) < sys.float_info.min:
            return self.amplitude ** q * s ** a * hyp1f1(a, a + 1.0, -x) / a
        return head * math.exp(gammaln(a)) * gammainc(a, x)

    def mean_power_limit(self, q: float) -> float:
        return 0.0

    def mass_limit(self) -> float:
        return _finite_mass(self.amplitude / self.rate)

    def positive_definite_extension(self) -> bool:
        # e^(-rate |t|) has the positive Fourier transform 2 rate / (rate^2 + k^2)
        return True

    def weighted_limit(self, a: float) -> float:
        return self.amplitude * math.exp(gammaln(1.0 - a)) * self.rate ** (a - 1.0)

    def shifted_profile(self, u: float, T: float) -> tuple:
        return self.amplitude * math.exp(-self.rate * u), self.rate, T - u


@dataclass(frozen=True)
class Indicator(_Coupling):
    """f(t) = height on [0, cutoff], zero afterwards."""

    height: float
    cutoff: float
    kind = "indicator"

    def __post_init__(self):
        _require(0 <= self.height < math.inf,
                 f"Indicator height must be finite and nonnegative, got {self.height}")
        _require(0 < self.cutoff < math.inf,
                 f"Indicator cutoff must be finite and positive, got {self.cutoff}")

    def at(self, t):
        return np.where(t <= self.cutoff, self.height, 0.0)

    def is_zero(self) -> bool:
        return self.height == 0.0

    def power_integral(self, q: float, b: float, s: float) -> float:
        u = np.minimum(s, self.cutoff)
        return self.height ** q * u ** (1.0 - b) / (1.0 - b)

    def breakpoints(self, T: float) -> list:
        return [self.cutoff] if self.cutoff < T else []

    def mean_power_limit(self, q: float) -> float:
        return 0.0

    def mass_limit(self) -> float:
        return _finite_mass(self.height * self.cutoff)

    def weighted_limit(self, a: float) -> float:
        return self.height * self.cutoff ** (1.0 - a) / (1.0 - a)

    def shifted_profile(self, u: float, T: float) -> tuple:
        return self.height, 0.0, min(T - u, self.cutoff - u)


@dataclass(frozen=True)
class PowerLaw(_Coupling):
    """f(t) = amplitude * t**exponent (exponent may be negative)."""

    amplitude: float
    exponent: float
    kind = "power_law"

    def __post_init__(self):
        _require(0 <= self.amplitude < math.inf,
                 f"PowerLaw amplitude must be finite and nonnegative, got {self.amplitude}")
        _require(-math.inf < self.exponent < math.inf,
                 f"PowerLaw exponent must be finite, got {self.exponent}")

    def at(self, t):
        with np.errstate(divide="ignore"):
            return self.amplitude * np.power(t, self.exponent)

    def is_zero(self) -> bool:
        return self.amplitude == 0.0

    def majorant(self, T: float):
        # an increasing power flattens to its value at T
        return self if self.exponent <= 0 else Constant(self.amplitude * T ** self.exponent)

    def power_integral(self, q: float, b: float, s: float) -> float:
        e = self.exponent * q - b
        if e <= -1.0:
            raise NonIntegrable(
                f"PowerLaw exponent {self.exponent} with p={q}, weight {b} diverges at t=0"
            )
        return self.amplitude ** q * s ** (e + 1.0) / (e + 1.0)

    def non_increasing(self) -> bool:
        # not vouched for: a decreasing power is unbounded at t = 0
        return False


@dataclass(frozen=True)
class Tabulated(_Coupling):
    """Step-left table: f(t) = values[k] for grid[k] <= t < grid[k+1].

    The grid must start at 0 and be strictly increasing; the final grid
    point is the horizon the table is defined up to, and its value is used
    for f at that single point.

    Each instance keeps numpy copies of its grid and values and, per (q, b),
    the cell powers and cumulative sums of ``power_integral``.  They are
    plain attributes, not fields, so equality, hashing, ``to_dict`` and
    ``replace`` see only the grid and the values.
    """

    grid: tuple
    values: tuple
    kind = "tabulated"

    def __post_init__(self):
        grid = tuple(map(float, self.grid))
        values = tuple(map(float, self.values))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        _require(len(grid) >= 2 and len(grid) == len(values),
                 "Tabulated needs matching grid/values with at least 2 points")
        _require(grid[0] == 0.0, f"Tabulated grid must start at 0, got {grid[0]}")
        t, v = np.array(grid), np.array(values)
        _require(bool(np.all(t[1:] > t[:-1])) and grid[-1] < math.inf,
                 "Tabulated grid must be finite and strictly increasing")
        _require(bool(np.all((v >= 0.0) & (v < math.inf))),
                 "Tabulated values must be finite and nonnegative")
        t.flags.writeable = v.flags.writeable = False
        object.__setattr__(self, "_grid_array", t)
        object.__setattr__(self, "_value_array", v)
        object.__setattr__(self, "_cells", {})

    def to_dict(self) -> dict:
        return {"kind": self.kind, "grid": list(self.grid), "values": list(self.values)}

    @classmethod
    def from_dict(cls, spec: dict):
        return cls(tuple(spec["grid"]), tuple(spec["values"]))

    def at(self, t):
        idx = np.searchsorted(self._grid_array, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self._value_array[idx]

    def is_zero(self) -> bool:
        return not self._value_array.any()

    def normalized(self) -> tuple:
        k = math.frexp(max(self.values))[1]
        return k, Tabulated(self.grid, tuple(math.ldexp(v, -k) for v in self.values))

    def majorant(self, T: float):
        _require(self.grid[-1] == T,
                 f"Tabulated grid ends at {self.grid[-1]}, expected horizon {T}")
        running = np.maximum.accumulate(self._value_array[::-1])[::-1]
        # a non-increasing table is its own envelope, and keeps its cell sums
        if np.array_equal(running, self._value_array):
            return self
        return Tabulated(self.grid, tuple(running.tolist()))

    def _within_horizon(self, s: float) -> None:
        _require(s <= self.grid[-1] * (1.0 + 1e-12),
                 f"upper time {s} beyond the tabulated horizon {self.grid[-1]}")

    def _cell_sums(self, q: float, b: float) -> tuple:
        """(v_k^q, g_k^a, cum) with a = 1 - b and cum[k] = int_0^g_k f^q t^-b dt,
        built once per (q, b); scalar powers keep the sums bit-equal to a loop
        over the cells."""
        sums = self._cells.get((q, b))
        if sums is None:
            a = 1.0 - b
            vq = np.array([v ** q for v in self.values[:-1]])
            ga = np.array([g ** a for g in self.grid])
            cum = np.concatenate(([0.0], np.cumsum(vq * np.diff(ga) / a)))
            sums = self._cells[q, b] = (vq, ga, cum)
        return sums

    def power_integral(self, q: float, b: float, s):
        self._within_horizon(np.max(s))
        a, grid = 1.0 - b, self._grid_array
        vq, ga, cum = self._cell_sums(q, b)
        k = np.minimum(np.searchsorted(grid, s, side="right"), len(vq)) - 1
        return cum[k] + vq[k] * (np.minimum(s, grid[-1]) ** a - ga[k]) / a

    def breakpoints(self, T: float) -> list:
        inner = self._grid_array[1:]
        return inner[inner < T].tolist()

    def support_start(self) -> float:
        return self.grid[int(np.argmax(self._value_array[:-1] > 0.0))]

    def integral_against(self, T: float, density, primitive, leading) -> float:
        # exact per cell: sum_k v_k (primitive(g_{k+1}) - primitive(g_k))
        self._within_horizon(T)
        edges = np.array([0.0, *self.breakpoints(T), T])
        return float(np.dot(self._value_array[:len(edges) - 1], np.diff(primitive(edges))))

    def non_increasing(self) -> bool:
        return bool(np.all(self._value_array[1:] <= self._value_array[:-1]))


CouplingFunction = Union[Constant, ExpDecay, Indicator, PowerLaw, Tabulated]

_KINDS = {cls.kind: cls for cls in (Constant, ExpDecay, Indicator, PowerLaw, Tabulated)}


def coupling_from_dict(spec: dict) -> CouplingFunction:
    """Build a coupling from its JSON form, e.g. {"kind": "exp_decay", ...}.

    Numeric fields are coerced with ``float``; fields the kind does not use
    are ignored.  A field that is missing, non-numeric or out of float range
    raises DomainError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("coupling spec must be a dict with a 'kind' field")
    kind = spec["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown coupling kind {kind!r}")
    try:
        return cls.from_dict(spec)
    except KeyError as exc:
        raise DomainError(f"coupling spec for kind={kind!r} is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"coupling spec for kind={kind!r} has a non-numeric field: {exc}") from exc
    except OverflowError as exc:  # an integer too large for a float
        raise DomainError(f"coupling spec for kind={kind!r} has a field out of float range: {exc}") from exc


def evaluate(f: CouplingFunction, t):
    """Pointwise values f(t); accepts scalars or numpy arrays, t >= 0."""
    out = f.at(np.asarray(t, dtype=float))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def envelope(f: CouplingFunction, T: float) -> CouplingFunction:
    """Non-increasing envelope of f over [0, T], itself a coupling, so every
    norm below applies to it unchanged.

    Constant, ExpDecay, Indicator and non-increasing PowerLaw are fixed
    points.  An increasing PowerLaw flattens to its value at T; a table is
    swept right to left with a running maximum.
    """
    if not T > 0:
        raise DomainError(f"horizon must be positive, got {T}")
    return f.majorant(T)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm(
    f: CouplingFunction,
    p: float,
    s: float,
    weight: float = 0.0,
) -> float:
    """L^p norm of f(t) * t^(-weight) on [0, s], exact per variant.

    ``weight`` is the exponent a of the singular factor t^(-a); a = 0.5 is
    the inverse-square-root weight, a = theta/2 the general one.  Requires
    a * p < 1 so the endpoint stays integrable for bounded couplings;
    divergent combinations raise NonIntegrable.
    """
    if not 1 <= p < math.inf:
        raise DomainError(f"norm order p must be finite and >= 1, got {p}")
    if s < 0:
        raise DomainError(f"upper time must be nonnegative, got {s}")
    if weight < 0:
        raise DomainError(f"weight exponent must be nonnegative, got {weight}")
    b = weight * p
    k = 0
    if s == 0.0:
        val = 0.0
    elif b >= 1.0:
        raise NonIntegrable(f"weight exponent {b} >= 1 makes t=0 non-integrable")
    else:
        try:
            val = float(f.power_integral(p, b, s))
        except OverflowError:  # a scalar f^p out of range
            raise NumericalFailure(f"order-{p} norm overflows on [0, {s}]") from None
        if val < sys.float_info.min:
            # f^p underflowed: integrate (2^-k f)^p, 2^k near the scale of f
            k, unit = f.normalized()
            val = float(unit.power_integral(p, b, s))
    return math.ldexp(val ** (1.0 / p), k)


def iterated_norm(
    f: CouplingFunction,
    T: float,
    inner_p=1.0,
    inner_weight=0.0,
    outer_power=1.0,
):
    """integral over [0, T] of norm(f, inner_p, t, inner_weight)^outer_power dt.

    The three exponents broadcast against each other like numpy arrays: given
    sequences, every term (inner_p[i], inner_weight[i], outer_power[i]) is
    integrated on one panel rule, each distinct inner norm is evaluated once,
    and a tuple comes back; scalars give a float.  The inner norm is exact
    per variant, evaluated at every node at once; the outer integral is the
    panel rule of ``_Coupling.iterated_norm``, accurate to roundoff, in O(G)
    work for a table of G cells.
    """
    exponents = np.broadcast_arrays(inner_p, inner_weight, outer_power)
    terms = list(zip(*(x.ravel().tolist() for x in exponents)))
    if not T >= 0:
        raise DomainError(f"horizon must be nonnegative, got {T}")
    for _, _, outer in terms:
        if outer < 1:
            raise DomainError(f"outer power must be >= 1, got {outer}")
    if T == 0 or f.is_zero():
        vals = [0.0] * len(terms)
    else:
        vals = _iterated_norms(f, T, terms)
    return tuple(vals) if exponents[0].ndim else vals[0]


def _iterated_norms(f: CouplingFunction, T: float, terms: list) -> list:
    # probe each inner norm once so a divergent one raises before quadrature runs
    for p, a in dict.fromkeys((p, a) for p, a, _ in terms):
        norm(f, p, T, a)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.iterated_norm(T, terms)
        low = [i for i, val in enumerate(vals) if val < sys.float_info.min]
        if low:
            # underflowed as in norm: integrate 2^-k f, then scale by 2^(k outer_power),
            # the fraction of the exponent first and its integer part by ldexp, so a
            # zero stays zero instead of meeting an overflowed 2^(k outer_power)
            k, unit = f.normalized()
            for i, val in zip(low, unit.iterated_norm(T, [terms[i] for i in low])):
                e = math.floor(k * terms[i][2])
                try:
                    vals[i] = math.ldexp(val * 2.0 ** (k * terms[i][2] - e), e)
                except OverflowError:
                    vals[i] = math.inf
    if not all(map(math.isfinite, vals)):
        raise NumericalFailure(f"iterated norm overflows at T={T}")
    return vals
