"""Independent reference values that the benchmark checks fkbound against.

Nothing here imports fkbound.  Couplings are the plain JSON dictionaries
that ``fkbound.schedule.coupling_from_dict`` accepts, so the generator can
hand the same data to the program and to these references.

* Inner norms are exact per coupling kind: closed forms for the analytic
  kinds and cumulative cell sums for step-left tables.
* Outer time integrals (the iterated norms of theorem 2) use composite
  Gauss-Legendre rules: one panel per table cell or per side of an
  indicator cutoff, with the panel that touches t = 0 split geometrically
  so the t^a endpoint behaviour is integrated to roundoff.
* Monte Carlo references are exact expectations of the *discretised*
  actions, so a lower sandwich needs no grid allowance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

GL_X, GL_W = np.polynomial.legendre.leggauss(24)
GRADED_PANELS = 64  # dyadic panels toward t = 0; the rest is below 2^-64 of the panel


# ---------------------------------------------------------------------------
# coefficients and couplings
# ---------------------------------------------------------------------------

def coefficients(theta: float, d: int) -> tuple:
    """(A, B, C, D) of the paper's bounds, assembled in the log domain."""
    s = 2.0 - theta
    ln2 = math.log(2.0)

    def a_like(denominator: float) -> float:
        return math.exp((3.0 * theta - 2.0) / s * ln2 + theta / s * math.log(theta)
                        + math.log(s) - 2.0 * theta / s * math.log(denominator))

    A = a_like(d - theta)
    C = a_like(d - 1.0)
    B = math.exp(math.log(theta) + math.lgamma((d - theta) / 2.0) - math.lgamma(d / 2.0)
                 - theta / 2.0 * ln2)
    D = math.exp(math.log(theta) / s + math.lgamma((d - 1.0) / 2.0) - math.lgamma(d / 2.0)
                 + (2.0 - 2.0 * theta) / s * math.log(d - 1.0)
                 - (6.0 - 5.0 * theta) / (4.0 - 2.0 * theta) * ln2)
    return A, B, C, D


def expectation_constant(theta: float, d: int) -> float:
    """K with E|X_t|^-theta = K t^(-theta/2) for standard Brownian motion."""
    return math.exp(math.lgamma((d - theta) / 2.0) - math.lgamma(d / 2.0) - theta / 2.0 * math.log(2.0))


def values(c: dict, t) -> np.ndarray:
    """Pointwise f(t) of a coupling dict."""
    t = np.asarray(t, dtype=float)
    kind = c["kind"]
    if kind == "constant":
        return np.full_like(t, c["level"])
    if kind == "exp_decay":
        return c["amplitude"] * np.exp(-c["rate"] * t)
    if kind == "indicator":
        return np.where(t <= c["cutoff"], c["height"], 0.0)
    if kind == "power_law":
        with np.errstate(divide="ignore"):
            return c["amplitude"] * t ** c["exponent"]
    grid = np.asarray(c["grid"])
    idx = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 1)
    return np.asarray(c["values"], dtype=float)[idx]


def envelope(c: dict, T: float) -> dict:
    """Non-increasing majorant on [0, T] (the theorem 1 and 2 input)."""
    if c["kind"] == "power_law" and c["exponent"] > 0:
        return {"kind": "constant", "level": c["amplitude"] * T ** c["exponent"]}
    if c["kind"] == "tabulated":
        run = np.maximum.accumulate(np.asarray(c["values"], dtype=float)[::-1])[::-1]
        return {"kind": "tabulated", "grid": c["grid"], "values": list(run)}
    return c


def kinks(c: dict, T: float) -> list:
    """Interior points where an inner norm is not analytic in t."""
    if c["kind"] == "indicator" and c["cutoff"] < T:
        return [c["cutoff"]]
    if c["kind"] == "tabulated":
        return [g for g in c["grid"] if 0.0 < g < T]
    return []


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def power_integral(c: dict, q: float, b: float, s) -> np.ndarray:
    """int_0^s f(t)^q t^(-b) dt, vectorised over s (b < 1)."""
    s = np.asarray(s, dtype=float)
    a = 1.0 - b
    kind = c["kind"]
    if kind == "constant":
        return c["level"] ** q * s ** a / a
    if kind == "exp_decay":
        lam = q * c["rate"]
        return (c["amplitude"] ** q * lam ** (-a) * math.exp(math.lgamma(a))
                * gammainc(a, lam * s))
    if kind == "indicator":
        return c["height"] ** q * np.minimum(s, c["cutoff"]) ** a / a
    if kind == "power_law":
        e = c["exponent"] * q - b + 1.0
        return c["amplitude"] ** q * s ** e / e
    grid = np.asarray(c["grid"], dtype=float)
    vq = np.asarray(c["values"], dtype=float)[:-1] ** q
    ga = grid ** a
    cum = np.concatenate([[0.0], np.cumsum(vq * np.diff(ga) / a)])
    k = np.clip(np.searchsorted(grid, s, side="right") - 1, 0, len(vq) - 1)
    return cum[k] + vq[k] * (s ** a - ga[k]) / a


def norm(c: dict, p: float, s: float, weight: float = 0.0) -> float:
    """L^p norm of f(t) t^(-weight) on [0, s]."""
    return float(power_integral(c, p, weight * p, s)) ** (1.0 / p)


def panel_rule(breaks: list) -> tuple:
    """Nodes and weights of the composite rule on [breaks[0]=0, breaks[-1]]."""
    xs, ws = [], []
    first = breaks[1]
    edges = first * 2.0 ** -np.arange(GRADED_PANELS + 1.0)
    panels = list(zip(edges[1:], edges[:-1])) + list(zip(breaks[1:-1], breaks[2:]))
    for lo, hi in panels:
        half = 0.5 * (hi - lo)
        xs.append(lo + half * (GL_X + 1.0))
        ws.append(half * GL_W)
    return np.concatenate(xs), np.concatenate(ws)


def iterated(c: dict, T: float, p: float = 1.0, weight: float = 0.0,
             outer: float = 1.0) -> float:
    """int_0^T norm(c, p, t, weight)^outer dt, the theorem 2 building block."""
    x, w = panel_rule([0.0] + kinks(c, T) + [T])
    inner = np.maximum(power_integral(c, p, weight * p, x), 0.0)
    return float(np.dot(w, inner ** (outer / p)))


# ---------------------------------------------------------------------------
# theorem bounds and slopes
# ---------------------------------------------------------------------------

def theorem_bound(theorem: int, c: dict, theta: float, d: int, T: float) -> float:
    """The log-domain bound of theorems 1-3 (the theta >= 1 form at theta = 1)."""
    A, B, C, D = coefficients(theta, d)
    s = 2.0 - theta
    if theorem == 3:
        L = norm(c, 1.0, T)
        if theta >= 1.0:
            return (2.0 ** (-theta / s) * A * T * L ** (2.0 / s)
                    + 2.0 ** (-theta / 2.0) / (1.0 - theta / 2.0) * B * T ** (1.0 - theta / 2.0) * L)
        return (2.0 ** (-theta / s) * C * T * L ** (2.0 / s)
                + 2.0 ** ((4.0 - 3.0 * theta) / (2.0 * s)) * D * math.sqrt(T) * L ** (1.0 / s))
    e = envelope(c, T)
    if theorem == 1:
        if theta >= 1.0:
            return (A * float(power_integral(e, 2.0 / s, 0.0, T))
                    + B * float(power_integral(e, 1.0, theta / 2.0, T)))
        m1 = float(power_integral(e, 1.0, 0.0, T))
        m2 = float(power_integral(e, 2.0, 0.0, T))
        m3 = float(power_integral(e, 1.0, 0.5, T))
        return (C * m2 ** (theta / s) * m1 ** ((2.0 - 2.0 * theta) / s)
                + D * (m1 / m2) ** ((1.0 - theta) / s) * m3)
    if theta >= 1.0:
        return A * iterated(e, T, outer=2.0 / s) + B * iterated(e, T, weight=theta / 2.0)
    j1 = iterated(e, T)
    j2 = iterated(e, T, outer=2.0)
    j3 = iterated(e, T, weight=0.5)
    return (C * j2 ** (theta / s) * j1 ** ((2.0 - 2.0 * theta) / s)
            + D * (j1 / j2) ** ((1.0 - theta) / s) * j3)


def _mass(c: dict) -> float:
    if c["kind"] == "exp_decay":
        return c["amplitude"] / c["rate"]
    if c["kind"] == "indicator":
        return c["height"] * c["cutoff"]
    raise ValueError(f"no finite mass for {c['kind']}")


def _weighted_mass(c: dict, a: float) -> float:
    if c["kind"] == "exp_decay":
        return c["amplitude"] * math.exp(math.lgamma(1.0 - a)) * c["rate"] ** (a - 1.0)
    return c["height"] * c["cutoff"] ** (1.0 - a) / (1.0 - a)


def slope(theorem: int, c: dict, theta: float, d: int) -> float:
    """lim log_bound(T) / T: constant coupling for theorem 1, integrable for 2 and 3."""
    A, B, C, D = coefficients(theta, d)
    s = 2.0 - theta
    first = A if theta >= 1.0 else C
    if theorem == 1:
        return first * c["level"] ** (2.0 / s) if c["kind"] == "constant" else 0.0
    L = _mass(c)
    if theorem == 3:
        return 2.0 ** (-theta / s) * first * L ** (2.0 / s)
    if theta >= 1.0:
        return A * L ** (2.0 / s) + B * _weighted_mass(c, theta / 2.0)
    return C * L ** (2.0 / s) + D * L ** (-(1.0 - theta) / s) * _weighted_mass(c, 0.5)


def model_components(name: str, p: dict) -> tuple:
    """(theta, d, [(theorem, coupling, power)], mc_kind, mc_coupling) of a model."""
    r2 = math.sqrt(2.0)
    if name in ("hydrogen", "inverse_square"):
        f = {"kind": "constant", "level": p["alpha"]}
        return p.get("theta", 1.0), p.get("d", 3), [(1, f, 1.0)], "single", f
    if name == "polaron":
        f = {"kind": "exp_decay", "amplitude": p["alpha"] / r2, "rate": 1.0}
        return 1.0, 3, [(2, f, 1.0)], "self_double", f
    if name == "bipolaron":
        base = {"kind": "exp_decay", "amplitude": p["alpha"] / r2, "rate": 1.0}
        quad = {"kind": "exp_decay", "amplitude": 4.0 * p["alpha"] / r2, "rate": 1.0}
        doub = {"kind": "exp_decay", "amplitude": 2.0 * p["alpha"] / r2, "rate": 1.0}
        return 1.0, 3, [(3, quad, 0.5), (2, doub, 1.0)], "bipolaron", base
    f = {"kind": "indicator", "height": p["gamma"], "cutoff": p["tau"]}
    return p["theta"], 3, [(2, f, 1.0)], "self_double", f


def model_bound(name: str, p: dict, T: float) -> float:
    theta, d, comps, _, _ = model_components(name, p)
    return sum(power * theorem_bound(thm, f, theta, d, T) for thm, f, power in comps)


def model_slope(name: str, p: dict) -> float:
    theta, d, comps, _, _ = model_components(name, p)
    return sum(power * slope(thm, f, theta, d) for thm, f, power in comps)


# ---------------------------------------------------------------------------
# exact expectations of discretised Monte Carlo actions
# ---------------------------------------------------------------------------

_U = np.arange(-200.0, 100.0, 0.1)  # log-variable grid of the subordination integral
_S = np.exp(_U)
CHUNK = 8  # sigma values per block: the benchmark's references must not set peak_rss_mb


def inverse_moment(sigma2, mu2: float, eps2: float, theta: float, d: int) -> np.ndarray:
    """E[(|Z|^2 + eps^2)^(-theta/2)] for Z ~ N(mu, sigma2 I_d), |mu|^2 = mu2.

    Writes the power as (1/Gamma(theta/2)) int_0^inf s^(theta/2-1) e^(-s r^2) ds,
    takes the Gaussian expectation inside, and integrates over u = ln s with
    the trapezoid rule, which converges geometrically for this analytic,
    doubly decaying integrand.  Evaluated ``CHUNK`` sigma values at a time,
    so the transient arrays stay near 0.2 MB each whatever the grid size.
    """
    sig = np.asarray(sigma2, dtype=float)
    flat = sig.reshape(-1)
    out = np.empty(flat.shape)
    base = (theta / 2.0) * _U - _S * eps2
    for k in range(0, flat.size, CHUNK):
        den = 1.0 + 2.0 * _S * flat[k:k + CHUNK, None]
        log_f = base - (d / 2.0) * np.log(den) - _S * mu2 / den
        out[k:k + CHUNK] = np.exp(log_f).sum(axis=-1)
    return out.reshape(sig.shape) * 0.1 / math.gamma(theta / 2.0)


def discrete_expectation(kind: str, c: dict, theta: float, d: int, T: float,
                         steps: int, offset: float = 0.0, epsilon: float = 0.0) -> float:
    """E[action] of fkbound's discretised action (midpoint rule for the single
    action, grid-node pairs i > j for the double ones)."""
    dt = T / steps
    eps2 = epsilon * epsilon
    if kind == "single":
        tm = (np.arange(steps) + 0.5) * dt
        return float(np.dot(values(c, tm) * dt, inverse_moment(tm, offset * offset, eps2, theta, d)))
    lags = np.arange(1, steps) * dt
    self_sum = float(np.dot((steps - np.arange(1, steps)) * values(c, lags) * dt * dt,
                            inverse_moment(lags, 0.0, eps2, theta, d)))
    if kind == "self_double":
        return self_sum
    i, j = np.tril_indices(steps, -1)
    sums = np.zeros(2 * steps + 1)  # indexed by i + j + 2, so t_i + t_j = index * dt
    sums[3:] = inverse_moment(np.arange(3, 2 * steps + 1) * dt, offset * offset, eps2, theta, d)
    cross = float(np.dot(values(c, (i - j) * dt) * dt * dt, sums[i + j + 2]))
    if kind == "cross_double":
        return cross
    return 2.0 * self_sum + 2.0 * cross  # bipolaron: both self terms and the doubled cross term


def oscillator_discrete_log_moment(omega: float, T: float, steps: int) -> float:
    """ln E[exp(-(omega^2/2) sum_k X(t_k)^2 dt)] at the midpoints t_k, exactly.

    The midpoint values are a Gaussian random walk with independent steps of
    variance t_1 = dt/2 and then dt.  Integrating them out from the last
    one back keeps the conditional moment of the form C exp(-b x^2):
    a step of variance v maps b to b / (1 + 2 b v) and multiplies C by
    (1 + 2 b v)^(-1/2).  This O(N) recursion equals
    det(I + omega^2 dt Sigma)^(-1/2) with Sigma = min(t_j, t_k), without
    the N x N matrix.
    """
    dt = T / steps
    a = 0.5 * omega * omega * dt
    b, log_c = a, 0.0
    for _ in range(steps - 1):
        log_c -= 0.5 * math.log1p(2.0 * b * dt)
        b = a + b / (1.0 + 2.0 * b * dt)
    return log_c - 0.5 * math.log1p(b * dt)


def log_cosh_half(omega: float, T: float) -> float:
    """-ln(cosh(omega T)) / 2, the continuum oscillator moment."""
    x = abs(omega * T)
    return -0.5 * (x + math.log1p(math.exp(-2.0 * x)) - math.log(2.0))


def digits(value: float, reference: float) -> float:
    """-log10 of the relative error, capped at 16 (0 for a non-finite value)."""
    if not (math.isfinite(value) and math.isfinite(reference)):
        return 0.0
    err = abs(value - reference) / max(abs(reference), 1e-300)
    return 16.0 if err <= 1e-16 else min(16.0, -math.log10(err))
