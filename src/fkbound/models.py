"""Preconfigured physical scenarios.

Each model binds a coupling schedule, exponent/dimension parameters, the
theorem bounds composing its log bound, the Monte Carlo action sampling it,
and the closed-form expectation feeding its Jensen lower bound, into one
named, reproducible experiment:

* hydrogen:        constant coupling alpha, single action, theta = 1, d = 3
* inverse_square:  constant coupling alpha, single action, 1 <= theta < 2, d >= 3
* polaron:         exp-decay coupling alpha e^-t / sqrt(2), self-pair action
* bipolaron:       two paths; a half power of the two-path bound with the
                   coupling quadrupled, times the self-pair bound with it
                   doubled (the split produced by Cauchy-Schwarz on the
                   three-term exponent)
* nelson_q:        sharp-cutoff coupling gamma chi_[0,tau], self-pair action,
                   1 < theta < 2 (the reduced self-interaction term of the
                   ultraviolet analysis)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import bounds as B
from . import kernels, mc
from .errors import DomainError, NoLinearSlope, NumericalFailure
from .schedule import Constant, CouplingFunction, ExpDecay, Indicator

__all__ = [
    "BoundComponent",
    "ModelSpec",
    "VerifyReport",
    "VerifyRow",
    "build",
    "composed_bound",
    "MODEL_NAMES",
]

_PARAMS = {"hydrogen": ("alpha",), "inverse_square": ("alpha", "theta", "d"), "polaron": ("alpha",),
           "bipolaron": ("alpha",), "nelson_q": ("gamma", "tau", "theta")}  # what build() reads
MODEL_NAMES = tuple(_PARAMS)


@dataclass(frozen=True)
class BoundComponent:
    """One theorem evaluation entering the composed log bound, weighted by
    ``power`` (the exponent produced by a Cauchy-Schwarz split)."""

    theorem: int
    f: CouplingFunction
    power: float = 1.0


@dataclass(frozen=True)
class ModelSpec:
    name: str
    theta: float
    d: int
    bound_components: tuple
    mc_kind: str                      # action kind for the Monte Carlo engine
    mc_f: CouplingFunction            # its coupling (base coupling for bipolaron)
    params: dict = field(default_factory=dict)
    note: str = ""

    @property
    def jensen_kind(self) -> Optional[str]:
        """Closed-form expectation kind of the action, or None."""
        return self.mc_kind if self.mc_kind in ("single", "self_double") else None

    def action_spec(self, T: float, offset: float = 0.0,
                    epsilon: float = 0.0) -> mc.ActionSpec:
        return mc.ActionSpec(kind=self.mc_kind, f=self.mc_f, theta=self.theta,
                             d=self.d, T=T, offset=offset, epsilon=epsilon)

    def expected_action(self, T: float) -> kernels.ExpectationFormula:
        """Closed-form E[action] at horizon T: the Jensen floor
        ln E[exp(action)] >= E[action]."""
        if self.jensen_kind is None:
            raise DomainError(f"model {self.name} has no closed-form expected action")
        return kernels.expected_action(self.jensen_kind, self.mc_f,
                                       B.BoundParams(self.theta, self.d, T))

    def jensen_slope(self) -> float:
        """Large-T slope of the Jensen floor."""
        if self.jensen_kind is None:
            raise DomainError(f"model {self.name} has no closed-form expected action")
        if self.jensen_kind == "single":
            return 0.0  # E[action] grows like T^(1-theta/2)
        f = self.mc_f
        return kernels.expectation_constant(self.theta, self.d) * (
            0.0 if f.is_zero() else f.weighted_limit(self.theta / 2.0))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "theta": self.theta,
            "d": self.d,
            "params": dict(self.params),
            "mc_kind": self.mc_kind,
            "coupling": self.mc_f.to_dict(),
            "note": self.note,
        }


def build(name: str, alpha: float = None, gamma: float = None, tau: float = None,
          theta: float = None, d: int = None) -> ModelSpec:
    """Construct a named model from its physical parameters."""
    name = name.lower()
    unused = [k for k, v in dict(alpha=alpha, gamma=gamma, tau=tau, theta=theta, d=d).items()
              if v is not None and k not in _PARAMS.get(name, (k,))]
    if unused:
        raise DomainError(f"{name} takes {', '.join(_PARAMS[name])}, not {', '.join(unused)}")
    if "alpha" in _PARAMS.get(name, ()) and (alpha is None or alpha < 0):
        raise DomainError(f"{name} needs alpha >= 0")
    if name == "hydrogen":
        f = Constant(alpha)
        return ModelSpec(
            name="hydrogen", theta=1.0, d=3,
            bound_components=(BoundComponent(1, f),),
            mc_kind="single", mc_f=f,
            params={"alpha": alpha},
        )
    if name == "inverse_square":
        theta = 1.0 if theta is None else float(theta)
        d = 3 if d is None else d
        if not 1.0 <= theta < 2.0:
            raise DomainError(f"inverse_square needs 1 <= theta < 2, got {theta}")
        if not (float(d).is_integer() and d >= 3):
            raise DomainError(f"inverse_square needs an integer d >= 3, got {d}")
        d = int(d)
        f = Constant(alpha)
        return ModelSpec(
            name="inverse_square", theta=theta, d=d,
            bound_components=(BoundComponent(1, f),),
            mc_kind="single", mc_f=f,
            params={"alpha": alpha, "theta": theta, "d": d},
            note=f"critical coupling {B.critical_coupling(d)} at theta -> 2",
        )
    if name == "polaron":
        f = ExpDecay(alpha / math.sqrt(2.0), 1.0)
        return ModelSpec(
            name="polaron", theta=1.0, d=3,
            bound_components=(BoundComponent(2, f),),
            mc_kind="self_double", mc_f=f,
            params={"alpha": alpha},
        )
    if name == "bipolaron":
        base = ExpDecay(alpha / math.sqrt(2.0), 1.0)
        quad = ExpDecay(4.0 * alpha / math.sqrt(2.0), 1.0)
        doub = ExpDecay(2.0 * alpha / math.sqrt(2.0), 1.0)
        return ModelSpec(
            name="bipolaron", theta=1.0, d=3,
            bound_components=(BoundComponent(3, quad, power=0.5),
                              BoundComponent(2, doub, power=1.0)),
            mc_kind="bipolaron", mc_f=base,
            params={"alpha": alpha},
            note=("strong-coupling literature upper bound for comparison: "
                  "about -0.87 alpha^2 (Pekar-Tomasevich); printed, not asserted"),
        )
    if name == "nelson_q":
        if gamma is None or gamma < 0:
            raise DomainError("nelson_q needs gamma >= 0")
        if tau is None or tau <= 0:
            raise DomainError("nelson_q needs tau > 0")
        theta = 1.5 if theta is None else float(theta)
        if not 1.0 < theta < 2.0:
            raise DomainError(f"nelson_q needs 1 < theta < 2, got {theta}")
        f = Indicator(gamma, tau)
        try:
            coeffs = B.coefficients(theta, 3)
            c1 = coeffs.A * tau ** (2.0 / (2.0 - theta))
            c2 = coeffs.B * tau ** (1.0 - theta / 2.0) / (1.0 - theta / 2.0)
        except OverflowError:
            raise NumericalFailure(f"nelson_q constant overflows at tau={tau}") from None
        return ModelSpec(
            name="nelson_q", theta=theta, d=3,
            bound_components=(BoundComponent(2, f),),
            mc_kind="self_double", mc_f=f,
            params={"gamma": gamma, "tau": tau, "theta": theta},
            note=(f"log-linear constant c = {c1 + c2:.6g} "
                  f"(coupling-power part {c1:.6g} + linear part {c2:.6g}); "
                  f"slope(gamma) <= c (1 + gamma^(2/(2-theta)))"),
        )
    raise DomainError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def composed_bound(model: ModelSpec, T: float) -> dict:
    """Power-weighted sum of the component theorem bounds at horizon T."""
    reports = []
    total = 0.0
    for comp in model.bound_components:
        rep = B.theorem_bound(comp.theorem, comp.f, B.BoundParams(model.theta, model.d, T))
        reports.append({"power": comp.power, "report": rep})
        total += comp.power * rep.log_bound
    return {"log_bound": total, "components": reports}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyRow:
    check: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"check": self.check, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class VerifyReport:
    model: str
    T: float
    paths: int
    steps: int
    seed: int
    log_bound: float
    estimate: mc.McEstimate
    rows: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def as_dict(self) -> dict:
        head = {k: getattr(self, k) for k in ("model", "T", "paths", "steps", "seed", "log_bound")}
        return {**head, "estimate": self.estimate.as_dict(), "rows": [r.as_dict() for r in self.rows],
                "all_passed": self.all_passed}


def verify(model: ModelSpec, T: float, paths: int, steps: int, seed: int) -> VerifyReport:
    """Run the bound, the Jensen floor, the expectation and one Monte Carlo
    estimate, and judge every sandwich inequality with its margin.  The Jensen
    row allows the exact grid bias max(0, jensen - E[A_N]) of the N-step action
    (``mc.discrete_expectation``): where it is positive, E[A_N] <= log_mean + 3 se.

    Precondition (heavy-tail guard): the composed bound slope times T must
    not exceed 3, keeping exp(action) estimable at desk-scale path counts.
    """
    comp = composed_bound(model, T)
    log_bound = comp["log_bound"]
    try:
        slope = B.energy_lower_bound(model).slope
    except NoLinearSlope:
        slope = None
    if slope is not None and slope * T > 3.0:
        raise DomainError(
            f"heavy-tail guard: bound slope {slope:.3g} x T {T:g} exceeds 3; "
            f"shrink the coupling or the horizon"
        )
    spec = model.action_spec(T)
    est = mc.estimate(spec, paths, steps, seed)
    rows = []
    se3 = 3.0 * est.stderr_log
    rows.append(VerifyRow(
        "mc_below_bound",
        est.log_mean <= log_bound + se3,
        f"log_mean {est.log_mean:.6g} <= log_bound {log_bound:.6g} + 3se {se3:.2g}",
    ))
    # Exactly, ln mean exp(A) >= mean A.  Rounding can cross the two only while the weights sit
    # near 1; there each side takes at most log2 n + 24 roundings (a numpy pairwise sum of n terms
    # up to 2 max|A|, a few elementwise steps), each off by at most u max|A| + 2^-1074, u = 2^-53.
    # Samuelson's inequality bounds max|A| by |action_mean| + (n - 1) action_stderr.
    n = est.paths - est.infinite_paths
    a_max = abs(est.action_mean) + (n - 1) * est.action_stderr
    tol = 2 * (n.bit_length() + 24) * (2.0 ** -53 * a_max + 2.0 ** -1074)
    rows.append(VerifyRow(
        "sample_jensen",
        est.action_mean <= est.log_mean + tol,
        f"action_mean {est.action_mean:.6g} <= log_mean {est.log_mean:.6g} "
        f"+ rounding {tol:.2g} (empirical-measure Jensen)",
    ))
    if model.jensen_kind is not None:
        jens = model.expected_action(T).value
        bias = max(0.0, jens - mc.discrete_expectation(spec, steps))
        rows.append(VerifyRow(
            "jensen_below_mc",
            jens <= est.log_mean + se3 + bias,
            f"jensen {jens:.6g} <= log_mean {est.log_mean:.6g} + 3se {se3:.2g} "
            f"+ exact grid bias {bias:.2g}",
        ))
        sa3 = 3.0 * est.action_stderr
        rows.append(VerifyRow(
            "action_mean_below_expectation",
            est.action_mean <= jens + sa3,
            f"action_mean {est.action_mean:.6g} <= expectation {jens:.6g} "
            f"+ 3se {sa3:.2g} (grid sums bias the singular integrals low)",
        ))
    if est.infinite_paths:
        rows.append(VerifyRow(
            "no_singular_hits", False,
            f"{est.infinite_paths} paths hit the exact singularity",
        ))
    return VerifyReport(model=model.name, T=T, paths=paths, steps=steps, seed=seed,
                        log_bound=log_bound, estimate=est, rows=tuple(rows))
