"""fkbound: log-linear bounds on exponential Brownian functionals.

Closed-form log-domain upper bounds for E[exp(action)] over Brownian paths
with inverse-power interactions, ground-state-energy extraction from their
linear-in-T content, a complementary variational lower bound at strong
coupling, and an independent Monte Carlo engine plus exactly solvable
references (quadratic action, the subordination identity) that cross-verify
every formula.

The tolerances are deliberately fixed constants of the modules that use
them, so that bound audits reproduce digit for digit; no function takes a
tolerance argument.
"""

from . import bounds, kernels, mc, models, oscillator, pekar, schedule
from .errors import (
    DomainError,
    FkboundError,
    GridTooSmall,
    NoConvergence,
    NoLinearSlope,
    NonIntegrable,
    NotPositiveDefinite,
    NumericalFailure,
    QuadratureFailure,
    StepSizeFailure,
    VerificationError,
)

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "kernels",
    "mc",
    "models",
    "oscillator",
    "pekar",
    "schedule",
    "DomainError",
    "FkboundError",
    "GridTooSmall",
    "NoConvergence",
    "NoLinearSlope",
    "NonIntegrable",
    "NotPositiveDefinite",
    "NumericalFailure",
    "QuadratureFailure",
    "StepSizeFailure",
    "VerificationError",
    "__version__",
]
