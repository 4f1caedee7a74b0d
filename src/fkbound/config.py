"""Package-wide numerical constants.

The tolerances are deliberately fixed module constants, so that bound audits
reproduce digit for digit; no function takes a tolerance argument.
"""

from __future__ import annotations

import math

from scipy.special import gammaln

QUAD_ABS = 1e-10      # inner (single) quadratures, absolute
QUAD_REL = 1e-8       # iterated/outer quadratures, relative
SLOPE_REL = 1e-6      # T-ladder slope extrapolation
ODE_RESIDUAL = 1e-8   # integral-equation residual for the ODE solver
SLOPE_DOUBLINGS = 18  # T-ladder doublings before a slope counts as unsettled
PEKAR_GRAD = 1e-8     # Pekar descent: projected-gradient norm at convergence
PEKAR_ITERATIONS = 40000  # Pekar descent: iteration cap
PEKAR_STALL = 16     # Pekar descent: iterations on the gradient's roundoff floor before giving up
PEKAR_FLOOR_REACH = 64.0  # Pekar descent: a floor this many times PEKAR_GRAD is out of reach


def sharp_hls_constant(d: int, theta: float) -> float:
    """Sharp diagonal Hardy-Littlewood-Sobolev constant.

    For the bilinear form iint f(x) |x-y|^(-theta) g(y) dx dy with
    ||f||_p ||g||_p on the right and p = 2d/(2d - theta), the optimal
    constant (Lieb's sharp form, attained by conformal factors) is

        pi^(theta/2) * Gamma(d/2 - theta/2) / Gamma(d - theta/2)
                     * (Gamma(d/2) / Gamma(d))^(theta/d - 1).

    Used where a cross-pair expectation is reported as an HLS upper bound.
    """
    if not 0 < theta < d:
        raise ValueError(f"HLS constant needs 0 < theta < d, got theta={theta}, d={d}")
    log_c = (theta / 2) * math.log(math.pi)
    log_c += gammaln(d / 2 - theta / 2) - gammaln(d - theta / 2)
    log_c += (theta / d - 1) * (gammaln(d / 2) - gammaln(d))
    return math.exp(log_c)
