#!/usr/bin/env python3
"""Sandwich the constant-coupling single-action functional by Monte Carlo.

Prints, for a ladder of horizons, the Jensen floor, the Monte Carlo
estimate with the grid allowance fitted on an N ladder beside the exact
grid bias jensen - E[A_N] it stands in for (so the fit's margin shows), and
the closed-form ceiling, plus the energy read off the ceiling's linear term.

Usage: python scripts/hydrogen_sandwich.py [alpha] [paths] [steps]
"""

import sys

from fkbound import bounds as B
from fkbound import mc, models

def main() -> None:
    alpha = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    paths = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000
    steps = int(sys.argv[3]) if len(sys.argv) > 3 else 256
    model = models.build("hydrogen", alpha=alpha)
    print(f"# hydrogen alpha={alpha}  M={paths}  N={steps}  seed=1")
    print(f"{'T':>5} {'jensen':>10} {'mc_log_mean':>12} {'+-3se':>9} "
          f"{'allowance':>10} {'grid_bias':>10} {'ceiling':>10}")
    for T in (0.5, 1.0, 2.0):
        spec = model.action_spec(T)
        ladder = mc.ladder_allowance(spec, paths, steps, seed=1, exponent=0.5)
        est = ladder["estimates"][steps]
        jens = model.expected_action(T).value
        bias = jens - mc.discrete_expectation(spec, steps)
        ceiling = models.composed_bound(model, T)["log_bound"]
        print(f"{T:5.2f} {jens:10.5f} {est.log_mean:12.5f} {3 * est.stderr_log:9.5f} "
              f"{ladder['allowance']:10.5f} {bias:10.5f} {ceiling:10.5f}")
    eb = B.energy_lower_bound(model)
    print(f"# energy lower bound from the ceiling slope: {eb.energy:.6f} "
          f"(= -alpha^2/2 = {-alpha * alpha / 2:.6f})")


if __name__ == "__main__":
    main()
