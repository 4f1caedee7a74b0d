"""ROADMAP aim-1 baseline rows, each the minimum of k repeats.

    python3 perfbench/baseline.py [--repeats 5]

run from the root of a checkout.  Measures, with BLAS/OpenMP pinned to
one thread: the per-path cost of the single, self-pair and bipolaron
actions at N=512, one theorem-2 bound on a tabulated coupling with
G=1000 cells, and the cost of importing ``fkbound.cli`` in a fresh
interpreter.  Prints one JSON row per measurement, with the machine and
library versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

# the figures quoted in ROADMAP.md at the re-anchor, for side-by-side reading
ROADMAP = {"single_path_ms_N512": 0.12, "self_pair_path_ms_N512": 3.7,
           "bipolaron_path_ms_N512": 17.0, "theorem2_bound_G1000_s": 1.2,
           "import_fkbound_cli_s": 0.75}


def _timed_rows(repeats: int) -> list:
    """Rows measured in this (pinned) interpreter."""
    import jobs
    from fkbound import bounds, mc, schedule

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return min(times)

    rows = []
    actions = (("single_path_ms_N512", "single", schedule.Constant(0.5), 1000),
               ("self_pair_path_ms_N512", "self_double",
                schedule.ExpDecay(0.5 / math.sqrt(2.0), 1.0), 100),
               ("bipolaron_path_ms_N512", "bipolaron",
                schedule.ExpDecay(0.5 / math.sqrt(2.0), 1.0), 100))
    for name, kind, f, paths in actions:
        spec = mc.ActionSpec(kind, f, 1.0, 3, 2.0)
        s = best(lambda: mc.estimate(spec, paths, 512, 7))
        rows.append((name, 1e3 * s / paths, "ms", f"{paths} paths"))
    table = schedule.coupling_from_dict(jobs._tabulated(1000, 2.0, "baseline"))
    params = bounds.BoundParams(0.7, 3, 2.0)
    s = best(lambda: bounds.theorem_bound(2, table, params))
    rows.append(("theorem2_bound_G1000_s", s, "s", "theta 0.7, d 3, T 2"))
    return rows


def measure(root: str, env: dict, repeats: int) -> list:
    """All rows as dicts; the timed ones run in a fresh child with ``env``."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "baseline.py"), "--child",
                          "--repeats", str(repeats)], cwd=root, env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    rows = [tuple(r) for r in json.loads(out.stdout.strip().splitlines()[-1])]
    imports = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import fkbound.cli"], cwd=root, env=env,
                       check=True, timeout=120)
        imports.append(perf_counter() - t0)
    rows.append(("import_fkbound_cli_s", min(imports), "s", "fresh interpreter"))
    return [{"row": name, "value": value, "unit": unit, "repeats": repeats, "note": note,
             "roadmap": ROADMAP[name]} for name, value, unit, note in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ROADMAP aim-1 baseline rows")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_timed_rows(args.repeats)))
        return 0
    sys.path.insert(0, HERE)
    import run

    root = os.getcwd()
    env = run.child_env(root)
    print(json.dumps({"environment": run.environment(root, seed=None)}))
    for row in measure(root, env, args.repeats):
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
