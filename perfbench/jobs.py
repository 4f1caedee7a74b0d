"""Seeded job decks for the three workloads, and how each job is run and checked.

A deck is a list of jobs drawn from ``random.Random(f"{workload}:{seed}")``.
The seed moves the physics (couplings, exponents, horizons, Monte Carlo
seeds) but not the size of any slot (paths, steps, table cells, nodes), so
the cost of a deck barely depends on the seed and runs with different seeds
stay comparable.  For the same reason the inputs of every job that
evaluates a theorem-2 bound (adaptive quadrature, whose cost and error jump
with the integrand) and all table data are fixed per slot: for the polaron
and nelson_q verifications the seed moves only the Monte Carlo stream.  Every drawn input lies inside the program's domain:

* Monte Carlo jobs keep M >= 100, N >= 64 where the N-ladder runs, and the
  heavy-tail guard slope * T <= 3 of ``models.verify`` (checked with the
  benchmark's own slope formulas);
* ``ladder_slope`` only sees theorem 2 with exp_decay or indicator
  couplings, where the slope exists;
* each model receives only the parameters it uses;
* at epsilon = 0 a midpoint landing near the origin gives the discretised
  single action an infinite exponential moment (one such path at theta=1.5
  read log_mean 19 against a bound of 1.6), so the raw singularity is only
  sampled at theta = 1 in d = 3 (hydrogen) or theta <= 1.3 in d = 4
  (inverse_square), and every other single-action job sets epsilon >= 0.05.

The program receives only the generated inputs, through public functions,
without the ``threads=`` or ``tolerances=`` keywords.

Checks return a list of failure messages and the digits of agreement with
the benchmark's references.  Monte Carlo sandwiches use a margin of
``MARGIN_SE`` standard errors; the lower side compares with the exact
expectation of the discretised action, so it needs no grid allowance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

import refs

MARGIN_SE = 6.0
WORKLOADS = ("mc_single", "mc_pair", "closed_form")
MC_KINDS = ("verify", "estimate", "maximality", "martingale", "oscillator_mc")


@dataclass(frozen=True)
class Job:
    kind: str       # which runner and checker apply
    slot: str       # the deck slot, e.g. "verify:polaron:N512"
    p: dict         # the generated inputs


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _tabulated(cells: int, T: float, slot: str) -> dict:
    """Step-left table on a jittered grid ending at T (cell widths within 3x).

    The values and the relative grid are fixed per deck slot: the cost and
    the error of adaptive quadrature over hundreds of step cells change by
    2x and by two digits from one random table to the next, which would
    swamp the comparison between runs.
    """
    rng = random.Random(f"table:{slot}")
    cum = [0.0]
    for _ in range(cells):
        cum.append(cum[-1] + rng.uniform(0.5, 1.5))
    grid = [T * g / cum[-1] for g in cum]
    grid[-1] = T
    return {"kind": "tabulated", "grid": grid,
            "values": [rng.uniform(0.1, 1.0) for _ in range(cells + 1)]}


def _coupling(rng: random.Random, kind: str, T: float, slot: str = "") -> dict:
    if kind == "constant":
        return {"kind": kind, "level": rng.uniform(0.2, 1.0)}
    if kind == "exp_decay":
        return {"kind": kind, "amplitude": rng.uniform(0.2, 1.0), "rate": rng.uniform(0.5, 2.0)}
    if kind == "indicator":
        return {"kind": kind, "height": rng.uniform(0.2, 1.0), "cutoff": rng.uniform(0.2, 0.9) * T}
    if kind == "power_law":
        # exponent > -0.15 keeps every norm of theorems 1-3 integrable for theta <= 1.65
        return {"kind": kind, "amplitude": rng.uniform(0.2, 1.0), "exponent": rng.uniform(-0.15, 0.5)}
    return _tabulated(int(kind.split("_")[1]), T, slot)


def _theta(rng: random.Random, branch: str) -> float:
    return {"lt1": rng.uniform(0.5, 0.9), "eq1": 1.0, "gt1": rng.uniform(1.1, 1.65)}[branch]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 63)


def _model_params(rng: random.Random, name: str) -> tuple:
    """Model parameters and a horizon T that pass the heavy-tail guard."""
    while True:
        T = rng.uniform(0.5, 2.0)
        if name == "hydrogen":
            p = {"alpha": rng.uniform(0.3, 0.7)}
        elif name == "inverse_square":
            p = {"alpha": rng.uniform(0.1, 0.5), "theta": rng.uniform(1.0, 1.3), "d": 4}
        elif name in ("polaron", "bipolaron"):
            p = {"alpha": rng.uniform(0.2, 0.8)}
        else:
            p = {"gamma": rng.uniform(0.2, 0.8), "tau": rng.uniform(0.3, 1.0),
                 "theta": rng.uniform(1.2, 1.7)}
        if refs.model_slope(name, p) * T <= 1.5:  # half the guard's limit of 3
            return p, T


def _verify(rng, name, paths, steps, fixed=None):
    """A models.verify job; ``fixed`` pins the model inputs to the slot (the
    theorem-2 bound inside runs adaptive quadrature) and leaves the seed only
    the Monte Carlo stream."""
    src = rng if fixed is None else random.Random(f"fixed:verify:{name}:{fixed}")
    p, T = _model_params(src, name)
    return Job("verify", f"verify:{name}:N{steps}",
               {"model": name, "params": p, "T": T, "paths": paths, "steps": steps,
                "seed": _seed(rng)})


def _estimate_single(rng, kind, paths, steps):
    T = rng.uniform(0.5, 2.0)
    theta = rng.uniform(0.6, 1.6)
    c = _coupling(rng, kind, T)
    return Job("estimate", f"estimate:single:{kind}:N{steps}",
               {"action": "single", "coupling": c, "theta": theta, "d": 3,
                "T": T, "offset": rng.uniform(0.1, 1.0), "epsilon": rng.uniform(0.05, 0.2),
                "paths": paths, "steps": steps, "seed": _seed(rng),
                "upper": [(1, c, 1.0)]})


def _estimate_pair(rng, action, paths, steps):
    if action == "bipolaron":
        p, T = _model_params(rng, "bipolaron")
        theta, d, comps, _, c = refs.model_components("bipolaron", p)
        offset = 0.0
    else:
        T, theta, d = rng.uniform(0.5, 2.0), 1.0, 3
        c = _coupling(rng, "exp_decay", T)
        comps = [(3, c, 1.0)]
        offset = rng.uniform(0.2, 1.0)
    return Job("estimate", f"estimate:{action}:N{steps}",
               {"action": action, "coupling": c, "theta": theta, "d": d, "T": T,
                "offset": offset, "epsilon": 0.0, "paths": paths, "steps": steps,
                "seed": _seed(rng), "upper": comps})


def _maximality(rng, paths, steps):
    T = rng.uniform(0.5, 2.0)
    return Job("maximality", f"maximality:N{steps}",
               {"coupling": _coupling(rng, "constant", T), "theta": rng.uniform(0.8, 1.5),
                "d": 3, "T": T, "epsilon": rng.uniform(0.05, 0.2),
                "radii": [rng.uniform(0.2, 0.6), rng.uniform(0.8, 1.5)],
                "paths": paths, "steps": steps, "seed": _seed(rng)})


def _martingale(rng, truncated, paths, steps):
    return Job("martingale", f"martingale:{'truncated' if truncated else 'plain'}:N{steps}",
               {"lam": rng.uniform(0.3, 1.0), "T": rng.uniform(0.5, 2.0), "d": rng.choice((1, 2, 3)),
                "truncation": rng.uniform(0.2, 1.0) if truncated else None,
                "paths": paths, "steps": steps, "seed": _seed(rng)})


def _oscillator_mc(rng, paths, steps):
    omega = rng.uniform(0.5, 1.5)
    return Job("oscillator_mc", f"oscillator_mc:N{steps}",
               {"omega": omega, "T": rng.uniform(0.5, 2.5 / omega),
                "paths": paths, "steps": steps, "seed": _seed(rng)})


# Slot counts in the Monte Carlo decks (20 jobs, in cost order) put the
# median on the 10th-11th job and the 90th percentile on the 18th-19th, each
# inside a group of equal-cost jobs, so neither sits on a jump in cost.

def _mc_single(rng):
    deck = [_martingale(rng, k % 2 == 1, 4000, 256) for k in range(4)]
    deck += [_oscillator_mc(rng, 3000, 256) for _ in range(3)]
    deck += [_estimate_single(rng, kind, 2000, 256)
             for kind in ("constant", "exp_decay", "indicator", "constant", "exp_decay")]
    deck += [_maximality(rng, 2000, 256) for _ in range(3)]
    deck += [_verify(rng, name, 2000, 256)
             for name in ("hydrogen", "hydrogen", "inverse_square", "inverse_square")]
    deck += [_verify(rng, "hydrogen", 2000, 512)]
    return deck


def _mc_pair(rng):
    deck = [_verify(rng, "polaron", 100, 256, fixed=k) for k in range(7)]
    deck += [_verify(rng, "nelson_q", 100, 256, fixed=k) for k in range(5)]
    deck += [_estimate_pair(rng, "cross_double", 100, 256) for _ in range(3)]
    deck += [_estimate_pair(rng, "bipolaron", 100, 256) for _ in range(2)]
    deck += [_verify(rng, "polaron", 100, 512, fixed=7 + k) for k in range(2)]
    deck += [_verify(rng, "polaron", 100, 1024, fixed=9)]
    return deck


def _closed_form(rng):
    deck = []
    T = rng.uniform(1.0, 3.0)

    def bounds_job(theorems, kind, branch, d=None, copy=0):
        slot = f"theorem_bound:T{''.join(map(str, theorems))}:{kind}:{branch}"
        # theorem 2 runs adaptive quadrature, whose cost and error jump with the
        # integrand: its inputs are fixed per slot, and the seed moves only d
        src = random.Random(f"fixed:{slot}:{copy}") if theorems == [2] else rng
        horizon = src.uniform(1.0, 3.0) if theorems == [2] else T
        c = _coupling(src, kind, horizon, f"{slot}:{copy}")
        return Job("theorem_bound", slot,
                   {"theorems": theorems, "coupling": c, "theta": _theta(src, branch),
                    "d": d or rng.choice((2, 3, 4, 5)), "T": horizon})

    # every coupling kind under every theorem, with theta below, at and above 1;
    # the costly theorem-2 tables get slots of their own (their latencies form
    # the 90th-percentile tail), the cheap analytic ones come twice per branch
    for branch in ("lt1", "eq1", "gt1"):
        for kind in ("constant", "exp_decay", "indicator", "power_law", "tabulated_20",
                     "tabulated_200", "tabulated_1000"):
            # d = 3 for the constant coupling at theta = 1 hits the closed-form check
            deck.append(bounds_job([1, 3], kind, branch, 3 if kind == "constant" else None))
        for copy, kind in enumerate(("constant", "exp_decay", "indicator", "power_law") * 2):
            deck.append(bounds_job([2], kind, branch, copy=copy))
        deck.append(bounds_job([2], "tabulated_20", branch))
        deck += [bounds_job([2], "tabulated_200", branch, copy=k) for k in range(2)]
        if branch != "eq1":
            # a G=1000 theorem-2 bound at theta = 1 runs both branches for ~3 s;
            # the theta = 1 branch check runs on the smaller tables and in T1
            deck.append(bounds_job([2], "tabulated_1000", branch))
    for kind in ("exp_decay", "indicator"):
        deck.append(Job("ladder_slope", f"ladder_slope:T2:{kind}",
                        {"coupling": _coupling(rng, kind, 1.0), "theta": rng.uniform(0.6, 1.6),
                         "d": rng.choice((3, 4))}))
    deck.append(Job("energies", "energies:all_models",
                    {"models": [(name, _model_params(rng, name)[0]) for name in
                                ("hydrogen", "inverse_square", "polaron", "bipolaron", "nelson_q")]}))
    deck.append(Job("convolution", "convolution:three_weights",
                    {"cases": [(rng.uniform(0.3, 1.9), rng.uniform(0.1, 3.0), w, d)
                               for w, d in ((("one", rng.uniform(0.5, 2.0)), 3),
                                            (("indicator", rng.uniform(0.5, 5.0)), 3),
                                            (("exp", rng.uniform(0.5, 3.0)), 4))]}))
    deck.append(Job("subordination", "subordination:three_radii",
                    {"cases": [(rng.uniform(0.3, 1.9), r, rng.choice((3, 4, 5)))
                               for r in (rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0),
                                         rng.uniform(2.0, 10.0))]}))
    c = _coupling(rng, "exp_decay", T)
    deck.append(Job("expected_action", "expected_action:three_kinds",
                    {"coupling": c, "theta": rng.uniform(0.6, 1.6), "d": 3, "T": T}))
    for d, nodes in ((3, 320), (4, 128), (5, 128)):
        deck.append(Job("pekar_scaling", f"pekar_scaling:d{d}",
                        {"theta": rng.uniform(0.6, 1.6), "coupling": rng.uniform(0.5, 2.0),
                         "d": d, "nodes": nodes}))
    deck.append(Job("pekar_sandwich", "pekar_sandwich:polaron", {"alpha": rng.uniform(2.0, 6.0)}))
    deck.append(Job("oscillator", "oscillator:log_expectation",
                    {"omega": rng.uniform(0.3, 2.0), "T": rng.uniform(0.5, 3.0)}))
    # the README's command-line examples that run no Monte Carlo
    theta = round(rng.uniform(0.6, 1.6), 3)
    level = round(rng.uniform(0.2, 2.0), 3)
    deck.append(Job("cli", "cli:bound",
                    {"argv": ["bound", "--theorem", "1", "--theta", "1", "--dim", "3",
                              "--T", str(round(T, 3)),
                              "--coupling", json.dumps({"kind": "constant", "level": level})]}))
    deck.append(Job("cli", "cli:pekar",
                    {"argv": ["pekar", "--theta", str(theta), "--coupling",
                              str(round(rng.uniform(0.5, 2.0), 3)), "--scaling"]}))
    deck.append(Job("cli", "cli:kernels", {"argv": ["kernels", "--check", "all"]}))
    alpha = round(rng.uniform(0.05, 0.2), 3)
    deck.append(Job("cli", "cli:sweep",
                    {"argv": ["sweep", "--model", "inverse_square", "--alpha", str(alpha),
                              "--param", "theta", "--grid", "1.5,1.9,1.99",
                              "--T", str(round(rng.uniform(1.0, 4.0), 3)), "--format", "json"]}))
    return deck


def generate(workload: str, seed: int) -> list:
    """The deck of one workload; the same (workload, seed) gives the same deck."""
    makers = {"mc_single": _mc_single, "mc_pair": _mc_pair, "closed_form": _closed_form}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    deck = makers[workload](rng)
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

class Runner:
    """Calls fkbound's public functions for each job kind."""

    def __init__(self, fk):
        self.fk = fk  # the imported fkbound package

    def run(self, job: Job):
        return getattr(self, "_" + job.kind)(job.p)

    def _spec(self, p):
        fk = self.fk
        return fk.mc.ActionSpec(p["action"], fk.schedule.coupling_from_dict(p["coupling"]),
                                p["theta"], p["d"], p["T"], offset=p["offset"],
                                epsilon=p["epsilon"])

    def _verify(self, p):
        fk = self.fk
        model = fk.models.build(p["model"], **p["params"])
        return fk.models.verify(model, p["T"], p["paths"], p["steps"], p["seed"])

    def _estimate(self, p):
        return self.fk.mc.estimate(self._spec(p), p["paths"], p["steps"], p["seed"])

    def _maximality(self, p):
        fk = self.fk
        spec = fk.mc.ActionSpec("single", fk.schedule.coupling_from_dict(p["coupling"]),
                                p["theta"], p["d"], p["T"], epsilon=p["epsilon"])
        return fk.mc.maximality_check(spec, p["radii"], p["paths"], p["steps"], p["seed"])

    def _martingale(self, p):
        return self.fk.mc.martingale_lemma_check(p["lam"], p["T"], p["d"], p["paths"],
                                                 p["steps"], p["seed"], truncation=p["truncation"])

    def _oscillator_mc(self, p):
        osc = self.fk.oscillator
        return osc.mc_crosscheck(osc.OscillatorConfig(p["omega"], p["T"]), p["paths"],
                                 p["steps"], p["seed"])

    def _theorem_bound(self, p):
        B = self.fk.bounds
        f = self.fk.schedule.coupling_from_dict(p["coupling"])
        params = B.BoundParams(p["theta"], p["d"], p["T"])
        return [B.theorem_bound(theorem, f, params) for theorem in p["theorems"]]

    def _ladder_slope(self, p):
        f = self.fk.schedule.coupling_from_dict(p["coupling"])
        return self.fk.bounds.ladder_slope(2, f, p["theta"], p["d"])

    def _energies(self, p):
        fk = self.fk
        return [fk.bounds.energy_lower_bound(fk.models.build(name, **params))
                for name, params in p["models"]]

    def _convolution(self, p):
        k = self.fk.kernels
        make = {"one": lambda v: k.One(amplitude=v), "indicator": k.IndicatorWeight,
                "exp": k.ExpWeight}
        return [k.convolution_coefficient(theta, r, make[w](v), d)
                for theta, r, (w, v), d in p["cases"]]

    def _subordination(self, p):
        return [self.fk.kernels.subordination_check(theta, r, d) for theta, r, d in p["cases"]]

    def _expected_action(self, p):
        fk = self.fk
        f = fk.schedule.coupling_from_dict(p["coupling"])
        params = fk.bounds.BoundParams(p["theta"], p["d"], p["T"])
        return [fk.kernels.expected_action(kind, f, params)
                for kind in ("single", "self_double", "cross_double")]

    def _pekar_scaling(self, p):
        pk = self.fk.pekar
        return [pk.solve(pk.PekarProblem(p["theta"], g, p["d"], nodes=p["nodes"]))
                for g in (p["coupling"], 2.0 * p["coupling"])]

    def _pekar_sandwich(self, p):
        fk = self.fk
        return fk.pekar.lower_bound_sandwich(fk.models.build("polaron", alpha=p["alpha"]))

    def _oscillator(self, p):
        osc = self.fk.oscillator
        return osc.log_expectation(osc.OscillatorConfig(p["omega"], p["T"]))

    def _cli(self, p):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.fk.cli.main(list(p["argv"]))
        return code, out.getvalue()


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def fingerprint(job: Job, result) -> tuple:
    """The Monte Carlo numbers that must replay bit for bit."""
    if job.kind == "verify":
        e = result.estimate
        return (e.log_mean, e.stderr_log, e.action_mean, e.action_stderr, result.log_bound)
    if job.kind == "estimate":
        return (result.log_mean, result.stderr_log, result.action_mean, result.action_stderr)
    if job.kind == "maximality":
        return tuple(x for r in result for x in (r.log_mean, r.stderr_log, r.gap_stderr))
    if job.kind == "martingale":
        return (result.log_mean, result.stderr_log)
    if job.kind == "oscillator_mc":
        return (result.estimate.log_mean, result.estimate.stderr_log)
    return ()


def same_bits(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


class Checker:
    """Judges each result against the benchmark's references.

    References are computed once per deck slot and cached, outside any
    timed region.
    """

    def __init__(self):
        self._refs = {}

    def _ref(self, key, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def check(self, index: int, job: Job, result) -> tuple:
        """(failure messages, digits of agreement or None)."""
        fails, digits = [], []
        getattr(self, "_" + job.kind)(index, job.p, result, fails, digits)
        return fails, (min(digits) if digits else None)

    @staticmethod
    def _sandwich(fails, name, lower, log_mean, se, upper):
        """lower <= log_mean <= upper, each within MARGIN_SE standard errors."""
        if not (math.isfinite(log_mean) and math.isfinite(se)):
            fails.append(f"{name}: non-finite estimate {log_mean} +- {se}")
            return
        slack = MARGIN_SE * se
        if lower is not None and lower > log_mean + slack:
            fails.append(f"{name}: E[action] {lower:.6g} above log_mean {log_mean:.6g} + {slack:.2g}")
        if upper is not None and log_mean > upper + slack:
            fails.append(f"{name}: log_mean {log_mean:.6g} above bound {upper:.6g} + {slack:.2g}")

    def _verify(self, i, p, rep, fails, digits):
        theta, d, _, kind, f = refs.model_components(p["model"], p["params"])
        bound, lower = self._ref(i, lambda: (
            refs.model_bound(p["model"], p["params"], p["T"]),
            refs.discrete_expectation(kind, f, theta, d, p["T"], p["steps"])))
        digits.append(refs.digits(rep.log_bound, bound))
        est = rep.estimate
        if est.infinite_paths:
            fails.append(f"{est.infinite_paths} paths hit the singularity")
        self._sandwich(fails, "verify", lower, est.log_mean, est.stderr_log, bound)

    def _estimate(self, i, p, est, fails, digits):
        bound, lower = self._ref(i, lambda: (
            sum(w * refs.theorem_bound(thm, c, p["theta"], p["d"], p["T"]) for thm, c, w in p["upper"]),
            refs.discrete_expectation(p["action"], p["coupling"], p["theta"], p["d"], p["T"],
                                      p["steps"], p["offset"], p["epsilon"])))
        if est.infinite_paths or est.paths != p["paths"] or est.steps != p["steps"]:
            fails.append(f"estimate record off: {est.as_dict()}")
        self._sandwich(fails, "estimate", lower, est.log_mean, est.stderr_log, bound)

    def _maximality(self, i, p, rows, fails, digits):
        bound, lower = self._ref(i, lambda: (
            refs.theorem_bound(1, p["coupling"], p["theta"], p["d"], p["T"]),
            refs.discrete_expectation("single", p["coupling"], p["theta"], p["d"], p["T"],
                                      p["steps"], epsilon=p["epsilon"])))
        if [r.radius for r in rows] != [0.0] + list(p["radii"]):
            fails.append("maximality rows do not match the radii")
            return
        self._sandwich(fails, "origin", lower, rows[0].log_mean, rows[0].stderr_log, bound)
        for r in rows[1:]:
            self._sandwich(fails, f"radius {r.radius:.3g}", None, r.log_mean, r.stderr_log, bound)
            if r.gap_from_origin < -MARGIN_SE * r.gap_stderr:
                fails.append(f"radius {r.radius:.3g} beats the origin by {-r.gap_from_origin:.3g}")

    def _martingale(self, i, p, chk, fails, digits):
        ceiling = p["lam"] ** 2 * p["T"] / 2.0
        digits.append(refs.digits(chk.log_ceiling, ceiling))
        upper = ceiling
        lower = ceiling if p["truncation"] is None else None  # equality case without truncation
        self._sandwich(fails, "martingale", lower, chk.log_mean, chk.stderr_log, upper)

    def _oscillator_mc(self, i, p, rep, fails, digits):
        exact = self._ref(i, lambda: refs.oscillator_discrete_log_moment(p["omega"], p["T"], p["steps"]))
        digits.append(refs.digits(rep.closed_form, refs.log_cosh_half(p["omega"], p["T"])))
        self._sandwich(fails, "oscillator", exact, rep.estimate.log_mean,
                       rep.estimate.stderr_log, exact)

    def _theorem_bound(self, i, p, reps, fails, digits):
        c, theta, d, T = p["coupling"], p["theta"], p["d"], p["T"]
        want = self._ref(i, lambda: [refs.theorem_bound(thm, c, theta, d, T) for thm in p["theorems"]])
        A, B, _, _ = refs.coefficients(theta, d)
        for theorem, rep, ref in zip(p["theorems"], reps, want):
            digits.append(refs.digits(rep.log_bound, ref))
            if not math.isfinite(rep.log_bound):
                fails.append(f"T{theorem}: non-finite bound {rep.log_bound}")
            if theta >= 1.0 and theorem in (1, 2):
                got = [t.coefficient for t in rep.terms]
                if len(got) != 2 or any(abs(g - w) > 1e-12 * w for g, w in zip(got, (A, B))):
                    fails.append(f"T{theorem}: coefficients {got} differ from (A, B) = ({A}, {B})")
            if c["kind"] == "constant" and theta == 1.0 and d == 3 and theorem == 1:
                a = c["level"]
                closed = a * a * T / 2.0 + 2.0 * math.sqrt(2.0) * a * math.sqrt(T) / math.sqrt(math.pi)
                if abs(rep.log_bound - closed) > 1e-12 * closed:
                    fails.append(f"theorem 1 bound {rep.log_bound!r} != closed form {closed!r}")

    def _ladder_slope(self, i, p, val, fails, digits):
        exact = refs.slope(2, p["coupling"], p["theta"], p["d"])
        # the ladder stops when successive quotients agree to 1e-6
        if not abs(val - exact) <= 1e-5 * abs(exact):
            fails.append(f"ladder slope {val!r} vs analytic {exact!r}")

    def _energies(self, i, p, ebs, fails, digits):
        closed = {"hydrogen": lambda a: a * a / 2.0, "polaron": lambda a: a + a * a / 4.0,
                  "bipolaron": lambda a: 2.0 * a + 2.0 * a * a}
        for (name, params), eb in zip(p["models"], ebs):
            digits.append(refs.digits(eb.slope, refs.model_slope(name, params)))
            if name in closed:
                want = closed[name](params["alpha"])
                if abs(eb.slope - want) > 1e-12 * want:
                    fails.append(f"{name} slope {eb.slope!r} != {want!r}")

    def _convolution(self, i, p, ccs, fails, digits):
        for (theta, r, (w, v), d), cc in zip(p["cases"], ccs):
            amp = v if w == "one" else 1.0
            bound = 2.0 * amp / (theta * (d - theta))
            if abs(cc.bound - bound) > 1e-12 * bound:
                fails.append(f"coefficient bound {cc.bound!r} != {bound!r}")
            if not abs(cc.value) <= cc.bound:
                fails.append(f"|a| = {abs(cc.value)!r} above its bound {cc.bound!r}")
            if w == "one":
                digits.append(refs.digits(cc.value, bound))

    def _subordination(self, i, p, residuals, fails, digits):
        for case, res in zip(p["cases"], residuals):
            if not res <= 1e-8:
                fails.append(f"subordination residual {res!r} at {case}")

    def _expected_action(self, i, p, forms, fails, digits):
        c, theta, d, T = p["coupling"], p["theta"], p["d"], p["T"]
        K = refs.expectation_constant(theta, d)
        single, pair = self._ref(i, lambda: (
            K * float(refs.power_integral(c, 1.0, theta / 2.0, T)),
            K * refs.iterated(c, T, weight=theta / 2.0)))
        digits.append(refs.digits(forms[0].value, single))
        digits.append(refs.digits(forms[1].value, pair))
        cross = forms[2]
        if not (cross.is_upper_bound and math.isfinite(cross.value) and cross.value > 0.0):
            fails.append(f"cross-pair expectation {cross}")

    def _pekar_scaling(self, i, p, sols, fails, digits):
        theta, g, d = p["theta"], p["coupling"], p["d"]
        target = 2.0 ** (2.0 / (2.0 - theta))
        ratio = sols[1].energy / sols[0].energy
        if not abs(ratio - target) <= 0.02 * target:
            fails.append(f"scaling ratio {ratio!r} vs {target!r}")
        # the Gaussian trial state bounds the minimum from above
        K = refs.expectation_constant(theta, d) * 2.0 ** (-theta / 2.0)
        for coupling, sol in zip((g, 2.0 * g), sols):
            w = (d / (4.0 * theta * coupling * K)) ** (1.0 / (2.0 - theta))
            gauss = d / (8.0 * w * w) - coupling * K * w ** (-theta)
            if not sol.energy <= gauss:
                fails.append(f"energy {sol.energy!r} above the Gaussian trial {gauss!r}")

    def _pekar_sandwich(self, i, p, rep, fails, digits):
        a = p["alpha"]
        if not rep.ordering_ok:
            fails.append(f"slope ordering failed: {rep.as_dict()}")
        if abs(rep.upper_slope - (a + a * a / 4.0)) > 1e-12 * (a + a * a / 4.0):
            fails.append(f"polaron upper slope {rep.upper_slope!r}")

    def _oscillator(self, i, p, ex, fails, digits):
        digits.append(refs.digits(ex.closed_form, refs.log_cosh_half(p["omega"], p["T"])))
        if not abs(ex.reconstructed - ex.closed_form) <= 1e-7:
            fails.append(f"reconstruction {ex.reconstructed!r} vs {ex.closed_form!r}")

    def _cli(self, i, p, out, fails, digits):
        code, text = out
        if code != 0:
            fails.append(f"exit code {code}")
            return
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            fails.append(f"stdout is not JSON: {exc}")
            return
        cmd = p["argv"][0]
        if cmd == "bound":
            c = json.loads(p["argv"][-1])
            T = float(p["argv"][p["argv"].index("--T") + 1])
            digits.append(refs.digits(record["log_bound"], refs.theorem_bound(1, c, 1.0, 3, T)))
        elif cmd == "kernels" and not record["all_passed"]:
            fails.append("kernels --check all reports a failed check")
        elif cmd == "pekar" and not record["scaling"]["relative_error"] <= 0.02:
            fails.append(f"pekar scaling error {record['scaling']['relative_error']!r}")
        elif cmd == "sweep" and len(record["rows"]) != 3:
            fails.append("sweep did not return three rows")

