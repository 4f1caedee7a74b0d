"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function of the fkbound layers (every
function a layer module defines without a leading underscore) with a
wrapper, in every fkbound namespace and module-level dict that binds it
(``bounds`` and ``kernels`` import ``norm`` and ``iterated_norm`` by name).
``theorem1_bound``..``theorem3_bound`` stay unwrapped: they are reached
only through ``theorem_bound``'s dispatch dict, so their time is
``theorem_bound``'s self time.

Each call records a span (name, start, end, parent span, job id) into
columnar in-memory arrays, written out only at the end.  Self time is a
span's duration minus the durations of its direct children, accumulated as
the spans close.  Time spent in private helpers (the Monte Carlo samplers'
draw and eval, for example) counts toward the public caller.

``mc.ladder_allowance.draw_ratio`` is observed, not derived from the
ladder's arguments: the path-steps of the ``mc.estimate`` spans whose
parent is a ``ladder_allowance`` span, over the path-steps the ladders were
asked for (paths x steps at the top rung).  A ladder that draws its coarse
rungs from the top rung's paths, without calling ``estimate`` for them,
reads 1.0.
"""

from __future__ import annotations

import inspect
import sys
import warnings
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("schedule", "bounds", "models", "kernels", "mc", "oscillator", "pekar", "cli")
UNWRAPPED = {"bounds": ("theorem1_bound", "theorem2_bound", "theorem3_bound")}

# per-layer metrics: (name, unit); every one is reported on every workload
PER_LAYER = [
    ("import.numpy_s", "s"), ("import.scipy_s", "s"), ("import.fkbound_s", "s"),
    ("setup.generate_s", "s"),
    ("schedule.iterated_norm.calls", "count"), ("schedule.iterated_norm.self_s", "s"),
    ("schedule.iterated_norm.warnings", "count"),
    ("schedule.norm.calls", "count"), ("schedule.norm.self_s", "s"),
    ("bounds.theorem_bound.calls", "count"), ("bounds.theorem_bound.self_s", "s"),
    ("bounds.ladder_slope.calls", "count"), ("bounds.ladder_slope.self_s", "s"),
    ("bounds.ladder_slope.bound_evals", "count"),
    ("kernels.convolution_coefficient.calls", "count"),
    ("kernels.convolution_coefficient.self_s", "s"),
    ("kernels.subordination_check.self_s", "s"), ("kernels.expected_action.self_s", "s"),
    ("pekar.solve.calls", "count"), ("pekar.solve.self_s", "s"),
    ("pekar.solve.iterations", "count"),
    ("pekar.radial_kernel.calls", "count"), ("pekar.radial_kernel.self_s", "s"),
    ("oscillator.solve_riccati.self_s", "s"), ("oscillator.mc_crosscheck.self_s", "s"),
    ("mc.estimate.calls", "count"), ("mc.estimate.self_s", "s"),
    ("mc.estimate.path_steps", "count"), ("mc.estimate.ns_per_path_step", "ns"),
    ("mc.estimate.pair_terms", "count"), ("mc.estimate.ns_per_pair_term", "ns"),
    ("mc.PathEnsemble.generator.calls", "count"), ("mc.PathEnsemble.generator.self_s", "s"),
    ("mc.summarize_actions.self_s", "s"),
    ("mc.maximality_check.self_s", "s"), ("mc.martingale_lemma_check.self_s", "s"),
    ("mc.ladder_allowance.calls", "count"), ("mc.ladder_allowance.self_s", "s"),
    ("mc.ladder_allowance.draw_ratio", "ratio"),
    ("models.verify.calls", "count"), ("models.verify.self_s", "s"),
    ("models.verify.rows_failed", "count"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
] + [(f"layer.{layer}.share", "ratio") for layer in LAYERS] + [("trace.overhead_frac", "ratio")]


class Tracer:
    """Span recorder; one per traced phase."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self._stack: list = []     # open span indices
        self._child: list = []     # summed child durations of each open span
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {"path_steps": 0, "pair_terms": 0, "single_s": 0.0, "pair_s": 0.0,
                             "ladder_drawn": 0, "ladder_top": 0, "rows_failed": 0,
                             "iterations": 0, "warnings": 0}
        self._restore: list = []

    # -- wrapping ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None, count_warnings=False):
        nid = self._id(name)
        tracer = self
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.job.append(tracer.current_job)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._child.append(0.0)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer.counts["warnings"] += sum(
                        w.category.__name__ == "IntegrationWarning" for w in caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.end[idx] = t1
                tracer._stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += dur
            if hook:
                caller = tracer.names[tracer.name_id[parent]] if parent >= 0 else ""
                hook(tracer.counts, signature.bind(*args, **kwargs).arguments, result, dur,
                     caller)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, fk_modules: dict) -> None:
        """Wrap every public function of each layer module in ``fk_modules``."""
        hooks = {"mc.estimate": _estimate_hook, "mc.ladder_allowance": _ladder_hook,
                 "models.verify": _verify_hook, "pekar.solve": _solve_hook}
        namespaces = [m for n, m in sys.modules.items() if n == "fkbound" or n.startswith("fkbound.")]
        for layer, module in fk_modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or attr in UNWRAPPED.get(layer, ())):
                    continue
                key = f"{layer}.{attr}"
                wrapped = self.wrap(key, fn, hooks.get(key),
                                    count_warnings=key == "schedule.iterated_norm")
                self._rebind(namespaces, fn, wrapped)
        cls = fk_modules["mc"].PathEnsemble
        original = cls.generator
        cls.generator = self.wrap("mc.PathEnsemble.generator", original)
        self._restore.append((cls, "generator", original))

    def _rebind(self, namespaces, fn, wrapped) -> None:
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, key, wrapped)
                    self._restore.append((ns, key, fn))
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in list(val.items()):
                        if v is fn:
                            val[k] = wrapped
                            self._restore.append((val, k, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of this phase; ``wall_s`` is its summed job time."""
        c = self.counts
        calls = lambda n: float(self.calls.get(n, 0))
        self_s = lambda n: self.self_s.get(n, 0.0)
        out = {}
        for name, _unit in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls(stem)
            elif field == "self_s" and stem.split(".")[0] in LAYERS:
                out[name] = self_s(stem)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        if "bounds.ladder_slope" in self._ids and "bounds.theorem_bound" in self._ids:
            inner = (names == self._ids["bounds.theorem_bound"]) & (parents >= 0)
            out["bounds.ladder_slope.bound_evals"] = float(np.sum(
                names[parents[inner]] == self._ids["bounds.ladder_slope"]))
        else:
            out["bounds.ladder_slope.bound_evals"] = 0.0
        out["schedule.iterated_norm.warnings"] = float(c["warnings"])
        out["pekar.solve.iterations"] = float(c["iterations"])
        out["models.verify.rows_failed"] = float(c["rows_failed"])
        out["mc.estimate.path_steps"] = float(c["path_steps"])
        out["mc.estimate.pair_terms"] = float(c["pair_terms"])
        out["mc.estimate.ns_per_path_step"] = 1e9 * c["single_s"] / c["path_steps"] if c["path_steps"] else 0.0
        out["mc.estimate.ns_per_pair_term"] = 1e9 * c["pair_s"] / c["pair_terms"] if c["pair_terms"] else 0.0
        out["mc.ladder_allowance.draw_ratio"] = c["ladder_drawn"] / c["ladder_top"] if c["ladder_top"] else 0.0
        for layer in LAYERS:
            busy = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"layer.{layer}.share"] = busy / wall_s if wall_s > 0 else 0.0
        return out

    def save(self, path: str) -> None:
        """Write the spans as one .npz of columns plus the name table."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _estimate_hook(counts, a, result, dur, caller):
    spec, paths, steps = a["spec"], a["paths"], a["steps"]
    if caller == "mc.ladder_allowance":
        counts["ladder_drawn"] += paths * steps
    if spec.kind == "single":
        counts["path_steps"] += paths * steps
        counts["single_s"] += dur
    else:
        sums = 3 if spec.kind == "bipolaron" else 1
        counts["pair_terms"] += paths * steps * (steps - 1) // 2 * sums
        counts["pair_s"] += dur


def _ladder_hook(counts, a, result, dur, caller):
    counts["ladder_top"] += a["paths"] * a["steps"]


def _verify_hook(counts, a, result, dur, caller):
    counts["rows_failed"] += sum(not r.passed for r in result.rows)


def _solve_hook(counts, a, result, dur, caller):
    counts["iterations"] += result.iterations
