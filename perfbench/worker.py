"""One workload in one fresh interpreter; started by run.py, not by hand.

The worker imports numpy, scipy and fkbound (timing each), generates the
seeded deck and prints ``READY``; the parent times set-up from process
start to that line.  With ``--probe`` it stops there.  Otherwise it runs
whole passes of the deck in a closed loop (one client; the next job starts
when the previous one returns), checks every output, and prints one JSON
line with the raw results.  Every ``PAUSE_EVERY_S`` it prints ``PAUSE``
between two jobs and waits for a line on stdin while the parent probes the
machine's speed (see calibrate.py).

A run ends after the pass that brings it closest to ``--seconds``, with at
least two passes (so every Monte Carlo job is replayed) and at least
``MIN_JOBS`` jobs (so at least ten latencies lie above the 90th
percentile).  Whole passes keep the job mix identical from run to run, and
give every job several latencies for the parent to take a median of.

With ``--trace 1`` the untraced passes fill half the time; the same number
of passes then runs again with every layer wrapped.  Replays are compared
across both phases, so tracing must not perturb any result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from time import perf_counter

MIN_JOBS = 100
PAUSE_EVERY_S = 0.25  # how often the parent gets to probe the machine's speed


def _import_timed() -> dict:
    t0 = perf_counter()
    import numpy  # noqa: F401
    t1 = perf_counter()
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    t2 = perf_counter()
    import fkbound.cli  # noqa: F401  (the cli imports every layer)
    t3 = perf_counter()
    return {"import.numpy_s": t1 - t0, "import.scipy_s": t2 - t1, "import.fkbound_s": t3 - t2}


def pause() -> None:
    """Let the parent probe the machine's speed (see calibrate.py); wait until it has."""
    print("PAUSE", flush=True)
    sys.stdin.readline()


def run_passes(deck, runner, checker, replay, seconds, min_passes, passes=None, tracer=None):
    """Closed-loop passes over the deck; ``passes`` fixes the count instead of ``seconds``.

    Each job's start is kept on the system-wide ``perf_counter`` axis, so the
    parent can match it with its machine-speed probes (see calibrate.py).
    The worker pauses for a probe before a job once ``PAUSE_EVERY_S`` have
    passed since the last pause.
    """
    import jobs

    starts, latencies, digits, notes, failed = [], [], [], [], 0
    t_start = perf_counter()
    last_pause = -float("inf")
    done = 0
    while True:
        for i, job in enumerate(deck):
            if perf_counter() - last_pause >= PAUSE_EVERY_S:
                pause()
                last_pause = perf_counter()
            if tracer is not None:
                tracer.current_job = i
            t0 = perf_counter()
            try:
                result, fails = runner.run(job), []
            except Exception as exc:  # a job that raises is a failed job, and the run goes on
                result, fails = None, [f"{type(exc).__name__}: {exc}"]
            starts.append(t0)
            latencies.append(perf_counter() - t0)
            if not fails:
                try:
                    fails, dig = checker.check(i, job, result)
                except Exception as exc:
                    fails, dig = [f"check raised {type(exc).__name__}: {exc}"], None
                if dig is not None:
                    digits.append(dig)
                fp = jobs.fingerprint(job, result)
                if fp and not jobs.same_bits(replay.setdefault(i, fp), fp):
                    fails.append(f"replay differs: {replay[i]} vs {fp}")
            if fails:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"{job.slot}: {fails[0]}")
        done += 1
        elapsed = perf_counter() - t_start
        if passes is not None:
            if done >= passes:
                break
        elif done >= min_passes and elapsed + 0.5 * elapsed / done >= seconds:
            break
    return {"starts": starts, "latencies": latencies, "failed": failed, "digits": digits,
            "notes": notes, "passes": done}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--spans", default="", help="write the traced spans to this .npz file")
    args = ap.parse_args(argv)

    setup = _import_timed()
    import fkbound

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(fkbound.__file__), src]) != src:
        print(f"fkbound imported from {fkbound.__file__}, not from {src}", file=sys.stderr)
        return 3
    t0 = perf_counter()
    import jobs
    import spans

    deck = jobs.generate(args.workload, args.seed)
    setup["setup.generate_s"] = perf_counter() - t0
    print("READY", flush=True)
    if args.probe:
        print(json.dumps({"setup": setup}), flush=True)
        return 0

    runner, checker, replay = jobs.Runner(fkbound), jobs.Checker(), {}
    min_passes = max(2, math.ceil(MIN_JOBS / len(deck)))
    out = {"setup": setup, "slots": [job.slot for job in deck]}
    if args.trace == 0:
        phase = run_passes(deck, runner, checker, replay, args.seconds, min_passes)
    else:
        phase = run_passes(deck, runner, checker, replay, args.seconds / 2.0, 1)
        tracer = spans.Tracer()
        tracer.install({name: getattr(fkbound, name) for name in spans.LAYERS})
        try:
            traced = run_passes(deck, runner, checker, replay, 0.0, 1,
                                passes=phase["passes"], tracer=tracer)
        finally:
            tracer.uninstall()
        out["layers"] = tracer.metrics(sum(traced["latencies"]))
        if args.spans:
            tracer.save(args.spans)
        for key in ("failed", "digits", "notes"):
            phase[key] = phase[key] + traced[key]
        out["traced"] = {"starts": traced["starts"], "latencies": traced["latencies"]}
    out.update(phase)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
