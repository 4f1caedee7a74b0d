"""fkbound's benchmark: seeded closed-loop workloads over the public API.

Usage, from the root of a checkout (fkbound is imported from ./src):

    python3 perfbench/run.py --workload mc_single --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``mc_single``   single-action Monte Carlo: models.verify on hydrogen and
                  inverse_square, mc.estimate with offset and epsilon,
                  maximality, martingale and oscillator checks;
* ``mc_pair``     pair-action Monte Carlo: models.verify on polaron and
                  nelson_q, mc.estimate on bipolaron and cross_double;
* ``closed_form`` no Monte Carlo: theorem bounds, ladder slopes, energies,
                  heat-kernel checks, Pekar solves, the oscillator reference
                  and the README's non-Monte-Carlo CLI examples in-process.

Each run starts ``PROBES`` set-up probes and then the workload, each in a
fresh interpreter with BLAS/OpenMP pools pinned to one thread.  It prints
a table of every metric with unit and direction, an environment record,
and as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (which also prints the layer-share
table and the ROADMAP aim-1 baseline rows of baseline.py).

End-to-end metrics, per workload:

* ``setup_s``      median over the probes and the workload of the time from
                   process start to the first job (imports and deck);
* ``jobs_per_s``   deck size over the summed per-job medians across passes;
* ``job_p50_s``, ``job_p90_s``  quantiles of all timed job latencies
                   (passes x deck of them, at least 100);
* ``peak_rss_mb``  the workload process's peak resident memory;
* ``accuracy_digits``  worst digits of agreement between the closed-form
                   numbers the jobs return (bounds, norms, slopes,
                   ceilings) and the benchmark's own references, capped at 16;
* ``fail_frac``    failed / attempted, reported in the table and as those
                   two counts in the JSON (it is 0 when the program is right,
                   and a relative bound needs a non-zero metric).

All times are scaled to nominal machine speed by probes that run in this
process while the worker pauses (see calibrate.py); the unscaled figures
are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("mc_single", "mc_pair", "closed_form")
PROBES = 5
CHILD_TIMEOUT_S = 170.0
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
END_TO_END = [  # name, unit, better
    ("setup_s", "s", "lower"), ("jobs_per_s", "1/s", "higher"), ("job_p50_s", "s", "lower"),
    ("job_p90_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
    ("accuracy_digits", "digits", "higher"),
]


class ChildFailed(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("FKBOUND_THREADS", None)
    return env


def spawn(root: str, env: dict, args: list, speed) -> tuple:
    """Run worker.py, probing the machine's speed whenever it pauses for that.

    Returns (start time, seconds from start to READY, its JSON result).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    rest = []
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        for line in proc.stdout:
            if line.strip() == "PAUSE":
                speed.measure()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                rest.append(line)
    except OSError:  # the worker died while paused; its exit code reports it
        pass
    finally:
        proc.stdin.close()
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "READY" or not rest:
        raise ChildFailed(f"worker exited {proc.returncode}: {' '.join(args)}")
    return t0, ready, json.loads(rest[-1])


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": openblas,
            "seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "thread_pinning": PINNED}


def quantile(values: list, q: int) -> float:
    """The q-th decile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fkbound benchmark (see the module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(PINNED)  # before this process loads numpy for the speed probe
    import calibrate
    import spans

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fkbound", "__init__.py")):
        print("error: run from the root of an fkbound checkout (src/fkbound is missing)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    speed = calibrate.Speed()
    try:
        probes = []
        for _ in range(PROBES):
            speed.measure()
            speed.measure()
            probes.append(spawn(root, env, common + ["--probe"], speed))
        spans_path = ""
        if args.trace:
            os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
            spans_path = os.path.join(root, ".perfbench",
                                      f"spans-{args.workload}-{args.seed}.npz")
        workload = spawn(root, env, common + ["--seconds", str(args.seconds),
                                              "--trace", str(args.trace),
                                              "--spans", spans_path], speed)
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = workload[2]
    baseline_rows = None
    if args.trace:
        import baseline
        try:
            baseline_rows = baseline.measure(root, env, repeats=2)
        except subprocess.SubprocessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    def scaled(phase: dict) -> list:
        """Job latencies at nominal machine speed, each scaled by the probes around it."""
        return [t * speed.scale(t0 + 0.5 * t) for t0, t in zip(phase["starts"], phase["latencies"])]

    # set-up times at nominal machine speed, each scaled by the probes around it
    setup_scale = [speed.scale(t0 + 0.5 * ready) for t0, ready, _ in probes + [workload]]
    setups = [ready * k for (_, ready, _), k in zip(probes + [workload], setup_scale)]
    breakdown = [{key: v * k for key, v in r["setup"].items()}
                 for (_, _, r), k in zip(probes + [workload], setup_scale)]
    attempted = len(res["latencies"]) + len(res.get("traced", {}).get("latencies", []))
    failed = res["failed"]
    raw, lat = res["latencies"], scaled(res)
    deck = len(res["slots"])
    # each deck job's median over the passes, so a slow spell on a shared machine
    # moves the throughput of the job mix less than a plain mean would
    per_job = [statistics.median(lat[k::deck]) for k in range(deck)]
    e2e = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": deck / sum(per_job),
        "job_p50_s": quantile(lat, 5),
        "job_p90_s": quantile(lat, 9),
        "peak_rss_mb": res["peak_rss_mb"],
        "accuracy_digits": min(res["digits"]) if res["digits"] else 0.0,
    }
    print(f"workload {args.workload}  seed {args.seed}  deck {deck} jobs  "
          f"passes {res['passes']}  timed jobs {len(lat)}  attempted {attempted}  "
          f"failed {failed}")
    print(f"machine speed: {len(speed.seconds)} probes, median "
          f"{statistics.median(speed.seconds) * 1e3:.3g} ms (nominal "
          f"{calibrate.NOMINAL_PROBE_S * 1e3:.3g} ms); unscaled: setup_s "
          f"{statistics.median(r for _, r, _ in probes + [workload]):.4g}, jobs_per_s "
          f"{deck / sum(statistics.median(raw[k::deck]) for k in range(deck)):.4g}, "
          f"job_p50_s {quantile(raw, 5):.4g}, job_p90_s {quantile(raw, 9):.4g}")
    print(f"{'metric':40s} {'value':>14s}  unit     better")
    for name, unit, better in END_TO_END + [("fail_frac", "ratio", "lower")]:
        value = failed / attempted if name == "fail_frac" else e2e[name]
        print(f"{name:40s} {value:14.6g}  {unit:8s} {better}")
    for note in res["notes"]:
        print(f"FAILED {note}")
    if args.trace == 0:
        slots = {}
        for k, t in enumerate(lat):
            slots.setdefault(res["slots"][k % deck], []).append(t)
        print("median latency by slot: " + json.dumps(
            {s: statistics.median(v) for s, v in sorted(slots.items())}))
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    else:
        traced = scaled(res["traced"])
        # the traced phase's times at nominal speed; shares and counts stay as they are
        k = sum(traced) / sum(res["traced"]["latencies"])
        units = dict(spans.PER_LAYER)
        layer = {name: v * k if units[name] in ("s", "ns") else v
                 for name, v in res["layers"].items()}
        layer["trace.overhead_frac"] = sum(traced) / sum(lat) - 1.0
        for key in ("import.numpy_s", "import.scipy_s", "import.fkbound_s", "setup.generate_s"):
            layer[key] = statistics.median(b[key] for b in breakdown)
        print(f"\nper-layer metrics (traced phase: {res['passes']} passes, "
              f"{len(traced)} jobs)")
        for name, unit in spans.PER_LAYER:
            print(f"{name:40s} {layer[name]:14.6g}  {unit}")
        print("\nlayer share of traced job time")
        for name in spans.LAYERS:
            print(f"  {name:12s} {100.0 * layer[f'layer.{name}.share']:6.1f}%")
        print("\nROADMAP aim-1 baseline rows (min of 2)")
        for row in baseline_rows:
            print("  " + json.dumps(row))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER}
    print(json.dumps({"environment": environment(root, args.seed)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
