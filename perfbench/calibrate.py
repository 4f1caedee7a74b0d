"""Machine-speed calibration, so runs on a shared host stay comparable.

On a host whose other tenants come and go, every timing in a run can move
by 20-30% together within minutes (see CHANGES.md for raw against scaled
spreads).  ``probe`` times a fixed piece of work (an interpreter loop,
streaming array arithmetic and a small matrix product) that never calls
fkbound.  It runs in the benchmark's parent process, never in the worker:
between jobs, every ``worker.PAUSE_EVERY_S`` seconds, the worker pauses and waits
while the parent probes (run.py's ``spawn``).  So a slowdown the program
causes in its own process is not divided out.  The probe never runs beside
the worker either: the two vCPUs of a small VM can share one physical core,
and a busy neighbour there halves the speed of both (the probe reads
24 ms instead of 10 ms next to a busy loop).

A timing ``t`` taken while the nearby probes take ``p`` seconds is reported
as ``t * NOMINAL_PROBE_S / p``: seconds at the machine speed where the
probe takes ``NOMINAL_PROBE_S``.  That constant only fixes the unit; a
program change moves the reported times as it moves the raw ones.
``perf_counter`` is the system-wide monotonic clock, so the worker's job
timestamps and the parent's probe timestamps share one time axis.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

NOMINAL_PROBE_S = 0.010  # about the probe's median on a quiet 2-core Xeon host
WINDOW = 5               # a timing's speed is the median of the probes nearest to it

_X = np.linspace(0.0, 1.0, 100_000)
_Y = np.empty_like(_X)
_A = np.random.default_rng(0).standard_normal((120, 120))
_B = np.empty_like(_A)


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = perf_counter()
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    # numpy work writes into preallocated outputs: allocator state must not matter
    for _ in range(20):
        np.sqrt(_X, out=_Y)
    for _ in range(10):
        np.matmul(_A, _A, out=_B)
    return perf_counter() - t0


class Speed:
    """The probes of one run, on the shared time axis."""

    def __init__(self):
        self.times: list = []      # probe midpoints, increasing
        self.seconds: list = []    # probe durations

    def measure(self) -> None:
        t0 = perf_counter()
        p = probe()
        self.times.append(t0 + 0.5 * p)
        self.seconds.append(p)

    def scale(self, t: float) -> float:
        """Multiply a raw timing centred at ``t`` by this to report it at nominal speed."""
        k = bisect.bisect_left(self.times, t)
        lo = max(0, min(k - WINDOW // 2, len(self.times) - WINDOW))
        return NOMINAL_PROBE_S / statistics.median(self.seconds[lo:lo + WINDOW])
