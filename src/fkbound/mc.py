"""Monte Carlo verification engine for the exponential path functionals.

Each sampler names its own draw: D doubles a path, listed below.  Paths are
drawn in consecutive groups of G = max(1, _DRAW_ELEMENTS // D) paths.  Group k
holds paths kG, ..., kG + G - 1 and reads the counter-based Philox stream keyed
by (seed, k) (Salmon et al., SC'11): its standard normals from counter 0, in C
order over (G, ...) with the path index first, and the single action's
chi-square values from counter 2^64, which the normals never reach (each takes
a few of the four outputs a counter step gives).  So path m's draws depend on
the seed, m and the draw's shape alone: not on the path count, the batch size
or the worker count.  A shorter last group, or a single path, draws a prefix
of each of its group's streams, which holds the same values.  Where G = 1
(D > _DRAW_ELEMENTS / 2) group k is path k.

One path engine serves every sampler.  It cuts the groups into contiguous
batches of about a fixed number of drawn doubles (or one group, if that is
larger) and runs one worker thread per core this process may use (its CPU
affinity mask: narrow it, e.g. with taskset, to use fewer cores), each on one
contiguous run of groups, the runs' group counts differing by at most one.
Each worker re-keys one bit generator to (seed, k) per group, draws the
group's whole block in one call per stream into its batch buffers, and the
sampler evaluates the batch at once (the single action all its offsets in
one moment pass per block of steps, one gather of every coefficient), in a
few numpy calls each over the whole batch: each call hands the GIL over, and
the workers queue at every hand-over.  A path's action is a numpy sum over
that path alone (a single action in step order; a pair action one sum per
block of node rows, on the band of nonzero lag weights, added in block order;
its distances come from one scipy ``cdist`` call per path and chunk of rows,
a sequential per-pair sum over coordinates in C with the GIL released), and
every reduction over paths runs in index order.  The engine makes no BLAS
call, whose threads would split a long sum, so no result depends on the
worker count, the batch size or the BLAS thread count.

Draw order within a path is part of the reproducibility contract, with the
grouping above; each path draws, in order:

* single action:     N standard normals Z1 (counter 0), then N Gamma((d-1)/2)
                     values, half of N chi^2(d-1) values C (counter 2^64; none
                     at d = 1, where C = 0): D = 2N
* self-pair action:  grid increments (N, d)
* cross-pair action: grid increments of X (N, d), then of Y (N, d)
* bipolaron action:  grid increments of X (N, d), then of Y (N, d)
* affine action (martingale check): one endpoint normal, X_T^(1) = sqrt(T) Z
* quadratic action (oscillator): grid increments (N, 1)

The single action reads a path only through the norms of its midpoint means
mu_k = X_k + inc_k / 2, and so runs the radial chain instead of the path.
Write step k's normal as Z = Z1 e + Z_perp with e = X_k / r_k, r_k = |X_k|
(any unit vector at r_k = 0): Z1 ~ N(0, 1) and |Z_perp|^2 ~ chi^2(d-1) are
independent, and by isotropy
    r_{k+1} = sqrt((r_k + sqrt(dt) Z1)^2 + dt C),
    |mu_k|^2 = (r_k + sqrt(dt) Z1 / 2)^2 + dt C / 4,
from r_0 = |offset|, is exact in law at every d: the skew-product form of the
Bessel process (Revuz and Yor, Continuous Martingales and Brownian Motion,
ch. XI).  Both are sums of squares, so nothing cancels.  Every offset of a
maximality check runs its own chain on the same draws.

Time discretisation: the single and quadratic actions use midpoint times,
with each midpoint term replaced by its exact expectation given the two
grid nodes (Rao-Blackwell; the midpoint is N(node mean, dt/4 I_d)); double
actions sum over grid-node pairs with the diagonal excluded.  Both choices
bias the singular integrals low, so Monte Carlo means sit slightly below
their continuum targets, by O(dt^(1-theta/2)).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random import Generator, Philox
from scipy.spatial.distance import cdist

from .errors import DomainError
from .kernels import expectation_constant
from .schedule import CouplingFunction, evaluate

__all__ = [
    "ActionSpec",
    "MartingaleCheck",
    "MaximalityRow",
    "McEstimate",
    "PathEnsemble",
    "discrete_expectation",
    "estimate",
    "martingale_lemma_check",
    "maximality_check",
    "sample_action",
    "summarize_actions",
]

_ACTION_KINDS = ("single", "self_double", "cross_double", "bipolaron")


@dataclass(frozen=True)
class PathEnsemble:
    """Recipe for M discretised d-dimensional Brownian paths on an N-step grid.

    Path m's draws are row m - kG of the blocks that group k = m // G
    draws, its normals from ``generator(k)`` and the single action's
    chi-square values from the same key at counter 2^64; the sampler names
    the draw, and the module docstring gives G.  A path's increments are
    N(0, (T/N) I_d) in law (the single action reads them through their
    radial components, the affine action through their sum); evaluation
    order and worker count cannot affect them.
    """

    seed: int
    paths: int
    steps: int
    horizon: float
    dim: int

    def __post_init__(self):
        for name in ("seed", "paths", "steps", "dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"ensemble {name} must be an integer, got {value!r}")
        if self.paths < 1 or self.steps < 1:
            raise DomainError("ensemble needs at least one path and one step")
        if not 0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")

    def generator(self, k: int) -> Generator:
        """The random stream of path group k."""
        key = np.array([self.seed, k], dtype=np.uint64)
        return Generator(Philox(key=key))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


@dataclass(frozen=True)
class ActionSpec:
    """Which exponential functional to sample.

    ``offset`` shifts the singular center along the first coordinate axis:
    the starting-point offset x for the single action, the difference x - y
    for the cross-pair action.  ``epsilon`` mollifies the distance as
    (|z|^2 + epsilon^2)^(theta/2); zero means the raw singularity, in which
    case a path hitting an exact zero distance yields +inf for that path
    (counted, never clamped).
    """

    kind: str
    f: CouplingFunction
    theta: float
    d: int
    T: float
    offset: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in _ACTION_KINDS:
            raise DomainError(f"unknown action kind {self.kind!r}")
        if not 0.0 <= self.theta <= 2.0:
            # theta = 0 and theta = 2 are degenerate but allowed for testing
            raise DomainError(f"theta must lie in [0, 2], got {self.theta}")
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")
        if not 0 < self.T < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.T}")
        if not 0 <= self.epsilon < 2.0 ** 511:  # the samplers square it
            raise DomainError(
                f"epsilon must be nonnegative with a finite square, got {self.epsilon}")
        if not abs(self.offset) < 2.0 ** 511:  # the samplers square it
            raise DomainError(f"offset must be finite with a finite square, got {self.offset}")


@dataclass(frozen=True)
class McEstimate:
    """Log-domain Monte Carlo estimate of E[exp(action)].

    log_mean is ln of the sample mean of exp(action), reduced as mx + log1p(mean
    expm1(action - mx)) with mx the largest action; stderr_log its delta-method
    standard error from sqrt(M) batch means;
    action_mean/action_stderr summarise the plain sample of the action.
    Bit-exact reproducible from (spec, seed, paths, steps).
    """

    log_mean: float
    stderr_log: float
    action_mean: float
    action_stderr: float
    paths: int
    steps: int
    seed: int
    infinite_paths: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# path engine
# ---------------------------------------------------------------------------

# Doubles in one batch of drawn normals, divided by one group's (G x rows x d) block
# to give the groups per batch.  At 1 << 15 perfbench mc_single ran 8-13% more jobs a
# second on 2 cores, with 2-4% more peak RSS (two workers' single-action moment passes
# at once, whose seven-row coefficient gather is the largest array).  It also bounds
# the (steps, offsets, paths) block of one single-action moment pass.
_BATCH_ELEMENTS = 1 << 14

# Doubles in one group's draw, divided by one path's draws to give the group size G:
# one re-key and one Philox call per group, not per path, so worker threads hand
# the GIL back and forth that much less often.
_DRAW_ELEMENTS = 1 << 12

# Path-steps in one single-action batch, divided by N to give its paths (512 at N = 256).
# The radial chain makes four numpy calls a step over the whole batch, so batches must be
# wide: at 1 << 16 perfbench mc_single's job_p90_s (its three-offset maximality jobs) read
# 0.067-0.069 s against 0.055-0.059 s at 1 << 17 on 2 cores.  The two step-major draw
# buffers hold 16 bytes a path-step, 2 MB a worker.
_RADIAL_ELEMENTS = 1 << 17

# Node rows per block of the pair kernel; fixed, so no sum depends on the batch.
_BLOCK_ROWS = 16

# Node rows per cdist call of the pair kernel, a multiple of _BLOCK_ROWS; no result depends on it.
# Each call holds the GIL for some microseconds, so calls must be few: perfbench mc_pair ran 24.3 /
# 25.6 / 27.8 jobs/s at 32 / 48 / 64 on 2 cores, but 64 added 7-11% to peak RSS.
_CHUNK_ROWS = 48


def _workers() -> int:
    """Worker count: every core this process may use (its CPU affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _runs(groups: range, size: int, workers: int) -> list:
    """Contiguous runs of ``groups``, one run per worker, their group counts differing by at
    most one, each cut into consecutive batches of at most ``size`` groups (the last one
    shorter).  Groups that fit one batch make one run."""
    workers = 1 if len(groups) <= size else min(workers, len(groups))
    q, r = divmod(len(groups), workers)
    edges = [k * q + min(k, r) for k in range(workers + 1)]
    return [[groups[i:min(i + size, b)] for i in range(a, b, size)] for a, b in zip(edges, edges[1:])]


def _run(sampler, ensemble: PathEnsemble, paths: range = None) -> np.ndarray:
    """Per-path outputs of ``sampler``, shape (outputs, len(paths)).

    A sampler names its own draw: ``draws`` doubles a path, which set the
    group size G (module docstring); ``batch_paths()``, the paths a batch
    should hold (at least one group); ``buffers(size)``, a worker's batch
    buffers for ``size`` paths; ``draw(stream, buffers, n, lo, hi)``, which
    puts paths lo..hi-1 of the current group into the buffers from path
    slot n on, reading ``stream(word)``, the group's Generator at Philox
    counter word * 2^64; and ``batch(buffers, n)``, the first n paths,
    which the sampler maps to n outputs or to an (outputs, n) array.
    ``_workers()`` workers, one per core this process may use, each take
    one contiguous run of groups (``_runs``); one run executes inline, with
    no pool.  The result depends on neither the worker count nor the batch
    size.
    """
    paths = range(ensemble.paths) if paths is None else paths
    G = max(1, _DRAW_ELEMENTS // sampler.draws)
    runs = _runs(range(paths.start // G, -(-paths.stop // G)),
                 max(1, sampler.batch_paths() // G), _workers())
    size = min(len(paths), G * max(len(batch) for run in runs for batch in run))

    def work(run: list) -> list:
        # One Philox per worker (state assignment is not thread-safe), re-keyed
        # per group to the state PathEnsemble.generator(k) starts from: key
        # (seed, k), counter 0, empty buffer; plain ints convert fastest.
        # Building a generator per group would also pay for an entropy-seeded
        # SeedSequence it then discards.
        key, counter = [int(ensemble.seed), 0], [0, 0, 0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        bitgen = Philox(key=np.array(key, dtype=np.uint64))
        rng = Generator(bitgen)

        def stream(word: int) -> Generator:
            counter[1] = word
            bitgen.state = state
            return rng

        buffers = sampler.buffers(size)
        out = []
        for batch in run:
            n = 0
            for k in batch:
                first, stop = max(paths.start, k * G), min(paths.stop, k * G + G)
                key[1] = k
                sampler.draw(stream, buffers, n, first - k * G, stop - k * G)
                n += stop - first
            out.append(sampler(sampler.batch(buffers, n)))
        return out

    if len(runs) == 1:
        parts = work(runs[0])
    else:
        with ThreadPoolExecutor(max_workers=len(runs)) as ex:
            parts = [part for run in ex.map(work, runs) for part in run]
    return np.concatenate(parts, axis=-1).reshape(-1, len(paths))


class _Normals:
    """The draw of a sampler that reads a (rows, d) block of standard normals a path:
    group k's (G, rows, d) block, in C order, from counter 0 of its stream."""

    def __init__(self, rows: int, d: int):
        self.rows, self.block, self.draws = rows, (rows, d), rows * d

    def batch_paths(self) -> int:
        return _BATCH_ELEMENTS // self.draws

    def buffers(self, size: int) -> np.ndarray:
        return np.empty((size,) + self.block)

    def draw(self, stream, z: np.ndarray, n: int, lo: int, hi: int) -> None:
        if lo == 0:
            stream(0).standard_normal(out=z[n:n + hi])
        else:  # a prefix of the group's draws, from its first path to hi - 1
            z[n:n + hi - lo] = stream(0).standard_normal((hi,) + self.block)[lo:]

    @staticmethod
    def batch(z: np.ndarray, n: int) -> np.ndarray:
        return z[:n]


def _midpoint_means(z: np.ndarray, sq: float) -> np.ndarray:
    """Means X_k + inc_k / 2 of the grid midpoints given the nodes, from (N, d) increments / sq."""
    mu = np.cumsum(z, axis=1)
    mu -= 0.5 * z
    mu *= sq
    return mu


# E(y) = G(xi) (y + y0)^(-theta/2), xi = y / (y + y0), y0 = (_x0(d) + c) 2 s^2: G is a
# degree-_DEGREE polynomial on each of _CELLS equal cells of [0, 1), to about 1e-13
_CELLS, _DEGREE = 64, 6


def _x0(d: int) -> float:
    """X0 = max(8, d/2): G changes near x = y/(2 s^2) of order d/2, which a fixed X0 crowds
    into the last cells (relative error 1.7e-6 at d = 1000); at d <= 16 X0 is 8."""
    return max(8.0, d / 2.0)


@functools.lru_cache(maxsize=64)
def _moment_table(theta: float, d: int, c: float) -> np.ndarray:
    """Row p: each cell's coefficient of u^p in G, u = xi * cells - cell - 1/2 (last cell: G = 1).

    E(y) = E[(|Z|^2 + eps^2)^-a], Z ~ N(mu, s^2 I_d), |mu|^2 = y, a = theta/2.  With x = y/(2 s^2)
    and c = eps^2/(2 s^2), the Gamma integral of the power gives
        E = (2 s^2)^-a / Gamma(a) int exp(a w - c e^w - (d/2) log(1 + e^w) - x / (1 + e^-w)) dw
    (at c = 0, Gamma((d-theta)/2)/Gamma(d/2) 1F1(a; d/2; -x), A&S 13.2.1): a trapezoid sum at step
    0.2 (error near 1e-17: analytic in |Im w| < pi/2) plus geometric sums of the tails' leading terms.
    Past the grid the integrand is e^-x e^-bw (1 + (x - d/2) e^-w) exp(-c e^w), b = (d - theta)/2;
    where c e^w is still below 1e-13 at the grid's end, exp(-c e^w) - 1 takes
    e^-x c^b Gamma(1 - b)/(b h) off the c = 0 tail sum when b < 1 (at b >= 1 it takes less than c).
    """
    table = np.zeros((_DEGREE + 1, _CELLS + 1))
    table[0] = 1.0
    if theta == 0.0:
        return table
    a, b, h, kappa = theta / 2.0, (d - theta) / 2.0, 0.2, _x0(d) + c
    u = np.cos(np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)) / 2.0  # Chebyshev points
    x = kappa / (_CELLS / (np.arange(_CELLS)[:, None] + 0.5 + u) - 1.0)  # kappa xi / (1 - xi)
    lo, top = math.log(1e-8 / (x.max() + c + d / 2.0)), 18.5 + math.log(50.0 + d)
    # a c that does not cut the c = 0 grid (to 1e-13) takes it and its tail sum
    tail = c * math.exp(top) < 1e-13
    w = np.arange(lo, max(top if tail else math.log(50.0) - math.log(c), lo + 2.0), h)
    base, den = a * w - c * np.exp(w) - (d / 2.0) * np.logaddexp(0.0, w), 1.0 + np.exp(-w)
    # eight cells at a time: one (cells, points, len(w)) buffer would add about 1 MB to peak memory
    sums = np.concatenate([np.exp(base - xc[..., None] / den).sum(axis=-1) for xc in np.split(x, 8)])
    # 1 / (e^(ph) - 1), below 1e-308 where e^(ph) overflows (p h >= 709: b = (d - theta)/2 past 3544)
    geo = lambda p: 1.0 / math.expm1(p * h) if p * h < 709.0 else 0.0  # noqa: E731
    sums += math.exp(a * w[0]) * geo(a) - (x + c + d / 2.0) * math.exp((a + 1.0) * w[0]) * geo(a + 1.0)
    if tail:  # else c has killed the upper tail by w[-1]
        sums += np.exp(-x - b * w[-1]) * (geo(b) + (x - d / 2.0) * math.exp(-w[-1]) * geo(b + 1.0))
        if b < 1.0:
            sums -= np.exp(-x) * (c ** b * math.gamma(1.0 - b) / (b * h))
    g = h * sums * (x + kappa) ** a / math.gamma(a)
    lagrange = [np.polynomial.polynomial.polyfromroots(np.delete(u, m)) / np.prod(v - np.delete(u, m))
                for m, v in enumerate(u)]
    table[:, :-1] = (g[:, :, None] * np.array(lagrange)).sum(axis=1).T
    table.flags.writeable = False
    return table


class _SingleSampler:
    """Midpoint-rule single action, one output row per starting offset, read off the radial
    chain (module docstring): every offset's chain runs on the batch's shared draws, and each
    midpoint term is its expectation E(|mu_k|^2) given the grid nodes (``_moment_table``), every
    offset's in one stacked ``_moment`` pass per block of steps.  A path adds its terms in step
    order."""

    def __init__(self, spec: ActionSpec, steps: int, offsets: Sequence[float]):
        dt = spec.T / steps
        self.steps, self.draws = steps, 2 * steps
        self.sq, self.dt, self.shape = math.sqrt(dt), dt, (spec.d - 1) / 2.0
        self.fw = np.asarray(evaluate(spec.f, (np.arange(steps) + 0.5) * dt), dtype=float) * dt
        c = spec.epsilon ** 2 / (dt / 2.0)  # eps^2 / (2 s^2), s^2 = dt / 4
        if not (c < 1e200 and (c or spec.theta < spec.d)):
            raise DomainError(f"E|X_mid|^-theta is infinite or overflows: theta {spec.theta}, "
                              f"d {spec.d}, epsilon {spec.epsilon}, dt {dt}")
        self.table, self.y0 = _moment_table(spec.theta, spec.d, c), (_x0(spec.d) + c) * dt / 2.0
        self.theta, self.offsets = spec.theta, tuple(map(float, offsets))

    def batch_paths(self) -> int:
        return _RADIAL_ELEMENTS // self.steps

    def buffers(self, size: int) -> np.ndarray:
        """Step-major rows of Z1 and of C / 2; the C / 2 rows stay 0 at d = 1."""
        return np.zeros((2, self.steps, size))

    def draw(self, stream, buffers: np.ndarray, n: int, lo: int, hi: int) -> None:
        """The group's (paths, N) normals from counter 0 and (paths, N) Gamma((d - 1)/2) values
        from counter 2^64, path-major, up to path hi - 1; paths lo.. go into the step-major rows."""
        z = stream(0).standard_normal((hi, self.steps))
        buffers[0, :, n:n + hi - lo] = z[lo:].T
        if self.shape:
            g = stream(1).standard_gamma(self.shape, (hi, self.steps))
            buffers[1, :, n:n + hi - lo] = g[lo:].T

    @staticmethod
    def batch(buffers: np.ndarray, n: int) -> np.ndarray:
        return buffers[:, :, :n]

    def _moment(self, y: np.ndarray) -> np.ndarray:
        """E(y), elementwise; overwrites y."""
        q = y + self.y0
        u = np.divide(y, q, out=y)
        u *= _CELLS
        cell = u.astype(np.intp)
        u -= cell + 0.5
        # every coefficient in one gather, (degree + 1,) + y.shape; Horner in place on its rows
        g, *coeffs = np.take(self.table, cell, axis=1)[::-1]
        del cell  # off the peak, which the gather sets
        for coeff in coeffs:
            g *= u
            g += coeff
        if self.theta == 1.0:
            return np.divide(g, np.sqrt(q, out=q), out=g)
        q **= -self.theta / 2.0  # not np.power: ** keeps numpy's exact forms (1/q at theta 2)
        return np.multiply(g, q, out=g)

    def _midpoint_norms(self, draws: np.ndarray):
        """Per block of steps k0 <= k < k1: (k0, the radii r_k1, the |mu_k|^2), shapes
        (offsets, n) and (k1 - k0, offsets, n), in buffers the next block reuses.
        Scales ``draws`` in place."""
        z, c = draws
        s = np.multiply(z, self.sq, out=z)  # radial steps sqrt(dt) Z1
        np.multiply(c, 2.0 * self.dt, out=c)  # dt C
        offsets, n = len(self.offsets), z.shape[1]
        rows = max(1, min(self.steps, _BATCH_ELEMENTS // (offsets * n)))
        r = np.empty((rows + 1, offsets, n))
        r[-1] = np.abs(self.offsets)[:, None]  # each block starts from the row the last one ended on
        for k0 in range(0, self.steps, rows):
            k1 = min(k0 + rows, self.steps)
            radii, sk, ck = r[:k1 - k0 + 1], s[k0:k1], c[k0:k1]
            radii[0] = r[-1]
            chain = radii[:, 0] if offsets == 1 else radii  # one offset: 1-d rows, no broadcast
            for rk, nxt, step, chi in zip(chain, chain[1:], sk, ck):
                np.add(rk, step, out=nxt)  # r_{k+1} = sqrt((r_k + s_k)^2 + dt C_k)
                np.multiply(nxt, nxt, out=nxt)
                np.add(nxt, chi, out=nxt)
                np.sqrt(nxt, out=nxt)
            # the block's draws and radii r_k are spent: |mu_k|^2 = (r_k + s_k/2)^2 + dt C_k/4 over them
            sk *= 0.5
            ck *= 0.25
            mu2 = np.add(radii[:-1], sk[:, None], out=radii[:-1])
            mu2 *= mu2
            mu2 += ck[:, None]
            yield k0, radii[-1], mu2

    def __call__(self, draws: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.offsets), draws.shape[-1]))
        for k0, _, mu2 in self._midpoint_norms(draws):
            terms = self._moment(mu2)
            terms *= self.fw[k0:k0 + len(terms), None, None]
            for term in terms:  # step order, whatever the block and batch
                out += term
            del terms, term  # off the peak, which the next block's gather sets
        return out


class _PairSampler(_Normals):
    """Grid-node double sums over node pairs i > j, nodes at t = (k+1) dt.

    The action is a sum of terms (W, a, b, offset), added in table order:
    each is the sum over pairs of W[i, j] (|a_i - b_j + offset e_1|^2 + eps^2)^(-theta/2),
    with a and b each path 0 (X, the first N drawn rows) or 1 (Y, the next N)
    and W[i, j] = w_(i-j) a strided view of the lag weights.  One ``cdist`` call per
    path and ``_CHUNK_ROWS`` rows i, on the band j >= i - L of nonzero weights, forms
    r^2 (at theta = 1 r) as the sequential sum ((d_0^2 + eps^2) + d_1^2) + ..., eps an
    extra coordinate, no BLAS; each ``_BLOCK_ROWS`` rows are one numpy sum per path,
    added in block order.
    """

    def __init__(self, spec: ActionSpec, steps: int):
        dt = spec.T / steps
        parts = 1 if spec.kind == "self_double" else 2
        super().__init__(parts * steps, spec.d)
        self.block = (parts, steps, spec.d)  # X's rows, then Y's
        self.sq, self.theta, self.eps = math.sqrt(dt), spec.theta, spec.epsilon
        # lags N-1, ..., 1, then 0, ..., 1-N: reversed windows give W[i, j] = w_(i-j)
        w = np.append(evaluate(spec.f, np.arange(steps - 1, 0, -1) * dt) * dt * dt, np.zeros(steps))
        self.band = steps - 1 - int(np.argmax(w != 0.0)) if w.any() else 0
        W, W2 = (sliding_window_view(v, steps)[::-1] for v in (w, 2.0 * w))
        # the bipolaron couples X and Y with twice the weight of each self term
        self.terms = {"self_double": [(W, 0, 0, 0.0)], "cross_double": [(W, 0, 1, spec.offset)],
                      "bipolaron": [(W2, 0, 1, spec.offset), (W, 0, 0, 0.0), (W, 1, 1, 0.0)]}[spec.kind]

    @np.errstate(divide="ignore")  # a zero distance gives the path +inf
    def __call__(self, z: np.ndarray) -> np.ndarray:
        n, (_, steps, d), C, K, L = len(z), self.block, _CHUNK_ROWS, _BLOCK_ROWS, self.band
        nodes = (self.sq * z.reshape((n,) + self.block)).cumsum(axis=2)  # (n, parts, steps, d)
        metric = "euclidean" if self.theta == 1.0 else "sqeuclidean"
        chunk = np.empty(n * C * min(steps - 1, C - 1 + L))
        block = np.empty(n * K * min(steps - 1, K - 1 + L))
        out = np.zeros(n)
        for W, a, b, offset in self.terms:
            x, y = nodes[:, a], nodes[:, b] - offset * np.eye(1, d) if offset else nodes[:, b]
            if self.eps:  # (eps - 0)^2 right after d_0^2
                x, y = np.insert(x, 1, self.eps, axis=2), np.insert(y, 1, 0.0, axis=2)
            for c0 in range(1, steps, C):
                c1, h0 = min(c0 + C, steps), max(0, c0 - L)
                r = chunk[:n * (c1 - c0) * (c1 - 1 - h0)].reshape(n, c1 - c0, -1)
                for p in range(n):
                    cdist(x[p, c0:c1], y[p, h0:c1 - 1], metric, out=r[p])
                for i0 in range(c0, c1, K):
                    i1, j0 = min(i0 + K, c1), max(0, i0 - L)
                    wb, rb = W[i0:i1, j0:i1 - 1], r[:, i0 - c0:i1 - c0, j0 - h0:i1 - 1 - h0]
                    # zero weights, j >= i among them, at distance 1: no 0 * inf
                    np.copyto(rb[:, :, i0 - j0:], 1.0, where=wb[:, i0 - j0:] == 0.0)
                    s = block[:n * (i1 - i0) * (i1 - 1 - j0)].reshape(n, i1 - i0, -1)
                    if self.theta == 1.0:
                        np.divide(wb, rb, out=s)
                    else:
                        np.multiply(np.power(rb, -self.theta / 2.0, out=s), wb, out=s)
                    out += s.sum(axis=(1, 2))
        return out


class _AffineSampler(_Normals):
    """lam * X_T^(1), capped at ``truncation`` unless it is None.  The action reads the
    endpoint alone, and sqrt(dt) times a sum of N standard normals is sqrt(T) Z exactly in
    law: one normal a path."""

    def __init__(self, lam: float, ensemble: PathEnsemble, truncation: float = None):
        super().__init__(1, 1)
        self.sq, self.lam, self.truncation = math.sqrt(ensemble.horizon), lam, truncation

    def __call__(self, z: np.ndarray) -> np.ndarray:
        x1 = self.sq * z[:, 0, 0]
        return self.lam * (x1 if self.truncation is None else np.minimum(x1, self.truncation))


class _QuadraticSampler(_Normals):
    """ln E[exp(-(w^2/2) sum_k |X_mid,k|^2 dt) | grid nodes], the midpoint rule's exact
    conditional log-moment: a midpoint N(mu, s^2 I_d) gives -a|mu|^2/(1 + 2as^2) - (d/2) ln(1 + 2as^2)."""

    def __init__(self, omega: float, ensemble: PathEnsemble):
        a2s2 = 0.25 * omega * omega * ensemble.dt ** 2  # 2 a s^2, a = w^2 dt / 2, s^2 = dt / 4
        super().__init__(ensemble.steps, ensemble.dim)
        self.sq = math.sqrt(ensemble.dt)
        self.coeff = -0.5 * omega * omega * ensemble.dt / (1.0 + a2s2)
        self.shift = -0.5 * ensemble.dim * ensemble.steps * math.log1p(a2s2)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        mu = _midpoint_means(z, self.sq)
        return self.coeff * np.sum(mu * mu, axis=(1, 2)) + self.shift


def discrete_expectation(spec: ActionSpec, steps: int) -> float:
    """Exact E[A_N] of the N-step action from the origin at epsilon 0, in O(N): E|X_t|^-theta
    = K t^(-theta/2), K = ``expectation_constant``, at the single action's midpoints t_k (each
    term's conditional mean averages to it) and the self-pair action's lags l dt, N - l pairs each."""
    if spec.kind not in ("single", "self_double") or spec.offset or spec.epsilon or steps < 1:
        raise DomainError(f"no exact E[A_N] for {spec.kind} at offset {spec.offset}, "
                          f"epsilon {spec.epsilon}, {steps} steps")
    dt, k = spec.T / steps, np.arange(steps)
    t, w = ((k + 0.5) * dt, dt) if spec.kind == "single" else (k[1:] * dt, (steps - k[1:]) * dt * dt)
    mean = np.sum(np.asarray(evaluate(spec.f, t), dtype=float) * w * t ** (-spec.theta / 2.0))
    return expectation_constant(spec.theta, spec.d) * float(mean)


def _make_sampler(spec: ActionSpec, steps: int):
    if spec.kind == "single":
        return _SingleSampler(spec, steps, (spec.offset,))
    return _PairSampler(spec, steps)


def sample_action(spec: ActionSpec, ensemble: PathEnsemble, m: int) -> float:
    """The discretised action of path m (pure function of seed, m and the block shape)."""
    if ensemble.horizon != spec.T or ensemble.dim != spec.d:
        raise DomainError("spec and ensemble disagree on (T, d)")
    if not 0 <= m < ensemble.paths:
        raise DomainError(f"path index {m} outside ensemble of {ensemble.paths}")
    return float(_run(_make_sampler(spec, ensemble.steps), ensemble, paths=range(m, m + 1))[0, 0])


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _std(x: np.ndarray) -> np.ndarray:
    """Sample standard deviation over the last axis, on each row scaled by an exact power of two:
    the squares of values below 1e-154 no longer underflow to 0, and no other bit moves."""
    k = np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]
    return np.ldexp(np.ldexp(x, -k).std(axis=-1, ddof=1), k[..., 0])


def _log_mean_exp(actions: np.ndarray) -> tuple:
    """(ln mean exp, its delta-method error, the sqrt(M) batch log-means) over the last axis
    of finite ``actions``: mx + log1p(mean e), e = expm1(A - mx) with mx the row maximum,
    keeps the digits 1 + e would round away (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021).  A batch whose weights all round to 0 (mean e = -1) has log-mean -inf."""
    mx = actions.max(axis=-1, keepdims=True)
    e = np.expm1(actions - mx)
    mean, B = e.mean(axis=-1), math.isqrt(actions.shape[-1])
    bm = e[..., : B * (e.shape[-1] // B)].reshape(e.shape[:-1] + (B, -1)).mean(axis=-1)
    stderr = _std(bm) / math.sqrt(B) / (1.0 + mean) if B >= 2 else np.full_like(mean, math.nan)
    logs = mx + np.log1p(bm, out=np.full_like(bm, -math.inf), where=bm > -1.0)
    return mx[..., 0] + np.log1p(mean), stderr, logs


def summarize_actions(actions: np.ndarray, seed: int, steps: int) -> McEstimate:
    """Estimate from a per-path action array (fixed index order throughout)."""
    actions = np.asarray(actions, dtype=float)
    vals = actions[np.isfinite(actions)]
    M, n_inf = actions.size, actions.size - vals.size
    if vals.size == 0:
        return McEstimate(math.inf, math.nan, math.nan, math.nan, M, steps, seed, n_inf)
    log_mean, stderr_log, _ = _log_mean_exp(vals)
    action_stderr = float(_std(vals) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
    return McEstimate(float(log_mean), float(stderr_log), float(vals.mean()), action_stderr,
                      M, steps, seed, n_inf)


def _estimates(sampler, ensemble: PathEnsemble) -> tuple:
    """(per-path outputs, one estimate per output row) of ``sampler``; the budget floor
    M >= 100, N >= 16 keeps the batch-means error meaningful."""
    if ensemble.paths < 100:
        raise DomainError(f"need at least 100 paths, got {ensemble.paths}")
    if ensemble.steps < 16:
        raise DomainError(f"need at least 16 steps, got {ensemble.steps}")
    acts = _run(sampler, ensemble)
    return acts, [summarize_actions(a, ensemble.seed, ensemble.steps) for a in acts]


def estimate(spec: ActionSpec, paths: int, steps: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of ln E[exp(action)] with error bars.

    Paths that hit an exact singularity at epsilon = 0 come back +inf; they
    are excluded from the estimate and counted in ``infinite_paths``.
    """
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps,
                            horizon=spec.T, dim=spec.d)
    return _estimates(_make_sampler(spec, steps), ensemble)[1][0]


# ---------------------------------------------------------------------------
# structured checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalityRow:
    radius: float
    log_mean: float
    stderr_log: float
    gap_from_origin: float       # log_mean(0) - log_mean(radius)
    gap_stderr: float
    ok: bool

    def as_dict(self) -> dict:
        return asdict(self)


def maximality_check(spec: ActionSpec, offsets: Sequence[float], paths: int,
                     steps: int, seed: int) -> list:
    """Origin-maximality table for the single action.

    All offsets share each path's draws (common random numbers), so the
    gap log_mean(0) - log_mean(r) carries a paired batch-means error.  Each
    row asserts the gap >= -3 standard errors.
    """
    if spec.kind != "single":
        raise DomainError("maximality check applies to the single action")
    # each offset is validated as ActionSpec.offset: the sampler squares it
    radii = [0.0] + [replace(spec, offset=float(r)).offset for r in offsets]
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps, horizon=spec.T, dim=spec.d)
    acts, ests = _estimates(_SingleSampler(spec, steps, radii), ensemble)
    logs = _log_mean_exp(acts)[2]
    gap_se = (_std(logs[0] - logs[1:]) / math.sqrt(logs.shape[-1])).tolist()
    rows = [MaximalityRow(0.0, ests[0].log_mean, ests[0].stderr_log, 0.0, 0.0, True)]
    for r, est, se in zip(radii[1:], ests[1:], gap_se):
        gap = ests[0].log_mean - est.log_mean
        rows.append(MaximalityRow(r, est.log_mean, est.stderr_log, gap, se, bool(gap >= -3.0 * se)))
    return rows


@dataclass(frozen=True)
class MartingaleCheck:
    """Exponential-moment identity for an action with constant stochastic
    derivative, against its martingale-estimate ceiling.

    The affine action lam * X_T^(1) has derivative identically lam, so the
    ceiling exp(E[action] + lam^2 T / 2) is attained exactly; truncating the
    action strictly reduces the exponential moment below the same ceiling.
    """

    lam: float
    T: float
    truncation: float
    log_mean: float
    stderr_log: float
    log_ceiling: float
    gap: float                  # log_ceiling - log_mean
    equality_within_3se: bool
    strictly_below_3se: bool

    def as_dict(self) -> dict:
        out = asdict(self)
        return {"lambda": out.pop("lam"), **out}


def martingale_lemma_check(lam: float, T: float, d: int, paths: int, steps: int,
                           seed: int, truncation: float = None) -> MartingaleCheck:
    """Monte Carlo check of the martingale-estimate ceiling.

    With no truncation the estimate must match lam^2 T / 2 within three
    standard errors (equality case); with truncation the estimate must sit
    strictly below it.
    """
    # only X_T^(1) enters the action, and its law depends on neither d nor N: one normal a path
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps, horizon=T, dim=d)
    est = _estimates(_AffineSampler(lam, ensemble, truncation), ensemble)[1][0]
    ceiling = lam * lam * T / 2.0
    gap, se = ceiling - est.log_mean, est.stderr_log
    return MartingaleCheck(lam=lam, T=T, truncation=math.nan if truncation is None else truncation,
                           log_mean=est.log_mean, stderr_log=se, log_ceiling=ceiling, gap=gap,
                           equality_within_3se=bool(abs(gap) <= 3.0 * se),
                           strictly_below_3se=bool(gap > 3.0 * se))


def ladder_allowance(spec: ActionSpec, paths: int, steps: int, seed: int,
                     exponent: float) -> dict:
    """Discretization allowance at ``steps``, fitted on an N ladder.

    Runs the estimator at steps/4 and steps/2, models the grid bias as
    C (T/N)^exponent, and solves for C from the successive differences of
    the action sample means (conservatively, the larger of the two rungs):
    the action mean carries the log-domain estimate's leading-order grid
    bias with far smaller sampling noise.

    No sandwich calls this any more (each allows the exact grid bias of its
    N-step action); it stays for ``perfbench``, whose ``draw_ratio`` span
    reads its rungs.
    """
    if steps < 64:
        raise DomainError("ladder fit needs at least 64 steps")
    ladder_steps = [steps // 4, steps // 2, steps]
    ests = {n: estimate(spec, paths, n, seed) for n in ladder_steps}
    c = 0.0
    for n_lo, n_hi in zip(ladder_steps, ladder_steps[1:]):
        denom = (spec.T / n_lo) ** exponent - (spec.T / n_hi) ** exponent
        if denom > 0:
            c = max(c, abs(ests[n_hi].action_mean - ests[n_lo].action_mean) / denom)
    allowance = c * (spec.T / steps) ** exponent
    return {
        "allowance": allowance,
        "coefficient": c,
        "exponent": exponent,
        "ladder": {n: e.action_mean for n, e in ests.items()},
        "estimates": ests,
    }
