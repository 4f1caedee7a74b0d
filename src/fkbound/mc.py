"""Monte Carlo verification engine for the exponential path functionals.

Each path m owns a counter-based Philox stream keyed by (seed, m) (Salmon
et al., SC'11), so its draws depend on the seed and the path index alone.
One path engine serves every sampler: each worker re-keys one bit generator
to (seed, m) per path, draws the path's whole normal block in one call into
a batch buffer (a fixed element budget over the block size), and the
sampler evaluates the batch at once.  Weighted action sums still run one
path at a time, and every reduction over paths runs in index order, so no
result depends on the worker count or the batch size.

Draw order within a path is part of the reproducibility contract; one
block of 2N rows draws exactly the two N-row draws listed, in order:

* single action:     grid increments (N, d), then midpoint-bridge noise (N, d)
* self-pair action:  grid increments (N, d)
* cross-pair action: grid increments of X (N, d), then of Y (N, d)
* bipolaron action:  grid increments of X (N, d), then of Y (N, d)
* affine action (martingale check): grid increments (N, d)
* quadratic action (oscillator): grid increments (N, 1), then bridge noise (N, 1)

Time discretisation: the single action uses midpoint times with the path
value sampled from the Brownian bridge between grid nodes (exact midpoint
law); double actions sum over grid-node pairs with the diagonal excluded.
Both choices bias the singular integrals low, so Monte Carlo means sit
slightly below their continuum targets, by O(dt^(1-theta/2)).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError
from .schedule import CouplingFunction, evaluate

__all__ = [
    "ActionSpec",
    "MartingaleCheck",
    "MaximalityRow",
    "McEstimate",
    "PathEnsemble",
    "estimate",
    "fit_discretization_allowance",
    "martingale_lemma_check",
    "maximality_check",
    "sample_action",
    "summarize_actions",
]

_ACTION_KINDS = ("single", "self_double", "cross_double", "bipolaron")


@dataclass(frozen=True)
class PathEnsemble:
    """Recipe for M discretised d-dimensional Brownian paths on an N-step grid.

    Increments of path m at step i are N(0, (T/N) I_d), generated from a
    Philox stream keyed by (seed, m); evaluation order and worker count
    cannot affect them.
    """

    seed: int
    paths: int
    steps: int
    horizon: float
    dim: int

    def __post_init__(self):
        if self.paths < 1 or self.steps < 1:
            raise DomainError("ensemble needs at least one path and one step")
        if not 0 < self.horizon < math.inf:
            raise DomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")

    def generator(self, m: int) -> Generator:
        """The path-m random stream."""
        key = np.array([self.seed, m], dtype=np.uint64)
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
        if not 0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if not math.isfinite(self.offset):
            raise DomainError(f"offset must be finite, got {self.offset}")


@dataclass(frozen=True)
class McEstimate:
    """Log-domain Monte Carlo estimate of E[exp(action)].

    log_mean is the max-shifted log of the sample mean of exp(action);
    stderr_log its delta-method standard error from sqrt(M) batch means;
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

# Doubles in one batch of drawn normals, divided by one path's (rows x d) block
# to give the batch size; larger batches measured no faster.
_BATCH_ELEMENTS = 1 << 14


def _run(sampler, ensemble: PathEnsemble, threads: int = 1,
         paths: range = None) -> np.ndarray:
    """Per-path outputs of ``sampler``, shape (outputs, len(paths)).

    A sampler's ``rows`` is the length of the (rows, d) normal block each
    path draws; it maps a (B, rows, d) batch to B outputs or to an
    (outputs, B) array.  Batches go to ``threads`` workers in contiguous
    runs; the result depends on neither the worker count nor the batch size.
    """
    paths = range(ensemble.paths) if paths is None else paths
    block = (sampler.rows, ensemble.dim)
    size = min(len(paths), max(1, _BATCH_ELEMENTS // (block[0] * block[1])))
    batches = [paths[i:i + size] for i in range(0, len(paths), size)]

    def work(run: list) -> list:
        # One Philox per worker (state assignment is not thread-safe), re-keyed
        # per path to the state PathEnsemble.generator(m) starts from: key
        # (seed, m), counter 0, empty buffer.  Building a generator per path
        # would also pay for an entropy-seeded SeedSequence it then discards.
        key = np.array([ensemble.seed, 0], dtype=np.uint64)
        state = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, np.uint64), "key": key},
                 "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        bitgen = Philox(key=key)
        rng = Generator(bitgen)
        z = np.empty((size,) + block)
        out = []
        for batch in run:
            for k, m in enumerate(batch):
                key[1] = m
                bitgen.state = state
                rng.standard_normal(out=z[k])
            out.append(sampler(z[:len(batch)]))
        return out

    if threads <= 1:
        parts = work(batches)
    else:
        n = -(-len(batches) // threads)
        with ThreadPoolExecutor(max_workers=threads) as ex:
            runs = ex.map(work, [batches[i:i + n] for i in range(0, len(batches), n)])
            parts = [part for run in runs for part in run]
    return np.concatenate(parts, axis=-1).reshape(-1, len(paths))


def _bridge_midpoints(z: np.ndarray, sq: float) -> np.ndarray:
    """Grid-midpoint path values from (2N, d) normal blocks: increments / sq, then bridge noise."""
    n = z.shape[1] // 2
    inc = sq * z[:, :n]
    return np.cumsum(inc, axis=1) - 0.5 * inc + (0.5 * sq) * z[:, n:]


class _SingleSampler:
    """Midpoint-rule single action, one output row per starting offset."""

    def __init__(self, spec: ActionSpec, steps: int, offsets: Sequence[float]):
        dt = spec.T / steps
        self.rows = 2 * steps
        self.sq = math.sqrt(dt)
        self.fw = np.asarray(evaluate(spec.f, (np.arange(steps) + 0.5) * dt), dtype=float) * dt
        self.eps2 = spec.epsilon ** 2
        self.theta = spec.theta
        self.offsets = offsets

    def __call__(self, z: np.ndarray) -> np.ndarray:
        mids = _bridge_midpoints(z, self.sq)
        r2 = np.einsum("bij,bij->bi", mids, mids)
        out = np.empty((len(self.offsets), len(z)))
        for row, offset in zip(out, self.offsets):
            r2o = r2 if offset == 0.0 else r2 + 2.0 * offset * mids[:, :, 0] + offset * offset
            with np.errstate(divide="ignore"):
                vals = (r2o + self.eps2) ** (-self.theta / 2.0)
            # one dot per path: a batched product would sum in another order
            row[:] = [np.dot(self.fw, v) for v in vals]
        return out


class _PairSampler:
    """Grid-node double sums over node pairs i > j, nodes at t = (k+1) dt."""

    def __init__(self, spec: ActionSpec, steps: int):
        dt = spec.T / steps
        self.sq = math.sqrt(dt)
        parts = 1 if spec.kind == "self_double" else 2
        self.rows, self.block = parts * steps, (parts, steps, spec.d)
        self.kind = spec.kind
        self.theta = spec.theta
        self.eps2 = spec.epsilon ** 2
        self.offset = spec.offset
        self.iu, self.ju = np.tril_indices(steps, -1)
        self.w = np.asarray(evaluate(spec.f, (self.iu - self.ju) * dt), dtype=float) * dt * dt
        if spec.kind == "bipolaron":
            self.w_cross = 2.0 * self.w

    def _pair_pow(self, diff2: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return (diff2 + self.eps2) ** (-self.theta / 2.0)

    def _self_distances(self, x: np.ndarray) -> np.ndarray:
        g = x @ x.T
        sq = np.diagonal(g)
        d2 = sq[self.iu] + sq[self.ju] - 2.0 * g[self.iu, self.ju]
        return np.maximum(d2, 0.0)

    def _cross_distances(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = x[self.iu] - y[self.ju]
        if self.offset != 0.0:
            d[:, 0] += self.offset
        return np.einsum("ij,ij->i", d, d)

    def _action(self, x: np.ndarray, y: np.ndarray = None) -> float:
        if self.kind == "self_double":
            return float(np.dot(self.w, self._pair_pow(self._self_distances(x))))
        if self.kind == "cross_double":
            return float(np.dot(self.w, self._pair_pow(self._cross_distances(x, y))))
        # bipolaron: cross term plus both self terms, shared coupling profile
        total = float(np.dot(self.w_cross, self._pair_pow(self._cross_distances(x, y))))
        total += float(np.dot(self.w, self._pair_pow(self._self_distances(x))))
        total += float(np.dot(self.w, self._pair_pow(self._self_distances(y))))
        return total

    def __call__(self, z: np.ndarray) -> np.ndarray:
        # X from a block's first N rows, Y from the next N.  Path by path:
        # batch-wide node arrays, held between the O(N^2) temporaries,
        # fragmented the heap and raised peak RSS by 3 MB at N = 1024.
        return np.array([self._action(*(self.sq * b.reshape(self.block)).cumsum(axis=1)) for b in z])


class _AffineSampler:
    """lam * X_T^(1), capped at ``truncation`` unless it is None."""

    def __init__(self, lam: float, ensemble: PathEnsemble, truncation: float = None):
        self.rows, self.sq = ensemble.steps, math.sqrt(ensemble.dt)
        self.lam, self.truncation = lam, truncation

    def __call__(self, z: np.ndarray) -> np.ndarray:
        x1 = (self.sq * z[:, :, 0]).sum(axis=1)
        return self.lam * (x1 if self.truncation is None else np.minimum(x1, self.truncation))


class _QuadraticSampler:
    """-(w^2/2) int_0^T X_t^2 dt, midpoint rule with bridge-sampled midpoints."""

    def __init__(self, omega: float, ensemble: PathEnsemble):
        self.rows, self.sq = 2 * ensemble.steps, math.sqrt(ensemble.dt)
        self.coeff = -0.5 * omega * omega * ensemble.dt

    def __call__(self, z: np.ndarray) -> np.ndarray:
        mids = _bridge_midpoints(z, self.sq)
        return self.coeff * np.sum(mids * mids, axis=(1, 2))


def _make_sampler(spec: ActionSpec, steps: int):
    if spec.kind == "single":
        return _SingleSampler(spec, steps, (spec.offset,))
    return _PairSampler(spec, steps)


def sample_action(spec: ActionSpec, ensemble: PathEnsemble, m: int) -> float:
    """The discretised action of path m (pure function of seed and m)."""
    if ensemble.horizon != spec.T or ensemble.dim != spec.d:
        raise DomainError("spec and ensemble disagree on (T, d)")
    if not 0 <= m < ensemble.paths:
        raise DomainError(f"path index {m} outside ensemble of {ensemble.paths}")
    return float(_run(_make_sampler(spec, ensemble.steps), ensemble, paths=range(m, m + 1))[0, 0])


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def summarize_actions(actions: np.ndarray, seed: int, steps: int) -> McEstimate:
    """Estimate from a per-path action array (fixed index order throughout)."""
    actions = np.asarray(actions, dtype=float)
    M = actions.size
    finite = np.isfinite(actions)
    n_inf = int(M - finite.sum())
    vals = actions[finite]
    if vals.size == 0:
        return McEstimate(math.inf, math.nan, math.nan, math.nan, M, steps, seed, n_inf)
    mx = float(vals.max())
    w = np.exp(vals - mx)
    mean_w = float(w.mean())
    log_mean = mx + math.log(mean_w)
    B = int(math.isqrt(vals.size))
    stderr_log = math.nan
    if B >= 2:
        bs = vals.size // B
        bm = w[: B * bs].reshape(B, bs).mean(axis=1)
        stderr_log = float(bm.std(ddof=1) / math.sqrt(B) / mean_w)
    action_mean = float(vals.mean())
    action_stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else math.nan
    return McEstimate(log_mean, stderr_log, action_mean, action_stderr,
                      M, steps, seed, n_inf)


def estimate(spec: ActionSpec, paths: int, steps: int, seed: int,
             threads: int = 1) -> McEstimate:
    """Monte Carlo estimate of ln E[exp(action)] with error bars.

    Budget floor M >= 100, N >= 16 keeps the batch-means error estimate
    meaningful.  Paths that hit an exact singularity at epsilon = 0 come
    back +inf; they are excluded from the estimate and counted in
    ``infinite_paths``.
    """
    if paths < 100:
        raise DomainError(f"need at least 100 paths, got {paths}")
    if steps < 16:
        raise DomainError(f"need at least 16 steps, got {steps}")
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps,
                            horizon=spec.T, dim=spec.d)
    actions = _run(_make_sampler(spec, steps), ensemble, threads)[0]
    return summarize_actions(actions, seed, steps)


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
                     steps: int, seed: int, threads: int = 1) -> list:
    """Origin-maximality table for the single action.

    All offsets share each path's draws (common random numbers), so the
    gap log_mean(0) - log_mean(r) carries a paired batch-means error.  Each
    row asserts the gap >= -3 standard errors.
    """
    if spec.kind != "single":
        raise DomainError("maximality check applies to the single action")
    radii = [float(r) for r in offsets]
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps,
                            horizon=spec.T, dim=spec.d)
    all_r = [0.0] + radii
    acts = _run(_SingleSampler(spec, steps, all_r), ensemble, threads)
    ests = [summarize_actions(acts[k], seed, steps) for k in range(len(all_r))]
    B = int(math.isqrt(paths))
    bs = paths // B
    rows = []
    mx = acts.max(axis=1, keepdims=True)
    w = np.exp(acts[:, : B * bs] - mx)
    logs_b = np.log(w.reshape(len(all_r), B, bs).mean(axis=2)) + mx
    for k, r in enumerate(radii, start=1):
        gaps = logs_b[0] - logs_b[k]
        gap = ests[0].log_mean - ests[k].log_mean
        gap_se = float(gaps.std(ddof=1) / math.sqrt(B))
        rows.append(MaximalityRow(
            radius=r,
            log_mean=ests[k].log_mean,
            stderr_log=ests[k].stderr_log,
            gap_from_origin=gap,
            gap_stderr=gap_se,
            ok=bool(gap >= -3.0 * gap_se),
        ))
    rows.insert(0, MaximalityRow(0.0, ests[0].log_mean, ests[0].stderr_log,
                                 0.0, 0.0, True))
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
    ensemble = PathEnsemble(seed=seed, paths=paths, steps=steps, horizon=T, dim=d)
    actions = _run(_AffineSampler(lam, ensemble, truncation), ensemble)[0]
    est = summarize_actions(actions, seed, steps)
    ceiling = lam * lam * T / 2.0
    gap = ceiling - est.log_mean
    se = est.stderr_log if math.isfinite(est.stderr_log) else 0.0
    return MartingaleCheck(
        lam=lam, T=T,
        truncation=math.nan if truncation is None else truncation,
        log_mean=est.log_mean, stderr_log=est.stderr_log,
        log_ceiling=ceiling, gap=gap,
        equality_within_3se=bool(abs(gap) <= 3.0 * se + 1e-12),
        strictly_below_3se=bool(gap > 3.0 * se),
    )


def fit_discretization_allowance(diffs: Mapping[int, float], T: float,
                                 exponent: float) -> float:
    """Coefficient C of the allowance model |bias(N)| ~ C (T/N)^exponent.

    ``diffs`` maps step counts to observed deviations from the continuum
    target on an N ladder; the returned C is the conservative (largest)
    fit, so C (T/N)^exponent dominates every observed point.
    """
    if not diffs:
        raise DomainError("allowance fit needs at least one ladder point")
    c = 0.0
    for n, diff in diffs.items():
        dt = T / int(n)
        c = max(c, abs(float(diff)) / dt ** exponent)
    return c


def ladder_allowance(spec: ActionSpec, paths: int, steps: int, seed: int,
                     exponent: float, threads: int = 1) -> dict:
    """Discretization allowance at ``steps``, fitted on an N ladder.

    Runs the estimator at steps/4 and steps/2, models the grid bias as
    C (T/N)^exponent, and solves for C from the successive differences of
    the action sample means (conservatively, the larger of the two rungs).
    The action mean carries the same leading-order grid bias as the
    log-domain estimate but with far smaller sampling noise, so it is the
    stable fit target; the allowance applies to both.
    """
    if steps < 64:
        raise DomainError("ladder fit needs at least 64 steps")
    ladder_steps = [steps // 4, steps // 2, steps]
    ests = {n: estimate(spec, paths, n, seed, threads=threads) for n in ladder_steps}
    c = 0.0
    for n_lo, n_hi in zip(ladder_steps, ladder_steps[1:]):
        gap = abs(ests[n_hi].action_mean - ests[n_lo].action_mean)
        dt_lo = spec.T / n_lo
        dt_hi = spec.T / n_hi
        denom = dt_lo ** exponent - dt_hi ** exponent
        if denom > 0:
            c = max(c, gap / denom)
    allowance = c * (spec.T / steps) ** exponent
    return {
        "allowance": allowance,
        "coefficient": c,
        "exponent": exponent,
        "ladder": {n: e.action_mean for n, e in ests.items()},
        "estimates": ests,
    }
