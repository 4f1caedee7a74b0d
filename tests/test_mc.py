import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from fkbound import kernels, mc, oscillator
from fkbound.bounds import BoundParams, theorem_bound
from fkbound.errors import DomainError
from fkbound.schedule import Constant, ExpDecay, Indicator, Tabulated, evaluate


def hydrogen_spec(alpha=0.5, T=1.0, **kw):
    return mc.ActionSpec("single", Constant(alpha), 1.0, 3, T, **kw)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_estimate_bit_identical_across_threads(monkeypatch):
    spec = hydrogen_spec()
    _cores(monkeypatch, 1)
    base = mc.estimate(spec, 1200, 64, 42)
    for cores in (2, 8):
        _cores(monkeypatch, cores)
        again = mc.estimate(spec, 1200, 64, 42)
        assert again == base  # dataclass equality: every float bit-identical


def test_sample_action_is_pure_function_of_seed_and_index():
    spec = hydrogen_spec()
    ens = mc.PathEnsemble(seed=9, paths=50, steps=32, horizon=1.0, dim=3)

    def action(m):  # path m from a run of the first m + 1 paths
        return mc._run(mc._make_sampler(spec, 32), replace(ens, paths=m + 1))[0, m]

    first = [action(m) for m in range(5)]
    again = [action(m) for m in range(5)]
    assert first == again
    # evaluation order must not matter
    reverse = [action(m) for m in reversed(range(5))]
    assert reverse == first[::-1]


_ACTIONS_SCRIPT = """
from fkbound import mc
from fkbound.schedule import ExpDecay
f = ExpDecay(0.4, 1.0)
cases = [("self_double", 0.0, 256), ("cross_double", 0.5, 256), ("bipolaron", 0.0, 256),
         ("single", 0.0, 16384)]
for kind, offset, steps in cases:
    spec = mc.ActionSpec(kind, f, 1.0, 3, 1.0, offset=offset)
    ens = mc.PathEnsemble(seed=3, paths=10, steps=steps, horizon=1.0, dim=3)
    print(kind, [a.hex() for a in mc._run(mc._make_sampler(spec, steps), ens)[0]])
"""


def test_actions_independent_of_blas_threads():
    # OpenBLAS splits a long dot product over its threads, which changes the
    # summation order; the actions must not depend on it
    src = str(Path(mc.__file__).parents[1])
    outputs = []
    for blas_threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _ACTIONS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout.splitlines())
    assert len(outputs[0]) == 4
    assert outputs[0] == outputs[1]


def test_increment_moments():
    # per-coordinate mean within 4 sigma/sqrt(MN); variance within 1% at MN >= 1e6
    ens = mc.PathEnsemble(seed=123, paths=2000, steps=512, horizon=2.0, dim=1)
    dt = ens.dt
    total = np.empty((2000, 512))
    for m in range(2000):
        total[m] = ens.generator(m).standard_normal((512, 1))[:, 0]
    n = total.size
    assert n >= 1_000_000
    assert abs(total.mean()) <= 4.0 / math.sqrt(n)
    assert abs(total.var() - 1.0) <= 0.01


class _RawBlocks(mc._Normals):
    """Engine sampler that returns each path's drawn (rows, d) block, flattened, and
    records each batch's path count."""

    def __init__(self, rows=5, d=3):
        super().__init__(rows, d)
        self.batches = []

    def __call__(self, z, n):
        self.batches.append(n)
        return z[:n].reshape(n, -1).T.copy()


class _RawRadial(mc._SingleSampler):
    """Single-action sampler that returns each path's drawn Z1 row, then its
    Gamma((d - 1)/2) row, and records each batch's path count."""

    def __init__(self, steps=5, d=3):
        super().__init__(mc.ActionSpec("single", _F, 1.0, d, 1.0, epsilon=0.1), steps, (0.0,))
        self.batches = []

    def __call__(self, buffers, n):
        self.batches.append(n)
        return buffers[:, :n].transpose(0, 2, 1).reshape(2 * self.steps, n).copy()


def _path_normals(ens, rows, m):
    """Path m's (rows, d) normals: row m - kG of the block group k = m // G draws."""
    G = max(1, mc._DRAW_ELEMENTS // (rows * ens.dim))
    k = m // G
    return ens.generator(k).standard_normal((G, rows, ens.dim))[m - k * G]


def _path_radial(ens, m):
    """Path m's Z1 and Gamma((d - 1)/2) rows: row m - kG of the (G, N) blocks that group
    k = m // G draws at counter 0 and at counter 2^64 of its key."""
    G = max(1, mc._DRAW_ELEMENTS // (2 * ens.steps))
    k = m // G
    far = mc.Generator(mc.Philox(key=np.array([ens.seed, k], dtype=np.uint64), counter=2 ** 64))
    gamma = far.standard_gamma((ens.dim - 1) / 2, (G, ens.steps)) if ens.dim > 1 else np.zeros((G, ens.steps))
    return np.concatenate([ens.generator(k).standard_normal((G, ens.steps))[m - k * G],
                           gamma[m - k * G]])


@pytest.mark.parametrize("seed", [0, 77, 2 ** 64 - 1])
def test_engine_stream_equals_path_generator(seed, monkeypatch):
    # 15 normals per path (10 draws a radial path: 5 normals, 5 chi-square halves, none
    # at d = 1) leave the previous group's Philox buffer part used, so every group after
    # the first in a batch checks the re-keying; groups of 7 leave a short last group at
    # 40 and 41 paths; a group of 1 is one path, keyed (seed, m), as where a path's
    # draws exceed _DRAW_ELEMENTS / 2
    probes = [(_RawBlocks, lambda ens, m: _path_normals(ens, 5, m).ravel(), 3),
              (_RawRadial, _path_radial, 3), (functools.partial(_RawRadial, d=1), _path_radial, 1)]
    for make, path, dim in probes:
        for group, paths in itertools.product((7, 1), (40, 41)):
            draws = make().draws
            monkeypatch.setattr(mc, "_DRAW_ELEMENTS", group * draws + draws - 1)
            ens = mc.PathEnsemble(seed=seed, paths=paths, steps=5, horizon=1.0, dim=dim)
            expected = np.stack([path(ens, m) for m in range(paths)], axis=1)
            # one batch; then one group a batch, though a group exceeds the budget
            for budget, most in ((42, paths), (0, group)):
                monkeypatch.setattr(mc, "_BATCH_ELEMENTS", budget * 15)
                monkeypatch.setattr(mc, "_RADIAL_ELEMENTS", budget * 5)
                for cores in (1, 3):
                    _cores(monkeypatch, cores)
                    sampler = make()
                    assert np.array_equal(mc._run(sampler, ens), expected)
                    assert max(sampler.batches) == most


@pytest.mark.parametrize("paths, steps, dim, cores", [
    (1000, 64, 3, 1), (1037, 64, 3, 2), (700, 256, 1, 2), (7, 2048, 3, 2), (1, 16, 1, 1)])
def test_one_philox_call_per_group(paths, steps, dim, cores, monkeypatch):
    calls, real = [], mc.Generator

    class Counting:
        def __init__(self, bitgen):
            self.rng = real(bitgen)

        def standard_normal(self, *args, **kwargs):
            calls.append(1)
            return self.rng.standard_normal(*args, **kwargs)

    monkeypatch.setattr(mc, "Generator", Counting)
    _cores(monkeypatch, cores)
    ens = mc.PathEnsemble(seed=1, paths=paths, steps=steps, horizon=1.0, dim=dim)
    mc._run(mc._QuadraticSampler(1.3, ens), ens)
    G = max(1, mc._DRAW_ELEMENTS // (steps * dim))
    assert len(calls) == -(-paths // G)


@pytest.mark.parametrize("paths, steps, dim, cores", [
    (1000, 64, 3, 1), (1037, 64, 4, 2), (700, 256, 1, 2), (7, 2048, 7, 2), (1, 16, 2, 1)])
def test_radial_draw_makes_two_philox_calls_per_group(paths, steps, dim, cores, monkeypatch):
    # one call for the normals and, except at d = 1, one for the chi-square halves,
    # each writing in place into the batch buffers; G depends on N alone
    calls, real = [], mc.Generator

    class Counting:
        def __init__(self, bitgen):
            self.rng = real(bitgen)

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def call(*args, **kwargs):
                calls.append(name)
                assert kwargs.get("out") is not None, name
                return method(*args, **kwargs)
            return call

    monkeypatch.setattr(mc, "Generator", Counting)
    _cores(monkeypatch, cores)
    ens = mc.PathEnsemble(seed=1, paths=paths, steps=steps, horizon=1.0, dim=dim)
    mc._run(mc._SingleSampler(mc.ActionSpec("single", _F, 1.0, dim, 1.0, epsilon=0.1), steps, (0.0,)), ens)
    groups = -(-paths // max(1, mc._DRAW_ELEMENTS // (2 * steps)))
    assert calls.count("standard_normal") == groups
    assert calls.count("standard_gamma") == (groups if dim > 1 else 0)
    assert len(calls) == groups * (2 if dim > 1 else 1)


@pytest.mark.parametrize("kind", ["single", "quadratic"])
def test_path_action_independent_of_path_count(kind):
    # 1000 paths end mid-group where 1037 do not
    ens = {M: mc.PathEnsemble(seed=8, paths=M, steps=64 if kind == "single" else 256,
                              horizon=1.0, dim=3 if kind == "single" else 1) for M in (1000, 1037)}
    sampler = (mc._SingleSampler(mc.ActionSpec("single", _F, 1.2, 3, 1.0), 64, (0.0,))
               if kind == "single" else mc._QuadraticSampler(1.3, ens[1000]))
    G = mc._DRAW_ELEMENTS // sampler.draws
    assert 1000 % G and G > 1
    assert np.array_equal(mc._run(sampler, ens[1037])[0, :1000], mc._run(sampler, ens[1000])[0])


def test_radial_sample_action_is_path_m_of_the_estimate():
    # 1037 paths at N = 256 are groups of 8 in three batches; the first m + 1 paths end
    # in a short group wherever m + 1 is not a multiple of 8, which reads the same prefix
    # of its group's two streams
    spec = mc.ActionSpec("single", _F, 1.2, 3, 1.0, offset=0.3)
    ens = mc.PathEnsemble(seed=8, paths=1037, steps=256, horizon=1.0, dim=3)
    assert 2 * mc._make_sampler(spec, 256).batch_paths < 1037
    full = mc._run(mc._make_sampler(spec, 256), ens)[0]
    for m in (0, 7, 8, 511, 512, 1036):
        assert mc._run(mc._make_sampler(spec, 256), replace(ens, paths=m + 1))[0, m] == full[m]


@pytest.mark.parametrize("kind", ["single", "self_double", "cross_double", "bipolaron"])
def test_sample_action_agrees_with_estimate(kind):
    spec = mc.ActionSpec(kind, ExpDecay(0.4, 1.0), 1.0, 3, 1.0, offset=0.2, epsilon=0.01)
    ens = mc.PathEnsemble(seed=5, paths=100, steps=16, horizon=1.0, dim=3)
    actions = mc._run(mc._make_sampler(spec, 16), ens)[0]
    assert mc.summarize_actions(actions, 5, 16) == mc.estimate(spec, 100, 16, 5)


# ---------------------------------------------------------------------------
# default worker count
# ---------------------------------------------------------------------------

def _cores(monkeypatch, n):
    """Make this process see n usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


_F = ExpDecay(0.4, 1.0)
_PAIR, _LINE, _RADIAL = (mc.PathEnsemble(seed=2, paths=400, steps=32, horizon=1.0, dim=3),
                         mc.PathEnsemble(seed=2, paths=700, steps=64, horizon=1.0, dim=1),
                         mc.PathEnsemble(seed=2, paths=800, steps=512, horizon=1.0, dim=3))
_SAMPLERS = {  # kind: (sampler, ensemble), three or more batches at the default budget
    "single_offsets": (mc._SingleSampler(mc.ActionSpec("single", _F, 1.2, 3, 1.0, epsilon=0.1),
                                         512, (0.0, 0.3, 1.0)), _RADIAL),
    **{kind: (mc._PairSampler(mc.ActionSpec(kind, _F, 1.0, 3, 1.0, offset=0.4), 32), _PAIR)
       for kind in ("self_double", "cross_double", "bipolaron")},
    "affine": (mc._AffineSampler(0.7, _LINE, truncation=0.5), replace(_LINE, paths=60_000)),
    "quadratic": (mc._QuadraticSampler(1.3, _LINE), _LINE),
}


@pytest.mark.parametrize("kind", sorted(_SAMPLERS))
def test_default_workers_match_one_worker(kind, monkeypatch):
    sampler, ens = _SAMPLERS[kind]
    _cores(monkeypatch, 1)
    base = mc._run(sampler, ens)
    assert -(-ens.paths // sampler.batch_paths) >= 3
    for cores in (1, 2, 3):
        _cores(monkeypatch, cores)
        assert mc._workers() == cores
        assert np.array_equal(mc._run(sampler, ens), base)


def test_default_workers_leave_every_check_unchanged(monkeypatch):
    single = mc.ActionSpec("single", _F, 1.2, 3, 1.0, epsilon=0.1)
    cfg = oscillator.OscillatorConfig(1.3, 1.0)
    runs = {}
    for cores in (1, 2, 3):
        _cores(monkeypatch, cores)
        runs[cores] = (mc.estimate(single, 400, 32, 6),
                       mc.maximality_check(single, (0.3, 1.0), 400, 32, 6),
                       mc.martingale_lemma_check(0.7, 1.0, 3, 700, 64, 6),
                       oscillator.mc_crosscheck(cfg, 700, 64, 6))
    _cores(monkeypatch, 1)  # a rerun after the pooled runs
    assert runs[1][0] == mc.estimate(single, 400, 32, 6)
    assert runs[1] == runs[2] == runs[3]  # every float bit-identical


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_default_workers_get_equal_runs_of_bounded_batches(cores, monkeypatch):
    # 100 self-pair paths at N = 256, d = 3 are 20 groups of 5, in five batches of 4 groups
    spec = mc.ActionSpec("self_double", _F, 1.0, 3, 1.0)
    plans, runs, widths = [], mc._runs, []

    class Pool(mc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            widths.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mc, "_runs", lambda *a: plans.append(runs(*a)) or plans[-1])
    monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
    _cores(monkeypatch, cores)
    mc.estimate(spec, 100, 256, 1)
    (plan,) = plans
    assert mc._DRAW_ELEMENTS // (256 * 3) == 5
    sizes = [[len(batch) for batch in run] for run in plan]
    assert [k for run in plan for batch in run for k in batch] == list(range(20))
    assert max(max(run) for run in sizes) * 5 * 256 * 3 <= mc._BATCH_ELEMENTS
    if cores == 1:  # one worker runs the batches inline
        assert sizes == [[4, 4, 4, 4, 4]] and widths == []
    else:
        totals = list(map(sum, sizes))
        assert len(plan) == cores and max(totals) - min(totals) <= 1
        assert widths == [cores]


def test_runs_split_groups_evenly():
    for n in range(1, 41):
        groups = range(5, 5 + n)
        for size in range(1, n + 1):
            for workers in range(1, 6):
                plan = mc._runs(groups, size, workers)
                batches = [batch for run in plan for batch in run]
                assert [k for batch in batches for k in batch] == list(groups)
                assert max(map(len, batches)) <= size
                if n <= size:  # one batch, inline
                    assert plan == [[groups]]
                    continue
                totals = [sum(map(len, run)) for run in plan]
                assert len(plan) == min(workers, n) and max(totals) - min(totals) <= 1
                for run in plan:  # full batches, the last one shorter
                    assert all(len(batch) == size for batch in run[:-1])


def test_one_batch_starts_no_thread(monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("a worker pool was started")

    _cores(monkeypatch, 4)
    monkeypatch.setattr(mc, "ThreadPoolExecutor", refuse)
    spec = hydrogen_spec()
    ens = mc.PathEnsemble(seed=9, paths=100, steps=16, horizon=1.0, dim=3)
    assert 100 <= mc._make_sampler(spec, 16).batch_paths  # the whole estimate is one batch
    actions = mc._run(mc._make_sampler(spec, 16), ens)[0]
    assert mc.estimate(spec, 100, 16, 9) == mc.summarize_actions(actions, 9, 16)


def test_workers_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert mc._workers() == 5


# ---------------------------------------------------------------------------
# action values
# ---------------------------------------------------------------------------

def test_self_double_matches_hand_computed_sum():
    spec = mc.ActionSpec("self_double", ExpDecay(1.0, 0.7), 1.0, 3, 1.0)
    ens = mc.PathEnsemble(seed=7, paths=1, steps=3, horizon=1.0, dim=3)
    val = mc._run(mc._make_sampler(spec, 3), ens)[0, 0]
    dt = 1.0 / 3.0
    inc = math.sqrt(dt) * ens.generator(0).standard_normal((3, 3))
    nodes = np.cumsum(inc, axis=0)
    brute = 0.0
    for i in range(3):
        for j in range(i):
            gap = (i - j) * dt
            brute += math.exp(-0.7 * gap) / np.linalg.norm(nodes[i] - nodes[j]) * dt * dt
    assert val == pytest.approx(brute, rel=1e-14)


def test_zero_coupling_all_paths_zero():
    est = mc.estimate(mc.ActionSpec("single", Constant(0.0), 1.0, 3, 1.0), 200, 16, 3)
    assert est.log_mean == 0.0
    assert est.stderr_log == 0.0
    assert est.action_mean == 0.0


def test_theta_zero_degenerate_single_action_is_coupling_mass():
    est = mc.estimate(mc.ActionSpec("single", Constant(2.0), 0.0, 3, 1.0), 200, 16, 5)
    assert est.action_mean == pytest.approx(2.0, abs=1e-14)
    assert est.action_stderr == 0.0


def test_cross_double_offset_pushes_action_down():
    near = mc.estimate(mc.ActionSpec("cross_double", Constant(0.3), 1.0, 3, 1.0),
                       300, 32, 11)
    far = mc.estimate(mc.ActionSpec("cross_double", Constant(0.3), 1.0, 3, 1.0,
                                    offset=25.0), 300, 32, 11)
    assert far.action_mean < near.action_mean / 5.0


def test_bipolaron_action_decomposes():
    base = ExpDecay(0.5, 1.0)
    spec = mc.ActionSpec("bipolaron", base, 1.0, 3, 1.0)
    ens = mc.PathEnsemble(seed=3, paths=1, steps=16, horizon=1.0, dim=3)
    val = mc._run(mc._make_sampler(spec, 16), ens)[0, 0]
    # reconstruct from the same stream: cross with doubled coupling + both selfs
    dt = 1.0 / 16.0
    rng = ens.generator(0)
    x = np.cumsum(math.sqrt(dt) * rng.standard_normal((16, 3)), axis=0)
    y = np.cumsum(math.sqrt(dt) * rng.standard_normal((16, 3)), axis=0)
    tot = 0.0
    for i in range(16):
        for j in range(i):
            w = 0.5 * math.exp(-(i - j) * dt) * dt * dt
            tot += 2.0 * w / np.linalg.norm(x[i] - y[j])
            tot += w / np.linalg.norm(x[i] - x[j])
            tot += w / np.linalg.norm(y[i] - y[j])
    assert val == pytest.approx(tot, rel=1e-12)


def _dense_pair_action(spec, ens, m):
    """Long-double sum over every node pair i > j, from the kernel's double nodes and weights."""
    n, parts = ens.steps, 1 if spec.kind == "self_double" else 2
    dt = spec.T / n
    z = _path_normals(ens, parts * n, m)
    nodes = [np.cumsum(math.sqrt(dt) * z[p * n:(p + 1) * n], axis=0).astype(np.longdouble)
             for p in range(parts)]
    i, j = np.tril_indices(n, -1)
    w = np.asarray(evaluate(spec.f, (i - j) * dt), dtype=float) * dt * dt

    def term(scale, a, b, offset):
        diff = nodes[a][i] - nodes[b][j]
        diff[:, 0] += offset
        r2 = (diff * diff).sum(axis=1) + np.longdouble(spec.epsilon) ** 2
        return (scale * w * r2 ** (-np.longdouble(spec.theta) / 2)).sum()

    if spec.kind == "self_double":
        return term(1.0, 0, 0, 0.0)
    if spec.kind == "cross_double":
        return term(1.0, 0, 1, spec.offset)
    return term(2.0, 0, 1, spec.offset) + term(1.0, 0, 0, 0.0) + term(1.0, 1, 1, 0.0)


# Step counts leave a partial last block of rows (one case is exactly one
# block); the indicator cutoffs fall mid-horizon, so the kernel's lag band
# stops short of N.
@pytest.mark.parametrize("kind, f, theta, d, T, offset, eps, steps", [
    ("self_double", ExpDecay(0.4, 1.0), 1.0, 3, 1.0, 0.0, 0.0, 100),
    ("self_double", Indicator(1.0, 0.7), 1.4, 3, 2.0, 0.0, 0.0, 101),
    ("self_double", ExpDecay(0.4, 1.0), 1.0, 1, 1.0, 0.0, 0.02, 17),
    ("cross_double", ExpDecay(0.4, 1.0), 1.4, 3, 1.0, 0.5, 0.0, 50),
    ("cross_double", Indicator(0.8, 0.5), 1.0, 2, 1.0, 0.3, 0.05, 64),
    ("bipolaron", ExpDecay(0.5, 1.0), 1.0, 3, 1.0, 0.0, 0.0, 67),
    ("bipolaron", Indicator(1.0, 1.2), 1.4, 3, 2.0, 0.2, 0.1, 33),
])
def test_pair_action_matches_long_double_dense_sum(kind, f, theta, d, T, offset, eps, steps):
    spec = mc.ActionSpec(kind, f, theta, d, T, offset=offset, epsilon=eps)
    ens = mc.PathEnsemble(seed=13, paths=5, steps=steps, horizon=T, dim=d)
    got = mc._run(mc._PairSampler(spec, steps), ens)[0]
    for m in range(5):
        assert got[m] == pytest.approx(float(_dense_pair_action(spec, ens, m)), rel=1e-13)


@pytest.mark.parametrize("kind, f, theta", [("self_double", ExpDecay(0.4, 1.0), 1.0),
                                            ("cross_double", Indicator(0.8, 0.6), 1.3),
                                            ("bipolaron", Indicator(0.8, 0.6), 1.0)])
def test_pair_actions_independent_of_batch_size_and_threads(kind, f, theta, monkeypatch):
    spec = mc.ActionSpec(kind, f, theta, 3, 1.0, offset=0.4)
    ens = mc.PathEnsemble(seed=4, paths=23, steps=70, horizon=1.0, dim=3)
    sampler = mc._PairSampler(spec, 70)
    chunk, budget = mc._CHUNK_ROWS, mc._BATCH_ELEMENTS
    base = mc._run(sampler, ens)
    for rows in (chunk, 16, 32):  # the default chunk, then one and two row blocks per cdist call
        monkeypatch.setattr(mc, "_CHUNK_ROWS", rows)
        for paths in (None, 1, 3):  # the default budget, then one and three paths per batch
            monkeypatch.setattr(mc, "_BATCH_ELEMENTS", paths * sampler.rows * 3 if paths else budget)
            resized = mc._PairSampler(spec, 70)  # a sampler reads its batch budget when built
            assert resized.batch_paths == (paths or budget // sampler.draws)
            for cores in (1, 3):
                _cores(monkeypatch, cores)
                assert np.array_equal(mc._run(resized, ens), base)


class _RowBlockPairSampler(mc._PairSampler):
    """Reference pair kernel in plain numpy: component-major nodes, and per block of
    ``_BLOCK_ROWS`` rows one subtract, square and add per coordinate, epsilon^2 added
    after the first.  The cdist kernel must match it byte for byte."""

    def __call__(self, z, n):
        (_, steps, d), K, L = self.block, mc._BLOCK_ROWS, self.band
        eps2 = self.eps ** 2
        nodes = (self.sq * z[:n]).cumsum(axis=2).transpose(0, 1, 3, 2).copy()
        bufs = [np.empty(n * K * min(steps - 1, K - 1 + L)) for _ in range(2)]
        out = np.zeros(n)
        for W, a, b, offset in self.terms:
            x, y = nodes[:, a], nodes[:, b] - offset * np.eye(d, 1)
            for i0 in range(1, steps, K):
                i1, j0 = min(i0 + K, steps), max(0, i0 - L)
                r2, diff = (buf[:n * (i1 - i0) * (i1 - 1 - j0)].reshape(n, i1 - i0, -1) for buf in bufs)
                for c in range(d):
                    dc = diff if c else r2
                    np.subtract(x[:, c, i0:i1, None], y[:, c, None, j0:i1 - 1], out=dc)
                    dc *= dc
                    if c:
                        r2 += dc
                    elif eps2:
                        r2 += eps2
                wb = W[i0:i1, j0:i1 - 1]
                np.copyto(r2[:, :, i0 - j0:], 1.0, where=wb[:, i0 - j0:] == 0.0)
                with np.errstate(divide="ignore"):
                    if self.theta == 1.0:
                        np.divide(wb, np.sqrt(r2, out=r2), out=r2)
                    else:
                        np.multiply(np.power(r2, -self.theta / 2.0, out=r2), wb, out=r2)
                out += r2.sum(axis=(1, 2))
        return out


# 17 steps fill one row block and part of a chunk; 67, 101 and 300 leave a partial
# last block and chunk.  The indicator's lag band stops short of N.
@pytest.mark.parametrize("f", [ExpDecay(0.4, 1.0), Indicator(0.8, 0.37)])
@pytest.mark.parametrize("kind", ["self_double", "cross_double", "bipolaron"])
def test_pair_kernel_matches_the_row_block_reference_byte_for_byte(kind, f):
    offsets = (0.0,) if kind == "self_double" else (0.0, 0.4)
    for theta, eps, offset, d, steps in itertools.product(
            (1.0, 1.4), (0.0, 0.05), offsets, (1, 2, 3, 5), (17, 67, 101, 300)):
        spec = mc.ActionSpec(kind, f, theta, d, 1.0, offset=offset, epsilon=eps)
        ens = mc.PathEnsemble(seed=21, paths=3, steps=steps, horizon=1.0, dim=d)
        got = mc._run(mc._PairSampler(spec, steps), ens)
        want = mc._run(_RowBlockPairSampler(spec, steps), ens)
        assert got.tobytes() == want.tobytes(), (theta, eps, offset, d, steps)


@pytest.mark.parametrize("d", range(1, 9))
def test_cdist_is_the_sequential_coordinate_sum(d):
    # the pair kernel's bit identity rests on cdist summing ((d_0^2 + d_1^2) + d_2^2) + ...
    # with no reordering and no fused multiply-add, and on 'euclidean' being its sqrt
    rng = np.random.default_rng(d)
    x, y = rng.standard_normal((2, 150, d)) * 10.0 ** rng.uniform(-150, 150, (2, 150, 1))
    x[:5] = 1e156 * rng.standard_normal((5, d))  # their squares overflow to inf
    with np.errstate(over="ignore"):
        r2 = functools.reduce(np.add, [(x[:, None, c] - y[None, :, c]) ** 2 for c in range(d)])
    assert np.isinf(r2).any() and (r2 < 1e-250).any()
    assert cdist(x, y, "sqeuclidean").tobytes() == r2.tobytes()
    assert cdist(x, y, "euclidean").tobytes() == np.sqrt(r2).tobytes()


@pytest.mark.parametrize("kind", ["self_double", "bipolaron"])
def test_pair_kernel_holds_no_quadratic_table(kind):
    # at N = 1024 a batch's traced peak is its normals, nodes, one chunk of cdist
    # distances and one row-block buffer; pair-index and per-pair weight tables took 24-28 MB
    spec = mc.ActionSpec(kind, ExpDecay(0.4, 1.0), 1.0, 3, 1.0)
    ens = mc.PathEnsemble(seed=2, paths=6, steps=1024, horizon=1.0, dim=3)
    tracemalloc.start()
    try:
        mc._run(mc._PairSampler(spec, 1024), ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_single_sampler_peak_memory_is_bounded(monkeypatch):
    # a worker's traced peak is its two path-major draw buffers (16 bytes a path-step,
    # _RADIAL_ELEMENTS path-steps: 2 MB), the block's step-major scaled draws and radii
    # (0.2 MB) and one block of the moment pass (every offset, _BATCH_ELEMENTS doubles,
    # with at most two gathered coefficient rows at once: about 0.6 MB), 2.8 MB in all
    # (3.3 MB with all seven rows gathered at once); a wider batch or block would show
    # here before it shows in peak RSS
    spec = mc.ActionSpec("single", ExpDecay(0.4, 1.0), 1.2, 3, 1.0, epsilon=0.1)
    ens = mc.PathEnsemble(seed=2, paths=400, steps=1024, horizon=1.0, dim=3)
    sampler = mc._SingleSampler(spec, 1024, (0.0, 0.3, 1.0))
    _cores(monkeypatch, 1)
    assert -(-ens.paths // sampler.batch_paths) >= 3
    tracemalloc.start()
    try:
        mc._run(sampler, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_infinite_path_flagged_not_clamped():
    actions = np.array([0.1, math.inf, 0.2, 0.3])
    est = mc.summarize_actions(actions, seed=0, steps=16)
    assert est.infinite_paths == 1
    assert math.isfinite(est.log_mean)
    assert est.paths == 4


# ---------------------------------------------------------------------------
# Rao-Blackwellised midpoints
# ---------------------------------------------------------------------------

def _moment_reference(theta, d, eps, dt, r):
    """E[(|Z|^2 + eps^2)^(-theta/2)] for Z ~ N(r e_1, (dt/4) I_d), by mpmath.

    With a = theta/2, b = (d - theta)/2, s^2 = dt/4, x = r^2/(2 s^2) and
    c = eps^2/(2 s^2) it is (2 s^2)^-a / Gamma(a) times the integral over [0, 1]
    of u^(a-1) (1-u)^(b-1) exp(-c u/(1-u) - x u); at eps = 0 that is
    (2 s^2)^-a Gamma(b)/Gamma(d/2) 1F1(a; d/2; -x).  The substitutions
    u = t^(1/a) and 1 - u = t^(1/b) remove the weight's endpoint powers, whose
    mass near the endpoints the tanh-sinh rule would otherwise cut off.  For
    c > 0 the factor exp(-c u/(1-u)) is about exp(-(c^b/t)^(1/b)) in the second
    integral, a switch within a factor e^(8b) of t = c^b (steep when b is
    small), so that integral is cut at c^b e^(bj), j = -8..8.
    """
    a, b = mp.mpf(theta) / 2, mp.mpf(d - theta) / 2
    x, c = mp.mpf(r) ** 2 / (mp.mpf(dt) / 2), mp.mpf(eps) ** 2 / (mp.mpf(dt) / 2)
    if c == 0:
        beta = mp.gamma(b) / mp.gamma(a + b) * mp.hyp1f1(a, a + b, -x)
    else:
        def g(u, v):  # u and v = 1 - u, each to full relative precision
            return mp.exp(-c * u / v - x * u)

        m = min(mp.mpf(1) / 2, 1 / (x + c + d))
        low = mp.quad(lambda t: (1 - t ** (1 / a)) ** (b - 1) * g(t ** (1 / a), 1 - t ** (1 / a)),
                      [0, (m / 4) ** a, m ** a]) / a
        top = (1 - m) ** b
        cuts = [c ** b * mp.exp(b * j) for j in range(-8, 9)]
        high = mp.quad(lambda t: (1 - t ** (1 / b)) ** (a - 1) * g(1 - t ** (1 / b), t ** (1 / b)),
                       [0, *(t for t in cuts if t < top), top]) / b
        beta = (low + high) / mp.gamma(a)
    return (mp.mpf(dt) / 2) ** -a * beta


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.3, 1.6, 1.9])
def test_midpoint_moment_matches_mpmath(theta):
    # r in units of the midpoint's standard deviation s, from 0 into the 1/r^theta tail
    worst = 0.0
    for d in range(math.floor(theta) + 1, 6):
        for eps in (0.0, 0.05, 0.2):
            for dt in (1 / 16, 1 / 512):
                spec = mc.ActionSpec("single", Constant(1.0), theta, d, 1.0, epsilon=eps)
                sampler = mc._SingleSampler(spec, round(1 / dt), (0.0,))
                units = [0.0, 0.3, 1.0, 3.0, 10.0, 100.0] if eps == 0 else [0.0, 1.0, 3.0, 30.0]
                r = math.sqrt(dt) / 2 * np.array(units)
                got = sampler._moment(r * r)
                with mp.workdps(20):
                    want = [float(_moment_reference(theta, d, eps, dt, v)) for v in r]
                worst = max(worst, float(np.abs(got / want - 1.0).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("d", [100, 1000, 7097])
def test_midpoint_moment_matches_mpmath_at_large_dimension(d):
    # X0 = max(8, d/2) follows the moment's change out to x of order d/2: with X0 = 8 the
    # worst error was 1.8e-13 at d 100, 1.7e-6 at d 1000 and 3.6e-3 at d 7097
    worst, dt = 0.0, 1 / 16
    for theta, eps in ((1.0, 0.0), (1.5, 0.0), (0.5, 0.05), (1.9, 0.2)):
        spec = mc.ActionSpec("single", Constant(1.0), theta, d, 1.0, epsilon=eps)
        sampler = mc._SingleSampler(spec, round(1 / dt), (0.0,))
        r = math.sqrt(d * dt) / 2 * np.array([0.0, 0.3, 1.0, 3.0, 10.0, 100.0])
        got = sampler._moment(r * r)
        with mp.workdps(20):
            want = [float(_moment_reference(theta, d, eps, dt, v)) for v in r]
        worst = max(worst, float(np.abs(got / want - 1.0).max()))
    assert worst <= 1e-12


def _radial_draws(z: np.ndarray, offset: float, sq: float) -> np.ndarray:
    """The (Z1, C / 2) draws, as a path-major (2, 1, N) batch, under which the radial chain
    from |offset| retraces the path X_k = offset e_1 + sq (z_0 + ... + z_(k-1)) of the (N, d)
    normals z: Z1 = z_k . e and C = |z_k - Z1 e|^2, e = X_k / |X_k| (e_1 at 0)."""
    x, draws = offset * np.eye(1, z.shape[1])[0], np.empty((2, 1, len(z)))
    for k, zk in enumerate(z):
        r = np.linalg.norm(x)
        e = x / r if r else np.eye(1, len(x))[0]
        draws[0, 0, k] = z1 = float(np.sum(zk * e))
        draws[1, 0, k] = float(np.sum((zk - z1 * e) ** 2)) / 2.0
        x = x + sq * zk
    return draws


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("offset", [0.0, 0.7])
def test_radial_chain_retraces_the_path_norms(d, offset):
    # the chain is the path's norms, step by step, not just in law: fed the radial
    # components of a given path, it returns its |mu_k|^2 and |X_N| to rounding
    steps, T = 16, 1.0
    spec = mc.ActionSpec("single", _F, 1.0, d, T, epsilon=0.1)
    sq = math.sqrt(T / steps)
    for seed in range(5):
        z = np.random.default_rng(seed).standard_normal((steps, d))
        nodes = offset * np.eye(1, d) + np.concatenate([np.zeros((1, d)), np.cumsum(sq * z, axis=0)])
        mids = nodes[:-1] + 0.5 * sq * z
        sampler = mc._SingleSampler(spec, steps, (offset,))
        ends, mu2 = [], []
        for _, r, m in sampler._midpoint_norms(_radial_draws(z, offset, sq)):
            ends.append(r[0, 0])
            mu2.append(m[:, 0, 0].copy())
        assert np.allclose(np.concatenate(mu2), np.sum(mids * mids, axis=1), rtol=1e-12, atol=0)
        assert ends[-1] == pytest.approx(np.linalg.norm(nodes[-1]), rel=1e-12)


@pytest.mark.parametrize("theta, d, eps, offset", [(1.0, 3, 0.0, 0.0), (1.3, 3, 0.05, 0.4),
                                                   (1.2, 4, 0.0, 0.2)])
def test_midpoint_expectation_is_the_mean_over_bridge_draws(theta, d, eps, offset):
    # for fixed increments, the action is the mean of the bridge-sampled midpoint action
    steps, T, draws = 16, 1.0, 40_000
    spec = mc.ActionSpec("single", ExpDecay(0.7, 1.0), theta, d, T, offset=offset, epsilon=eps)
    z = np.random.default_rng(3).standard_normal((1, steps, d))
    sampler = mc._SingleSampler(spec, steps, (offset,))
    sq = math.sqrt(T / steps)
    value = sampler(_radial_draws(z[0], offset, sq), 1)[0, 0]
    mids = np.cumsum(sq * z[0], axis=0) - 0.5 * sq * z[0] + offset * np.eye(1, d)
    mids = mids + 0.5 * sq * np.random.default_rng(4).standard_normal((draws, steps, d))
    old = ((np.sum(mids * mids, axis=2) + eps * eps) ** (-theta / 2.0) * sampler.fw).sum(axis=1)
    assert abs(value - old.mean()) <= 4.0 * old.std(ddof=1) / math.sqrt(draws)


class _StepMajorSingleSampler(mc._SingleSampler):
    """Reference single action: each group's draws transposed into step-major (2, N, size)
    buffers, the whole batch scaled in place, and every coefficient of a moment block in
    one (degree + 1, ...) gather.  The path-major sampler must match it byte for byte."""

    def buffers(self, size):
        return np.zeros((2, self.steps, size))

    def draw(self, stream, buffers, n, count):
        buffers[0, :, n:n + count] = stream(0).standard_normal((count, self.steps)).T
        if self.shape:
            buffers[1, :, n:n + count] = stream(1).standard_gamma(self.shape, (count, self.steps)).T

    def _moment(self, y):
        q = y + self.y0
        u = np.divide(y, q, out=y)
        u *= mc._CELLS
        cell = u.astype(np.intp)
        u -= cell + 0.5
        g, *coeffs = np.take(self.table, cell, axis=1)[::-1]
        for coeff in coeffs:
            g *= u
            g += coeff
        if self.theta == 1.0:
            return np.divide(g, np.sqrt(q, out=q), out=g)
        q **= -self.theta / 2.0
        return np.multiply(g, q, out=g)

    def _midpoint_norms(self, draws):
        z, c = draws
        s = np.multiply(z, self.sq, out=z)
        np.multiply(c, 2.0 * self.dt, out=c)
        offsets, n = len(self.offsets), z.shape[1]
        rows = max(1, min(self.steps, mc._BATCH_ELEMENTS // (offsets * n)))
        r = np.empty((rows + 1, offsets, n))
        r[-1] = np.abs(self.offsets)[:, None]
        for k0 in range(0, self.steps, rows):
            k1 = min(k0 + rows, self.steps)
            radii, sk, ck = r[:k1 - k0 + 1], s[k0:k1], c[k0:k1]
            radii[0] = r[-1]
            chain = radii[:, 0] if offsets == 1 else radii
            for rk, nxt, step, chi in zip(chain, chain[1:], sk, ck):
                np.add(rk, step, out=nxt)
                np.multiply(nxt, nxt, out=nxt)
                np.add(nxt, chi, out=nxt)
                np.sqrt(nxt, out=nxt)
            sk *= 0.5
            ck *= 0.25
            mu2 = np.add(radii[:-1], sk[:, None], out=radii[:-1])
            mu2 *= mu2
            mu2 += ck[:, None]
            yield k0, radii[-1], mu2

    def __call__(self, buffers, n):
        out = np.zeros((len(self.offsets), n))
        for k0, _, mu2 in self._midpoint_norms(buffers[:, :, :n]):
            terms = self._moment(mu2)
            terms *= self.fw[k0:k0 + len(terms), None, None]
            for term in terms:
                out += term
        return out


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_single_sampler_matches_the_step_major_reference_byte_for_byte(d, monkeypatch):
    # batch_paths + G + 1 paths end in a group of one path and a batch of G + 1; at
    # d = 1 and epsilon 0 the midpoint moment is infinite and neither sampler is built
    for offsets, theta, eps, steps in itertools.product(
            ((0.0,), (0.0, 0.3, 1.0)), (1.0, 1.2), (0.0, 0.1), (16, 64, 256, 512)):
        if theta >= d and not eps:
            continue
        spec = mc.ActionSpec("single", _F, theta, d, 1.0, epsilon=eps)
        sampler, want = mc._SingleSampler(spec, steps, offsets), _StepMajorSingleSampler(spec, steps, offsets)
        G = mc._DRAW_ELEMENTS // sampler.draws
        ens = mc.PathEnsemble(seed=17, paths=sampler.batch_paths + G + 1, steps=steps, horizon=1.0, dim=d)
        for cores in (1, 3):
            _cores(monkeypatch, cores)
            got = mc._run(sampler, ens)
            assert got.tobytes() == mc._run(want, ens).tobytes(), (offsets, theta, eps, steps, cores)


class _RadialNorms(mc._SingleSampler):
    """Single-action sampler that returns each path's |mu_k|^2 (k < N), then |Y_N|^2."""

    def __call__(self, buffers, n):
        rows = []
        for _, end, mu2 in self._midpoint_norms(buffers[:, :n]):
            rows.append(mu2[:, 0].copy())
        return np.concatenate(rows + [end ** 2])


@pytest.mark.parametrize("d", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("offset", [0.0, 0.7])
def test_radial_draw_has_the_brownian_law(d, offset):
    # E|mu_k|^2 = offset^2 + d (k + 1/4) dt and E|Y_N|^2 = offset^2 + d T, each within 4 se;
    # from the origin at d >= 3, where |Y_N|^-1 has a finite variance, E|Y_N|^-1 = K T^(-1/2)
    steps, T, paths = 16, 1.0, 20_000
    spec = mc.ActionSpec("single", _F, 1.0, d, T, epsilon=0.1)
    ens = mc.PathEnsemble(seed=31, paths=paths, steps=steps, horizon=T, dim=d)
    norms = mc._run(_RadialNorms(spec, steps, (offset,)), ens)
    dt = T / steps
    want = offset ** 2 + d * dt * np.append(np.arange(steps) + 0.25, steps)
    se = norms.std(axis=1, ddof=1) / math.sqrt(paths)
    assert np.all(np.abs(norms.mean(axis=1) - want) <= 4.0 * se)
    if offset == 0.0 and d >= 3:
        inverse = norms[-1] ** -0.5
        want = kernels.expectation_constant(1.0, d) / math.sqrt(T)
        assert abs(inverse.mean() - want) <= 4.0 * inverse.std(ddof=1) / math.sqrt(paths)


@pytest.mark.parametrize("theta, d", [(1.0, 3), (1.5, 3), (1.9, 2), (0.5, 1)])
def test_single_actions_stay_below_the_midpoint_cap(theta, d):
    # at epsilon = 0, E(y) <= E(0) = Gamma((d-theta)/2)/Gamma(d/2) (dt/2)^(-theta/2)
    f, T, steps = ExpDecay(0.7, 1.0), 1.0, 64
    sampler = mc._SingleSampler(mc.ActionSpec("single", f, theta, d, T), steps, (0.0,))
    unit = math.exp(math.lgamma((d - theta) / 2) - math.lgamma(d / 2)) * (T / steps / 2) ** (-theta / 2)
    assert sampler._moment(np.zeros(1))[0] == pytest.approx(unit, rel=1e-12)
    ens = mc.PathEnsemble(seed=5, paths=2000, steps=steps, horizon=T, dim=d)
    assert mc._run(sampler, ens)[0].max() <= sampler.fw.sum() * unit


def test_raw_singularity_at_theta_one_point_five_has_a_finite_moment():
    # bridge-sampled midpoints gave this action an infinite exponential moment
    spec = mc.ActionSpec("single", Constant(0.5), 1.5, 3, 1.0)
    est = mc.estimate(spec, 20_000, 256, 11)
    bound = theorem_bound(1, Constant(0.5), BoundParams(1.5, 3, 1.0)).log_bound
    assert est.infinite_paths == 0
    assert math.isfinite(est.stderr_log)
    assert est.log_mean < bound


@pytest.mark.parametrize("theta, d", [(1.0, 1), (1.5, 1), (2.0, 2)])
def test_single_action_rejects_an_infinite_midpoint_moment(theta, d):
    with pytest.raises(DomainError, match="infinite"):
        mc.estimate(mc.ActionSpec("single", Constant(0.5), theta, d, 1.0), 100, 16, 1)
    est = mc.estimate(mc.ActionSpec("single", Constant(0.5), theta, d, 1.0, epsilon=0.1), 100, 16, 1)
    assert math.isfinite(est.log_mean)


def test_moment_table_is_finite_where_its_tail_sum_underflows():
    # at b = (d - theta)/2 past 3544 the tail sum's 1/(e^(b h) - 1) overflowed
    # math.expm1, and `model --dim 7097 ... verify` ended in a traceback
    assert np.isfinite(mc._moment_table.__wrapped__(1.0, 7097, 0.0)).all()


def _table_peak(theta, d, c) -> int:
    tracemalloc.start()
    try:
        mc._moment_table.__wrapped__(theta, d, c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("eps", [1e-150, 1e-30])
def test_tiny_epsilon_moment_table_is_accurate_and_as_small_as_epsilon_zero(eps):
    # a c = eps^2/(2 s^2) far below 1 only cuts the integrand past the c = 0 grid's
    # end, so the table takes the c = 0 grid and tail sum, not a grid out to ln(50/c)
    theta, d, steps = 1.2, 3, 256
    dt = 1.0 / steps
    sampler = mc._SingleSampler(mc.ActionSpec("single", Constant(1.0), theta, d, 1.0, epsilon=eps),
                                steps, (0.0,))
    r = math.sqrt(dt) / 2 * np.array([0.0, 0.3, 1.0, 3.0, 10.0, 100.0])
    got = sampler._moment(r * r)
    with mp.workdps(20):
        want = np.array([float(_moment_reference(theta, d, eps, dt, v)) for v in r])
    assert np.abs(got / want - 1.0).max() <= 1e-12
    assert _table_peak(theta, d, eps * eps / (dt / 2)) <= 2 * _table_peak(theta, d, 0.0)


@pytest.mark.parametrize("eps", [1e-150, 1e-30])
def test_tiny_epsilon_near_theta_equal_d_takes_the_short_grid(eps):
    # b = (d - theta)/2 = 0.05: c^b is far above rounding, so the c = 0 tail sum
    # needs its leading correction e^-x c^b Gamma(1 - b)/b to serve
    theta, d, steps = 1.9, 2, 256
    dt = 1.0 / steps
    sampler = mc._SingleSampler(mc.ActionSpec("single", Constant(1.0), theta, d, 1.0, epsilon=eps),
                                steps, (0.0,))
    r = math.sqrt(dt) / 2 * np.array([0.0, 0.3, 1.0, 3.0, 10.0, 100.0])
    got = sampler._moment(r * r)
    with mp.workdps(20):
        want = np.array([float(_moment_reference(theta, d, eps, dt, v)) for v in r])
    assert np.abs(got / want - 1.0).max() <= 1e-12
    assert _table_peak(theta, d, eps * eps / (dt / 2)) <= 2 * _table_peak(theta, d, 0.0)


# ---------------------------------------------------------------------------
# exact expectation of the discretised action
# ---------------------------------------------------------------------------

def _coupling_cases():
    """(coupling, its mpmath value at t) pairs: the indicator cuts and the
    table steps between grid points of every N used below."""
    grid, values = (0.0, 0.3, 0.7, 1.0), (0.9, 0.4, 1.3, 1.3)
    return [
        (Constant(0.6), lambda t: mp.mpf("0.6")),
        (ExpDecay(0.7, 1.3), lambda t: mp.mpf("0.7") * mp.exp(-mp.mpf("1.3") * t)),
        (Indicator(1.1, 0.55), lambda t: mp.mpf("1.1") if t <= mp.mpf("0.55") else mp.mpf(0)),
        (Tabulated(grid, values),
         lambda t: mp.mpf(values[max(k for k, g in enumerate(grid) if g <= t)])),
    ]


def _discrete_expectation_mpmath(kind, value, theta, d, T, steps):
    T, N = mp.mpf(T), steps
    dt, a = T / N, mp.mpf(theta) / 2
    K = mp.gamma((d - mp.mpf(theta)) / 2) / mp.gamma(mp.mpf(d) / 2) / 2 ** a
    if kind == "single":
        t = [(k + mp.mpf(1) / 2) * dt for k in range(N)]
        return K * mp.fsum(value(s) * dt * s ** -a for s in t)
    return K * mp.fsum((N - lag) * value(lag * dt) * dt * dt * (lag * dt) ** -a for lag in range(1, N))


@pytest.mark.parametrize("kind", ["single", "self_double"])
@pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
def test_discrete_expectation_matches_mpmath_sum(kind, theta):
    worst = 0.0
    with mp.workdps(30):
        for f, value in _coupling_cases():
            for d in (3, 4):
                for steps in (16, 256, 1024):
                    got = mc.discrete_expectation(mc.ActionSpec(kind, f, theta, d, 1.0), steps)
                    want = _discrete_expectation_mpmath(kind, value, theta, d, 1.0, steps)
                    worst = max(worst, abs(float(got / want - 1)))
    assert worst <= 1e-13


@pytest.mark.parametrize("kind, paths", [("single", 4000), ("self_double", 1000)])
def test_discrete_expectation_is_the_mean_action(kind, paths):
    # tower property: the sampled actions (midpoint terms Rao-Blackwellised) average to E[A_N]
    spec = mc.ActionSpec(kind, ExpDecay(0.7, 1.0), 1.2, 3, 1.5)
    acts = mc._run(mc._make_sampler(spec, 64), mc.PathEnsemble(7, paths, 64, 1.5, 3))[0]
    se = acts.std(ddof=1) / math.sqrt(paths)
    assert abs(acts.mean() - mc.discrete_expectation(spec, 64)) <= 4.0 * se


@pytest.mark.parametrize("kind, offset, epsilon", [
    ("cross_double", 0.0, 0.0), ("bipolaron", 0.0, 0.0),
    ("single", 0.3, 0.0), ("self_double", 0.0, 0.05), ("single", 0.0, 1e-300)])
def test_discrete_expectation_rejects_what_it_cannot_sum(kind, offset, epsilon):
    spec = mc.ActionSpec(kind, ExpDecay(0.7, 1.0), 1.0, 3, 1.0, offset=offset, epsilon=epsilon)
    with pytest.raises(DomainError, match="no exact"):
        mc.discrete_expectation(spec, 64)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_sample_jensen_holds_exactly():
    est = mc.estimate(hydrogen_spec(), 500, 64, 21)
    assert est.action_mean <= est.log_mean + 1e-12


@pytest.mark.parametrize("field", ["T", "offset", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_action_spec_rejects_non_finite_inputs(field, value):
    kw = {"T": 1.0, "offset": 0.0, "epsilon": 0.0, field: value}
    with pytest.raises(DomainError):
        mc.ActionSpec("single", Constant(0.5), 1.0, 3, **kw)


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_path_ensemble_rejects_non_finite_horizon(horizon):
    with pytest.raises(DomainError):
        mc.PathEnsemble(seed=1, paths=10, steps=16, horizon=horizon, dim=3)



@pytest.mark.parametrize("field, value", [("seed", 1.5), ("paths", 100.5), ("steps", 16.0),
                                          ("dim", 3.0), ("paths", True)])
def test_path_ensemble_rejects_non_integers(field, value):
    kw = {"seed": 1, "paths": 100, "steps": 16, "horizon": 1.0, "dim": 3, field: value}
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        mc.PathEnsemble(**kw)


def test_path_ensemble_accepts_numpy_integers():
    ens = mc.PathEnsemble(seed=np.uint64(2 ** 64 - 1), paths=np.int64(100), steps=16,
                          horizon=1.0, dim=np.int32(3))
    assert ens.paths == 100

def test_estimate_budget_floor():
    with pytest.raises(DomainError):
        mc.estimate(hydrogen_spec(), 50, 64, 0)
    with pytest.raises(DomainError):
        mc.estimate(hydrogen_spec(), 200, 8, 0)


@pytest.mark.parametrize("paths, steps", [(1, 1), (3, 4), (99, 64), (200, 15)])
@pytest.mark.parametrize("check", [
    lambda M, N: mc.maximality_check(hydrogen_spec(), [1.0], M, N, 0),
    lambda M, N: mc.martingale_lemma_check(0.5, 1.0, 3, M, N, 0),
    lambda M, N: mc.martingale_lemma_check(0.5, 1.0, 3, M, N, 0, truncation=0.0),
], ids=["maximality", "martingale", "martingale_truncated"])
def test_structured_checks_enforce_the_budget_floor(check, paths, steps):
    # below M = 100 or N = 16 the batch-means error is NaN or meaningless,
    # and a 3-standard-error verdict read from it says nothing
    with pytest.raises(DomainError, match="need at least"):
        check(paths, steps)


def test_hydrogen_estimate_in_theory_window():
    # small-budget version of the closed-form sandwich
    est = mc.estimate(hydrogen_spec(), 20_000, 256, 7)
    jensen = 2 * math.sqrt(2 / math.pi) * 0.5
    upper = theorem_bound(1, Constant(0.5), BoundParams(1.0, 3, 1.0)).log_bound
    slack = 3 * est.stderr_log + 0.05  # generous grid allowance at N=256
    assert jensen - slack <= est.log_mean <= upper + slack


def test_grid_convergence_cauchy():
    spec = hydrogen_spec()
    lms = [mc.estimate(spec, 40_000, n, 99).log_mean for n in (64, 128, 256, 512)]
    gaps = [abs(b - a) for a, b in zip(lms, lms[1:])]
    assert gaps[-1] < gaps[0]


def test_action_mean_matches_expectation_after_ladder_extrapolation():
    # fit bias(N) = -C dt^(1-theta/2) on N in {128, 256, 512}; extrapolated
    # value must land within 1% of the closed-form expectation
    alpha, T = 0.5, 1.0
    expected = kernels.expected_action("single", Constant(alpha),
                                       BoundParams(1.0, 3, T)).value
    spec = hydrogen_spec(alpha, T)
    ladder = {}
    for n in (128, 256, 512):
        est = mc.estimate(spec, 30_000, n, 4242)
        ladder[n] = est
    q = 0.5
    num = sum((expected - ladder[n].action_mean) * (T / n) ** q for n in ladder)
    den = sum((T / n) ** (2 * q) for n in ladder)
    c_fit = num / den
    extrapolated = ladder[512].action_mean + c_fit * (T / 512) ** q
    assert extrapolated == pytest.approx(expected, rel=0.01)


def test_clark_ocone_variance_dominates_sample_variance():
    # Var(action) <= (2 alpha/(d-1))^2 T for the constant-coupling single action
    alpha, T = 0.5, 1.0
    est = mc.estimate(hydrogen_spec(alpha, T), 20_000, 256, 17)
    sample_var = est.action_stderr ** 2 * 20_000
    bound = kernels.clark_ocone_variance_bound(Constant(alpha), 3, T)
    # 3 standard errors of a variance estimate ~ sqrt(2/M) relative
    assert sample_var <= bound * (1 + 3 * math.sqrt(2 / 20_000))


@pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 300.0])
def test_summarize_actions_matches_mpmath_log_mean_exp(scale):
    acts = scale * np.random.default_rng(17).uniform(0.5, 1.5, 401)
    est = mc.summarize_actions(acts, 0, 16)
    with mp.workdps(60):
        exact = mp.log1p(mp.fsum(mp.expm1(mp.mpf(a)) for a in acts) / len(acts))
    assert abs(est.log_mean - float(exact)) <= 1e-14 * abs(float(exact))
    assert est.stderr_log > 0.0 and est.action_stderr > 0.0
    assert mc.summarize_actions(np.full(400, scale), 0, 16).stderr_log == 0.0


# ---------------------------------------------------------------------------
# structured checks
# ---------------------------------------------------------------------------

def test_martingale_identity_cases():
    flat = mc.martingale_lemma_check(0.0, 1.0, 3, 500, 32, 1)
    assert flat.log_mean == 0.0
    assert flat.log_ceiling == 0.0
    eq = mc.martingale_lemma_check(1.0, 1.0, 3, 30_000, 64, 2)
    assert eq.equality_within_3se
    trunc = mc.martingale_lemma_check(1.0, 1.0, 3, 30_000, 64, 2, truncation=0.0)
    assert trunc.strictly_below_3se
    # exact value of the truncated moment: P(X>0) + e^(1/2) Phi(-1)
    exact = math.log(0.5 + math.exp(0.5) * 0.15865525393145707)
    assert trunc.log_mean == pytest.approx(exact, abs=4 * trunc.stderr_log)


def test_martingale_equality_at_a_tiny_coupling_needs_no_margin():
    # the actions differ by about 1e-18, far below an ulp of 1: the weights less one keep them
    chk = mc.martingale_lemma_check(1e-18, 1.0, 3, 400, 32, 5)
    assert chk.stderr_log > 0.0
    assert abs(chk.gap) <= 3.0 * chk.stderr_log
    assert chk.equality_within_3se


def test_martingale_check_draws_one_coordinate():
    # only X_T^(1) enters the affine action, so d does not change a bit
    assert (mc.martingale_lemma_check(0.7, 1.0, 1, 300, 16, 3, truncation=0.2)
            == mc.martingale_lemma_check(0.7, 1.0, 3, 300, 16, 3, truncation=0.2))


def test_maximality_rows_decreasing_with_crn():
    rows = mc.maximality_check(hydrogen_spec(), [0.5, 1.0, 2.0], 5000, 64, 13)
    assert rows[0].radius == 0.0
    assert rows[0].gap_from_origin == 0.0
    lms = [r.log_mean for r in rows]
    assert all(b < a for a, b in zip(lms, lms[1:]))
    assert all(r.ok for r in rows)


def test_maximality_gap_errors_at_a_tiny_coupling():
    rows = mc.maximality_check(hydrogen_spec(alpha=1e-19), [0.5, 1.0, 2.0], 400, 32, 3)
    assert all(r.gap_stderr > 0.0 and r.stderr_log > 0.0 for r in rows[1:])
    assert all(r.ok for r in rows)


def test_maximality_rows_are_the_single_offset_estimates_bit_for_bit():
    # every offset's row comes out of one stacked moment pass; each equals its own estimate
    spec = mc.ActionSpec("single", _F, 1.2, 3, 1.0, epsilon=0.1)
    rows = mc.maximality_check(spec, (0.3, 1.0), 600, 64, 8)
    assert [row.radius for row in rows] == [0.0, 0.3, 1.0]
    for row in rows:
        est = mc.estimate(replace(spec, offset=row.radius), 600, 64, 8)
        assert (row.log_mean.hex(), row.stderr_log.hex()) == (est.log_mean.hex(), est.stderr_log.hex())


@pytest.mark.parametrize("offsets", [(0.0,), (0.7,), (0.0, 0.3, 1.0)])
def test_single_sampler_stacks_every_offset_in_each_moment_pass(offsets, monkeypatch):
    # one moment pass per block of steps takes every offset's terms at once, and the
    # blocks of a batch cover each path-step once, each within _BATCH_ELEMENTS doubles
    sampler = mc._SingleSampler(mc.ActionSpec("single", _F, 1.2, 3, 1.0), 512, offsets)
    calls = {"batches": 0, "moments": []}
    moment, call = mc._SingleSampler._moment, mc._SingleSampler.__call__

    def counted_moment(self, y):
        calls["moments"].append(y.shape)
        return moment(self, y)

    def counted_call(self, buffers, n):
        calls["batches"] += 1
        return call(self, buffers, n)

    monkeypatch.setattr(mc._SingleSampler, "_moment", counted_moment)
    monkeypatch.setattr(mc._SingleSampler, "__call__", counted_call)
    out = mc._run(sampler, _RADIAL)
    assert out.shape == (len(offsets), _RADIAL.paths)
    assert calls["batches"] >= 3
    assert {shape[1] for shape in calls["moments"]} == {len(offsets)}
    assert sum(rows * n for rows, _, n in calls["moments"]) == 512 * _RADIAL.paths
    assert max(math.prod(shape) for shape in calls["moments"]) <= mc._BATCH_ELEMENTS


def test_maximality_requires_single_action():
    spec = mc.ActionSpec("self_double", Constant(0.1), 1.0, 3, 1.0)
    with pytest.raises(DomainError):
        mc.maximality_check(spec, [1.0], 500, 32, 1)


@pytest.mark.parametrize("offset", [1e160, -2.0 ** 511, math.nan])
def test_maximality_rejects_an_offset_whose_square_overflows(offset):
    # the sampler squares each offset: 1e160 once gathered at a NaN cell index
    spec = mc.ActionSpec("single", Constant(0.5), 1.0, 3, 1.0)
    with pytest.raises(DomainError, match="finite square"):
        mc.maximality_check(spec, [1.0, offset], 100, 16, 1)


def test_ladder_allowance_recovers_sqrt_dt_bias():
    spec = hydrogen_spec()
    out = mc.ladder_allowance(spec, 20_000, 512, 31, exponent=0.5)
    # the known midpoint bias coefficient for this action is ~0.24 sqrt(dt)
    assert 0.0 < out["allowance"] < 0.05
    assert out["ladder"][128] < out["ladder"][512]


# ---------------------------------------------------------------------------
# draw-order contract: golden values
# ---------------------------------------------------------------------------

# Small budgets over every sampler kind and every structured check.  Path
# counts are not multiples of the engine's batch or group size, one case uses the
# largest seed, and one runs on three worker threads.  The values pin the
# documented draw order: any change to it, or to the arithmetic order of an
# action, shows up here as a changed bit pattern.  Every action sum is a numpy
# reduction, never a BLAS call, so the values hold for any BLAS thread count.
def _golden_cases():
    from fkbound import oscillator

    f = ExpDecay(0.4, 1.0)
    yield "single", mc.estimate(hydrogen_spec(), 300, 64, 5)
    yield "single_offset_eps", mc.estimate(
        mc.ActionSpec("single", f, 1.3, 2, 0.7, offset=0.3, epsilon=0.05), 257, 100, 6)
    yield "single_max_seed", mc.estimate(hydrogen_spec(), 123, 16, 2 ** 64 - 1)
    with pytest.MonkeyPatch.context() as patch:
        _cores(patch, 3)
        threads = mc.estimate(hydrogen_spec(), 211, 128, 8)
    yield "single_threads", threads
    yield "self_double", mc.estimate(mc.ActionSpec("self_double", f, 1.0, 3, 1.0), 101, 48, 7)
    yield "cross_double", mc.estimate(
        mc.ActionSpec("cross_double", f, 1.0, 3, 1.0, offset=0.5), 100, 32, 8)
    yield "bipolaron", mc.estimate(mc.ActionSpec("bipolaron", f, 1.0, 3, 1.0), 103, 16, 9)
    for row in mc.maximality_check(hydrogen_spec(epsilon=0.1), [0.5, 1.0], 250, 32, 10):
        yield f"maximality_{row.radius}", row
    yield "martingale_equality", mc.martingale_lemma_check(1.0, 1.0, 3, 300, 16, 11)
    yield "martingale_truncated", mc.martingale_lemma_check(
        1.0, 1.0, 3, 300, 16, 11, truncation=0.0)
    yield "oscillator", oscillator.mc_crosscheck(
        oscillator.OscillatorConfig(1.0, 2.0), paths=199, steps=128, seed=12)


def _fingerprint(result) -> list:
    return [float(v).hex() for v in result.as_dict().values() if isinstance(v, float)]


GOLDEN = {
    'single': [
        '0x1.95567066b2b3bp-1', '0x1.1285a8fecd803p-6', '0x1.858114a721a3dp-1',
        '0x1.c4d5281f7c3d2p-7',
    ],
    'single_offset_eps': [
        '0x1.6868743cffbe0p-1', '0x1.00fc4b99c07fap-5', '0x1.43b420b6b0418p-1',
        '0x1.70b97bbbb7757p-6',
    ],
    'single_max_seed': [
        '0x1.8751c20f472aap-1', '0x1.3ecdd172f848dp-6', '0x1.77779b1579401p-1',
        '0x1.611bc39d38296p-6',
    ],
    'single_threads': [
        '0x1.9f0eb8edc383ep-1', '0x1.d8047fdbf82f9p-7', '0x1.914c169e57778p-1',
        '0x1.fd681bb4b138dp-7',
    ],
    'self_double': [
        '0x1.23b03d257de7ep-2', '0x1.44d9d4403cb08p-8', '0x1.22acecd1ae925p-2',
        '0x1.22d6b978b3670p-8',
    ],
    'cross_double': [
        '0x1.e51f27bf3ee14p-4', '0x1.7537e443ee55ap-8', '0x1.e0a6cf2a4b163p-4',
        '0x1.3158cca5fe55ap-8',
    ],
    'bipolaron': [
        '0x1.6b6c92fb180d1p-1', '0x1.a8b4535f87b37p-8', '0x1.6777c4dda51c7p-1',
        '0x1.8db0ba6c8c743p-7',
    ],
    'maximality_0.0': [
        '0x0.0p+0', '0x1.79173fe4e83a4p-1', '0x1.cff98efa6d3c4p-7',
        '0x0.0p+0', '0x0.0p+0',
    ],
    'maximality_0.5': [
        '0x1.0000000000000p-1', '0x1.30b7faad71228p-1', '0x1.d11ef13171b0ap-7',
        '0x1.217d14dddc5f0p-3', '0x1.6d5444943df9bp-8',
    ],
    'maximality_1.0': [
        '0x1.0000000000000p+0', '0x1.c1086dccb5526p-2', '0x1.952921d84e3cdp-7',
        '0x1.312611fd1b222p-2', '0x1.aac3240d15c9ep-8',
    ],
    'martingale_equality': [
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', 'nan',
        '0x1.cb50525a014d0p-2', '0x1.1a0d79b2ff421p-4', '0x1.0000000000000p-1',
        '0x1.a57d6d2ff5980p-5',
    ],
    'martingale_truncated': [
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x0.0p+0',
        '-0x1.21c1178b0075dp-2', '0x1.b0c04aa3bdf94p-6', '0x1.0000000000000p-1',
        '0x1.90e08bc5803aep-1',
    ],
    'oscillator': [
        '-0x1.49c9304c80fa5p-1', '0x1.44b4e4c85413fp-5', '-0x1.fc525c077ccb4p-1',
        '0x1.556e0a60011f9p-4', '-0x1.5333614b031e2p-1', '0x1.2d461fd0447a0p-6',
        # the exact N-step value and its grid bias, no draw behind them
        '-0x1.5332183f5f8ccp-1', '0x1.490ba39160000p-17',
    ],
}


def test_draw_order_golden_values():
    got = {name: _fingerprint(res) for name, res in _golden_cases()}
    assert got == GOLDEN
