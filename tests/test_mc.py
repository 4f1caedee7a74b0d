import math

import numpy as np
import pytest

from fkbound import kernels, mc
from fkbound.bounds import BoundParams, theorem1_bound
from fkbound.errors import DomainError
from fkbound.schedule import Constant, ExpDecay


def hydrogen_spec(alpha=0.5, T=1.0, **kw):
    return mc.ActionSpec("single", Constant(alpha), 1.0, 3, T, **kw)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_estimate_bit_identical_across_threads():
    spec = hydrogen_spec()
    base = mc.estimate(spec, 1200, 64, 42, threads=1)
    for threads in (2, 8):
        again = mc.estimate(spec, 1200, 64, 42, threads=threads)
        assert again == base  # dataclass equality: every float bit-identical


def test_sample_action_is_pure_function_of_seed_and_index():
    spec = hydrogen_spec()
    ens = mc.PathEnsemble(seed=9, paths=50, steps=32, horizon=1.0, dim=3)
    first = [mc.sample_action(spec, ens, m) for m in range(5)]
    again = [mc.sample_action(spec, ens, m) for m in range(5)]
    assert first == again
    # evaluation order must not matter
    reverse = [mc.sample_action(spec, ens, m) for m in reversed(range(5))]
    assert reverse == first[::-1]


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


class _RawBlocks:
    """Engine sampler that returns each path's drawn (5, 3) block, flattened."""

    rows = 5

    def __call__(self, z):
        return z.reshape(len(z), -1).T.copy()


@pytest.mark.parametrize("seed", [0, 77, 2 ** 64 - 1])
def test_engine_stream_equals_path_generator(seed, monkeypatch):
    # 15 normals per path leave the previous path's Philox buffer part used,
    # so every path after the first in a batch checks the re-keying
    ens = mc.PathEnsemble(seed=seed, paths=40, steps=5, horizon=1.0, dim=3)
    expected = np.stack([ens.generator(m).standard_normal((5, 3)).ravel()
                         for m in range(40)], axis=1)
    for batch in (40, 7):  # one batch; six batches, split over three workers
        monkeypatch.setattr(mc, "_BATCH_ELEMENTS", batch * 15)
        for threads in (1, 3):
            assert np.array_equal(mc._run(_RawBlocks(), ens, threads), expected)
    for m in (0, 1, 17, 39):
        single = mc._run(_RawBlocks(), ens, paths=range(m, m + 1))
        assert np.array_equal(single[:, 0], expected[:, m])


@pytest.mark.parametrize("kind", ["single", "self_double", "cross_double", "bipolaron"])
def test_sample_action_agrees_with_estimate(kind):
    spec = mc.ActionSpec(kind, ExpDecay(0.4, 1.0), 1.0, 3, 1.0, offset=0.2, epsilon=0.01)
    ens = mc.PathEnsemble(seed=5, paths=100, steps=16, horizon=1.0, dim=3)
    actions = [mc.sample_action(spec, ens, m) for m in range(100)]
    assert mc.summarize_actions(actions, 5, 16) == mc.estimate(spec, 100, 16, 5)


# ---------------------------------------------------------------------------
# action values
# ---------------------------------------------------------------------------

def test_self_double_matches_hand_computed_sum():
    spec = mc.ActionSpec("self_double", ExpDecay(1.0, 0.7), 1.0, 3, 1.0)
    ens = mc.PathEnsemble(seed=7, paths=1, steps=3, horizon=1.0, dim=3)
    val = mc.sample_action(spec, ens, 0)
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
    val = mc.sample_action(spec, ens, 0)
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


def test_infinite_path_flagged_not_clamped():
    actions = np.array([0.1, math.inf, 0.2, 0.3])
    est = mc.summarize_actions(actions, seed=0, steps=16)
    assert est.infinite_paths == 1
    assert math.isfinite(est.log_mean)
    assert est.paths == 4


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


def test_hydrogen_estimate_in_theory_window():
    # small-budget version of the closed-form sandwich
    est = mc.estimate(hydrogen_spec(), 20_000, 256, 7)
    jensen = 2 * math.sqrt(2 / math.pi) * 0.5
    upper = theorem1_bound(Constant(0.5), BoundParams(1.0, 3, 1.0)).log_bound
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


def test_maximality_rows_decreasing_with_crn():
    rows = mc.maximality_check(hydrogen_spec(), [0.5, 1.0, 2.0], 5000, 64, 13)
    assert rows[0].radius == 0.0
    assert rows[0].gap_from_origin == 0.0
    lms = [r.log_mean for r in rows]
    assert all(b < a for a, b in zip(lms, lms[1:]))
    assert all(r.ok for r in rows)


def test_maximality_requires_single_action():
    spec = mc.ActionSpec("self_double", Constant(0.1), 1.0, 3, 1.0)
    with pytest.raises(DomainError):
        mc.maximality_check(spec, [1.0], 500, 32, 1)


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
# counts are not multiples of the engine's batch size, one case uses the
# largest seed, and one runs with worker threads.  The values pin the
# documented draw order: any change to it, or to the arithmetic order of an
# action, shows up here as a changed bit pattern.
def _golden_cases():
    from fkbound import oscillator

    f = ExpDecay(0.4, 1.0)
    yield "single", mc.estimate(hydrogen_spec(), 300, 64, 5)
    yield "single_offset_eps", mc.estimate(
        mc.ActionSpec("single", f, 1.3, 2, 0.7, offset=0.3, epsilon=0.05), 257, 100, 6)
    yield "single_max_seed", mc.estimate(hydrogen_spec(), 123, 16, 2 ** 64 - 1)
    yield "single_threads", mc.estimate(hydrogen_spec(), 211, 128, 8, threads=3)
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
        '0x1.9892fbe5a5c90p-1', '0x1.5a25fe6cfc27cp-6', '0x1.899ed37651e48p-1',
        '0x1.b7d0384feca77p-7',
    ],
    'single_offset_eps': [
        '0x1.63194da4ff908p-1', '0x1.5239233008e2ap-6', '0x1.40e2b229f2aebp-1',
        '0x1.647600cbd466dp-6',
    ],
    'single_max_seed': [
        '0x1.8c578bbef18eap-1', '0x1.316c8329b34b6p-5', '0x1.77f6efaabbcf0p-1',
        '0x1.8a6d3a1b8864ap-6',
    ],
    'single_threads': [
        '0x1.86e541bb2ef41p-1', '0x1.1050f4e08fbf9p-6', '0x1.7962ecc9064eep-1',
        '0x1.f149922c2c2f5p-7',
    ],
    'self_double': [
        '0x1.27dc81d518e00p-2', '0x1.353904360c53bp-8', '0x1.26e18c218f3a8p-2',
        '0x1.1cffafaa9a79cp-8',
    ],
    'cross_double': [
        '0x1.d3a8a96490b90p-4', '0x1.1484da968e9acp-8', '0x1.cf27992925a1fp-4',
        '0x1.3162eedc268a2p-8',
    ],
    'bipolaron': [
        '0x1.7239cd5338d22p-1', '0x1.9f6bfe49b9b85p-7', '0x1.6ebae70770f8fp-1',
        '0x1.78e0deee03f10p-7',
    ],
    'maximality_0.0': [
        '0x0.0p+0', '0x1.746d5cdf64542p-1', '0x1.023d5ffd3c163p-6',
        '0x0.0p+0', '0x0.0p+0',
    ],
    'maximality_0.5': [
        '0x1.0000000000000p-1', '0x1.33eba508c51fcp-1', '0x1.62fa12bcc99fcp-7',
        '0x1.0206df5a7cd18p-3', '0x1.e0c88fd787c88p-7',
    ],
    'maximality_1.0': [
        '0x1.0000000000000p+0', '0x1.c9cbb450dab58p-2', '0x1.326a3d12761e5p-7',
        '0x1.1f0f056dedf2cp-2', '0x1.2b2eea9293221p-6',
    ],
    'martingale_equality': [
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', 'nan',
        '0x1.6c9c3ce3fc8d8p-2', '0x1.466e8c2abf3a1p-4', '0x1.0000000000000p-1',
        '0x1.26c7863806e50p-3',
    ],
    'martingale_truncated': [
        '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x0.0p+0',
        '-0x1.2b6ba274a0515p-2', '0x1.57ebd4af7bb7bp-6', '0x1.0000000000000p-1',
        '0x1.95b5d13a5028ap-1',
    ],
    'oscillator': [
        '-0x1.6c46dbc4f779dp-1', '0x1.9a24f3ddeef44p-5', '-0x1.1362acca6afffp+0',
        '0x1.4a575e1bdebe9p-4', '-0x1.5333614b031e2p-1', '-0x1.9137a79f45bb0p-5',
    ],
}


def test_draw_order_golden_values():
    got = {name: _fingerprint(res) for name, res in _golden_cases()}
    assert got == GOLDEN
