import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fkbound import bounds, cli, schedule
from fkbound.errors import DomainError, NonIntegrable, NumericalFailure
from fkbound.schedule import (
    Constant,
    ExpDecay,
    Indicator,
    PowerLaw,
    Tabulated,
    coupling_from_dict,
    envelope,
    evaluate,
    iterated_norm,
    norm,
)


def brute_force_running_max(values):
    out = []
    for k in range(len(values)):
        out.append(max(values[k:]))
    return tuple(out)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_envelope_indicator_is_fixed_point():
    rep = envelope(Indicator(1.0, 2.0), 3.0)
    assert rep == Indicator(1.0, 2.0)
    assert evaluate(rep, 1.0) == 1.0
    assert evaluate(rep, 2.5) == 0.0


def test_only_exp_decay_vouches_for_a_positive_definite_extension():
    couplings = (Constant(1.0), ExpDecay(1.0, 2.0), Indicator(1.0, 1.0), PowerLaw(1.0, -0.5),
                 Tabulated((0, 1), (1, 1)))
    vouched = [f.positive_definite_extension() for f in couplings]
    assert vouched == [False, True, False, False, False]


def test_envelope_exp_decay_identity():
    f = ExpDecay(0.7, 1.0)
    assert envelope(f, 5.0) == f


def test_envelope_tabulated_worked_example():
    f = Tabulated((0, 1, 2, 3), (1, 3, 2, 4))
    rep = envelope(f, 3.0)
    assert rep.values == brute_force_running_max(f.values) == (4.0, 4.0, 4.0, 4.0)


def test_envelope_increasing_power_law_flattens():
    rep = envelope(PowerLaw(2.0, 1.5), 4.0)
    assert isinstance(rep, Constant)
    assert rep.level == pytest.approx(2.0 * 4.0 ** 1.5)


def test_envelope_decreasing_power_law_identity():
    f = PowerLaw(1.0, -0.5)
    assert envelope(f, 2.0) == f


tabulated_data = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=2, max_size=30
)


@settings(max_examples=200, deadline=None)
@given(tabulated_data)
def test_envelope_idempotent_and_dominating(values):
    grid = tuple(float(i) for i in range(len(values)))
    f = Tabulated(grid, tuple(values))
    T = grid[-1]
    rep = envelope(f, T)
    rep2 = envelope(rep, T)
    assert rep2.values == rep.values
    assert all(e >= v for e, v in zip(rep.values, f.values))
    assert rep.values == brute_force_running_max(f.values)
    # non-increasing
    assert all(b <= a for a, b in zip(rep.values, rep.values[1:]))


@settings(max_examples=100, deadline=None)
@given(tabulated_data, st.floats(min_value=0.01, max_value=100.0))
def test_envelope_scaling_equivariance(values, factor):
    grid = tuple(float(i) for i in range(len(values)))
    f = Tabulated(grid, tuple(values))
    T = grid[-1]
    scaled = Tabulated(grid, tuple(factor * v for v in values))
    lhs = envelope(scaled, T).values
    rhs = tuple(factor * v for v in envelope(f, T).values)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_envelope_rejects_bad_horizon():
    with pytest.raises(DomainError):
        envelope(Constant(1.0), 0.0)
    with pytest.raises(DomainError):
        envelope(Tabulated((0, 1), (1, 1)), 2.0)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_norm_exp_decay_mass():
    f = ExpDecay(0.9, 1.0)
    assert norm(f, 1.0, 2.0) == pytest.approx(0.9 * (1 - math.exp(-2.0)), rel=1e-14)


def test_norm_constant_inverse_sqrt_weight():
    # int_0^T alpha t^-1/2 dt = 2 alpha sqrt(T)
    assert norm(Constant(0.4), 1.0, 9.0, weight=0.5) == pytest.approx(2 * 0.4 * 3.0)


def test_norm_constant_l2():
    assert norm(Constant(1.0), 2.0, 3.0) == pytest.approx(math.sqrt(3.0))


def test_norm_indicator_stops_at_cutoff():
    f = Indicator(2.0, 1.0)
    assert norm(f, 1.0, 5.0) == pytest.approx(2.0)
    assert norm(f, 1.0, 0.5) == pytest.approx(1.0)


def test_norm_tabulated_exact_piecewise():
    f = Tabulated((0.0, 1.0, 2.0), (2.0, 1.0, 1.0))
    assert norm(f, 1.0, 2.0) == pytest.approx(3.0)
    assert norm(f, 1.0, 1.5) == pytest.approx(2.5)
    assert norm(f, 2.0, 2.0) == pytest.approx(math.sqrt(5.0))
    # f^4 underflows: (1 + 16)^(1/4) 1e-100, not 0
    tiny = Tabulated((0.0, 1.0, 2.0), (1e-100, 2e-100, 0.0))
    assert norm(tiny, 4.0, 2.0) == pytest.approx(17.0 ** 0.25 * 1e-100, rel=1e-14, abs=0.0)


def test_norm_power_law_divergence_raises():
    with pytest.raises(NonIntegrable):
        norm(PowerLaw(1.0, -1.0), 1.0, 1.0)
    with pytest.raises(NonIntegrable):
        norm(PowerLaw(1.0, -0.4), 2.0, 1.0, weight=0.5)  # (e-a)p = -1.8


def test_norm_weight_exponent_must_converge():
    with pytest.raises(NonIntegrable):
        norm(Constant(1.0), 2.0, 1.0, weight=0.5)  # a*p = 1


@settings(max_examples=100, deadline=None)
@given(
    # keep levels out of the subnormal range, where c**p cannot hold 1e-12
    st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=1e6)),
    st.floats(min_value=1.0, max_value=4.0),
    st.floats(min_value=0.01, max_value=50.0),
)
@example(level=1e-100, p=3.25, factor=3.0)  # level^p underflows to 0
def test_norm_scaling_homogeneity(level, p, factor):
    f = Constant(level)
    lhs = norm(Constant(factor * level), p, 2.0)
    rhs = factor * norm(f, p, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
def test_norm_monotone_in_upper_time(s1, s2):
    lo, hi = sorted((s1, s2))
    f = ExpDecay(1.3, 0.7)
    assert norm(f, 1.0, lo) <= norm(f, 1.0, hi) + 1e-15


def test_analytic_vs_tabulated_quadrature_agreement():
    # midpoint-sampled table of e^-t on 10^4 cells: step-left integral is the
    # midpoint rule, O(dt^2) from the analytic mass
    T, n = 1.0, 10_000
    grid = np.linspace(0.0, T, n + 1)
    mids = (grid[:-1] + grid[1:]) / 2.0
    tab = Tabulated(tuple(grid), tuple(np.exp(-mids)) + (math.exp(-T),))
    exact = norm(ExpDecay(1.0, 1.0), 1.0, T)
    assert norm(tab, 1.0, T) == pytest.approx(exact, rel=1e-6)


# ---------------------------------------------------------------------------
# iterated norms
# ---------------------------------------------------------------------------

def test_iterated_norm_indicator_piecewise_linear():
    g, tau, T = 0.8, 1.5, 4.0
    val = iterated_norm(Indicator(g, tau), T, 1.0, 0.0, 1.0)
    assert val == pytest.approx(g * (tau * T - tau * tau / 2.0), rel=1e-10)


def test_iterated_norm_exp_decay_asymptote():
    # integrand (amp^2)(1 - e^-t)^2 -> slope amp^2; oracle by dense trapezoid
    amp = 1.0 / math.sqrt(2.0)
    f = ExpDecay(amp, 1.0)
    t = np.linspace(0.0, 20.0, 200_001)
    oracle = np.trapezoid((amp * (1 - np.exp(-t))) ** 2, t)
    val = iterated_norm(f, 20.0, 1.0, 0.0, 2.0)
    assert val == pytest.approx(float(oracle), rel=1e-8)
    slope = (iterated_norm(f, 40.0, 1.0, 0.0, 2.0) - val) / 20.0
    assert slope == pytest.approx(amp * amp, rel=1e-6)


@pytest.mark.parametrize("outer", [1.0, 2.5])
def test_iterated_norm_tiny_coupling_does_not_underflow(outer):
    # level^3.25 underflows; int_0^T (c t^(1/p))^o dt = c^o T^(1 + o/p) / (1 + o/p)
    c, T, p = 1e-100, 2.0, 3.25
    exact = c ** outer * T ** (1.0 + outer / p) / (1.0 + outer / p)
    assert iterated_norm(Constant(c), T, p, 0.0, outer) == pytest.approx(exact, rel=1e-13, abs=0)


def test_iterated_norm_underflow_is_not_an_overflow():
    # int_0^2 (1e300 * 1e-320)^20 dt = 2e-400 underflows to 0; the rescaled
    # path must not multiply that 0 by an overflowed 2^(k outer_power)
    assert iterated_norm(Indicator(1e300, 1e-320), 2.0, 1.0, 0.0, 20.0) == 0.0
    # int_0^2 (1e300 * 1e-299)^400 dt = 2e400 does overflow
    with pytest.raises(NumericalFailure, match="overflows"):
        iterated_norm(Indicator(1e300, 1e-299), 2.0, 1.0, 0.0, 400.0)


def test_iterated_norm_zero_coupling():
    assert iterated_norm(Constant(0.0), 3.0, 1.0, 0.5, 2.0) == 0.0
    assert iterated_norm(Constant(0.0), 3.0, 1.0, (0.0, 0.5), 2.0) == (0.0, 0.0)


@pytest.mark.parametrize("f", [ExpDecay(0.9, 1.3), Indicator(1e-110, 0.7), PowerLaw(0.6, -0.2),
                               Tabulated((0.0, 0.4, 1.1, 2.0), (0.0, 0.7, 0.2, 0.5))])
def test_iterated_norm_terms_are_the_single_term_values_bit_for_bit(f):
    # the terms broadcast and share one panel rule; Indicator(1e-110) takes the
    # rescaled path for its cubed term only
    p, a, o = (1.0, 1.0, 2.0, 1.0, 1.0), (0.0, 0.0, 0.2, 0.5, 0.0), (1.0, 2.0, 1.5, 1.0, 3.0)
    got = iterated_norm(f, 2.0, p, a, o)
    assert isinstance(got, tuple)
    assert [v.hex() for v in got] == [iterated_norm(f, 2.0, *term).hex() for term in zip(p, a, o)]
    assert iterated_norm(f, 2.0, 1.0, 0.0, (1.0, 2.0)) == got[:2]


def test_iterated_norm_evaluates_each_inner_norm_once_on_one_panel_rule(monkeypatch):
    calls, rule = [], schedule._panel_rule
    monkeypatch.setattr(schedule, "_panel_rule", lambda *a: calls.append("rule") or rule(*a))
    f = ExpDecay(0.9, 1.3)
    inner = type(f).power_integral
    monkeypatch.setattr(type(f), "power_integral",
                        lambda self, q, b, s: calls.append((q, b, np.ndim(s))) or inner(self, q, b, s))
    iterated_norm(f, 2.0, 1.0, (0.0, 0.0, 0.5, 0.0), (1.0, 2.0, 1.0, 1.5))
    # a scalar probe of each inner norm at T, then one rule and each inner norm on its nodes
    assert calls == [(1.0, 0.0, 0), (1.0, 0.5, 0), "rule", (1.0, 0.0, 2), (1.0, 0.5, 2)]


def test_iterated_norm_rejects_any_outer_power_below_one():
    with pytest.raises(DomainError, match="outer power"):
        iterated_norm(Constant(1.0), 2.0, 1.0, 0.0, (1.0, 0.5))


def test_is_zero_detection():
    assert Constant(0.0).is_zero()
    assert Tabulated((0, 1), (0.0, 0.0)).is_zero()
    assert not Indicator(0.1, 1.0).is_zero()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f", [
    Constant(1.5),
    ExpDecay(0.7071, 1.0),
    Indicator(2.0, 0.5),
    PowerLaw(1.0, -0.25),
    Tabulated((0.0, 0.5, 1.0), (1.0, 2.0, 0.5)),
])
def test_coupling_dict_round_trip(f):
    assert coupling_from_dict(f.to_dict()) == f


def test_coupling_validation():
    with pytest.raises(DomainError):
        Constant(-1.0)
    with pytest.raises(DomainError):
        Tabulated((0.5, 1.0), (1.0, 1.0))  # grid must start at 0
    with pytest.raises(DomainError):
        Tabulated((0.0, 0.0), (1.0, 1.0))  # strictly increasing
    with pytest.raises(DomainError):
        coupling_from_dict({"kind": "mystery"})


@pytest.mark.parametrize("make", [
    lambda x: Constant(x),
    lambda x: ExpDecay(x, 1.0),
    lambda x: ExpDecay(1.0, x),
    lambda x: Indicator(x, 1.0),
    lambda x: Indicator(1.0, x),
    lambda x: PowerLaw(x, 0.5),
    lambda x: PowerLaw(1.0, x),
    lambda x: Tabulated((0.0, 1.0), (1.0, x)),
    lambda x: Tabulated((0.0, 1.0, x), (1.0, 1.0, 1.0)),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_coupling_rejects_non_finite_fields(make, value):
    with pytest.raises(DomainError, match="finite"):
        make(value)


@pytest.mark.parametrize("spec", [
    {"kind": "constant", "level": "high"},
    {"kind": "constant", "level": None},
    {"kind": "tabulated", "grid": 1.0, "values": [1.0]},
    {"kind": ["constant"], "level": 1.0},
    # JSON integers of 401 digits, past any float: float() raises OverflowError
    {"kind": "constant", "level": 10 ** 400},
    {"kind": "exp_decay", "amplitude": 1, "rate": 10 ** 400},
    {"kind": "indicator", "height": 1, "cutoff": -10 ** 400},
    {"kind": "power_law", "amplitude": 10 ** 400, "exponent": 1},
    {"kind": "tabulated", "grid": [0, 1], "values": [10 ** 400, 1]},
])
def test_coupling_from_dict_rejects_malformed_fields(spec, capsys):
    with pytest.raises(DomainError):
        coupling_from_dict(spec)
    code = cli.main(["bound", "--theorem", "1", "--theta", "1.0", "--dim", "3", "--T", "1",
                     "--coupling", json.dumps(spec), "--format", "json"])
    assert (code, capsys.readouterr().out) == (2, "")


# (grid, values, what Tabulated(grid, values) raises or None, the `fkbound bound`
# exit code with them as the --coupling); numpy validates, float() converts
TABLE_CONTRACT = {
    "nested": ((0.0, (1.0, 2.0)), (1.0, 1.0), TypeError, 2),
    "nested_values": ((0.0, 1.0), ((1.0,), 1.0), TypeError, 2),
    "ragged": ((0.0, 1.0, 2.0), (1.0, 1.0), DomainError, 2),
    "nan_grid": ((0.0, math.nan), (1.0, 1.0), DomainError, 2),
    "nan_value": ((0.0, 1.0), (math.nan, 1.0), DomainError, 2),
    "inf_grid": ((0.0, math.inf), (1.0, 1.0), DomainError, 2),
    "minus_inf_grid": ((0.0, -math.inf), (1.0, 1.0), DomainError, 2),
    "inf_value": ((0.0, 1.0), (math.inf, 1.0), DomainError, 2),
    "minus_inf_value": ((0.0, 1.0), (-math.inf, 1.0), DomainError, 2),
    "numeric_strings": (("0", "1.5"), ("1", "2"), None, 0),
    "other_string": (("0", "x"), (1.0, 1.0), ValueError, 2),
    "bool": ((False, True), (True, False), None, 0),
    "repeated_point": ((0.0, 1.0, 1.0), (1.0, 1.0, 1.0), DomainError, 2),
    "decreasing": ((0.0, 2.0, 1.0), (1.0, 1.0, 1.0), DomainError, 2),
    "nonzero_start": ((0.5, 1.0), (1.0, 1.0), DomainError, 2),
    "negative_value": ((0.0, 1.0), (-1.0, 1.0), DomainError, 2),
    "huge_integer_grid": ((0, 10 ** 400), (1.0, 1.0), OverflowError, 2),
    "huge_integer_value": ((0.0, 1.0), (1.0, -10 ** 400), OverflowError, 2),
}


@pytest.mark.parametrize("case", sorted(TABLE_CONTRACT))
def test_tabulated_error_contract(case, capsys):
    grid, values, error, exit_code = TABLE_CONTRACT[case]
    spec = {"kind": "tabulated", "grid": grid, "values": values}
    if error is None:
        f = Tabulated(grid, values)
        assert f.grid == tuple(map(float, grid)) and f.values == tuple(map(float, values))
        assert coupling_from_dict(spec) == f
    else:
        with pytest.raises(error):
            Tabulated(grid, values)
        with pytest.raises(DomainError):
            coupling_from_dict(spec)
    code = cli.main(["bound", "--theorem", "1", "--theta", "1.0", "--dim", "3",
                     "--T", str(float(grid[-1]) if exit_code == 0 else 1.0),
                     "--coupling", json.dumps(spec), "--format", "json"])
    capsys.readouterr()
    assert code == exit_code


def test_tabulated_cell_sums_are_kept_out_of_the_fields():
    f = Tabulated((0.0, 0.5, 1.2, 2.0), (0.5, 0.9, 0.3, 0.4))
    same = Tabulated((0, 0.5, 1.2, 2), (0.5, 0.9, 0.3, 0.4))
    first = norm(f, 2.0, 1.7, weight=0.3)
    assert norm(f, 2.0, 1.7, weight=0.3) == first  # from the kept sums
    assert [fld.name for fld in dataclasses.fields(f)] == ["grid", "values"]
    assert f == same and hash(f) == hash(same)
    assert f.to_dict() == same.to_dict() == {"kind": "tabulated", "grid": [0.0, 0.5, 1.2, 2.0],
                                             "values": [0.5, 0.9, 0.3, 0.4]}
    changed = dataclasses.replace(f, values=(1.0, 1.0, 1.0, 1.0))
    assert norm(changed, 2.0, 1.7, weight=0.3) == pytest.approx(math.sqrt(1.7 ** 0.4 / 0.4), rel=1e-15)
    assert norm(f, 2.0, 1.7, weight=0.3) == first


def test_tabulated_envelope_is_the_running_maximum_table():
    rng = np.random.default_rng(11)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 60))])
    f = Tabulated(tuple(grid), tuple(rng.uniform(0.0, 2.0, 61)))
    T = f.grid[-1]
    norm(f, 1.0, T, weight=0.5)  # the source's grid powers at a = 1/2, before the envelope
    env, ref = f.majorant(T), Tabulated(f.grid, brute_force_running_max(f.values))
    assert [getattr(env, fld.name) for fld in dataclasses.fields(env)] == [f.grid, ref.values]
    assert env == ref and hash(env) == hash(ref) and env.to_dict() == ref.to_dict()
    assert env._grid_powers is f._grid_powers and env._cells is not f._cells
    assert dataclasses.replace(env) == ref and dataclasses.replace(env)._grid_powers is not f._grid_powers
    for p, w in ((1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (1.0 / 0.7, 0.0), (1.0, 0.65), (3.0, 0.2)):
        for s in (T, 0.37 * T, float(grid[17])):
            assert norm(env, p, s, weight=w).hex() == norm(ref, p, s, weight=w).hex()
    terms = ((1.0, 0.0, 2.0), (1.0, 0.5, 1.0), (1.0, 0.65, 1.0), (2.0, 0.2, 1.5))
    assert iterated_norm(env, T, *zip(*terms)) == iterated_norm(ref, T, *zip(*terms))
    assert (env.integral_against(T, np.cos, np.sin, [(1.0, 0.0)]).hex()
            == ref.integral_against(T, np.cos, np.sin, [(1.0, 0.0)]).hex())
    assert env._cells.keys() == ref._cells.keys() and f._cells.keys() == {(1.0, 0.5)}
    # a non-increasing table is its own envelope, with its cell sums
    assert env.majorant(T) is env


def _loop_power_integral(f, q, b, s):
    # the cell-by-cell loop the cumulative sums replace
    total, a = 0.0, 1.0 - b
    for lo, hi, v in zip(f.grid, f.grid[1:], f.values):
        hi = min(hi, s)
        if hi <= lo:
            break
        total += v ** q * (hi ** a - lo ** a) / a
    return total


def _formula_power_integral(f, q, b, s):
    # the cumulative-sum formula with nothing skipped or shared: a list of scalar
    # powers for every cell and grid point, and a search for every element of s
    a, grid = 1.0 - b, np.array(f.grid)
    vq = np.array([v ** q for v in f.values[:-1]])
    ga = np.array([g ** a for g in f.grid])
    cum = np.concatenate(([0.0], np.cumsum(vq * np.diff(ga) / a)))
    k = np.minimum(np.searchsorted(grid, s, side="right"), len(vq)) - 1
    return cum[k] + vq[k] * (np.minimum(s, grid[-1]) ** a - ga[k]) / a


def _hex(x):
    return [float(v).hex() for v in np.ravel(x)]


def _bound_keys(theta):
    """(q, b) keys of power_integral covering every one a theorem bound asks for
    at theta: the norms |f/t^w|_p of theorems 1 and 3 (b = w p), and theorem
    2's inner norms."""
    return {(1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (2.0 / (2.0 - theta), 0.0), (1.0, theta / 2.0)}


def _exactness_tables():
    """Tables of 1, 2, 20 and 1000 cells with zero cells, equal neighbours and
    cell widths within 1000x."""
    rng = np.random.default_rng(29)
    tables = [Tabulated((0.0, 1.7), (0.6, 0.2)), Tabulated((0.0, 2e-3, 1.7), (0.0, 0.9, 0.9))]
    for cells in (20, 1000):
        widths = 10.0 ** rng.uniform(-1.5, 1.5, cells)
        grid = np.concatenate([[0.0], np.cumsum(widths / widths.sum() * 1.7)])
        grid[-1] = 1.7
        values = rng.uniform(0.0, 2.0, cells + 1)
        values[rng.integers(0, cells, cells // 5)] = 0.0
        values[1::7] = values[:-1:7]
        tables.append(Tabulated(tuple(grid), tuple(values)))
    return tables


def test_tabulated_power_integral_matches_cell_loop():
    rng = np.random.default_rng(5)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 40))])
    f = Tabulated(tuple(grid), tuple(rng.uniform(0.0, 2.0, 41)))
    for q, b in ((1.0, 0.0), (2.0, 0.5), (1.5, 0.45), (3.0, 0.2)):
        for s in (0.0, grid[1] / 3, grid[7], 0.5 * (grid[20] + grid[21]), grid[-1]):
            want = _loop_power_integral(f, q, b, s)
            assert f.power_integral(q, b, float(s)) == want
            assert float(_formula_power_integral(f, q, b, float(s))) == want


@pytest.mark.parametrize("theta", [0.73, 1.0, 1.3, 1.65])
def test_tabulated_fast_paths_match_the_formula_bit_for_bit(theta):
    # powers by 1 skipped, grid powers shared with the envelope, one cell lookup
    # per row: each changes no bit of any value a bound reads
    for f in _exactness_tables():
        T, grid = f.grid[-1], np.array(f.grid)
        mids = 0.5 * (grid[:-1] + grid[1:])
        nodes = schedule._panel_rule(f.breakpoints(T), [(f.support_start(), T)])[0]
        rows = np.linspace(0.0, T, 4 * 16).reshape(4, 16)  # rows across many cells
        edges = np.stack([np.linspace(lo, hi, 16) for lo, hi in zip(grid, grid[1:])])
        in_cells = np.stack([np.linspace(lo, hi, 17)[:-1] for lo, hi in zip(grid, grid[1:])])
        past = np.full((2, 16), T * (1.0 + 1e-13))  # inside the horizon's tolerance
        arguments = [0.0, T, float(mids[-1]), float(grid[len(grid) // 2]), mids,
                     np.append(grid, T * (1.0 + 1e-13)), nodes, rows, edges, in_cells, past]
        for g in (f, f.majorant(T)):
            for q, b in sorted(_bound_keys(theta)):
                for s in arguments:
                    got, want = g.power_integral(q, b, s), _formula_power_integral(g, q, b, s)
                    assert np.shape(got) == np.shape(want)
                    assert _hex(got) == _hex(want), (len(g.grid), q, b, np.shape(s))
        for T3 in (T, float(mids[len(mids) // 2])):  # theorem 3 on and off the grid
            (term, *_) = bounds.theorem_bound(3, f, bounds.BoundParams(theta, 3, T3)).terms
            assert term.norm_value.hex() == float(_formula_power_integral(f, 1.0, 0.0, T3)).hex()


def test_one_cell_lookup_per_row_only_where_every_row_stays_in_its_cell(monkeypatch):
    f = _exactness_tables()[2]
    grid = np.array(f.grid)
    inside = np.stack([np.linspace(lo, hi, 17)[:-1] for lo, hi in zip(grid, grid[1:])])
    straddle = inside.copy()
    straddle[3, -1] = grid[4]  # the next cell's first point
    keys = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, **kw: keys.append(np.size(v)) or
                        searchsorted(a, v, **kw))
    for s, looked_up in ((inside, len(inside)), (straddle, len(inside) + straddle.size)):
        keys.clear()
        got = f.power_integral(1.0, 0.5, s)
        assert sum(keys) == looked_up
        assert _hex(got) == _hex(_formula_power_integral(f, 1.0, 0.5, s))


def _powers_of_two_and_predecessors():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    return powers + [math.nextafter(x, 0.0) for x in powers] + [math.nextafter(x, math.inf)
                                                               for x in powers]


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.floats(allow_nan=False), st.floats(0.0, 2.0 ** -1022, exclude_max=True),
                 st.integers(0, 2 ** 64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))
                 .filter(lambda x: not math.isnan(x))))
def test_a_scalar_power_by_one_is_the_number_itself(x):
    # why a table skips its powers by 1: libm pow(x, 1) returns x, subnormals included
    assert pow(x, 1.0).hex() == x.hex()


def test_a_power_by_one_is_the_number_itself_at_every_binade():
    xs = _powers_of_two_and_predecessors() + [5e-324, 2.2e-308, -0.0, math.inf]
    assert [pow(x, 1.0).hex() for x in xs] == [x.hex() for x in xs]


def _mp_iterated(grid, values, T, p, w, outer):
    """int_0^T (int_0^t f^p s^(-w p) ds)^(outer/p) dt in 20-digit arithmetic:
    exact per cell where the integrand is a power of a linear function of t
    (weight 0) or linear in t^a (outer = p); elsewhere mpmath quadrature,
    Gauss-Legendre where the integrand is analytic on the closed cell and
    tanh-sinh where it has an endpoint singularity (at t = 0 or where f
    starts)."""
    mp.mp.dps = 20
    a, r = 1 - mp.mpf(w) * p, mp.mpf(outer) / p
    T, cum, total = mp.mpf(T), mp.mpf(0), mp.mpf(0)
    for g, h, v in zip(grid, grid[1:], values):
        g, h, vq = mp.mpf(g), min(mp.mpf(h), T), mp.mpf(v) ** p
        end = cum + vq * (h ** a - g ** a) / a
        if a == 1 and vq > 0:
            total += (end ** (r + 1) - cum ** (r + 1)) / (vq * (r + 1))
        elif r == 1:
            total += (cum - vq * g ** a / a) * (h - g) + vq * (h ** (a + 1) - g ** (a + 1)) / (a * (a + 1))
        else:
            total += mp.quad(lambda t, c=cum, g=g, vq=vq: (c + vq * (t ** a - g ** a) / a) ** r,
                             [g, h], method="gauss-legendre" if g > 0 and cum > 0 else "tanh-sinh")
        cum = end
        if h >= T:
            break
    return float(total)


_THETA = 1.2
_TABLE_GRIDS = {
    "G3": np.array([0.0, 0.5, 1.2, 2.0]),
    "G64": np.linspace(0.0, 2.0, 65),
    "G1000": np.linspace(0.0, 2.0, 1001),
    "skewed": np.array([0.0, 1e-9, 1e-3, 1.0]),
}


# the golden tests' analytic couplings, with a PowerLaw every case below integrates
_ANALYTIC = {
    "constant": Constant(0.8), "exp_decay": ExpDecay(0.9, 1.1), "indicator": Indicator(0.7, 1.3),
    "power_law": PowerLaw(0.6, -0.2), "power_law_up": PowerLaw(0.5, 0.4),
}


def _mp_analytic_iterated(f, T, p, w, outer):
    """The same integral for an analytic coupling in 20-digit arithmetic.  The
    inner norm of Constant, Indicator and PowerLaw is c t^e up to X = min(T,
    cutoff) and constant after, so the outer integral is closed-form; that of
    ExpDecay, a lower incomplete gamma function, goes to tanh-sinh quadrature
    on dyadic pieces."""
    mp.mp.dps = 20
    b, r, T = mp.mpf(w) * p, mp.mpf(outer) / p, mp.mpf(T)
    if isinstance(f, ExpDecay):
        lam = p * mp.mpf(f.rate)
        c = mp.mpf(f.amplitude) ** p * lam ** (b - 1)
        pieces = [0, *(mp.mpf(2) ** k for k in range(-3, 8) if 2 ** k < T), T]
        return float(mp.quad(lambda t: (c * mp.gammainc(1 - b, 0, lam * t)) ** r, pieces))
    if isinstance(f, Indicator):
        amp, k, X = f.height, 0, min(T, mp.mpf(f.cutoff))
    else:
        amp, k, X = (f.level, 0, T) if isinstance(f, Constant) else (f.amplitude, f.exponent, T)
    e = mp.mpf(k) * p - b + 1
    c = mp.mpf(amp) ** p / e
    return float(c ** r * X ** (e * r + 1) / (e * r + 1) + (T - X) * (c * X ** e) ** r)


@pytest.mark.parametrize("name", sorted(_TABLE_GRIDS) + sorted(_ANALYTIC))
@pytest.mark.parametrize("inner_p,weight,outer", [
    (1.0, 0.0, 2.0 / (2.0 - _THETA)), (1.0, _THETA / 2.0, 1.0), (1.0, 0.0, 1.0),
    (1.0, 0.0, 2.0), (1.0, 0.5, 1.0), (2.0, 0.2, 1.5),
])
def test_tabulated_iterated_norm_matches_mpmath(name, inner_p, weight, outer):
    if name in _ANALYTIC:
        # at the indicator's cutoff, inside a piece, and at the T ladder's far end
        f = _ANALYTIC[name]
        for T in (1.3, 2.0, 4.0 * 2.0 ** 20):
            want = _mp_analytic_iterated(f, T, inner_p, weight, outer)
            assert iterated_norm(f, T, inner_p, weight, outer) == pytest.approx(want, rel=1e-13)
        return
    grid = _TABLE_GRIDS[name]
    values = np.random.default_rng(len(grid)).uniform(0.1, 1.0, len(grid))
    f = Tabulated(tuple(grid), tuple(values))
    k = len(grid) // 2
    for T in (float(grid[-1]), float(grid[k] + 0.3 * (grid[k + 1] - grid[k]))):
        want = _mp_iterated(grid, values, T, inner_p, weight, outer)
        assert iterated_norm(f, T, inner_p, weight, outer) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("inner_p,weight,outer", [(1.0, 0.0, 2.5), (2.0, 0.2, 1.5), (1.0, 0.6, 1.0)])
def test_tabulated_iterated_norm_support_starting_late(inner_p, weight, outer):
    # f = 0 before t = 0.3, so the integrand vanishes like (t - 0.3)^r there
    grid, values = np.array([0.0, 0.1, 0.3, 0.7, 1.5, 2.0]), np.array([0.0, 0.0, 0.8, 0.4, 1.1, 0.5])
    want = _mp_iterated(grid, values, 2.0, inner_p, weight, outer)
    got = iterated_norm(Tabulated(tuple(grid), tuple(values)), 2.0, inner_p, weight, outer)
    assert got == pytest.approx(want, rel=1e-13)
    assert iterated_norm(Tabulated(tuple(grid), tuple(values)), 0.25, inner_p, weight, outer) == 0.0
