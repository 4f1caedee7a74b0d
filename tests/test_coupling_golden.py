"""Golden values of every computation that reads a coupling schedule.

Each entry is the ``float.hex`` of an output, or ``"raises <Error>"`` where
the case is rejected.  The values were captured before the per-variant facts
moved onto the coupling classes; any change to the arithmetic of a norm, an
envelope, a theorem bound, a slope, an expectation or the JSON form shows up
here as a changed bit pattern.  The table iterated norms, the theorem-2 table
bounds and the table self- and cross-pair expectations were re-captured when
the table quadratures became exact per cell (the adaptive ones were off by up
to 2.5e-9 on LONG_TABLE and 1.4e-10 on the cross pair; see
tests/test_schedule.py and tests/test_kernels.py for the references).  The
iterated norms, theorem-2 bounds, T ladders and self- and cross-pair
expectations of every variant were re-captured again when one graded
Gauss-Legendre rule replaced adaptive quadrature for all of them (the
adaptive values were off from mpmath by up to 2.1e-11 on iterated norms and
2.3e-10 on the ExpDecay cross pair; the new ones by at most 6e-16), and the
conditioned-derivative values when the profile-weight integral was split at
its peak (the theta = 0.6 case moved from 1.3e-8 to 3.5e-12 off mpmath).
"""

import math

from fkbound import bounds as B
from fkbound import kernels as K
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

T = 2.0
VARIANTS = {
    "constant": Constant(0.8),
    "exp_decay": ExpDecay(0.9, 1.1),
    "indicator": Indicator(0.7, 1.3),
    "power_law": PowerLaw(0.6, -0.3),
    "power_law_up": PowerLaw(0.5, 0.4),
    "tabulated": Tabulated((0.0, 0.5, 1.2, 2.0), (0.5, 0.9, 0.3, 0.4)),
}
# more cells than adaptive quadrature resolves at its tolerance
LONG_TABLE = Tabulated(tuple(k / 32.0 for k in range(65)),
                       tuple(0.5 + 0.4 * math.sin(k) for k in range(65)))


def _hexes(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hexes(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hexes(v) for v in x]
    return x


def _pin(fn):
    try:
        return _hexes(fn())
    except Exception as exc:  # the golden value is the exception type
        return f"raises {type(exc).__name__}"


def _bound(theorem, f, theta):
    rep = B.theorem_bound(theorem, f, B.BoundParams(theta, 3, T))
    return [rep.log_bound, rep.branch] + [
        x for t in rep.terms for x in (t.coefficient, t.norm_value)]


def _expectation(kind, f, theta):
    ea = K.expected_action(kind, f, B.BoundParams(theta, 3, T))
    return [ea.value, ea.K, ea.is_upper_bound, ea.note]


def _cases():
    # (name, thunk) pairs; each thunk runs before the generator advances, so
    # its late-bound loop variables still hold this case's values
    for name, f in VARIANTS.items():
        for theorem in (1, 2, 3):
            for theta in (0.8, 1.0, 1.5):
                yield f"bound:{name}:T{theorem}:{theta}", lambda: _bound(theorem, f, theta)
        for p, s, w in ((1.0, 1.5, 0.0), (2.0, 2.0, 0.25), (1.0, 2.0, 0.5),
                        (1.5, 0.7, 0.3), (1.0, 0.0, 0.75), (3.0, 1.0, 0.0)):
            yield f"norm:{name}:{p}:{s}:{w}", lambda: norm(f, p, s, weight=w)
        yield f"evaluate:{name}", lambda: evaluate(f, [0.0, 0.5, 1.3, 1.9, 2.0]).tolist()
        yield f"evaluate_scalar:{name}", lambda: evaluate(f, 0.7)
        yield f"is_zero:{name}", lambda: f.is_zero()
        yield f"envelope:{name}", lambda: envelope(f, T).to_dict()
        yield f"envelope_T3:{name}", lambda: envelope(f, 3.0).to_dict()
        for theorem in (1, 2, 3):
            for theta in (0.8, 1.0, 1.5):
                yield (f"analytic_slope:{name}:T{theorem}:{theta}",
                       lambda: B.analytic_slope(theorem, f, theta, 3))
        yield f"expected:{name}:single", lambda: _expectation("single", f, 1.2)
        yield f"expected:{name}:self_double", lambda: _expectation("self_double", f, 1.2)
        yield f"expected:{name}:cross_double", lambda: _expectation("cross_double", f, 1.2)
        yield f"expected:{name}:cross_double_0.8", lambda: _expectation("cross_double", f, 0.8)
        yield (f"conditioned:{name}",
               lambda: K.conditioned_derivative_magnitude(f, 1.2, 3, 0.3, 0.8, T))
        yield (f"derivative_bound:{name}",
               lambda: K.stochastic_derivative_bound(f, 1.2, 3, 0.3, 0.8))
        yield f"to_dict:{name}", lambda: f.to_dict()
        yield f"round_trip:{name}", lambda: coupling_from_dict(f.to_dict()) == f
    for name, f in (("long_table", LONG_TABLE), *VARIANTS.items()):
        for inner_p, inner_w, outer in ((1.0, 0.0, 1.0), (1.0, 0.0, 2.0), (1.0, 0.5, 1.0),
                                        (1.0, 0.75, 1.0), (1.0, 0.0, 4.0), (2.0, 0.2, 1.5)):
            yield (f"iterated:{name}:{inner_p}:{inner_w}:{outer}",
                   lambda: iterated_norm(f, T, inner_p, inner_w, outer))
    for theorem, name, theta in ((2, "exp_decay", 1.5), (2, "indicator", 0.8),
                                 (3, "exp_decay", 1.0), (1, "exp_decay", 1.2)):
        yield (f"ladder:{name}:T{theorem}:{theta}",
               lambda: B.ladder_slope(theorem, VARIANTS[name], theta, 3))
    falling = Tabulated((0.0, 0.5, 1.2, 2.0), (0.9, 0.5, 0.5, 0.1))
    yield "conditioned:falling_table", lambda: K.conditioned_derivative_magnitude(
        falling, 1.2, 3, 0.3, 0.8, T)
    yield "conditioned:indicator_past_cutoff", lambda: K.conditioned_derivative_magnitude(
        VARIANTS["indicator"], 1.2, 3, 1.5, 0.8, T)
    yield "conditioned:exp_decay_theta_0.6", lambda: K.conditioned_derivative_magnitude(
        VARIANTS["exp_decay"], 0.6, 3, 0.0, 1.7, T)
    yield "envelope:zero_horizon", lambda: envelope(Constant(1.0), 0.0)
    yield "is_zero:zero_table", lambda: Tabulated((0, 1), (0, 0)).is_zero()
    yield "from_dict:int_fields", lambda: (
        coupling_from_dict({"kind": "exp_decay", "amplitude": 1, "rate": 2}).to_dict())
    yield "from_dict:string_fields", lambda: (
        coupling_from_dict({"kind": "indicator", "height": "0.5", "cutoff": "1.5"}).to_dict())
    yield "from_dict:extra_field", lambda: (
        coupling_from_dict({"kind": "constant", "level": 0.3, "note": "ignored"}).to_dict())
    yield "from_dict:table", lambda: (
        coupling_from_dict({"kind": "tabulated", "grid": [0, 1, 3], "values": [2, 1, 0]}).to_dict())
    yield "from_dict:missing_field", lambda: coupling_from_dict({"kind": "power_law",
                                                                 "amplitude": 1.0})
    yield "from_dict:unknown_kind", lambda: coupling_from_dict({"kind": "mystery"})
    yield "from_dict:no_kind", lambda: coupling_from_dict({"level": 1.0})
    yield "from_dict:not_a_dict", lambda: coupling_from_dict([("kind", "constant")])


GOLDEN = {
    'bound:constant:T1:0.8': [
        '0x1.22680cbc5b474p+1', 'theta_leq_1', '0x1.381882cfbfa8ep-1', '0x1.999999999999ap+0',
        '0x1.600c9797f2007p-1', '0x1.21a1851ff630bp+1',
    ],
    'bound:constant:T1:1.0': [
        '0x1.390315eed9b11p+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.21a1851ff630bp+0',
        '0x1.9884533d43650p-1', '0x1.21a1851ff630bp+1',
    ],
    'bound:constant:T1:1.5': [
        '0x1.1274ea6cabb5cp+3', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.e719676b5f1bcp-1',
        '0x1.3bb77af85f346p+0', '0x1.e719676b5f1bcp+1',
    ],
    'bound:constant:T2:0.8': [
        '0x1.6ba6c5f728b90p+1', 'theta_leq_1', '0x1.7a13baf2d4ed1p-1', '0x1.9999999999999p+0',
        '0x1.4f91587d4ae67p-1', '0x1.822cb17ff2eb9p+1',
    ],
    'bound:constant:T2:1.0': [
        '0x1.a1597293ccec0p+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.b4e81b4e81b50p+0',
        '0x1.9884533d43650p-1', '0x1.822cb17ff2eb9p+1',
    ],
    'bound:constant:T2:1.5': [
        '0x1.3efc6400202bap+4', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.4f8b588e368f0p+1',
        '0x1.3bb77af85f346p+0', '0x1.85adec55e5afdp+2',
    ],
    'bound:constant:T3:0.8': [
        '0x1.d0276fd1e75c5p+1', 'theta_leq_1', '0x1.4d8c31eba9560p-1', '0x1.999999999999ap+0',
        '0x1.7cbc481983906p+0', '0x1.999999999999ap+0',
    ],
    'bound:constant:T3:1.0': [
        '0x1.eaa74cd4d9c19p+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.999999999999ap+0',
        '0x1.9884533d43651p+0', '0x1.999999999999ap+0',
    ],
    'bound:constant:T3:1.5': [
        '0x1.ab25cf5934b55p+3', 'theta_geq_1', '0x1.2f684bda12f68p+0', '0x1.999999999999ap+0',
        '0x1.be7da97d95410p+1', '0x1.999999999999ap+0',
    ],
    'norm:constant:1.0:1.5:0.0': '0x1.3333333333334p+0',
    'norm:constant:2.0:2.0:0.25': '0x1.586e61448a958p+0',
    'norm:constant:1.0:2.0:0.5': '0x1.21a1851ff630bp+1',
    'norm:constant:1.5:0.7:0.3': '0x1.0baf5f0d1cffdp+0',
    'norm:constant:1.0:0.0:0.75': '0x0.0p+0',
    'norm:constant:3.0:1.0:0.0': '0x1.999999999999ap-1',
    'evaluate:constant': [
        '0x1.999999999999ap-1', '0x1.999999999999ap-1', '0x1.999999999999ap-1',
        '0x1.999999999999ap-1', '0x1.999999999999ap-1',
    ],
    'evaluate_scalar:constant': '0x1.999999999999ap-1',
    'is_zero:constant': False,
    'envelope:constant': {'kind': 'constant', 'level': '0x1.999999999999ap-1'},
    'envelope_T3:constant': {'kind': 'constant', 'level': '0x1.999999999999ap-1'},
    'analytic_slope:constant:T1:0.8': '0x1.6d0786b0b1eafp-2',
    'analytic_slope:constant:T1:1.0': '0x1.47ae147ae147cp-2',
    'analytic_slope:constant:T1:1.5': '0x1.f11a4a4df2036p+0',
    'analytic_slope:constant:T2:0.8': 'raises NoLinearSlope',
    'analytic_slope:constant:T2:1.0': 'raises NoLinearSlope',
    'analytic_slope:constant:T2:1.5': 'raises NoLinearSlope',
    'analytic_slope:constant:T3:0.8': 'raises NoLinearSlope',
    'analytic_slope:constant:T3:1.0': 'raises NoLinearSlope',
    'analytic_slope:constant:T3:1.5': 'raises NoLinearSlope',
    'expected:constant:single': [
        '0x1.0cbad570738fcp+1', '0x1.9751781d8bdfbp-1', False, 'exact at the origin',
    ],
    'expected:constant:self_double': [
        '0x1.7fe6557c12cd6p+1', '0x1.9751781d8bdfbp-1', False, 'exact',
    ],
    'expected:constant:cross_double': [
        '0x1.2a980888b3454p+0', '0x1.9751781d8bdfbp-1', True,
        'HLS upper bound, constant 2.78629',
    ],
    'expected:constant:cross_double_0.8': [
        '0x1.324690de4be06p+0', '0x1.a0897fd1f92cdp-1', True,
        'HLS upper bound, constant 1.91074',
    ],
    'conditioned:constant': '0x1.62f4275ed8dd5p-1',
    'derivative_bound:constant': '0x1.dbe1d674f2d7dp-1',
    'to_dict:constant': {'kind': 'constant', 'level': '0x1.999999999999ap-1'},
    'round_trip:constant': True,
    'bound:exp_decay:T1:0.8': [
        '0x1.53ce453c744d1p+0', 'theta_leq_1', '0x1.0dc2544b63b6cp-2', '0x1.747e1db13f69ep-1',
        '0x1.7cc0c8e2d4a9ap-1', '0x1.77600f3b80405p+0',
    ],
    'bound:exp_decay:T1:1.0': [
        '0x1.5a0e05e85c27cp+0', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.34c21fd66e487p-1',
        '0x1.9884533d43650p-1', '0x1.77600f3b80405p+0',
    ],
    'bound:exp_decay:T1:1.5': [
        '0x1.2559ce40bd3f5p+2', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.3e2696bd12872p-1',
        '0x1.3bb77af85f346p+0', '0x1.925edb6f42704p+1',
    ],
    'bound:exp_decay:T2:0.8': [
        '0x1.0b51e88baa514p+1', 'theta_leq_1', '0x1.667d9babb07bcp-2', '0x1.f33042190c2b4p-1',
        '0x1.745b4dc3e6e02p-1', '0x1.32792ef914299p+1',
    ],
    'bound:exp_decay:T2:1.0': [
        '0x1.182fa7adf078bp+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.1d3f09703a5c9p-1',
        '0x1.9884533d43650p-1', '0x1.32792ef914299p+1',
    ],
    'bound:exp_decay:T2:1.5': [
        '0x1.009c3f71d6602p+3', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.b5dfe70481b29p-3',
        '0x1.3bb77af85f346p+0', '0x1.6b8be4aa59832p+2',
    ],
    'bound:exp_decay:T3:0.8': [
        '0x1.863904e7ff58ep+0', 'theta_leq_1', '0x1.4d8c31eba9560p-1', '0x1.747e1db13f69ep-1',
        '0x1.7cbc481983906p+0', '0x1.747e1db13f69ep-1',
    ],
    'bound:exp_decay:T3:1.0': [
        '0x1.6cf49d4975e08p+0', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.747e1db13f69ep-1',
        '0x1.9884533d43651p+0', '0x1.747e1db13f69ep-1',
    ],
    'bound:exp_decay:T3:1.5': [
        '0x1.6f553c65ea432p+1', 'theta_geq_1', '0x1.2f684bda12f68p+0', '0x1.747e1db13f69ep-1',
        '0x1.be7da97d95410p+1', '0x1.747e1db13f69ep-1',
    ],
    'norm:exp_decay:1.0:1.5:0.0': '0x1.527527c844441p-1',
    'norm:exp_decay:2.0:2.0:0.25': '0x1.f6f774b39b1e7p-1',
    'norm:exp_decay:1.0:2.0:0.5': '0x1.77600f3b80405p+0',
    'norm:exp_decay:1.5:0.7:0.3': '0x1.db9ef3c4f3deep-1',
    'norm:exp_decay:1.0:0.0:0.75': '0x0.0p+0',
    'norm:exp_decay:3.0:1.0:0.0': '0x1.31a828046cf0cp-1',
    'evaluate:exp_decay': [
        '0x1.ccccccccccccdp-1', '0x1.09dbc4dca1b4dp-1', '0x1.b9181dd9ae5d8p-3',
        '0x1.c7f5d36f1d743p-4', '0x1.9876fab50528dp-4',
    ],
    'evaluate_scalar:exp_decay': '0x1.aab67ceda9944p-2',
    'is_zero:exp_decay': False,
    'envelope:exp_decay': {
        'kind': 'exp_decay',
        'amplitude': '0x1.ccccccccccccdp-1',
        'rate': '0x1.199999999999ap+0',
    },
    'envelope_T3:exp_decay': {
        'kind': 'exp_decay',
        'amplitude': '0x1.ccccccccccccdp-1',
        'rate': '0x1.199999999999ap+0',
    },
    'analytic_slope:exp_decay:T1:0.8': '0x0.0p+0',
    'analytic_slope:exp_decay:T1:1.0': '0x0.0p+0',
    'analytic_slope:exp_decay:T1:1.5': '0x0.0p+0',
    'analytic_slope:exp_decay:T2:0.8': '0x1.6977bb4f6d5b3p+0',
    'analytic_slope:exp_decay:T2:1.0': '0x1.8c5b748ab16fep+0',
    'analytic_slope:exp_decay:T2:1.5': '0x1.8373342c1f71dp+2',
    'analytic_slope:exp_decay:T3:0.8': '0x1.dd75ec2203473p-3',
    'analytic_slope:exp_decay:T3:1.0': '0x1.56be69c8fde25p-3',
    'analytic_slope:exp_decay:T3:1.5': '0x1.0fedd0c150d56p-2',
    'expected:exp_decay:single': [
        '0x1.7d48d97f94f6cp+0', '0x1.9751781d8bdfbp-1', False, 'exact at the origin',
    ],
    'expected:exp_decay:self_double': [
        '0x1.44242838d4a0ep+1', '0x1.9751781d8bdfbp-1', False, 'exact',
    ],
    'expected:exp_decay:cross_double': [
        '0x1.689373a829a35p-1', '0x1.9751781d8bdfbp-1', True,
        'HLS upper bound, constant 2.78629',
    ],
    'expected:exp_decay:cross_double_0.8': [
        '0x1.714e7e42ce9bcp-1', '0x1.a0897fd1f92cdp-1', True,
        'HLS upper bound, constant 1.91074',
    ],
    'conditioned:exp_decay': '0x1.8adca301c993ep-2',
    'derivative_bound:exp_decay': '0x1.80e36bfdf8240p-1',
    'to_dict:exp_decay': {
        'kind': 'exp_decay',
        'amplitude': '0x1.ccccccccccccdp-1',
        'rate': '0x1.199999999999ap+0',
    },
    'round_trip:exp_decay': True,
    'bound:indicator:T1:0.8': [
        '0x1.7e43fe561e124p+0', 'theta_leq_1', '0x1.87fc7a17dc82bp-2', '0x1.d1eb851eb851ep-1',
        '0x1.67f8d24f54fbfp-1', '0x1.98a38d2381531p+0',
    ],
    'bound:indicator:T1:1.0': [
        '0x1.9795285ddd851p+0', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.98a38d2381530p-1',
        '0x1.9884533d43650p-1', '0x1.98a38d2381531p+0',
    ],
    'bound:indicator:T1:1.5': [
        '0x1.4aaf9aea6f7f6p+2', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.7eb22836788ebp-1',
        '0x1.3bb77af85f346p+0', '0x1.7eb22836788ebp+1',
    ],
    'bound:indicator:T2:0.8': [
        '0x1.21bec59a9aa29p+1', 'theta_leq_1', '0x1.fb8a9af43a58ap-2', '0x1.3a7ef9db22d0dp+0',
        '0x1.62c3d8a7021dap-1', '0x1.4019b7178bb43p+1',
    ],
    'bound:indicator:T2:1.0': [
        '0x1.3b77d2ccd17acp+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.e084d1d30da03p-1',
        '0x1.9884533d43650p-1', '0x1.4019b7178bb43p+1',
    ],
    'bound:indicator:T2:1.5': [
        '0x1.312cd2778ea5ap+3', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.510f451c88af7p-1',
        '0x1.3bb77af85f346p+0', '0x1.4cf2096296f6fp+2',
    ],
    'bound:indicator:T3:0.8': [
        '0x1.ee796779ab7dcp+0', 'theta_leq_1', '0x1.4d8c31eba9560p-1', '0x1.d1eb851eb851ep-1',
        '0x1.7cbc481983906p+0', '0x1.d1eb851eb851ep-1',
    ],
    'bound:indicator:T3:1.0': [
        '0x1.ddbf46d5236c0p+0', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.d1eb851eb851ep-1',
        '0x1.9884533d43651p+0', '0x1.d1eb851eb851ep-1',
    ],
    'bound:indicator:T3:1.5': [
        '0x1.fe5662cc78542p+1', 'theta_geq_1', '0x1.2f684bda12f68p+0', '0x1.d1eb851eb851ep-1',
        '0x1.be7da97d95410p+1', '0x1.d1eb851eb851ep-1',
    ],
    'norm:indicator:1.0:1.5:0.0': '0x1.d1eb851eb851ep-1',
    'norm:indicator:2.0:2.0:0.25': '0x1.0e9b5cc7f3484p+0',
    'norm:indicator:1.0:2.0:0.5': '0x1.98a38d2381531p+0',
    'norm:indicator:1.5:0.7:0.3': '0x1.d472e656f2bf9p-1',
    'norm:indicator:1.0:0.0:0.75': '0x0.0p+0',
    'norm:indicator:3.0:1.0:0.0': '0x1.6666666666666p-1',
    'evaluate:indicator': [
        '0x1.6666666666666p-1', '0x1.6666666666666p-1', '0x1.6666666666666p-1', '0x0.0p+0',
        '0x0.0p+0',
    ],
    'evaluate_scalar:indicator': '0x1.6666666666666p-1',
    'is_zero:indicator': False,
    'envelope:indicator': {
        'kind': 'indicator',
        'height': '0x1.6666666666666p-1',
        'cutoff': '0x1.4cccccccccccdp+0',
    },
    'envelope_T3:indicator': {
        'kind': 'indicator',
        'height': '0x1.6666666666666p-1',
        'cutoff': '0x1.4cccccccccccdp+0',
    },
    'analytic_slope:indicator:T1:0.8': '0x0.0p+0',
    'analytic_slope:indicator:T1:1.0': '0x0.0p+0',
    'analytic_slope:indicator:T1:1.5': '0x0.0p+0',
    'analytic_slope:indicator:T2:0.8': '0x1.841fe4a38876bp+0',
    'analytic_slope:indicator:T2:1.0': '0x1.b00b1f5aff844p+0',
    'analytic_slope:indicator:T2:1.5': '0x1.bc0b7f895cb18p+2',
    'analytic_slope:indicator:T3:0.8': '0x1.1d082ceb9c1bfp-2',
    'analytic_slope:indicator:T3:1.0': '0x1.a7fcb923a29c6p-3',
    'analytic_slope:indicator:T3:1.5': '0x1.a01f7e68c2080p-2',
    'expected:indicator:single': [
        '0x1.8bd6f0c419f64p+0', '0x1.9751781d8bdfbp-1', False, 'exact at the origin',
    ],
    'expected:indicator:self_double': [
        '0x1.4253982aa76d1p+1', '0x1.9751781d8bdfbp-1', False, 'exact',
    ],
    'expected:indicator:cross_double': [
        '0x1.bf14b46673354p-1', '0x1.9751781d8bdfbp-1', True,
        'HLS upper bound, constant 2.78629',
    ],
    'expected:indicator:cross_double_0.8': [
        '0x1.cdf216ed53718p-1', '0x1.a0897fd1f92cdp-1', True,
        'HLS upper bound, constant 1.91074',
    ],
    'conditioned:indicator': '0x1.1334b325e5ec6p-1',
    'derivative_bound:indicator': '0x1.a0659ba6547ccp-1',
    'to_dict:indicator': {
        'kind': 'indicator',
        'height': '0x1.6666666666666p-1',
        'cutoff': '0x1.4cccccccccccdp+0',
    },
    'round_trip:indicator': True,
    'bound:power_law:T1:0.8': [
        '0x1.7ef60bfb0f5b4p+1', 'theta_leq_1', '0x1.28e1da04bd4bfp-1', '0x1.647677d4322c6p+0',
        '0x1.5c5086f7db999p-1', '0x1.b919a4a1859afp+1',
    ],
    'bound:power_law:T1:1.0': [
        '0x1.abf35f176649ap+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.16f9eaf8c4186p+0',
        '0x1.9884533d43650p-1', '0x1.b919a4a1859afp+1',
    ],
    'bound:power_law:T1:1.5': 'raises NonIntegrable',
    'bound:power_law:T2:0.8': [
        '0x1.29cbc74e9e8dcp+2', 'theta_leq_1', '0x1.6c861cdcbe163p-1', '0x1.a35e329f4a163p+0',
        '0x1.53fa24df00f26p-1', '0x1.6f955e869a014p+2',
    ],
    'bound:power_law:T2:1.0': [
        '0x1.58fe0a5aeac49p+2', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.9da01614b6b60p+0',
        '0x1.9884533d43650p-1', '0x1.6f955e869a014p+2',
    ],
    'bound:power_law:T2:1.5': 'raises NonIntegrable',
    'bound:power_law:T3:0.8': [
        '0x1.8ba111c892192p+1', 'theta_leq_1', '0x1.4d8c31eba9560p-1', '0x1.647677d4322c6p+0',
        '0x1.7cbc481983906p+0', '0x1.647677d4322c6p+0',
    ],
    'bound:power_law:T3:1.0': [
        '0x1.9880f5020ef68p+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.647677d4322c6p+0',
        '0x1.9884533d43651p+0', '0x1.647677d4322c6p+0',
    ],
    'bound:power_law:T3:1.5': [
        '0x1.29ffabfee0d7ap+3', 'theta_geq_1', '0x1.2f684bda12f68p+0', '0x1.647677d4322c6p+0',
        '0x1.be7da97d95410p+1', '0x1.647677d4322c6p+0',
    ],
    'norm:power_law:1.0:1.5:0.0': '0x1.2371ff3932745p+0',
    'norm:power_law:2.0:2.0:0.25': 'raises NonIntegrable',
    'norm:power_law:1.0:2.0:0.5': '0x1.b919a4a1859afp+1',
    'norm:power_law:1.5:0.7:0.3': '0x1.5c18ff7c0a810p+1',
    'norm:power_law:1.0:0.0:0.75': '0x0.0p+0',
    'norm:power_law:3.0:1.0:0.0': '0x1.4aebd1b1086c3p+0',
    'evaluate:power_law': [
        'inf', '0x1.7a3522e65d097p-1', '0x1.1bf2960f3849bp-1', '0x1.fac95ee4a19cbp-2',
        '0x1.f30c415c463e2p-2',
    ],
    'evaluate_scalar:power_law': '0x1.55e4edb24cce0p-1',
    'is_zero:power_law': False,
    'envelope:power_law': {
        'kind': 'power_law',
        'amplitude': '0x1.3333333333333p-1',
        'exponent': '-0x1.3333333333333p-2',
    },
    'envelope_T3:power_law': {
        'kind': 'power_law',
        'amplitude': '0x1.3333333333333p-1',
        'exponent': '-0x1.3333333333333p-2',
    },
    'analytic_slope:power_law:T1:0.8': 'raises DomainError',
    'analytic_slope:power_law:T1:1.0': 'raises DomainError',
    'analytic_slope:power_law:T1:1.5': 'raises DomainError',
    'analytic_slope:power_law:T2:0.8': 'raises DomainError',
    'analytic_slope:power_law:T2:1.0': 'raises DomainError',
    'analytic_slope:power_law:T2:1.5': 'raises DomainError',
    'analytic_slope:power_law:T3:0.8': 'raises DomainError',
    'analytic_slope:power_law:T3:1.0': 'raises DomainError',
    'analytic_slope:power_law:T3:1.5': 'raises DomainError',
    'expected:power_law:single': [
        '0x1.476a27214fbf8p+2', '0x1.9751781d8bdfbp-1', False, 'exact at the origin',
    ],
    'expected:power_law:self_double': [
        '0x1.29a6521e487f9p+3', '0x1.9751781d8bdfbp-1', False, 'exact',
    ],
    'expected:power_law:cross_double': [
        '0x1.33c06332bc3c3p+0', '0x1.9751781d8bdfbp-1', True,
        'HLS upper bound, constant 2.78629',
    ],
    'expected:power_law:cross_double_0.8': [
        '0x1.3945067356352p+0', '0x1.a0897fd1f92cdp-1', True,
        'HLS upper bound, constant 1.91074',
    ],
    'conditioned:power_law': 'raises DomainError',
    'derivative_bound:power_law': 'raises DomainError',
    'to_dict:power_law': {
        'kind': 'power_law',
        'amplitude': '0x1.3333333333333p-1',
        'exponent': '-0x1.3333333333333p-2',
    },
    'round_trip:power_law': True,
    'bound:power_law_up:T1:0.8': [
        '0x1.d790b1df62702p+0', 'theta_leq_1', '0x1.e2bbb536c8a6ep-2', '0x1.51cb453b9536cp+0',
        '0x1.6b8ac5370686fp-1', '0x1.ddb680117ab12p+0',
    ],
    'bound:power_law_up:T1:1.0': [
        '0x1.ec971830a0ae0p+0', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.ddb680117ab11p-1',
        '0x1.9884533d43650p-1', '0x1.ddb680117ab12p+0',
    ],
    'bound:power_law_up:T1:1.5': [
        '0x1.6aad1d2e1dc12p+2', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.91b501c2db3dep-1',
        '0x1.3bb77af85f346p+0', '0x1.91b501c2db3dep+1',
    ],
    'bound:power_law_up:T2:0.8': [
        '0x1.27b89e2b1fda4p+1', 'theta_leq_1', '0x1.246513cc970fbp-1', '0x1.51cb453b9536bp+0',
        '0x1.5a85c8a1b53fap-1', '0x1.3e79aab651cb7p+1',
    ],
    'bound:power_law_up:T2:1.0': [
        '0x1.4864bacb15c96p+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.2925de73d40c0p+0',
        '0x1.9884533d43650p-1', '0x1.3e79aab651cb7p+1',
    ],
    'bound:power_law_up:T2:1.5': [
        '0x1.7e1dedae2d597p+3', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.366b336288b7cp+0',
        '0x1.3bb77af85f346p+0', '0x1.415d9b0248fe5p+2',
    ],
    'bound:power_law_up:T3:0.8': [
        '0x1.00c0b24077a5ep+1', 'theta_leq_1', '0x1.4d8c31eba9560p-1', '0x1.e29019c2d529bp-1',
        '0x1.7cbc481983906p+0', '0x1.e29019c2d529bp-1',
    ],
    'bound:power_law_up:T3:1.0': [
        '0x1.f2bbea65d5048p+0', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.e29019c2d529bp-1',
        '0x1.9884533d43651p+0', '0x1.e29019c2d529bp-1',
    ],
    'bound:power_law_up:T3:1.5': [
        '0x1.0e43eaf206008p+2', 'theta_geq_1', '0x1.2f684bda12f68p+0', '0x1.e29019c2d529bp-1',
        '0x1.be7da97d95410p+1', '0x1.e29019c2d529bp-1',
    ],
    'norm:power_law_up:1.0:1.5:0.0': '0x1.4294e8a2ea8c2p-1',
    'norm:power_law_up:2.0:2.0:0.25': '0x1.605205854c50cp-1',
    'norm:power_law_up:1.0:2.0:0.5': '0x1.09656397eed43p+0',
    'norm:power_law_up:1.5:0.7:0.3': '0x1.62d9f79616bc5p-2',
    'norm:power_law_up:1.0:0.0:0.75': '0x0.0p+0',
    'norm:power_law_up:3.0:1.0:0.0': '0x1.89aac3e1f64c8p-2',
    'evaluate:power_law_up': [
        '0x0.0p+0', '0x1.8406003b2ae5cp-2', '0x1.1c5394192551cp-1', '0x1.4aef1b7985489p-1',
        '0x1.51cb453b9536cp-1',
    ],
    'evaluate_scalar:power_law_up': '0x1.bbecb03cabb82p-2',
    'is_zero:power_law_up': False,
    'envelope:power_law_up': {'kind': 'constant', 'level': '0x1.51cb453b9536cp-1'},
    'envelope_T3:power_law_up': {'kind': 'constant', 'level': '0x1.8d45c06468a88p-1'},
    'analytic_slope:power_law_up:T1:0.8': 'raises DomainError',
    'analytic_slope:power_law_up:T1:1.0': 'raises DomainError',
    'analytic_slope:power_law_up:T1:1.5': 'raises DomainError',
    'analytic_slope:power_law_up:T2:0.8': 'raises DomainError',
    'analytic_slope:power_law_up:T2:1.0': 'raises DomainError',
    'analytic_slope:power_law_up:T2:1.5': 'raises DomainError',
    'analytic_slope:power_law_up:T3:0.8': 'raises DomainError',
    'analytic_slope:power_law_up:T3:1.0': 'raises DomainError',
    'analytic_slope:power_law_up:T3:1.5': 'raises DomainError',
    'expected:power_law_up:single': [
        '0x1.bb3d28c07b65dp-1', '0x1.9751781d8bdfbp-1', False, 'exact at the origin',
    ],
    'expected:power_law_up:self_double': [
        '0x1.ec7cd7f250384p-1', '0x1.9751781d8bdfbp-1', False, 'exact',
    ],
    'expected:power_law_up:cross_double': [
        '0x1.271994d386e26p-1', '0x1.9751781d8bdfbp-1', True,
        'HLS upper bound, constant 2.78629',
    ],
    'expected:power_law_up:cross_double_0.8': [
        '0x1.2f1c7f5bf117bp-1', '0x1.a0897fd1f92cdp-1', True,
        'HLS upper bound, constant 1.91074',
    ],
    'conditioned:power_law_up': 'raises DomainError',
    'derivative_bound:power_law_up': 'raises DomainError',
    'to_dict:power_law_up': {
        'kind': 'power_law',
        'amplitude': '0x1.0000000000000p-1',
        'exponent': '0x1.999999999999ap-2',
    },
    'round_trip:power_law_up': True,
    'bound:tabulated:T1:0.8': [
        '0x1.13792ed0d8526p+1', 'theta_leq_1', '0x1.1a1ab16cab880p-1', '0x1.6666666666667p+0',
        '0x1.611ba694c708fp-1', '0x1.1d084e37bf3bep+1',
    ],
    'bound:tabulated:T1:1.0': [
        '0x1.29d2af35f0d9ap+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.0c7ebc96a56f6p+0',
        '0x1.9884533d43650p-1', '0x1.1d084e37bf3bep+1',
    ],
    'bound:tabulated:T1:1.5': [
        '0x1.183f2f8aa204ap+3', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.e5654c7bd6a78p-1',
        '0x1.3bb77af85f346p+0', '0x1.ff7cfb843820fp+1',
    ],
    'bound:tabulated:T2:0.8': [
        '0x1.8220bbb90f782p+1', 'theta_leq_1', '0x1.799ab530229f3p-1', '0x1.a3d70a3d70a3fp+0',
        '0x1.510e9902b1645p-1', '0x1.a16f3832cce1ep+1',
    ],
    'bound:tabulated:T2:1.0': [
        '0x1.ba161c603ce06p+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.b416643728d2ep+0',
        '0x1.9884533d43650p-1', '0x1.a16f3832cce1ep+1',
    ],
    'bound:tabulated:T2:1.5': [
        '0x1.31c909efb5bf6p+4', 'theta_geq_1', '0x1.2f684bda12f68p+2', '0x1.23f6eef90b5e1p+1',
        '0x1.3bb77af85f346p+0', '0x1.aea02b1e23594p+2',
    ],
    'bound:tabulated:T3:0.8': [
        '0x1.35f20071db5c4p+1', 'theta_leq_1', '0x1.4d8c31eba9560p-1', '0x1.1eb851eb851ecp+0',
        '0x1.7cbc481983906p+0', '0x1.1eb851eb851ecp+0',
    ],
    'bound:tabulated:T3:1.0': [
        '0x1.350d125a0355bp+1', 'theta_geq_1', '0x1.0000000000000p-1', '0x1.1eb851eb851ecp+0',
        '0x1.9884533d43651p+0', '0x1.1eb851eb851ecp+0',
    ],
    'bound:tabulated:T3:1.5': [
        '0x1.7163a570a4f5dp+2', 'theta_geq_1', '0x1.2f684bda12f68p+0', '0x1.1eb851eb851ecp+0',
        '0x1.be7da97d95410p+1', '0x1.1eb851eb851ecp+0',
    ],
    'norm:tabulated:1.0:1.5:0.0': '0x1.f0a3d70a3d70ap-1',
    'norm:tabulated:2.0:2.0:0.25': '0x1.051325d4e03c5p+0',
    'norm:tabulated:1.0:2.0:0.5': '0x1.98edb0743aae5p+0',
    'norm:tabulated:1.5:0.7:0.3': '0x1.82015d0dbf223p-1',
    'norm:tabulated:1.0:0.0:0.75': '0x0.0p+0',
    'norm:tabulated:3.0:1.0:0.0': '0x1.818c7828a60afp-1',
    'evaluate:tabulated': [
        '0x1.0000000000000p-1', '0x1.ccccccccccccdp-1', '0x1.3333333333333p-2',
        '0x1.3333333333333p-2', '0x1.999999999999ap-2',
    ],
    'evaluate_scalar:tabulated': '0x1.ccccccccccccdp-1',
    'is_zero:tabulated': False,
    'envelope:tabulated': {
        'kind': 'tabulated',
        'grid': [
            '0x0.0p+0', '0x1.0000000000000p-1', '0x1.3333333333333p+0', '0x1.0000000000000p+1',
        ],
        'values': [
            '0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-1', '0x1.999999999999ap-2',
            '0x1.999999999999ap-2',
        ],
    },
    'envelope_T3:tabulated': 'raises DomainError',
    'analytic_slope:tabulated:T1:0.8': 'raises DomainError',
    'analytic_slope:tabulated:T1:1.0': 'raises DomainError',
    'analytic_slope:tabulated:T1:1.5': 'raises DomainError',
    'analytic_slope:tabulated:T2:0.8': 'raises DomainError',
    'analytic_slope:tabulated:T2:1.0': 'raises DomainError',
    'analytic_slope:tabulated:T2:1.5': 'raises DomainError',
    'analytic_slope:tabulated:T3:0.8': 'raises DomainError',
    'analytic_slope:tabulated:T3:1.0': 'raises DomainError',
    'analytic_slope:tabulated:T3:1.5': 'raises DomainError',
    'expected:tabulated:single': [
        '0x1.77cd7b15db17fp+0', '0x1.9751781d8bdfbp-1', False, 'exact at the origin',
    ],
    'expected:tabulated:self_double': [
        '0x1.10e92fdffa1c8p+1', '0x1.9751781d8bdfbp-1', False, 'exact',
    ],
    'expected:tabulated:cross_double': [
        '0x1.cc749054e65eap-1', '0x1.9751781d8bdfbp-1', True,
        'HLS upper bound, constant 2.78629',
    ],
    'expected:tabulated:cross_double_0.8': [
        '0x1.dc039ddd48a4bp-1', '0x1.a0897fd1f92cdp-1', True,
        'HLS upper bound, constant 1.91074',
    ],
    'conditioned:tabulated': 'raises DomainError',
    'derivative_bound:tabulated': 'raises DomainError',
    'to_dict:tabulated': {
        'kind': 'tabulated',
        'grid': [
            '0x0.0p+0', '0x1.0000000000000p-1', '0x1.3333333333333p+0', '0x1.0000000000000p+1',
        ],
        'values': [
            '0x1.0000000000000p-1', '0x1.ccccccccccccdp-1', '0x1.3333333333333p-2',
            '0x1.999999999999ap-2',
        ],
    },
    'round_trip:tabulated': True,
    'iterated:long_table:1.0:0.0:1.0': '0x1.05c0ae82b33b4p+0',
    'iterated:long_table:1.0:0.0:2.0': '0x1.610432405f25dp-1',
    'iterated:long_table:1.0:0.5:1.0': '0x1.00ab6acdd07dcp+1',
    'iterated:long_table:1.0:0.75:1.0': '0x1.04a38563a9527p+2',
    'iterated:long_table:1.0:0.0:4.0': '0x1.b0d9408f40496p-2',
    'iterated:long_table:2.0:0.2:1.5': '0x1.423f9534a19d8p+0',
    'iterated:constant:1.0:0.0:1.0': '0x1.9999999999999p+0',
    'iterated:constant:1.0:0.0:2.0': '0x1.b4e81b4e81b50p+0',
    'iterated:constant:1.0:0.5:1.0': '0x1.822cb17ff2eb9p+1',
    'iterated:constant:1.0:0.75:1.0': '0x1.85adec55e5afdp+2',
    'iterated:constant:1.0:0.0:4.0': '0x1.4f8b588e368f0p+1',
    'iterated:constant:2.0:0.2:1.5': '0x1.fa468de8e1072p+0',
    'iterated:exp_decay:1.0:0.0:1.0': '0x1.f33042190c2b4p-1',
    'iterated:exp_decay:1.0:0.0:2.0': '0x1.1d3f09703a5c9p-1',
    'iterated:exp_decay:1.0:0.5:1.0': '0x1.32792ef914299p+1',
    'iterated:exp_decay:1.0:0.75:1.0': '0x1.6b8be4aa59832p+2',
    'iterated:exp_decay:1.0:0.0:4.0': '0x1.b5dfe70481b29p-3',
    'iterated:exp_decay:2.0:0.2:1.5': '0x1.70460e85a2d79p+0',
    'iterated:indicator:1.0:0.0:1.0': '0x1.3a7ef9db22d0dp+0',
    'iterated:indicator:1.0:0.0:2.0': '0x1.e084d1d30da03p-1',
    'iterated:indicator:1.0:0.5:1.0': '0x1.4019b7178bb43p+1',
    'iterated:indicator:1.0:0.75:1.0': '0x1.4cf2096296f6fp+2',
    'iterated:indicator:1.0:0.0:4.0': '0x1.510f451c88af7p-1',
    'iterated:indicator:2.0:0.2:1.5': '0x1.8b1f341a88ddep+0',
    'iterated:power_law:1.0:0.0:1.0': '0x1.a35e329f4a163p+0',
    'iterated:power_law:1.0:0.0:2.0': '0x1.9da01614b6b60p+0',
    'iterated:power_law:1.0:0.5:1.0': '0x1.6f955e869a014p+2',
    'iterated:power_law:1.0:0.75:1.0': 'raises NonIntegrable',
    'iterated:power_law:1.0:0.0:4.0': '0x1.fa811e299941bp+0',
    'iterated:power_law:2.0:0.2:1.5': 'raises NonIntegrable',
    'iterated:power_law_up:1.0:0.0:1.0': '0x1.9222c0225c4d5p-1',
    'iterated:power_law_up:1.0:0.0:2.0': '0x1.dec18ce7b6fbfp-2',
    'iterated:power_law_up:1.0:0.5:1.0': '0x1.175d406a08df4p+0',
    'iterated:power_law_up:1.0:0.75:1.0': '0x1.768d523398815p+0',
    'iterated:power_law_up:1.0:0.0:4.0': '0x1.e9b97b24a4c19p-3',
    'iterated:power_law_up:2.0:0.2:1.5': '0x1.1c1c2b219f96fp-1',
    'iterated:tabulated:1.0:0.0:1.0': '0x1.420c49ba5e353p+0',
    'iterated:tabulated:1.0:0.0:2.0': '0x1.0f94f536bff74p+0',
    'iterated:tabulated:1.0:0.5:1.0': '0x1.1948d815ca191p+1',
    'iterated:tabulated:1.0:0.75:1.0': '0x1.0977d6c37b4fep+2',
    'iterated:tabulated:1.0:0.0:4.0': '0x1.e18be8c5c082dp-1',
    'iterated:tabulated:2.0:0.2:1.5': '0x1.5b40dbc73e773p+0',
    'ladder:exp_decay:T2:1.5': '0x1.8373342c1f71ap+2',
    'ladder:indicator:T2:0.8': '0x1.841fdef3c22e7p+0',
    'ladder:exp_decay:T3:1.0': 'raises NoLinearSlope',
    'ladder:exp_decay:T1:1.2': '0x0.0p+0',
    'conditioned:falling_table': 'raises DomainError',
    'conditioned:indicator_past_cutoff': '0x0.0p+0',
    'conditioned:exp_decay_theta_0.6': '0x1.1d841c71d427bp-3',
    'envelope:zero_horizon': 'raises DomainError',
    'is_zero:zero_table': True,
    'from_dict:int_fields': {
        'kind': 'exp_decay',
        'amplitude': '0x1.0000000000000p+0',
        'rate': '0x1.0000000000000p+1',
    },
    'from_dict:string_fields': {
        'kind': 'indicator',
        'height': '0x1.0000000000000p-1',
        'cutoff': '0x1.8000000000000p+0',
    },
    'from_dict:extra_field': {'kind': 'constant', 'level': '0x1.3333333333333p-2'},
    'from_dict:table': {
        'kind': 'tabulated',
        'grid': ['0x0.0p+0', '0x1.0000000000000p+0', '0x1.8000000000000p+1'],
        'values': ['0x1.0000000000000p+1', '0x1.0000000000000p+0', '0x0.0p+0'],
    },
    'from_dict:missing_field': 'raises DomainError',
    'from_dict:unknown_kind': 'raises DomainError',
    'from_dict:no_kind': 'raises DomainError',
    'from_dict:not_a_dict': 'raises DomainError',
}


def test_coupling_golden_values():
    got = {name: _pin(fn) for name, fn in _cases()}
    assert got == GOLDEN
