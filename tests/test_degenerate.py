import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_laurent import _assert_same_bits, _lambda_poly_inverse, _scalar_loop_mul

from rankinlab import degenerate, laurent, numerator
from rankinlab.degenerate import (CorrectionReport, GlobalZetaData, _correction,
                                  _local_zeta_inverse_coeffs, build_G, build_h,
                                  correction_sum_factor, degenerate_limit, symmetry_residuals,
                                  taylor_bound_report)
from rankinlab.laurent import LaurentSeries2, ls_inverse_regular
from rankinlab.localdata import IdealFactorization, PlaceData
from rankinlab.scalars import SC_ZERO, LambdaPoly, Scalar, _inv, _plain_coeffs, _pow
from rankinlab.verify import TAYLOR_IDEALS, default_data, model_data

Q23 = IdealFactorization.parse("2^1*3^1")
LOG_SURROGATES = {
    2: Scalar.exact(Fraction(6931, 10000)),
    3: Scalar.exact(Fraction(10986, 10000)),
    5: Scalar.exact(Fraction(16094, 10000)),
}


def test_h_origin_values():
    h1 = build_h(Q23)[0]
    assert abs(h1.coeff(0, 0).coeff(0).to_complex() - 1 / 9) < 1e-15
    for which in (2, 3, 4):
        h = build_h(Q23)[which - 1]
        assert abs(h.coeff(0, 0).coeff(0).to_complex() - 1 / 9) < 1e-15


def test_h_first_coefficient():
    h1 = build_h(IdealFactorization.parse("2^1"))[0]
    assert abs(h1.coeff(1, 0).coeff(0).to_complex() - math.log(2) / 2) < 1e-15


def test_h_empty_ideal_is_one():
    h = build_h(IdealFactorization.parse("1"))[0]
    assert h.coeff(0, 0).coeff(0) == Scalar.exact(1)
    assert all(m == (0, 0) for m in h.num)


@pytest.mark.parametrize("log_map", [None, LOG_SURROGATES], ids=["numeric", "rational"])
def test_h_functions_are_lam_free(log_map):
    # degenerate_limit and taylor_bound_report read h1..h4 at lam power 0 only
    for spec in ("1", "2^1", "2^1*3^1", "2^2*3^1*5^1"):
        q = IdealFactorization.parse(spec)
        for which in (1, 2, 3, 4):
            h = build_h(q, log_map=log_map)[which - 1]
            assert h.num and all(set(lp.c) == {0} for lp in h.num.values()), (spec, which)


def test_symmetry_constraints_exact_with_rational_logs():
    hs = [build_h(Q23, log_map=LOG_SURROGATES)[k - 1] for k in (1, 2, 3, 4)]
    residuals = symmetry_residuals(*hs)
    assert set(residuals) == {
        "h1(z,0)=h3(z,0)", "h2(z,0)=h4(z,0)", "h1(0,w)=h2(0,w)",
        "h3(0,w)=h4(0,w)", "h1(-z,z)=h4(-z,z)", "h2(z,z)=h3(z,z)",
    }
    assert max(residuals.values()) == 0.0


def test_symmetry_constraints_float_pipeline():
    q = IdealFactorization.parse("2^2*3^1*5^1")
    hs = [build_h(q)[k - 1] for k in (1, 2, 3, 4)]
    scale = max(h.max_abs() for h in hs)
    assert max(symmetry_residuals(*hs).values()) <= 1e-13 * scale


@pytest.mark.parametrize("spec", TAYLOR_IDEALS)
def test_symmetry_residuals_certify_build_h_over_the_taylor_ideals(spec):
    q = IdealFactorization.parse(spec)
    exact_logs = {place.p: Fraction(place.p + 1, 3) for place in q.places}
    hs = [build_h(q, log_map=exact_logs)[k - 1] for k in (1, 2, 3, 4)]
    residuals = symmetry_residuals(*hs)
    assert len(residuals) == 6 and set(residuals.values()) == {0.0}
    # float logs: up to 5.6e-12 over these ideals
    assert max(symmetry_residuals(*[build_h(q)[k - 1] for k in (1, 2, 3, 4)]).values()) <= 1e-10
    # h2 + eps w (z - w) moves h2(0, w) by -eps w**2 and h2 on the lines w = 0
    # and z = w not at all, so exactly one residual reads it (eps z w would
    # leave h2(0, w) unchanged)
    eps = Fraction(1, 10 ** 6)
    bump = LaurentSeries2({(1, 1): Scalar.exact(eps), (0, 2): Scalar.exact(-eps)}, (0, 0, 0, 0))
    moved = symmetry_residuals(hs[0], hs[1] + bump, hs[2], hs[3])
    assert {name for name, value in moved.items() if value} == {"h1(0,w)=h2(0,w)"}
    assert moved["h1(0,w)=h2(0,w)"] == float(eps)


def test_taylor_report():
    q = IdealFactorization.parse("13^1")
    h = build_h(q)[3]
    rep = taylor_bound_report(h, q, 0, 0)
    assert rep.magnitude < 1.0 and rep.omega_power == 1.0
    rep12 = taylor_bound_report(h, q, 1, 2)
    assert rep12.ratio == rep12.magnitude  # omega = 1 for a single place


def test_build_G_pole_structure():
    data = model_data()
    g = build_G(data, 8)
    assert g.poles == (1, 1, 1, 0)
    # leading singular coefficient: xi*^2 * res(Lambda) * N(d) / (4 xi(2)) = 1/4
    lead = g.coeff(0, 0)
    assert lead.coeff(0) == Scalar.exact(Fraction(1, 4))
    flipped = g.flip(True, True)
    assert flipped.poles == (1, 1, 1, 0)
    assert flipped.coeff(0, 0).coeff(0) == Scalar.exact(Fraction(-1, 4))


def test_data_validation():
    with pytest.raises(ValueError):
        GlobalZetaData.from_document({"xi_residue": "1"})
    doc = {
        "xi_residue": "1", "xi_regular": ["0"] * 10, "xi_at_2": "1",
        "lambda_pi0_residue": "2", "lambda_pi0_regular": ["0"] * 10,
        "adjoint_L_value": "1", "norm_different": 1,
    }
    with pytest.raises(ValueError, match="residue factorization"):
        GlobalZetaData.from_document(doc)
    doc["lambda_pi0_residue"] = "1"
    GlobalZetaData.from_document(doc)  # now consistent


def test_depth_requirement():
    data = model_data()
    with pytest.raises(ValueError, match="depth"):
        build_G(data, 40)


def test_degenerate_limit_model_exact():
    rep = degenerate_limit(model_data(), Q23)
    assert rep.c3_residual == 0.0
    assert abs(rep.coefficients.c3.to_complex() - 1 / 3) < 1e-14
    assert rep.lambda_excess == 0.0
    assert rep.formula_c3.to_complex().real == pytest.approx(1 / 3)


@pytest.mark.parametrize("load", [model_data, default_data], ids=["model", "rationalfield"])
@pytest.mark.parametrize("spec", ["2^1*3^1", "7^2"])
def test_norm_different_shifts_lam_and_scales_the_cubic(load, spec):
    # N(d)**(1+2z+2w) = N(d) * exp(2 log N(d) (z+w)) enters as N(q)**(z+w) does:
    # with N(d) = 5 the cubic is 5 * c(lam + 2 log 5) of the same data at N(d) = 1
    data, q = load(), IdealFactorization.parse(spec)
    c = degenerate_limit(data, q).coefficients
    c3, c2, c1, c0 = (v.to_complex() for v in (c.c3, c.c2, c.c1, c.c0))
    shifted = degenerate_limit(dataclasses.replace(data, norm_different=5), q).coefficients
    s = 2 * math.log(5)
    expected = [5 * c3, 5 * (c2 + 3 * c3 * s), 5 * (c1 + 2 * c2 * s + 3 * c3 * s ** 2),
                5 * (c0 + c1 * s + c2 * s ** 2 + c3 * s ** 3)]
    got = [v.to_complex() for v in (shifted.c3, shifted.c2, shifted.c1, shifted.c0)]
    scale = max(abs(v) for v in expected)
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12 * scale


def test_degenerate_limit_q_independent_c3():
    data = default_data()
    values = []
    for spec in ("2^1", "2^3", "3^1*5^1"):
        rep = degenerate_limit(data, IdealFactorization.parse(spec))
        values.append(rep.coefficients.c3.to_complex())
        assert rep.c3_residual <= 1e-12
    assert max(abs(a - b) for a in values for b in values) <= 1e-13
    # the headline value for this data set: 1 * 1 * 1.25 / (3 * pi/6) = 2.5/pi
    assert values[0].real == pytest.approx(2.5 / math.pi, abs=1e-12)


def test_correction_term_values():
    data = default_data()
    assert degenerate_limit(data, IdealFactorization.parse("1")).correction_detail.value.is_zero()
    sum_factor = correction_sum_factor(IdealFactorization.parse("2^1"))
    assert sum_factor.__class__ is complex  # a plain number: Scalars are for the report
    assert abs(sum_factor - 2 * math.log(2) ** 3) < 1e-14
    report = degenerate_limit(data, IdealFactorization.parse("2^1")).correction_detail
    # the limit equals -2 c^3 L_Ad N(d)/(xi(2) zeta_q(1)^2) * sum-factor with
    # c = xi*(1), so c^3 = xi*(1)^3 = 1 here
    assert report.implied_c_cubed.to_complex().real == pytest.approx(1.0)


@pytest.mark.parametrize("spec", ["2^1", "3^1", "2^1*3^1", "7^2", "2^2*3^1*5^1",
                                  "2^1*3^2*5^1*7^1*11^1*13^2"])
def test_correction_implies_c_cubed_is_xi_residue_cubed(spec):
    # h4 is prod zeta_v(1)**(-2) at the origin: the implied c**3 is xi_res**3 = 1
    # on both shipped documents, for every q, not 1/zeta_q(1)
    q = IdealFactorization.parse(spec)
    model = degenerate_limit(model_data(), q).correction_detail.implied_c_cubed
    assert model.is_exact and model == Scalar.exact(1)
    field = degenerate_limit(default_data(), q).correction_detail.implied_c_cubed
    assert abs(field.to_complex() - 1) <= 1e-12


def test_correction_term_bounded_as_q_grows():
    data = default_data()
    values = [abs(degenerate_limit(data, IdealFactorization.parse(f"2^{k}"))
                  .correction_detail.value.to_complex()) for k in range(1, 7)]
    assert max(values) <= 2.0  # stays O(1) while N(q) grows by 2**6
    assert values[-1] <= values[0]


def test_degenerate_exact_log_surrogate_backend():
    # full pipeline under exact rational log surrogates: c3 is unchanged
    data = model_data()
    rep = degenerate_limit(data, Q23, log_map=LOG_SURROGATES)
    assert abs(rep.coefficients.c3.to_complex() - 1 / 3) < 1e-14
    assert rep.singular_residual == 0.0


def test_taylor_report_violation_flag():
    q = IdealFactorization.parse("13^1")
    rep = taylor_bound_report(build_h(q)[3], q, 1, 2)
    assert rep.ratio > 1.0
    assert not rep.ratio > 6.5


def test_limit_correction_is_correction_term():
    # degenerate_limit reuses its own G(-z,-w) and h4 for the correction: the
    # same value as the correction of a G(-z,-w) h4 built afresh
    data = model_data()
    rep = degenerate_limit(data, Q23, log_map=LOG_SURROGATES)
    assert rep.correction.is_exact
    assert rep.correction == rep.correction_detail.value
    fresh = build_G(data).flip(True, True) * build_h(Q23, log_map=LOG_SURROGATES)[3]
    assert rep.correction == _correction(data, Q23, fresh, LOG_SURROGATES).value


def test_laurent_kernels_make_no_scalar_arithmetic(monkeypatch):
    # the product and inverse kernels run on ints, Fractions and complex
    # doubles; a Scalar sum or product inside them means the slow per-term
    # Scalar arithmetic came back
    from rankinlab import numerator
    entered = [0]
    inside = [0]
    scalar_ops = [0]

    def kernel(fn):
        def wrapper(*args, **kwargs):
            entered[0] += 1
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1
        return wrapper

    def counted(fn):
        def wrapper(*args, **kwargs):
            if inside[0]:
                scalar_ops[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(numerator, "mul", kernel(numerator.mul))
    monkeypatch.setattr(numerator, "inverse", kernel(numerator.inverse))
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Scalar, name, counted(getattr(Scalar, name)))
    rep = degenerate_limit(default_data(), Q23, depth=8)
    assert rep.singular_residual == 0.0
    assert entered[0] > 0
    assert scalar_ops[0] == 0


def test_degenerate_limit_builds_scalars_only_for_read_coefficients(monkeypatch):
    # Scalar.numeric calls made with laurent or numerator code on the stack:
    # only the coefficients degenerate_limit reads become Scalars, and it
    # reads the constant term and the correction limit as plain values off
    # the numerators (h1..h4 are exact at the origin).  With numerators kept
    # as dict[(i, j)] -> LambdaPoly this run made 8,842; 7 while the constant
    # term and the correction were subtracted as LambdaPolys, and 5 while both
    # were read through LaurentSeries2.coeff.
    from rankinlab import numerator
    files = {laurent.__file__, numerator.__file__}
    numeric = Scalar.numeric.__func__
    calls = [0]

    def counted(cls, value):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename in files:
                calls[0] += 1
                break
            frame = frame.f_back
        return numeric(cls, value)

    monkeypatch.setattr(Scalar, "numeric", classmethod(counted))
    rep = degenerate_limit(default_data(), Q23, depth=8)
    assert rep.singular_residual == 0.0
    assert calls[0] == 0


SCALAR_ARITHMETIC = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__",
                     "conjugate", "abs2", "__eq__", "close")


@pytest.mark.parametrize("log_map", [None, LOG_SURROGATES], ids=["numeric", "rational"])
@pytest.mark.parametrize("nd", [1, 5])
@pytest.mark.parametrize("load", [model_data, default_data], ids=["model", "rationalfield"])
def test_degenerate_limit_makes_no_scalar_arithmetic(load, nd, log_map, monkeypatch):
    # from the document to the report the degenerate layer runs on Fraction and
    # complex values; a Scalar enters only as a value the report holds
    data = dataclasses.replace(load(), norm_different=nd)
    want = repr(degenerate_limit(data, Q23, 8, log_map))

    def refuse(*args, **kwargs):
        raise AssertionError("Scalar arithmetic inside degenerate_limit")

    for name in SCALAR_ARITHMETIC:
        monkeypatch.setattr(Scalar, name, refuse)
    assert repr(degenerate_limit(data, Q23, 8, log_map)) == want


def test_a_finite_non_cancellation_stays_an_assertion(monkeypatch):
    # h4 doubled: finite values whose singular part does not cancel signal a bug
    hs = build_h(Q23)
    monkeypatch.setattr(degenerate, "build_h",
                        lambda *args: (*hs[:3], hs[3].scale(Scalar.exact(2))))
    with pytest.raises(AssertionError, match=r"nonzero singular part \(max coefficient \d"):
        degenerate_limit(default_data(), Q23)


@pytest.mark.parametrize("values", [(1.0, math.nan), (math.nan, 1.0), (math.inf, math.nan, 2.0)])
def test_an_overflow_shows_a_nan_wherever_it_sits(values):
    with pytest.raises(degenerate.ZetaDataOverflow, match=r"\(largest magnitude nan\)"):
        degenerate._refuse_overflow([complex(v) for v in values], "values")


def test_a_cubic_that_overflows_names_the_overflow(monkeypatch):
    # the four-term combination is finite, the normalisation zeta_q(1)**2 is not
    monkeypatch.setattr(degenerate, "_zeta_q1", lambda q: complex(1e200))
    with pytest.raises(degenerate.ZetaDataOverflow,
                       match="values of c3, c2, c1, c0 and the correction are not finite"):
        degenerate_limit(model_data(), Q23)


# -- the local factors and the flipped product, against the Scalar forms ---------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
LOG_MODES = {
    "numeric": None,
    "rational": {p: Scalar.exact(Fraction(round(math.log(p) * 10 ** 4), 10 ** 4))
                 for p in PRIMES},
    "numeric map": {p: Scalar.numeric(complex(math.log(p), (-1) ** p * 0.25)) for p in PRIMES[:4]}
                   | {p: Scalar.numeric(complex(-math.log(p), -0.0)) for p in PRIMES[4:]},
}


def _scalar_local_zeta_inverse_coeffs(place, sign, depth, log_map=None):
    """Reference: each coefficient as the Scalar expression
    -p**-1 (-2*sign*log p)**k / k!, plus 1 at k = 0."""
    p = place.p
    logp = log_map[p] if log_map and p in log_map else Scalar.numeric(math.log(p))
    coeffs = []
    for k in range(depth + 1):
        term = Scalar.exact(Fraction(-1, p)) * (Scalar.exact(-2 * sign) * logp) ** k \
            / Scalar.exact(math.factorial(k))
        if k == 0:
            term = term + Scalar.exact(1)
        coeffs.append(term)
    return coeffs


def _scalar_local_zeta_inverse_series(place, direction, sign, depth, log_map=None):
    coeffs = _scalar_local_zeta_inverse_coeffs(place, sign, depth, log_map)
    return laurent.LaurentSeries2.from_direction(coeffs, 0, direction, depth)


def _local_zeta_inverse_series(place, direction, sign, depth, log_map=None):
    """Reference: the local series as build_h built each of its five per place,
    every one from its own coefficient list (plain numbers in Scalar's order)."""
    p = place.p
    logp = degenerate._log(p, log_map)
    coeffs = [Fraction(p - 1, p)]
    if logp.__class__ is complex:
        rate = complex(-2 * sign) * logp
        coeffs += [complex(-1 / p) * _pow(rate, k) * complex(1 / math.factorial(k))
                   for k in range(1, depth + 1)]
    else:
        rate, term = logp * (-2 * sign), Fraction(-1, p)
        for k in range(1, depth + 1):
            term = term * rate / k
            coeffs.append(term)
    return LaurentSeries2.from_direction(coeffs, 0, direction, depth)


def _assert_same_series(got, want):
    assert (got.poles, got.depth) == (want.poles, want.depth)
    _assert_same_bits(got.num, want.num)


@pytest.mark.parametrize("mode", sorted(LOG_MODES))
def test_local_zeta_factors_are_bitwise_the_scalar_expression(mode):
    log_map = LOG_MODES[mode]
    for p in PRIMES:
        place = PlaceData(p, 1)
        for sign in (1, -1):
            for depth in range(13):
                coeffs = _local_zeta_inverse_coeffs(place, sign, depth, log_map)
                for direction in ("z", "w", "zw_plus"):
                    args = (place, direction, sign, depth, log_map)
                    _assert_same_series(LaurentSeries2.from_direction(coeffs, 0, direction, depth),
                                        _scalar_local_zeta_inverse_series(*args))


@pytest.mark.parametrize("mode", sorted(LOG_MODES))
def test_build_h_is_bitwise_the_scalar_local_factors(mode, monkeypatch):
    log_map = LOG_MODES[mode]
    depths = (0, 4, 8)
    ideals = [IdealFactorization.parse(spec) for spec in ("2^1", "3^2*5^1", "7^1*11^1*13^1")]
    got = [build_h(q, depth, log_map)[which - 1] for q in ideals for depth in depths
           for which in (1, 2, 3, 4)]
    monkeypatch.setattr(degenerate, "_local_zeta_inverse_coeffs",
                        _scalar_local_zeta_inverse_coeffs)
    want = [build_h(q, depth, log_map)[which - 1] for q in ideals for depth in depths
            for which in (1, 2, 3, 4)]
    for h, ref in zip(got, want):
        _assert_same_series(h, ref)


def _build_h_per_kind(which, q, depth, log_map=None):
    """Reference: h_which as build_h built it one kind per call, each place's
    local series built again for each kind."""
    series = _local_zeta_inverse_series
    out = LaurentSeries2.one()
    for place in q.places:
        unit = Scalar.exact(Fraction(place.p - 1, place.p))
        if which == 1:
            local = series(place, "z", 1, depth, log_map) * series(place, "w", 1, depth, log_map)
        elif which == 2:
            local = series(place, "w", 1, depth, log_map).scale(unit)
        elif which == 3:
            local = series(place, "z", 1, depth, log_map).scale(unit)
        else:
            ratio = ls_inverse_regular(series(place, "zw_plus", -1, depth, log_map)).scale(unit)
            local = (series(place, "z", -1, depth, log_map) * series(place, "w", -1, depth, log_map)
                     * ratio)
        out = out * local
    return out.truncated(depth) if out.depth > depth else out


@pytest.mark.parametrize("logs", ["numeric", "rational"])
@pytest.mark.parametrize("depth", (8, 10))
def test_build_h_is_bitwise_the_per_kind_construction(depth, logs):
    for spec in TAYLOR_IDEALS:
        q = IdealFactorization.parse(spec)
        log_map = {pl.p: Fraction(pl.p + 1, 3) for pl in q.places} if logs == "rational" else None
        hs = build_h(q, depth, log_map)
        assert len(hs) == 4
        for which, h in enumerate(hs, 1):
            want = _build_h_per_kind(which, q, depth, log_map)
            assert (repr((h.den, h.terms, h.poles, h.depth))
                    == repr((want.den, want.terms, want.poles, want.depth))), (spec, which)


def test_degenerate_limit_flips_for_the_correction_once(monkeypatch):
    # the fourth term of the combination, G(-z,-w) h4, is also the input of
    # the correction limit; it is formed once
    calls = []
    flip = laurent.LaurentSeries2.flip

    def counted(self, flip_z, flip_w):
        calls.append((flip_z, flip_w))
        return flip(self, flip_z, flip_w)

    monkeypatch.setattr(laurent.LaurentSeries2, "flip", counted)
    degenerate_limit(default_data(), Q23)
    assert calls.count((True, True)) == 1


# -- the numeric kernels on the operands degenerate_limit gives them ---------------
#    (the Hypothesis operands of test_laurent stop at depth 6 on a 4x4 grid)

_FLIP_PAIRS = ((False, False), (True, False), (False, True), (True, True))


@pytest.mark.parametrize("depth", (8, 10))
@pytest.mark.parametrize("load", (default_data, model_data))
def test_limit_products_are_bitwise_the_scalar_loop(load, depth):
    g = build_G(load(), depth)
    hs = [build_h(IdealFactorization.parse("2^1*3^2*7^1"), depth)[which - 1]
          for which in (1, 2, 3, 4)]
    for flips in _FLIP_PAIRS:
        x = g.flip(*flips)
        for h in hs:
            for a, b in ((x, h), (h, x)):
                prod = a * b
                _assert_same_bits(prod.num, _scalar_loop_mul(a.num, b.num, prod.depth))


@pytest.mark.parametrize("p", (2, 9, 19))
def test_build_h_inverse_is_bitwise_the_lambda_poly_loop(p, monkeypatch):
    coeffs = _local_zeta_inverse_coeffs(PlaceData(p, 1), -1, 10)
    series = LaurentSeries2.from_direction(coeffs, 0, "zw_plus", 10)
    calls = []
    branch = numerator._lam_free_inverse
    monkeypatch.setattr(numerator, "_lam_free_inverse",
                        lambda *args: calls.append(args) or branch(*args))
    _assert_same_bits(ls_inverse_regular(series).num, _lambda_poly_inverse(series.num, 10))
    assert len(calls) == 1


# -- parent-recorded reprs of the branches no golden report covers ----------------
#    (rational and numeric log_map, N(d) != 1, a short or missing xi_at_2_regular,
#    depth 3 and the ideal 1); tests/data/degenerate_limit_reprs.json was written
#    by the Scalar-arithmetic degenerate layer that the plain-number one replaced

REPRS = Path(__file__).parent / "data" / "degenerate_limit_reprs.json"
RATIONAL_LOGS = {p: Fraction(p + 1, 3) for p in PRIMES}
NUMERIC_LOGS = LOG_MODES["numeric map"]


def _pinned_cases():
    """(name, data, q, depth, log_map) of every pinned degenerate_limit call."""
    model, field = model_data(), default_data()
    docs = {
        "model": model,
        "field": field,
        "model-nd5": dataclasses.replace(model, norm_different=5),
        "field-nd5": dataclasses.replace(field, norm_different=5),
        "field-nd12": dataclasses.replace(field, norm_different=12),
        "model-no-xi2": dataclasses.replace(model, xi_at_2_regular=()),
        "field-short-xi2": dataclasses.replace(field, xi_at_2_regular=field.xi_at_2_regular[:3]),
    }
    logs = {"default": None, "rational": RATIONAL_LOGS, "numeric": NUMERIC_LOGS}
    grid = [("model", "2^1*3^1", 8, "default"), ("model", "2^1*3^1", 8, "rational"),
            ("model", "2^1*3^1", 8, "numeric"), ("field", "2^1*3^1", 8, "rational"),
            ("field", "2^2*5^1", 10, "numeric"), ("field", "2^1*3^2*7^1", 3, "default"),
            ("model", "7^2", 3, "rational"), ("model", "1", 8, "default"),
            ("field", "1", 3, "rational"), ("model-nd5", "5^2", 8, "default"),
            ("model-nd5", "2^1*3^1", 8, "rational"), ("field-nd5", "2^1*3^1", 8, "default"),
            ("field-nd5", "3^1", 3, "numeric"), ("field-nd12", "2^1", 10, "rational"),
            ("model-no-xi2", "2^1*3^1", 8, "rational"), ("field-short-xi2", "7^1", 8, "default")]
    for doc, spec, depth, log in grid:
        yield (f"{doc}|{spec}|{depth}|{log}", docs[doc], IdealFactorization.parse(spec),
               depth, logs[log])


def test_degenerate_limit_reprs_match_the_recorded_ones():
    recorded = json.loads(REPRS.read_text())
    got = {name: repr(degenerate_limit(data, q, depth, log_map))
           for name, data, q, depth, log_map in _pinned_cases()}
    assert list(got) == list(recorded)
    for name, text in got.items():
        assert text == recorded[name], name


# -- the correction read off the numerator, against the series route it replaced

def _reference_correction(data, q, g_mm_h4, log_map):
    """Reference: the correction as the product by 8zw(z+w), whose constant
    term the singular split reads."""
    sum_factor = correction_sum_factor(q, log_map)
    if not q.places:
        return CorrectionReport(SC_ZERO, SC_ZERO, None)
    product = g_mm_h4 * LaurentSeries2({(2, 1): 8, (1, 2): 8})
    abs_tol = degenerate.SPLIT_TOL * max(1.0, product.max_abs())
    const = _plain_coeffs(product.constant_term(abs_tol))
    if max(const, default=0) > 0:
        raise AssertionError("correction limit should be lam-free")
    c0 = const.get(0, Fraction(0))
    denom = (-2 * data.adjoint_l_value * data.norm_different
             * _inv(data.xi_at_2) * _inv(_pow(degenerate._zeta_q1(q), 2)))
    implied = Scalar.wrap(c0 * _inv(denom)) if denom else None
    return CorrectionReport(Scalar.wrap(c0 * sum_factor), Scalar.wrap(sum_factor), implied)


@pytest.mark.parametrize("log_map", [None, RATIONAL_LOGS, NUMERIC_LOGS],
                         ids=["default", "rational", "numeric"])
@pytest.mark.parametrize("nd", [None, 5])
@pytest.mark.parametrize("load", [model_data, default_data], ids=["model", "rationalfield"])
def test_correction_is_bitwise_the_series_route(load, nd, log_map, monkeypatch):
    data = load() if nd is None else dataclasses.replace(load(), norm_different=nd)
    ideals = [IdealFactorization.parse(spec)
              for spec in ("1", "2^1*3^1", "7^2", "2^2*5^1*11^1")]
    for depth in (3, 8, 10):
        g = build_G(data, depth).flip(True, True)
        for q in ideals:
            g_mm_h4 = g * build_h(q, depth, log_map)[3]
            assert (repr(_correction(data, q, g_mm_h4, log_map))
                    == repr(_reference_correction(data, q, g_mm_h4, log_map))), (depth, str(q))
    got = [repr(degenerate_limit(data, q, depth, log_map)) for depth in (3, 8, 10) for q in ideals]
    monkeypatch.setattr(degenerate, "_correction", _reference_correction)
    assert got == [repr(degenerate_limit(data, q, depth, log_map))
                   for depth in (3, 8, 10) for q in ideals]


def test_correction_builds_no_series(monkeypatch):
    # the correction reads 8 N(0, 0) off the numerator: no product, no split
    data = default_data()
    g_mm_h4 = build_G(data).flip(True, True) * build_h(Q23)[3]
    want = repr(_reference_correction(data, Q23, g_mm_h4, None))

    def refuse(*args, **kwargs):
        raise AssertionError("a series operation inside _correction")

    for name in ("__init__", "_make", "__mul__", "split_singular", "constant_term"):
        monkeypatch.setattr(LaurentSeries2, name, refuse)
    assert repr(_correction(data, Q23, g_mm_h4, None)) == want


def test_correction_refuses_other_poles_and_a_lam_power():
    data = model_data()
    g_mm_h4 = build_G(data).flip(True, True) * build_h(Q23, log_map=LOG_SURROGATES)[3]
    moved = LaurentSeries2._make(g_mm_h4.den, g_mm_h4.terms, (1, 1, 0, 1), g_mm_h4.depth)
    with pytest.raises(AssertionError, match=r"poles \(1, 1, 1, 0\)"):
        _correction(data, Q23, moved, LOG_SURROGATES)
    with pytest.raises(AssertionError, match="lam-free"):
        _correction(data, Q23, g_mm_h4 * LaurentSeries2({(0, 0): LambdaPoly.lam()}),
                    LOG_SURROGATES)


# -- build_h and the pole raise against the routes they replaced: five local
#    series per place, and kernel raises

def _reference_build_h(q, depth, log_map=None):
    """Reference: build_h with five local series per place, each from its own
    list, and h1..h4 started from LaurentSeries2.one()."""
    hs = [LaurentSeries2.one()] * 4
    for place in q.places:
        unit = Fraction(place.p - 1, place.p)
        z_plus, w_plus, z_minus, w_minus = (
            _local_zeta_inverse_series(place, direction, sign, depth, log_map)
            for sign in (1, -1) for direction in ("z", "w"))
        ratio = ls_inverse_regular(
            _local_zeta_inverse_series(place, "zw_plus", -1, depth, log_map)).scale(unit)
        local = (z_plus * w_plus, w_plus.scale(unit), z_plus.scale(unit),
                 z_minus * w_minus * ratio)
        hs = [h * loc for h, loc in zip(hs, local)]
    return tuple(h.truncated(depth) if h.depth > depth else h for h in hs)


def _bits(s):
    return repr((s.den, s.terms, s.poles, s.depth))


SMALL_P = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19)
LOG_MAPS = {
    "default": lambda ps: None,
    "fraction": lambda ps: {p: Fraction(p + 1, 3) if p % 2 else Fraction(-2, 7) for p in ps},
    "complex": lambda ps: {p: complex(math.log(p), (-1) ** p * 0.25) if p % 3
                           else complex(-math.log(p), -0.0) for p in ps},
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SMALL_P), st.integers(1, 3)), min_size=1, max_size=3,
                unique_by=lambda t: t[0]),
       st.integers(3, 12), st.sampled_from(sorted(LOG_MAPS)))
def test_build_h_is_bitwise_the_five_series_route(places, depth, logs):
    q = IdealFactorization(tuple(PlaceData(p, r) for p, r in places))
    log_map = LOG_MAPS[logs]([p for p, _ in places])
    got, want = build_h(q, depth, log_map), _reference_build_h(q, depth, log_map)
    assert [_bits(h) for h in got] == [_bits(h) for h in want]
    for p, _ in places:
        for sign in (1, -1):
            # one list per sign lays the z, w and z+w series
            coeffs = _local_zeta_inverse_coeffs(PlaceData(p, 1), sign, depth, log_map)
            for direction in ("z", "w", "zw_plus"):
                assert (_bits(LaurentSeries2.from_direction(coeffs, 0, direction, depth))
                        == _bits(_local_zeta_inverse_series(PlaceData(p, 1), direction, sign,
                                                            depth, log_map)))


_SPECIAL = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -1.0, 2.5, 1e308))
_COMPLEX = st.builds(complex, _SPECIAL, _SPECIAL).filter(bool)
_INT = st.integers(-6, 6).filter(bool)
_VALUES = {"exact": _INT, "numeric": _COMPLEX, "mixed": st.one_of(_INT, _COMPLEX)}


@st.composite
def _kernel_series(draw, poles=None, kind=None, depth=None):
    """A series in kernel form: int or complex values (signed zeros, infinities
    and NaN parts among them), lam powers, any key order, values mirrored
    across the diagonal or negated there so that sums cancel exactly, and a
    denominator that may share a factor with every value."""
    values = _VALUES[kind or draw(st.sampled_from(sorted(_VALUES)))]
    depth = draw(st.integers(0, 5)) if depth is None else depth
    monomials = draw(st.permutations([(i, d - i) for d in range(depth + 1) for i in range(d + 1)]))
    terms = {m: {k: draw(values) for k in draw(st.lists(st.integers(0, 3), min_size=1,
                                                        max_size=3, unique=True))}
             for m in monomials[:draw(st.integers(0, len(monomials)))]}
    if draw(st.booleans()):
        sign = draw(st.sampled_from((1, -1)))
        for (i, j), c in list(terms.items()):
            if i < j:
                terms[(j, i)] = mirror = {k: sign * v for k, v in c.items()}
                if draw(st.booleans()):  # only the first keys cancel
                    mirror[draw(st.integers(0, 4))] = draw(values)
    den = draw(st.sampled_from((1, 2, 6, 12, 35)))
    if poles is None:
        poles = draw(st.sampled_from(((1, 1, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 1, 1))))
    return LaurentSeries2._make(den, terms, poles, depth)


@st.composite
def _four_products(draw):
    kind = draw(st.sampled_from(sorted(_VALUES)))
    depth = draw(st.one_of(st.none(), st.integers(0, 5)))
    layouts = draw(st.sampled_from((((1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 0, 1), (1, 1, 1, 0)),
                                    ((1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 0), (1, 1, 0, 1)),
                                    (None,) * 4)))
    return [draw(_kernel_series(poles, kind, depth)) for poles in layouts]


def _kernel_raised(s, poles):
    """Reference: the pole raise as one kernel product per divisor gained."""
    a, depth = (s.den, s.terms), s.depth
    for direction, e in zip(laurent.DIVISORS, (x - y for x, y in zip(poles, s.poles))):
        if e:
            a = numerator.mul(a, numerator.direction_power(direction, e), depth + e)
            depth += e
    return LaurentSeries2._make(*a, poles, depth)


@settings(max_examples=300, deadline=None)
@given(_four_products())
def test_add_chain_is_bitwise_the_kernel_raise(series):
    # values, int/complex types, signed zeros, NaN parts, key order, den, depth
    a, b, c, d = series
    got = _bits(a + b + c + d)
    for s in series:
        top = tuple(map(max, *(t.poles for t in series)))
        assert _bits(s.raised(top)) == _bits(_kernel_raised(s, top))
    with mock.patch.object(LaurentSeries2, "raised", _kernel_raised):
        assert got == _bits(a + b + c + d)


@pytest.mark.parametrize("log_map", [None, RATIONAL_LOGS], ids=["numeric", "rational"])
@pytest.mark.parametrize("spec, depth", [("2^1*3^2*7^1*11^1", 10), ("5^2*13^1", 8)])
@pytest.mark.parametrize("load", [model_data, default_data], ids=["model", "rationalfield"])
def test_add_chain_is_bitwise_the_kernel_raise_on_the_limit_products(load, spec, depth, log_map,
                                                                     monkeypatch):
    # G(+-z, +-w) h_i are symmetric in z and w up to rounding, so raising them
    # by z - w cancels the first keys of some monomials and not the rest
    g, hs = build_G(load(), depth), build_h(IdealFactorization.parse(spec), depth, log_map)
    a, b, c, d = [g.flip(*flips) * h for flips, h in zip(_FLIP_PAIRS, hs)]
    got = _bits(a + b + c + d)
    monkeypatch.setattr(LaurentSeries2, "raised", _kernel_raised)
    assert got == _bits(a + b + c + d)


@settings(max_examples=300, deadline=None)
@given(_kernel_series(kind="mixed"), st.sampled_from(("zw_plus", "zw_minus")),
       st.integers(0, 7))
def test_times_linear_is_bitwise_the_kernel_product(s, direction, depth):
    if all(v.__class__ is int for c in s.terms.values() for v in c.values()):
        return  # an all-exact numerator keeps the integer product loop
    got = numerator.times_linear((s.den, s.terms), 1 if direction == "zw_plus" else -1, depth)
    want = numerator.mul((s.den, s.terms), numerator.direction_power(direction, 1), depth)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("log_map", [None, RATIONAL_LOGS, NUMERIC_LOGS],
                         ids=["default", "rational", "numeric"])
@pytest.mark.parametrize("load", [model_data, default_data], ids=["model", "rationalfield"])
def test_degenerate_limit_raises_by_the_linear_route(load, log_map, monkeypatch):
    # the + chain's z+w and z-w raises of a numeric numerator skip the kernel
    q = IdealFactorization.parse("2^1*3^2*7^1")
    want = repr(degenerate_limit(load(), q, 8, log_map))
    linear, raises = [], []
    linear_factors = [numerator.direction_power(d, 1) for d in ("zw_plus", "zw_minus")]

    def kernel(a, b, depth):
        if b in linear_factors and any(v.__class__ is complex
                                       for c in a[1].values() for v in c.values()):
            raises.append(b)
        return numerator.mul_sum(((a, b),), depth)

    times_linear = numerator.times_linear
    monkeypatch.setattr(numerator, "mul", kernel)
    monkeypatch.setattr(numerator, "times_linear",
                        lambda *args: linear.append(1) or times_linear(*args))
    assert repr(degenerate_limit(load(), q, 8, log_map)) == want
    assert not raises
    # the model document with rational logs is exact end to end: no numeric raise
    assert bool(linear) == (load is not model_data or log_map is not RATIONAL_LOGS)
