import dataclasses
import math
import sys
from fractions import Fraction

import pytest

from test_laurent import _assert_same_bits, _lambda_poly_inverse, _scalar_loop_mul

from rankinlab import degenerate, laurent, numerator
from rankinlab.degenerate import (GlobalZetaData, _local_zeta_inverse_series, build_G, build_h,
                                  correction_report, correction_sum_factor, degenerate_limit,
                                  symmetry_residuals, taylor_bound_report)
from rankinlab.laurent import LaurentSeries2, ls_inverse_regular
from rankinlab.localdata import IdealFactorization, PlaceData
from rankinlab.scalars import Scalar
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
    assert correction_report(data, IdealFactorization.parse("1")).value.is_zero()
    sum_factor = correction_sum_factor(IdealFactorization.parse("2^1"))
    assert abs(sum_factor.to_complex() - 2 * math.log(2) ** 3) < 1e-14
    report = correction_report(data, IdealFactorization.parse("2^1"))
    # the limit equals -2 c^3 L_Ad N(d)/(xi(2) zeta_q(1)^2) * sum-factor with
    # c = xi*(1); solving the zeta_q(1)^1-normalised shape for c^3 therefore
    # returns xi*(1)^3/zeta_q(1) = 1/2 here
    assert report.implied_c_cubed.to_complex().real == pytest.approx(0.5)


def test_correction_term_bounded_as_q_grows():
    data = default_data()
    values = [abs(correction_report(data, IdealFactorization.parse(f"2^{k}")).value.to_complex())
              for k in range(1, 7)]
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
    # degenerate_limit reuses its own G(-z,-w) and h4 for the correction
    data = model_data()
    rep = degenerate_limit(data, Q23, log_map=LOG_SURROGATES)
    assert rep.correction.is_exact
    assert rep.correction == correction_report(data, Q23, log_map=LOG_SURROGATES).value


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
    # only the coefficients degenerate_limit reads (the constant term, h1..h4
    # at the origin, the correction limit) become Scalars.  With numerators
    # kept as dict[(i, j)] -> LambdaPoly this run made 8,842.
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
    assert calls[0] == 7


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
        degenerate._refuse_overflow([Scalar.numeric(v) for v in values], "values")


def test_a_cubic_that_overflows_names_the_overflow(monkeypatch):
    # the four-term combination is finite, the normalisation zeta_q(1)**2 is not
    monkeypatch.setattr(degenerate, "zeta_q_scalar", lambda q, s: Scalar.numeric(1e200))
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


def _scalar_local_zeta_inverse_series(place, direction, sign, depth, log_map=None):
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
    return laurent.LaurentSeries2.from_direction(coeffs, 0, direction, depth)


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
                for direction in ("z", "w", "zw_plus"):
                    args = (place, direction, sign, depth, log_map)
                    _assert_same_series(_local_zeta_inverse_series(*args),
                                        _scalar_local_zeta_inverse_series(*args))


@pytest.mark.parametrize("mode", sorted(LOG_MODES))
def test_build_h_is_bitwise_the_scalar_local_factors(mode, monkeypatch):
    log_map = LOG_MODES[mode]
    depths = (0, 4, 8)
    ideals = [IdealFactorization.parse(spec) for spec in ("2^1", "3^2*5^1", "7^1*11^1*13^1")]
    got = [build_h(q, depth, log_map)[which - 1] for q in ideals for depth in depths
           for which in (1, 2, 3, 4)]
    monkeypatch.setattr(degenerate, "_local_zeta_inverse_series",
                        _scalar_local_zeta_inverse_series)
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


@pytest.mark.parametrize("log_map", [None, LOG_SURROGATES])
@pytest.mark.parametrize("spec", ["1", "2^1", "2^1*3^1", "5^2"])
def test_correction_report_is_bitwise_the_limit_correction(spec, log_map):
    q = IdealFactorization.parse(spec)
    for data in (default_data(), model_data()):
        assert (repr(correction_report(data, q, log_map=log_map))
                == repr(degenerate_limit(data, q, log_map=log_map).correction_detail))


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
    series = _local_zeta_inverse_series(PlaceData(p, 1), "zw_plus", -1, 10)
    calls = []
    branch = numerator._lam_free_inverse
    monkeypatch.setattr(numerator, "_lam_free_inverse",
                        lambda *args: calls.append(args) or branch(*args))
    _assert_same_bits(ls_inverse_regular(series).num, _lambda_poly_inverse(series.num, 10))
    assert len(calls) == 1
