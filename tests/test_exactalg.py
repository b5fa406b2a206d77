from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinlab.exactalg import (PoleError, Poly2, RationalFunction2, poly_div_exact,
                                poly_gcd, rf_equal)
from rankinlab.localdata import PlaceData, Shift, zeta_local
from rankinlab.scalars import Scalar

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def sparse_polys(draw, max_terms=4, max_deg=3):
    terms = draw(st.integers(0, max_terms))
    coeffs = {}
    for _ in range(terms):
        m = (draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg)))
        c = draw(rationals)
        if c:
            coeffs[m] = Scalar.exact(c)
    return Poly2(dict(coeffs))


@settings(max_examples=60, deadline=None)
@given(sparse_polys(), sparse_polys(), sparse_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(sparse_polys(max_terms=3, max_deg=2), sparse_polys(max_terms=3, max_deg=2))
def test_gcd_divides_and_is_idempotent(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert poly_div_exact(a, g) is not None
    assert poly_div_exact(b, g) is not None
    # canonical form: gcd with itself returns itself (monic-lex normalised)
    assert poly_gcd(g, g) == g


def test_inverse_pair_is_one():
    p = PlaceData(2, 1)
    f = RationalFunction2.from_poly(Poly2.const(1), 2).with_factor(
        Poly2.const(1) - Poly2.monomial(1, 0))
    g = RationalFunction2.from_poly(Poly2.const(1) - Poly2.monomial(1, 0), 2)
    assert rf_equal(f * g, RationalFunction2.const(1, 2))
    zeta = zeta_local(p, Shift.of(1, 2, 0))
    assert rf_equal(zeta * zeta.inverse(), RationalFunction2.const(1, 2))


def test_constant_zeta_value():
    # zeta_v(1) at p=2 is the constant function 2
    f = zeta_local(PlaceData(2, 1), Shift.of(1, 0, 0))
    assert f.eval_zw(Scalar.exact(0), Scalar.exact(0)) == Scalar.exact(2)
    assert f.eval_zw(Scalar.exact(Fraction(1, 2)), Scalar.exact(1)) == Scalar.exact(2)


def test_rf_eval_substitution():
    assert zeta_local(PlaceData(2, 1), Shift.of(2, 0, 0)).eval_zw(0, 0) \
        == Scalar.exact(Fraction(4, 3))
    # substitution consistency: zeta(1+2z) at z=1/2 equals zeta(2)
    val = zeta_local(PlaceData(3, 1), Shift.of(1, 2, 0)).eval_zw(Fraction(1, 2), 0)
    assert val == Scalar.exact(Fraction(9, 8))


def test_pole_eval_raises():
    f = RationalFunction2.from_poly(Poly2.const(1), 2).with_factor(
        Poly2.const(1) - Poly2.monomial(1, 0))  # 1/(1 - T1)
    with pytest.raises(PoleError):
        f.eval_zw(0, 0)


def test_removable_pole_cancels():
    # (1 - T1) / (1 - T1) evaluates fine at the common zero
    num = Poly2.const(1) - Poly2.monomial(1, 0)
    f = RationalFunction2.from_poly(num, 2).with_factor(num)
    assert f.eval_zw(0, 0) == Scalar.exact(1)


@settings(max_examples=30, deadline=None)
@given(sparse_polys(), sparse_polys())
def test_eval_is_ring_homomorphism(a, b):
    t1, t2 = Scalar.exact(Fraction(2, 3)), Scalar.exact(Fraction(-1, 2))
    assert (a * b).eval(t1, t2) == a.eval(t1, t2) * b.eval(t1, t2)
    assert (a + b).eval(t1, t2) == a.eval(t1, t2) + b.eval(t1, t2)


def test_numeric_backend_agrees_with_exact():
    place = PlaceData(3, 2)
    f = zeta_local(place, Shift.of(1, 2, 0)) * zeta_local(place, Shift.of(2, 2, 2)).inverse()
    g = f + RationalFunction2.const(Fraction(5, 7), 3)
    exact = g.eval_zw(Scalar.exact(Fraction(1, 2)), Scalar.exact(1))
    numeric = g.to_numeric().eval_zw(Scalar.numeric(0.5), Scalar.numeric(1.0))
    assert abs(exact.to_complex() - numeric.to_complex()) <= 1e-12 * abs(exact.to_complex())


def test_canonical_form_reduces():
    common = Poly2.const(1) - Poly2.monomial(1, 1)
    num = (Poly2.const(2) + Poly2.monomial(1, 0)) * common
    f = RationalFunction2.from_poly(num, 2).with_factor(common).with_factor(
        Poly2.const(1) - Poly2.monomial(0, 1, Fraction(1, 2)))
    cnum, cden = f.canonical()
    assert poly_div_exact(cnum, common) is None  # the shared factor is gone
    assert rf_equal(f, RationalFunction2.from_poly(cnum, 2).with_factor(cden))


def test_rf_eval_homomorphism_on_rational_functions():
    place = PlaceData(3, 1)
    a = zeta_local(place, Shift.of(1, 2, 0))
    b = zeta_local(place, Shift.of(2, 2, 2)).inverse() + RationalFunction2.const(
        Fraction(1, 3), 3)
    z, w = Scalar.exact(Fraction(1, 2)), Scalar.exact(1)
    assert (a * b).eval_zw(z, w) == a.eval_zw(z, w) * b.eval_zw(z, w)
    assert (a + b).eval_zw(z, w) == a.eval_zw(z, w) + b.eval_zw(z, w)
    an, bn = a.to_numeric(), b.to_numeric()
    zn, wn = Scalar.numeric(0.5), Scalar.numeric(1.0)
    lhs = (an * bn).eval_zw(zn, wn).to_complex()
    rhs = (an.eval_zw(zn, wn) * bn.eval_zw(zn, wn)).to_complex()
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_sum_keeps_denominator_factor_order():
    # a set union of factor keys would order them by hash, not by first use
    f1, f2, f3 = (Poly2.const(1) - Poly2.monomial(i, j) for i, j in ((1, 0), (0, 1), (1, 1)))
    a = RationalFunction2.from_poly(Poly2.const(1), 2).with_factor(f2).with_factor(f1)
    b = RationalFunction2.from_poly(Poly2.const(3), 2).with_factor(f3).with_factor(f1)
    k2, k1 = a.fac
    k3, _ = b.fac
    assert list((a + b).fac) == [k2, k1, k3]
    assert list((b + a).fac) == [k3, k1, k2]


# -- the product kernel against the Scalar pair loop ---------------------------------

def _pair_loop_mul(a: Poly2, b: Poly2) -> dict:
    """The Scalar pair loop every product ran before the integer kernel."""
    out = {}
    for (i1, j1), v1 in a.c.items():
        for (i2, j2), v2 in b.c.items():
            m = (i1 + i2, j1 + j2)
            prod = v1 * v2
            cur = out.get(m)
            s = prod if cur is None else cur + prod
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


_exact_coeffs = rationals.filter(bool).map(Scalar.exact)
_root_coeffs = st.builds(lambda a, b: Scalar.exact(a) + Scalar.root(3, b),
                         rationals, rationals.filter(bool))
_numeric_coeffs = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(bool).map(
    Scalar.numeric)
_COEFF_KINDS = {
    "rational": (_exact_coeffs, _exact_coeffs),
    "root": (st.one_of(_exact_coeffs, _root_coeffs), _exact_coeffs),
    "numeric": (_numeric_coeffs, st.one_of(_exact_coeffs, _numeric_coeffs)),
    "mixed": (st.one_of(_exact_coeffs, _numeric_coeffs), _exact_coeffs),
}


@st.composite
def _polys_of(draw, coeffs):
    """Up to ten terms of degree at most 2 in each variable, each +-1 times one
    of at most two units, so running sums of a product often reach zero and a
    cancelled monomial often comes back after others."""
    units = draw(st.lists(coeffs, min_size=1, max_size=2))
    return Poly2({(draw(st.integers(0, 2)), draw(st.integers(0, 2))):
                  draw(st.sampled_from(units)) * draw(st.sampled_from((1, -1)))
                  for _ in range(draw(st.integers(0, 10)))})


@st.composite
def _product_operands(draw):
    kind = draw(st.sampled_from(sorted(_COEFF_KINDS)))
    first, second = _COEFF_KINDS[kind]
    a, b = draw(_polys_of(first)), draw(_polys_of(second))
    return (b, a) if draw(st.booleans()) else (a, b)


def _same_coeffs(got: dict, want: dict) -> bool:
    if list(got) != list(want):  # key order fixes later float summation order
        return False
    for m, w in want.items():
        g = got[m]
        if g.is_exact != w.is_exact:
            return False
        if g.is_exact and not (g == w and g.is_rational() == w.is_rational()):
            return False
        if not g.is_exact and g.z != w.z:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(_product_operands())
def test_poly_mul_matches_pair_loop(operands):
    a, b = operands
    assert _same_coeffs((a * b).c, _pair_loop_mul(a, b))


def test_poly_mul_reinserts_a_cancelled_monomial_last():
    # T1**2 cancels at the second pair that reaches it and re-enters after T1*T2
    a = Poly2({(0, 0): Scalar.exact(1), (1, 0): Scalar.exact(1), (2, 0): Scalar.exact(1)})
    b = Poly2({(0, 0): Scalar.exact(1), (1, 0): Scalar.exact(-1), (2, 0): Scalar.exact(1),
               (0, 1): Scalar.exact(1)})
    want = _pair_loop_mul(a, b)
    keys = list(want)
    assert keys.index((2, 0)) > keys.index((1, 1))
    assert _same_coeffs((a * b).c, want)


def _flat(obj):
    if isinstance(obj, tuple):
        for item in obj:
            yield from _flat(item)
    else:
        yield obj


@settings(max_examples=100, deadline=None)
@given(_product_operands())
def test_key_is_none_free_and_equal_for_equal_polys(operands):
    a, b = operands
    for poly in (a, b, a * b):
        assert None not in _flat(poly.key())
    if a.is_exact():
        # the same polynomial built in reverse insertion order, coefficients rebuilt
        again = Poly2({m: v + Scalar.exact(0) for m, v in reversed(list(a.c.items()))})
        assert again == a and again.key() == a.key() and hash(again) == hash(a)


def test_key_uses_canonical_root_base():
    twice_root3 = Poly2({(1, 0): Scalar.root(12)})
    assert twice_root3.key() == Poly2({(1, 0): Scalar.root(3, 2)}).key()
    assert twice_root3.key() != Poly2({(1, 0): Scalar.exact(2)}).key()
    assert Poly2({(1, 0): Scalar.root(3)}).key() != Poly2({(1, 0): Scalar.root(5)}).key()
