import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinlab import exactalg, zetaint
from rankinlab.exactalg import (PoleError, Poly2, RationalFunction2, poly_div_exact,
                                power_of_p, rf_equal)
from rankinlab.localdata import PlaceData, Shift, zeta_local
from rankinlab.scalars import Scalar, _ring, format_scalar
from rankinlab.whittaker import SatakeParams

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


def test_a_rational_function_holds_no_denominator_constant():
    assert RationalFunction2.__slots__ == ("num", "fac", "p")
    f = zeta_local(PlaceData(3, 1), Shift.of(1, 2, 0))  # (1 - T1**2/3)**(-1)
    assert list(f.fac.values())[0][0].key() == (1, ((0, 0), -3), ((2, 0), 1))
    assert f.num.key() == (1, ((0, 0), -3))


def test_division_by_a_constant_keeps_the_numerator_exact():
    f = zeta_local(PlaceData(3, 1), Shift.of(1, 2, 0))
    at = Scalar.exact(Fraction(1, 2)), Scalar.exact(1)
    for c in (2, Scalar.exact(Fraction(2, 3))):
        quotient = f / c
        assert quotient.num.den is not None
        assert quotient.eval_zw(*at) * Scalar.wrap(c) == f.eval_zw(*at)
    for zero in (0, Scalar.exact(0)):
        with pytest.raises(ZeroDivisionError):
            f / zero


@pytest.mark.parametrize("exp", (1, 2))
@pytest.mark.parametrize("factor", (
    Poly2({(1, 0): 0.6 + 0.8j, (0, 1): -2.5, (0, 0): 1}),
    Poly2({(0, 0): 2.5 - 1j})))
def test_with_factor_divides_a_numeric_lead_into_the_numerator(factor, exp):
    f = RationalFunction2.from_poly(Poly2({(0, 1): 3, (0, 0): 1}), 2)
    at = Scalar.exact(Fraction(1, 3)), Scalar.exact(Fraction(-2, 5))
    divided = f.with_factor(factor, exp)
    assert all(abs(poly.terms[max(poly.terms)] - 1) <= 1e-15 for poly, _ in divided.fac.values())
    back = divided.eval_t(*at) * factor.eval(*at) ** exp
    assert back.close(f.eval_t(*at), rel_tol=1e-14, abs_tol=0.0)


def test_with_factor_names_a_numeric_lead_whose_power_underflows():
    # (2.08e-167j)**2 is 0 in doubles: a PoleError, not a bare complex division
    rf = RationalFunction2.from_poly(Poly2.const(1), 2)
    lead = Poly2({(0, 0): 2.0835776564400585e-167j})
    with pytest.raises(PoleError, match=r"lead 2\.0835776564400585e-167j to the power 2 "
                                        "underflows to zero$"):
        rf.with_factor(lead, 2)
    assert rf.with_factor(lead, 1).num.terms == {(0, 0): 1 / 2.0835776564400585e-167j}


def test_canonical_form_reduces():
    common = Poly2.const(1) - Poly2.monomial(1, 1)
    num = (Poly2.const(2) + Poly2.monomial(1, 0)) * common
    f = RationalFunction2.from_poly(num, 2).with_factor(common).with_factor(
        Poly2.const(1) - Poly2.monomial(0, 1, Fraction(1, 2)))
    cnum, cden = f.canonical()
    assert poly_div_exact(cnum, common) is None  # the shared factor is gone
    assert rf_equal(f, RationalFunction2.from_poly(cnum, 2).with_factor(cden))


def _rebuilt(f: RationalFunction2) -> RationalFunction2:
    """f's canonical form as a rational function again."""
    num, den = f.canonical()
    return RationalFunction2.from_poly(num, f.p).with_factor(den)


def test_canonical_form_keeps_a_partly_shared_factor_whole():
    # 1 - T1**2 = (1 - T1)(1 + T1) shares 1 - T1 with the numerator, but
    # no gcd is taken: the factor does not divide it, so it stays whole
    one_minus = Poly2.const(1) - Poly2.monomial(1, 0)
    square = Poly2.const(1) - Poly2.monomial(2, 0)
    f = RationalFunction2.from_poly(one_minus, 2).with_factor(square)
    # the factor is kept monic, T1**2 - 1, so the numerator takes its lead -1
    assert f.canonical() == (-one_minus, -square)
    assert rf_equal(_rebuilt(f), f)


def test_canonical_form_cancels_a_squared_factor_once():
    factor = Poly2.const(1) - Poly2.monomial(1, 1, Fraction(1, 3))
    other = Poly2.const(1) + Poly2.monomial(0, 2)
    num = (Poly2.const(2) - Poly2.monomial(0, 1)) * factor
    f = RationalFunction2.from_poly(num, 3).with_factor(factor, 2).with_factor(other)
    cnum, cden = f.canonical()
    # the factor is kept monic, T1 T2 - 3, so the numerator takes its lead -3
    assert cnum == (Poly2.const(2) - Poly2.monomial(0, 1)).scale(-3)
    assert cden == factor.scale(-3) * other
    assert rf_equal(_rebuilt(f), f)


def test_canonical_form_refuses_a_numeric_function():
    factor = Poly2.const(1) - Poly2.monomial(1, 0, 0.5 + 0j)
    numeric = RationalFunction2.from_poly(Poly2.const(1), 2).with_factor(factor)
    with pytest.raises(ValueError, match="exact"):
        numeric.canonical()
    with pytest.raises(ValueError, match="exact"):
        RationalFunction2.const(0.25 + 0j, 2).canonical()
    zero = RationalFunction2.from_poly(Poly2(), 2).with_factor(factor)
    assert zero.canonical() == (Poly2(), Poly2.const(1))
    assert rf_equal(_rebuilt(zero), zero)


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
_numeric_coeffs = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(bool).map(
    Scalar.numeric)
_COEFF_KINDS = {
    "rational": (_exact_coeffs, _exact_coeffs),
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
        if g.is_exact and not (g == w and bool(g.b) == bool(w.b)):
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
    if a.den is not None:
        # the same polynomial built in reverse insertion order, coefficients rebuilt
        again = Poly2({m: v + Scalar.exact(0) for m, v in reversed(list(a.c.items()))})
        assert again == a and again.key() == a.key() and hash(again) == hash(a)


# -- the integer form against the Scalar-dict loops it replaced ------------------------
#
# The functions below are the Scalar-dict arithmetic every Poly2 ran before its
# coefficients moved to integer numerators over one denominator.  They work on
# and return ``dict[Monomial, Scalar]`` (the ``.c`` view).

def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, v in b.items():
        cur = out.get(m)
        if cur is None:
            s = v
        elif cur.z is None and v.z is None and not cur.b and not v.b:
            s = Scalar.exact(cur.a + v.a)
        else:
            s = cur + v
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _ref_neg(a: dict) -> dict:
    return {m: -v for m, v in a.items()}


def _ref_scale(a: dict, f: Scalar) -> dict:
    if f.is_zero():
        return {}
    return {m: v * f for m, v in a.items()}


def _ref_eval(a: dict, t1: Scalar, t2: Scalar) -> Scalar:
    pow1, pow2 = {}, {}
    total = Scalar.exact(0)
    for (i, j), v in a.items():
        x1 = pow1.get(i)
        if x1 is None:
            x1 = pow1[i] = t1 ** i
        x2 = pow2.get(j)
        if x2 is None:
            x2 = pow2[j] = t2 ** j
        total = total + v * x1 * x2
    return total


def _ref_key(a: dict) -> tuple:
    items = []
    for m in sorted(a):
        s = a[m]
        if s.z is None:
            items.append((m, s.a.numerator, s.a.denominator, s.b.numerator, s.b.denominator,
                          s.base.numerator if s.b else 0))
        else:
            items.append((m, s.z))
    return tuple(items)


def _same_scalar(got: Scalar, want: Scalar) -> bool:
    """Exactness, exact value and root base, or the repr of the complex value."""
    if got.is_exact != want.is_exact:
        return False
    if not got.is_exact:
        return repr(got.z) == repr(want.z)
    return (got.a, got.b, got.base) == (want.a, want.b, want.base)


def _same_view(got: Poly2, want: dict) -> bool:
    c = got.c
    return list(c) == list(want) and all(_same_scalar(c[m], want[m]) for m in want)


def _well_formed(p: Poly2) -> bool:
    """The integer form exactly when every coefficient is a plain rational,
    with int numerators and a positive denominator that share no factor;
    else complex values only."""
    rational = all(v.is_exact and not v.b for v in p.c.values())
    if p.den is None:
        return not rational and all(v.__class__ is complex for v in p.terms.values())
    return (rational and all(v.__class__ is int for v in p.terms.values()) and p.den > 0
            and math.gcd(p.den, *p.terms.values()) == 1)


def _one_ring(c: dict) -> dict:
    """The per-polynomial ring rule on a Scalar dict: with any numeric value,
    every exact value becomes numeric too."""
    if all(v.is_exact for v in c.values()):
        return c
    return {m: Scalar.numeric(v.to_complex()) for m, v in c.items()}


_big_rationals = st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70).filter(bool),
                           st.integers(2 ** 53 + 1, 2 ** 64))
_unit_rationals = st.one_of(rationals.filter(bool), _big_rationals)
_unit_coeffs = {
    "rational": _unit_rationals.map(Scalar.exact),
    "numeric": _numeric_coeffs,
}
_KIND_PAIRS = {
    "rational": ("rational", "rational"),
    "numeric": ("numeric", "numeric"),
    "mixed-numeric": ("rational", "numeric"),
}


@st.composite
def _flat_operands(draw):
    """Two polynomials of up to ten terms, each term +-1 times one of at most
    two units of its kind, so sums and products often cancel a monomial; a
    polynomial of a mixed kind takes units of both kinds."""
    kind = draw(st.sampled_from(sorted(_KIND_PAIRS)))
    first, second = (_unit_coeffs[k] for k in _KIND_PAIRS[kind])
    mixed = kind.startswith("mixed")
    units_a = draw(st.lists(first, min_size=1, max_size=2))
    units_b = draw(st.lists(st.one_of(first, second) if mixed else second,
                            min_size=1, max_size=2))
    if mixed:
        units_a.append(draw(second))

    def poly(units):
        return Poly2({(draw(st.integers(0, 2)), draw(st.integers(0, 2))):
                      draw(st.sampled_from(units)) * draw(st.sampled_from((1, -1)))
                      for _ in range(draw(st.integers(0, 10)))})

    a, b = poly(units_a), poly(units_b)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=300, deadline=None)
@given(_flat_operands(), st.one_of(_unit_coeffs["rational"], _unit_coeffs["numeric"],
                                   st.just(Scalar.exact(0))))
def test_flat_arithmetic_matches_scalar_loops(operands, factor):
    a, b = operands
    ca, cb = a.c, b.c
    cases = [(a * b, _pair_loop_mul(a, b)), (b * a, _pair_loop_mul(b, a)),
             (a + b, _one_ring(_ref_add(ca, cb))), (b + a, _one_ring(_ref_add(cb, ca))),
             (-a, _ref_neg(ca)), (a - b, _one_ring(_ref_add(ca, _ref_neg(cb)))),
             (a.scale(factor), _ref_scale(ca, factor)),
             (a ** 2, _pair_loop_mul(Poly2.const(1), Poly2(_pair_loop_mul(a, a)))),
             (a.shift(1, 2), {(i + 1, j + 2): v for (i, j), v in ca.items()})]
    for got, want in cases:
        assert _same_view(got, want)
        assert _well_formed(got)


_points = st.one_of(
    _unit_rationals.map(Scalar.exact),
    st.builds(lambda a, b: Scalar.exact(a) + Scalar.root(3, b), rationals, _unit_rationals),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).map(Scalar.numeric),
    st.just(Scalar.exact(0)))


@settings(max_examples=300, deadline=None)
@given(_flat_operands(), _points, _points)
def test_flat_eval_matches_scalar_loop(operands, t1, t2):
    for poly in operands:
        got, want = poly.eval(t1, t2), _ref_eval(poly.c, t1, t2)
        assert _same_scalar(got, want)
        assert format_scalar(got) == format_scalar(want)


def _scalar_route_eval_t(rf: RationalFunction2, t1: Scalar, t2: Scalar) -> Scalar:
    """Reference: eval_t as Scalar arithmetic: factor values by the Scalar
    loop, an exact zero cancelled, a numeric one refused within POLE_TOL, and
    the numerator's value divided by the product of the powers."""
    num, den_val = rf.num, Scalar.exact(1)
    for poly, exp in rf.fac.values():
        val = _ref_eval(poly.c, t1, t2)
        if val.is_exact and val.is_zero():
            num = exactalg._cancel(num, poly, exp)
            continue
        if not val.is_exact and abs(val.to_complex()) <= exactalg.POLE_TOL * poly.magnitude(t1, t2):
            raise PoleError("denominator factor vanishes within tolerance")
        den_val = den_val * val ** exp
    return _ref_eval(num.c, t1, t2) / den_val


def _eval_outcome(fn, *args):
    try:
        v = fn(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc)
    return (v.a, v.b, v.base, repr(v.z))


@settings(max_examples=300, deadline=None)
@given(_flat_operands(), _points, _points, st.integers(1, 3))
def test_eval_t_is_bitwise_the_scalar_route(operands, t1, t2, exp):
    # numeric or mixed points and numeric factors take eval_t's plain-value route
    a, b = operands
    rf = RationalFunction2.from_poly(a, 2)
    if not b.is_zero():
        try:
            rf = rf.with_factor(b, exp)
        except PoleError:  # a numeric lead whose power underflows
            return
    assert _eval_outcome(rf.eval_t, t1, t2) == _eval_outcome(_scalar_route_eval_t, rf, t1, t2)


@settings(max_examples=200, deadline=None)
@given(_flat_operands())
def test_flat_key_and_equality_match_scalar_keys(operands):
    a, b = operands
    polys = [a, b, a * b, b * a, a + b, b + a, (a + b) - b, -(-a)]
    exact = a.den is not None and b.den is not None
    for x in polys:
        assert None not in _flat(x.key())
        for y in polys:
            same = _ref_key(x.c) == _ref_key(y.c)
            assert (x.key() == y.key()) == same
            if same:
                assert hash(x) == hash(y)
            if exact:
                assert (x == y) == same


def test_view_is_rebuilt_per_read_and_constructs_back():
    p = Poly2({(1, 0): Scalar.exact(Fraction(1, 6)), (0, 2): Scalar.exact(Fraction(-3, 4))})
    assert (p.den, p.terms) == (12, {(1, 0): 2, (0, 2): -9})
    view = p.c
    view[(5, 5)] = Scalar.exact(1)
    assert (5, 5) not in p.c
    assert Poly2(p.c) == p and Poly2(p.c).key() == p.key()
    assert list(p.c) == [(1, 0), (0, 2)]


def _poly_arithmetic(frame) -> bool:
    """True when the innermost exactalg frame on the stack is Poly2 or
    RationalFunction2 arithmetic, which hold no Scalar, rather than
    ``power_of_p`` building a point."""
    while frame is not None:
        code = frame.f_code
        if code.co_filename == exactalg.__file__:
            return code.co_qualname.startswith(("Poly2.", "RationalFunction2.", "_")) \
                or code.co_qualname == "poly_div_exact"
        frame = frame.f_back
    return False


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_exact_psi_makes_no_scalar_arithmetic_inside_poly2(monkeypatch):
    counts = Counter()

    def counting(name, original):
        def op(self, other):
            if _poly_arithmetic(sys._getframe(1)):
                counts[name] += 1
            return original(self, other)
        return op

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, name, counting(name, Scalar.__dict__[name]))
    for name in ("_int_mul", "_eval_exact", "poly_div_exact"):
        def kernel(*args, _name=name, _original=getattr(exactalg, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(exactalg, name, kernel)

    place = PlaceData(2, 2)
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(2), Scalar.exact(Fraction(1, 2)))
    closed = zetaint.psi_closed("iv", place, pi0).value
    oracle = zetaint.psi_oracle("iv", place, pi0).value
    assert exactalg.rf_equal(closed, oracle)
    # a rational point, a point in Q(sqrt 2), and a removable zero of a closed-form factor
    for z, w in ((0, 0), (Fraction(3, 2), 0), (Fraction(-1, 2), 1)):
        at = Scalar.exact(z), Scalar.exact(w)
        assert closed.eval_zw(*at) == oracle.eval_zw(*at)
    # floors about three quarters of the counts on this input (53 and 51)
    assert counts["_int_mul"] > 39 and counts["_eval_exact"] > 38
    assert counts["poly_div_exact"] >= 1
    assert sum(counts[name] for name in ("__add__", "__radd__", "__mul__", "__rmul__")) == 0


def _reference_power_of_p(p, exponent, sign=1):
    """power_of_p as it was: every exponent through Scalar.wrap and Fraction powers."""
    e = Scalar.wrap(exponent)
    if e.is_exact and not e.b:
        q = e.a * sign
        if q.denominator == 1:
            return Scalar.exact(Fraction(p) ** q.numerator)
        if q.denominator == 2:
            whole = Scalar.exact(Fraction(p) ** (q.numerator // 2))
            if q.numerator % 2:
                return whole * Scalar.root(Fraction(p))
            return whole
    return Scalar.numeric(complex(p) ** (sign * e.to_complex()))


def _bits(s):
    return tuple((type(v), v) for v in (s.a, s.b, s.base, s.z))


def test_power_of_p_is_bitwise_the_reference():
    checked = 0
    for p in (2, 3, 4, 8, 9, 25):
        for k in range(-12, 13):
            for d in (1, 2, 3):
                q = Fraction(k, d)
                exponents = [q, Scalar.exact(q), float(q), Scalar.numeric(complex(q, 0.25))]
                if d == 1:
                    exponents.append(k)
                for exponent in exponents:
                    for sign in (1, -1):
                        got = power_of_p(p, exponent, sign)
                        want = _reference_power_of_p(p, exponent, sign)
                        # the value on its ring: a Scalar only where a root is live
                        assert got.__class__ is _ring(want).__class__, (p, exponent, sign)
                        assert _bits(Scalar.wrap(got)) == _bits(want), (p, exponent, sign)
                        checked += 1
    assert checked == 6 * 25 * (3 * 4 + 1) * 2


def _reference_monomial(i, j, coeff, p):
    """RationalFunction2.monomial as it was: a negative exponent divides by
    the monomial through the generic ``__truediv__``."""
    rf = RationalFunction2(Poly2.monomial(max(i, 0), max(j, 0), coeff), {}, p)
    if i < 0 or j < 0:
        rf = rf / RationalFunction2.from_poly(Poly2.monomial(max(-i, 0), max(-j, 0)), p)
    return rf


def _rf_form(rf):
    return ((rf.num.den, list(rf.num.terms.items())),
            [(key, poly.den, list(poly.terms.items()), exp) for key, (poly, exp) in rf.fac.items()])


def test_monomial_is_the_division_form():
    points = [(0, 0), (Fraction(1, 2), Fraction(-3, 2)), (2, -1)]
    for i in range(-3, 3):
        for j in range(-3, 3):
            for coeff in (1, Fraction(3, 5), -2):
                got = RationalFunction2.monomial(i, j, coeff, 3)
                want = _reference_monomial(i, j, coeff, 3)
                assert _rf_form(got) == _rf_form(want), (i, j, coeff)
                assert len(got.fac) == (i < 0 or j < 0)
                for z, w in points:
                    assert got.eval_zw(z, w) == want.eval_zw(z, w), (i, j, coeff, z, w)


def test_a_first_power_is_the_polynomial_itself():
    for poly in (Poly2({(1, 0): Fraction(2, 3), (0, 2): -1}), Poly2({(0, 1): 0.5 - 0.25j})):
        assert poly ** 1 is poly


# -- zero coefficients, exact division and exact evaluation on integers ---------------

def test_zero_coefficients_are_dropped():
    assert Poly2({(0, 0): Scalar.exact(0)}).is_zero()
    assert Poly2({(0, 0): Scalar.exact(0)}) == Poly2()
    g = Poly2({(0, 0): 1, (1, 0): 0})
    assert g == Poly2.const(1) and g.terms == {(0, 0): 1}
    assert poly_div_exact(Poly2.const(2), g) == Poly2.const(2)
    rf = RationalFunction2.const(1, 2).with_factor(g)
    assert rf_equal(rf, RationalFunction2.const(1, 2)) and rf.eval_t(0, 0) == Scalar.exact(1)


def _reference_div_exact(f: Poly2, g: Poly2):
    """poly_div_exact on integer forms as it was: a Fraction quotient term and
    a Poly2 sum per step, the quotient put over the lcm of its denominators."""
    if f.is_zero():
        return Poly2()
    glead = g.lead_monomial()
    ginv = Fraction(g.den, g.terms[glead])
    rem = f
    q = {}
    while not rem.is_zero():
        rlead = rem.lead_monomial()
        di, dj = rlead[0] - glead[0], rlead[1] - glead[1]
        if di < 0 or dj < 0:
            return None
        coeff = q[(di, dj)] = Fraction(rem.terms[rlead], rem.den) * ginv
        rem = rem + g.shift(di, dj)._times(-coeff)
    den = math.lcm(*[c.denominator for c in q.values()])
    return Poly2._make(den, {m: c.numerator * (den // c.denominator) for m, c in q.items()})


_div_coeffs = st.one_of(rationals.filter(bool), _big_rationals)


@st.composite
def _exact_polys(draw, max_terms=5, max_deg=3):
    return Poly2({(draw(st.integers(0, max_deg)), draw(st.integers(0, max_deg))):
                  Scalar.exact(draw(_div_coeffs)) for _ in range(draw(st.integers(1, max_terms)))})


@settings(max_examples=300, deadline=None)
@given(_exact_polys(), _exact_polys(max_terms=3, max_deg=2), _exact_polys(max_terms=3),
       st.sampled_from(("divisible", "remainder", "any")))
def test_int_division_matches_the_fraction_loop(q, g, r, case):
    if case == "divisible":
        f = q * g
    elif case == "remainder":
        f = q * g + r
    else:
        f = q
    got, want = poly_div_exact(f, g), _reference_div_exact(f, g)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.den, list(got.terms.items())) == (want.den, list(want.terms.items()))
        assert got * g == f
    if case == "divisible":
        assert got == q


def _reference_eval_t(rf: RationalFunction2, t1: Scalar, t2: Scalar) -> Scalar:
    """eval_t's Scalar loop: Scalar factor values and products, the quotient
    by Scalar division, removable zeros cancelled by the reference division."""
    num, den_val = rf.num, Scalar.exact(1)
    for poly, exp in rf.fac.values():
        val = poly.eval(t1, t2)
        if val.is_zero():
            for _ in range(exp):
                num = _reference_div_exact(num, poly)
                if num is None:
                    raise PoleError("non-removable")
            continue
        den_val = den_val * val ** exp
    return num.eval(t1, t2) / den_val


# points in Q and pure roots c*sqrt(p), so t**2 is rational and T**2 - t**2 vanishes there
_eval_points = st.one_of(
    rationals.map(Scalar.exact),
    st.builds(lambda p, c: Scalar.root(p, c), st.sampled_from((2, 3)), rationals.filter(bool)))


@settings(max_examples=300, deadline=None)
@given(_eval_points, _eval_points, sparse_polys(max_terms=3, max_deg=2),
       st.lists(_exact_polys(max_terms=3, max_deg=2), max_size=3), st.integers(0, 2),
       st.integers(1, 2), _div_coeffs)
def test_integer_eval_t_matches_the_scalar_loop(t1, t2, a, factors, k, exp, scale):
    if t1.b and t2.b and t1.base != t2.base:
        t2 = Scalar.root(t1.base, t2.b)
    # V vanishes at the point: the numerator holds it k times, the denominator exp times
    vanishing = Poly2({(2, 0): 1, (0, 0): -(t1 * t1).a}) if t1.b or t1.a else Poly2.monomial(2, 0)
    rf = RationalFunction2.from_poly(a * vanishing ** k, 2) / scale
    for poly in factors:
        rf = rf.with_factor(poly)
    rf = rf.with_factor(vanishing, exp)
    try:
        want = _reference_eval_t(rf, t1, t2)
    except PoleError:
        with pytest.raises(PoleError):
            rf.eval_t(t1, t2)
        return
    got = rf.eval_t(t1, t2)
    assert (got.a, got.b, got.base, got.z) == (want.a, want.b, want.base, want.z)
    assert k >= exp or a.eval(t1, t2).is_zero()


# -- one-term products and one power table per evaluation ----------------------------

_one_term_polys = st.one_of(
    st.just(Poly2.const(1)),
    st.builds(Poly2.monomial, st.integers(0, 3), st.integers(0, 3), _div_coeffs))


@settings(max_examples=300, deadline=None)
@given(_one_term_polys, st.one_of(_one_term_polys, sparse_polys(), _exact_polys()),
       st.booleans())
def test_a_one_term_product_is_the_pair_loop_form(one, other, swap):
    a, b = (other, one) if swap else (one, other)
    before = [(p.den, list(p.terms.items())) for p in (a, b)]
    got = a * b
    want = exactalg._reduced(a.den * b.den, exactalg._mul_terms(a.terms, b.terms))
    assert (got.den, list(got.terms.items())) == (want.den, list(want.terms.items()))
    # no later operation on the product may write to an operand's dict
    rf = RationalFunction2.from_poly(got, 2).with_factor(one)
    assert all(x is not None for x in (
        got + a, got - b, -got, got * got, got ** 2, poly_div_exact(got, one),
        rf + rf, rf * rf, rf.canonical(), rf.eval_t(Fraction(1, 3), 2)))
    assert [(p.den, list(p.terms.items())) for p in (a, b)] == before


def _quotient(rf, t1, t2):
    return rf.num.eval(t1, t2) / rf.den_expanded().eval(t1, t2)


def test_eval_t_is_the_quotient_of_the_separate_evaluations():
    # factors of unequal degrees, one squared, so the one power table is wider than each
    num = Poly2({(3, 1): Fraction(2, 3), (0, 0): -5, (1, 2): 1})
    rf = (RationalFunction2.from_poly(num, 2)
          .with_factor(Poly2({(2, 1): Fraction(-1, 4), (0, 0): 1}))
          .with_factor(Poly2({(0, 3): 3, (1, 0): 1, (0, 0): 7}), 2)
          .with_factor(Poly2({(0, 0): 1, (5, 0): Fraction(1, 9)})))
    third = power_of_p(9, Fraction(1, 2), -1)
    assert third.__class__ is Fraction and third == Fraction(1, 3)  # sqrt(9) folds into Q
    points = [(Scalar.exact(Fraction(2, 3)), Scalar.exact(Fraction(-1, 5))),
              (power_of_p(2, Fraction(1, 2), -1), power_of_p(2, Fraction(3, 2), -1)),
              (power_of_p(2, Fraction(-1, 2), -1), Scalar.exact(Fraction(3, 4))),
              (third, power_of_p(9, Fraction(-3, 2), -1))]
    points = [(Scalar.wrap(t1), Scalar.wrap(t2)) for t1, t2 in points]
    for t1, t2 in points:
        got, want = rf.eval_t(t1, t2), _quotient(rf, t1, t2)
        assert got == want and got.base == want.base, (t1, t2)
    assert rf.eval_t(*points[1]).b  # the Q(sqrt 2) point keeps its root part


def test_eval_t_cancels_a_removable_zero_with_the_one_power_table():
    vanishing = Poly2({(1, 0): 1, (0, 1): -2})  # T1 - 2*T2
    g = Poly2({(0, 0): 1, (2, 3): Fraction(-7, 2)})
    h = Poly2({(0, 4): 1, (1, 0): 5, (0, 0): -1})
    rf = RationalFunction2.from_poly(vanishing ** 2 * g, 2).with_factor(vanishing, 2) \
        .with_factor(h)
    reduced = RationalFunction2.from_poly(g, 2).with_factor(h)
    half_root = power_of_p(2, Fraction(1, 2), -1)
    for t2 in (Scalar.exact(Fraction(3, 7)), half_root, Scalar.exact(0)):
        t1 = t2 * 2
        assert vanishing.eval(t1, t2).is_zero()
        got, want = rf.eval_t(t1, t2), _quotient(reduced, t1, t2)
        assert got == want and got.base == want.base, t2
    with pytest.raises(PoleError):
        rf.with_factor(vanishing).eval_t(Fraction(6, 7), Fraction(3, 7))


# -- the complex ring: sums that cancel, division, equality ---------------------------

def test_sum_stays_integer_when_every_numeric_value_cancels():
    exact = Poly2({(0, 0): Fraction(1, 3), (1, 0): 2, (0, 1): Fraction(1, 2)})
    numeric = Poly2({(1, 0): -2.0, (0, 1): -0.5})
    for total in (exact + numeric, numeric + exact):
        assert (total.den, total.terms) == (3, {(0, 0): 1})
    assert (numeric - numeric).terms == {} and (numeric - numeric).den == 1
    partly = exact + Poly2({(1, 0): -2.0, (0, 1): 0.25})
    assert partly.den is None and list(partly.terms) == [(0, 0), (0, 1)]
    assert partly.terms[(0, 0)] == complex(1 / 3)


def _reference_numeric_div(f: dict, g: dict):
    """poly_div_exact's Scalar loop as it was, on Scalar dicts.  It ends only
    where each lead cancels to zero, as it does for a divisor lead of +-1."""
    glead = max(g)
    ginv = g[glead].inverse()
    rem, q = dict(f), {}
    while rem:
        rlead = max(rem)
        di, dj = rlead[0] - glead[0], rlead[1] - glead[1]
        if di < 0 or dj < 0:
            return None
        coeff = q[(di, dj)] = rem[rlead] * ginv
        shifted = {(i + di, j + dj): v for (i, j), v in g.items()}
        rem = _ref_add(rem, _ref_neg(_ref_scale(shifted, coeff)))
    return q


@settings(max_examples=200, deadline=None)
@given(_polys_of(_numeric_coeffs), _exact_polys(max_terms=3, max_deg=2),
       _exact_polys(max_terms=3), st.sampled_from((1, -1, None)), st.booleans())
def test_complex_division_matches_the_scalar_loop(q, g, r, lead, divisible):
    if lead is not None:  # a lead of +-1, as in the factors of a RationalFunction2
        g = g.scale(Fraction(lead * g.den, g.terms[g.lead_monomial()]))
    f = q * g if divisible else q * g + r
    if f.is_zero():
        return
    got = poly_div_exact(f, g)
    if lead is not None:
        want = _reference_numeric_div(f.c, g.c)
        assert (got is None) == (want is None)
        if want is not None:
            assert _same_view(got, want) and _well_formed(got)
    elif got is not None:  # any other lead cancels only to rounding, but ends
        size = max(abs(v) for v in f.terms.values())
        rest = (got * g - f).terms.values()
        assert all(abs(v) <= 1e-12 * size for v in rest)


def test_numeric_polynomials_compare_only_at_a_point():
    place = PlaceData(3, 1)
    pi0 = SatakeParams.unramified_unitary(Scalar.numeric(0.6 + 0.8j), Scalar.numeric(0.6 - 0.8j))
    a = zetaint.psi_closed("i", place, pi0).value
    b = zetaint.psi_closed("ii", place, pi0).value
    for x, y in ((a, a), (a, b)):
        with pytest.raises(ValueError, match="compare only at a point"):
            rf_equal(x, y)
    one = Poly2.const(1)
    for x, y in ((one.to_numeric(), one), (one, one.to_numeric()),
                 (one.to_numeric(), Poly2.monomial(1, 0, 1.0))):
        with pytest.raises(ValueError, match="compare only at a point"):
            x == y  # noqa: B015
