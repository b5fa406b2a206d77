import re
from fractions import Fraction

import pytest

from rankinlab.exactalg import Poly2, RationalFunction2, power_of_p
from rankinlab.localdata import (IdealFactorization, PlaceData, Shift, inv_volume_Kq,
                                 is_prime_power, norm, omega, volume_K, zeta_local,
                                 zeta_value)
from rankinlab.scalars import Scalar, _plain


def test_prime_power_detection():
    assert all(is_prime_power(n) for n in (2, 3, 4, 5, 8, 9, 25, 49, 121, 128))
    assert not any(is_prime_power(n) for n in (1, 6, 10, 12, 100))


def test_place_validation():
    with pytest.raises(ValueError):
        PlaceData(6, 1)


def test_parse_and_invariants():
    q = IdealFactorization.parse("2^3*5^1*49^2")
    assert [(pl.p, pl.r) for pl in q.places] == [(2, 3), (5, 1), (49, 2)]
    assert omega(q) == 3
    assert norm(q) == 8 * 5 * 49 ** 2
    assert str(q) == "2^3*5^1*49^2"
    assert norm(IdealFactorization.parse("1")) == 1
    assert omega(IdealFactorization.parse("")) == 0
    assert norm(IdealFactorization.parse("5^3")) == 125
    with pytest.raises(ValueError):
        IdealFactorization.parse("2^1*2^2")


def test_zeta_local_values():
    assert zeta_value(PlaceData(2, 1), 1) == 2
    assert zeta_value(PlaceData(3, 1), 2) == Fraction(9, 8)
    f = zeta_local(PlaceData(2, 1), Shift.of(1, 2, 0))
    # definition transcription: 1/(1 - T1^2/2)
    assert f.eval_zw(0, 0) == Scalar.exact(2)
    assert f.eval_zw(Fraction(1, 2), 0) == Scalar.exact(Fraction(4, 3))


def _reference_zeta_scalar(place, s):
    """zeta_v(s) as a Scalar was once formed for every s: 1 - p**(-s) in Scalar
    arithmetic, inverted."""
    return (Scalar.exact(1) - power_of_p(place.p, Fraction(s), -1)).inverse()


def _bits(s):
    return tuple((type(v), v) for v in (s.a, s.b, s.base, s.z))


def test_zeta_scalar_is_the_scalar_route():
    # zeta_value, the one definition of zeta_v, is a Fraction whose exact Scalar
    # is bit for bit the Scalar route
    for p in (2, 3, 4, 5, 9):
        place = PlaceData(p, 1)
        for s in (1, 2, 3):
            value = zeta_value(place, s)
            assert value.__class__ is Fraction
            assert _bits(Scalar.exact(value)) == _bits(_reference_zeta_scalar(place, s)), (p, s)


@pytest.mark.parametrize("s", (0, Fraction(0), -1, Fraction(1, 2), Fraction(3, 2), 2.0))
def test_zeta_scalar_refuses_all_but_an_int_of_at_least_one(s):
    with pytest.raises(ValueError, match=re.escape(f"got {s!r}") + "$"):
        zeta_value(PlaceData(2, 1), s)


def _generic_zeta_local(place, shift, alpha):
    """(1 - alpha p**(-m) T1**a T2**b)**(-1) as from_poly(lift).with_factor(den)."""
    lift = Poly2.monomial(max(0, -shift.a), max(0, -shift.b))
    c = Scalar.wrap(alpha) * power_of_p(place.p, shift.m, -1)
    den = lift - Poly2.monomial(max(0, shift.a), max(0, shift.b), c)
    return RationalFunction2.from_poly(lift, place.p).with_factor(den)


def _form(rf):
    """Numerator key, and each factor's key, terms in order and exponent."""
    return repr((rf.num.key(), [(key, list(poly.terms.items()), poly.den, exp)
                                for key, (poly, exp) in rf.fac.items()]))


@pytest.mark.parametrize("p", (2, 3, 4, 5, 9))
def test_zeta_local_is_the_generic_with_factor_form(p):
    place = PlaceData(p, 1)
    for m in (0, 1, 2):
        for a in range(-2, 3):
            for b in range(-2, 3):
                for alpha in (1, Fraction(3, 5), Fraction(5, 3), -2, Fraction(-1, 7), 0.6 + 0.8j):
                    shift = Shift.of(m, a, b)
                    if m == a == b == 0 and alpha == 1:
                        with pytest.raises(ZeroDivisionError):
                            zeta_local(place, shift, alpha)
                        continue
                    assert _form(zeta_local(place, shift, alpha)) == \
                        _form(_generic_zeta_local(place, shift, alpha)), (p, m, a, b, alpha)


def _reference_zeta_local(place, shift, alpha):
    """zeta_local with its constant as _plain(power_of_p(p, m, -1)) for every m,
    the Scalar route the integer-m constant replaced."""
    p, a, b = place.p, shift.a, shift.b
    c = _plain(power_of_p(p, shift.m, -1))
    if not (alpha.__class__ is int and alpha == 1):
        c = _plain(alpha) * c
    lift, mono = (max(0, -a), max(0, -b)), (max(0, a), max(0, b))
    num = Poly2._make(1, {lift: 1})
    if c.__class__ is complex or not c or lift == mono:
        return RationalFunction2.from_poly(num, p).with_factor(num - Poly2.monomial(*mono, c))
    n, d = c.numerator, c.denominator
    if lift > mono:
        factor = Poly2._make(d, {lift: d, mono: -n})
    else:
        coeff = -d if n > 0 else d
        num = Poly2._make(abs(n), {lift: coeff})
        factor = Poly2._make(abs(n), {lift: coeff, mono: abs(n)})
    return RationalFunction2(num, {factor.key(): (factor, 1)}, p)


def test_zeta_local_constant_is_the_scalar_route():
    checked = 0
    for p in (2, 3, 9):
        place = PlaceData(p, 1)
        for m in (-2, -1, 0, 1, 2, 3):
            for a, b in ((1, 0), (0, -2), (2, 2), (-1, 1)):
                for alpha in (1, Fraction(3, 5)):
                    shift = Shift.of(m, a, b)
                    got, want = zeta_local(place, shift, alpha), _reference_zeta_local(
                        place, shift, alpha)
                    assert (got.num.den, list(got.num.terms.items())) == \
                        (want.num.den, list(want.num.terms.items()))
                    assert _form(got) == _form(want), (p, m, a, b, alpha)
                    checked += 1
    assert checked == 3 * 6 * 4 * 2


@pytest.mark.parametrize("p", (2, 9))
@pytest.mark.parametrize("m", (Fraction(1, 2), Fraction(-3, 2)))
def test_zeta_local_refuses_a_non_integer_constant(p, m):
    # at p = 9, p**(-m) is rational: only the integer check refuses it
    for alpha in (1, Fraction(3, 5), 0.6 + 0.8j):
        with pytest.raises(ValueError, match=f"integer constant m, got m = {m}$"):
            zeta_local(PlaceData(p, 1), Shift.of(m, 1, 0), alpha)


def test_volumes():
    assert volume_K(PlaceData(2, 1)) == Scalar.exact(Fraction(1, 3))
    assert volume_K(PlaceData(3, 2)) == Scalar.exact(Fraction(1, 12))
    assert inv_volume_Kq(IdealFactorization.parse("2^1")) == Scalar.exact(3)
    with pytest.raises(ValueError):
        volume_K(PlaceData(2, 0))


def test_volume_index_scaling():
    for p in (2, 3, 5, 9):
        for r in (1, 2, 3, 4):
            ratio = volume_K(PlaceData(p, r)) / volume_K(PlaceData(p, r + 1))
            assert ratio == Scalar.exact(p)
