from fractions import Fraction

import pytest

from rankinlab.exactalg import Poly2, RationalFunction2, power_of_p
from rankinlab.localdata import (IdealFactorization, PlaceData, Shift, inv_volume_Kq,
                                 is_prime_power, norm, omega, volume_K, zeta_local,
                                 zeta_scalar)
from rankinlab.scalars import Scalar


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
    assert zeta_scalar(PlaceData(2, 1), 1) == Scalar.exact(2)
    assert zeta_scalar(PlaceData(3, 1), 2) == Scalar.exact(Fraction(9, 8))
    f = zeta_local(PlaceData(2, 1), Shift.of(1, 2, 0))
    # definition transcription: 1/(1 - T1^2/2)
    assert f.eval_zw(0, 0) == Scalar.exact(2)
    assert f.eval_zw(Fraction(1, 2), 0) == Scalar.exact(Fraction(4, 3))


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
