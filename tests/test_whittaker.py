import cmath
import random
from fractions import Fraction

import pytest

from rankinlab.exactalg import power_of_p
from rankinlab.localdata import PlaceData
from rankinlab.scalars import Scalar
from rankinlab.whittaker import (SatakeParams, hecke_stream, satake_sum,
                                 weighted_integral_closed, weighted_integral_oracle,
                                 whittaker_norm_sq, whittaker_norm_sq_oracle, whittaker_value)


def unitary(a) -> SatakeParams:
    return SatakeParams.unramified_unitary(Scalar.wrap(a))


def test_value_at_identity_and_vanishing():
    pi = unitary(Fraction(3, 2))
    place = PlaceData(5, 1)
    assert whittaker_value(pi, place, 0) == Scalar.exact(1)
    assert whittaker_value(pi, place, -3).is_zero()


def test_equal_parameter_limit():
    pi = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
    # (n+1) alpha**n limit at n=2, p=2: 2**(-1) * 3
    assert whittaker_value(pi, PlaceData(2, 1), 2) == Scalar.exact(Fraction(3, 2))


def test_central_character_enforced():
    with pytest.raises(ValueError):
        SatakeParams.unramified_unitary(Scalar.exact(2), Scalar.exact(2))
    with pytest.raises(ValueError):
        SatakeParams(Scalar.exact(1), Scalar.exact(1), ramified=True)


@pytest.mark.parametrize("a1, a2, confluent", [
    (Scalar.exact(Fraction(1, 2)), Scalar.exact(Fraction(1, 2)), True),
    (Scalar.exact(Fraction(1, 2)), Scalar.exact(Fraction(1, 3)), False),
    (Scalar.numeric(0.5), Scalar.numeric(0.5 * (1 + 1e-13)), True),
    (Scalar.numeric(0.5), Scalar.numeric(0.5 * (1 + 1e-11)), False),
    (Scalar.numeric(3e3), Scalar.numeric(3e3 + 1e-10), True),  # relative to |alpha1|
    (Scalar.exact(Fraction(1, 2)), Scalar.numeric(0.5 + 1e-13j), True),
    (Scalar.exact(Fraction(1, 3)), Scalar.numeric(1 / 3), True),
])
def test_confluence_is_exact_equality_or_a_relative_tolerance(a1, a2, confluent):
    assert SatakeParams(a1, a2).confluent() is confluent


def test_hecke_recursion_exact():
    rng = random.Random(5)
    for _ in range(20):
        a = Fraction(rng.randrange(1, 8), rng.randrange(1, 8))
        pi = unitary(a)
        p = rng.choice((2, 3, 5, 9))
        place = PlaceData(p, 1)
        half = power_of_p(p, Fraction(1, 2), -1)
        pinv = Scalar.exact(Fraction(1, p))
        t = pi.alpha1 + pi.alpha2
        delta = pi.alpha1 * pi.alpha2
        for n in range(1, 6):
            lhs = whittaker_value(pi, place, n + 1)
            rhs = half * t * whittaker_value(pi, place, n) \
                - pinv * delta * whittaker_value(pi, place, n - 1)
            assert lhs == rhs


@pytest.mark.parametrize("params, p", [
    (SatakeParams.unramified_unitary(Scalar.exact(Fraction(3, 2))), 5),
    (SatakeParams.unramified_unitary(Scalar.exact(Fraction(3, 2))), 2),
    (SatakeParams.make_ramified(Scalar.exact(Fraction(-1, 2))), 3),
    (SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1)), 2),
], ids=["unramified", "unramified-growing", "ramified", "confluent"])
def test_hecke_stream_is_whittaker_value(params, p):
    place = PlaceData(p, 1)
    stream = hecke_stream(params, p ** -0.5)
    for n in range(40):
        want = whittaker_value(params, place, n).to_complex()
        assert abs(next(stream) - want) <= 1e-12 * max(1.0, abs(want)), n


def test_negative_index_satake_continuation():
    # the confluent pair 1,1 takes n alpha**(n-1) at negative n too
    for pi in (unitary(Fraction(5, 3)), unitary(1)):
        delta = pi.alpha1 * pi.alpha2
        for n in (1, 2, 3):
            assert satake_sum(pi, -n) == -satake_sum(pi, n) / delta ** n
    assert satake_sum(unitary(1), -3) == Scalar.exact(-3)
    ram = SatakeParams.make_ramified(Scalar.exact(2))
    with pytest.raises(ZeroDivisionError):
        satake_sum(ram, -1)


def test_norm_unramified_is_one():
    for a in (1, Fraction(1, 2), Fraction(4, 3)):
        pi = SatakeParams.unramified_unitary(Scalar.exact(Fraction(a)))
        for p in (2, 3, 9):
            if max(Fraction(a), 1 / Fraction(a)) ** 2 >= p:
                continue
            assert whittaker_norm_sq(pi, PlaceData(p, 1)) == Scalar.exact(1)


def test_norm_ramified_closed_form():
    pi = SatakeParams.make_ramified(Scalar.exact(1))
    assert whittaker_norm_sq(pi, PlaceData(2, 1)) == Scalar.exact(Fraction(4, 3))
    with pytest.raises(ValueError):
        whittaker_norm_sq(SatakeParams.make_ramified(Scalar.exact(2)), PlaceData(2, 1))


def test_norm_oracle_cross_check():
    rng = random.Random(11)
    for _ in range(10):
        phi = rng.uniform(0, 2 * cmath.pi)
        pi = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * phi)))
        place = PlaceData(rng.choice((2, 3, 5)), 1)
        closed = whittaker_norm_sq(pi, place).to_complex()
        oracle = whittaker_norm_sq_oracle(pi, place, terms=10_000).to_complex()
        assert abs(closed - oracle) <= 1e-10
    ram = SatakeParams.make_ramified(Scalar.exact(Fraction(1, 2)))
    place = PlaceData(3, 1)
    closed = whittaker_norm_sq(ram, place).to_complex()
    oracle = whittaker_norm_sq_oracle(ram, place, terms=10_000).to_complex()
    assert abs(closed - oracle) <= 1e-10


def test_weighted_integral_exact_value():
    pi = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
    assert weighted_integral_closed(pi, PlaceData(2, 1), 0) == Scalar.exact(12)


def test_weighted_integral_large_s_limit():
    pi = unitary(Fraction(2, 3))
    val = weighted_integral_closed(pi, PlaceData(2, 1), Scalar.exact(40))
    assert abs(val.to_complex() - 1.0) <= 1e-10


def test_weighted_integral_oracle_agreement():
    rng = random.Random(17)
    for _ in range(25):
        phi = rng.uniform(0, 2 * cmath.pi)
        pi = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * phi)))
        place = PlaceData(rng.choice((2, 3, 5, 9, 11)), 1)
        s = Scalar.numeric(rng.uniform(0, 1))
        closed = weighted_integral_closed(pi, place, s).to_complex()
        oracle = weighted_integral_oracle(pi, place, s, terms=10_000).to_complex()
        assert abs(closed - oracle) <= 1e-10 * abs(closed)


def test_norm_is_weighted_integral_prefactor():
    # the s=0 weighted integral against the zeta(2)/L(1) prefactor gives the norm
    pi = unitary(Fraction(3, 2))
    place = PlaceData(5, 1)
    from rankinlab.localdata import zeta_scalar
    from rankinlab.whittaker import rankin_selberg_self_l
    prefactor = zeta_scalar(place, 2) / rankin_selberg_self_l(
        pi, Scalar.exact(Fraction(1, 5)))
    integral = weighted_integral_closed(pi, place, 0)
    assert prefactor * integral == whittaker_norm_sq(pi, place)
    assert prefactor * integral == Scalar.exact(1)
