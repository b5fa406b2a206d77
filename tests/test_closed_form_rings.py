"""The Whittaker/zetaint closed forms on the ring of their inputs, bit for bit.

``weighted_integral_closed``, ``rs_local_value``, ``reg_local_closed`` and
``whittaker_norm_sq`` run on plain ``complex`` values where their inputs are
numeric, on ``Fraction``s where they are rational, and on ``Scalar`` only in
``Q(sqrt p)``.  Their former evaluation, every operation through ``Scalar``,
is kept below as the reference (``_reference_*``).  For every draw (numeric,
exact and mixed inputs, confluent and ramified parameters, signed-zero
imaginary parts, points next to a pole) both give the same ``repr`` of
``to_complex()``, the same exact value, or the same exception.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinlab.exactalg import PoleError, nonzero_factor, power_of_p
from rankinlab.localdata import PlaceData, zeta_scalar
from rankinlab.scalars import SC_ONE, Scalar
from rankinlab.whittaker import (SatakeParams, rankin_selberg_self_l, weighted_integral_closed,
                                 whittaker_norm_sq, whittaker_norm_sq_oracle)
from rankinlab.zetaint import (reg_local_bound, reg_local_closed, reg_local_closed_s_form,
                               rs_local_value)

# -- the Scalar evaluation of each closed form, the reference ----------------------

def _reference_l_factor_product(a, b, x):
    value = SC_ONE
    for ai in (a.alpha1, a.alpha2):
        if ai.is_zero():
            continue
        for bj in (b.alpha1, b.alpha2):
            if bj.is_zero():
                continue
            value = value / nonzero_factor(SC_ONE - ai * bj * x, "local L-factor")
    return value


def _reference_self_l(params, x):
    conjugate = SatakeParams(params.alpha1.conjugate(), params.alpha2.conjugate(),
                             params.ramified, params.theta)
    return _reference_l_factor_product(params, conjugate, x)


def _reference_weighted(params, place, s):
    s = Scalar.wrap(s)
    x = power_of_p(place.p, SC_ONE + s, -1)
    delta2 = (params.alpha1 * params.alpha2).abs2()
    numerator = SC_ONE - delta2 * x ** 2
    return numerator * _reference_self_l(params, x)


def _reference_norm(params, place):
    p = place.p
    pinv = Scalar.exact(Fraction(1, p))
    growth = params.alpha1.abs2() * pinv
    if abs(growth.to_complex()) >= 1:
        raise ValueError("norm series diverges: |alpha1|**2 >= p")
    l_value = _reference_self_l(params, pinv)
    if params.ramified:
        inner = (SC_ONE - growth).inverse()
    else:
        if abs((params.alpha2.abs2() * pinv).to_complex()) >= 1:
            raise ValueError("norm series diverges: |alpha2|**2 >= p")
        inner = _reference_weighted(params, place, 0)
    return zeta_scalar(place, 2) / l_value * inner


def _reference_rs(pi, pi0, place):
    p = place.p
    num = SC_ONE - (pi.alpha1 * pi.alpha2 * pi0.alpha1 * pi0.alpha2) * Fraction(1, p)
    return num * _reference_l_factor_product(pi, pi0, power_of_p(p, Fraction(1, 2), -1))


def _reference_reg(pi, place, z):
    z = Scalar.wrap(z)
    p, r = place.p, place.r
    beta, gamma = power_of_p(p, z - Fraction(1, 2)), power_of_p(p, -z - Fraction(1, 2))
    a1, a2 = pi.alpha1, pi.alpha2
    for ai in (a1, a2):
        nonzero_factor(SC_ONE - ai * gamma, "regularised local integral")
    pref = power_of_p(p, Fraction(r, 2), -1)
    if not pi.confluent():
        f1 = (beta - a1) * a1 ** r / (SC_ONE - gamma * a1) ** 2
        f2 = (beta - a2) * a2 ** r / (SC_ONE - gamma * a2) ** 2
        return -pref * (f1 - f2) / (a1 - a2)
    a = a1
    inv2 = (SC_ONE - gamma * a) ** (-2)
    inv3 = (SC_ONE - gamma * a) ** (-3)
    fprime = -(a ** r) * inv2 + (gamma * 2) * (beta - a) * a ** r * inv3
    if r > 0:
        fprime = fprime + Scalar.exact(r) * (beta - a) * a ** (r - 1) * inv2
    return -pref * fprime


def _reference_reg_bound(pi, place, z):
    p, r = place.p, place.r
    gamma = power_of_p(p, -Scalar.wrap(z) - Fraction(1, 2)).to_complex()
    a1, a2 = pi.alpha1.to_complex(), pi.alpha2.to_complex()
    l_sq = 1.0 / abs((1 - a1 * gamma) * (1 - a2 * gamma)) ** 2
    return p ** (-r / 2) * l_sq * (r + 1) * max(abs(a1), abs(a2)) ** r


def _outcome(f, *args):
    """What a call gives: its exception type, or the repr of its value's
    to_complex() with the exact value where it is exact."""
    try:
        value = f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    if isinstance(value, float):
        return repr(value)
    value = Scalar.wrap(value)  # rankin_selberg_self_l returns a plain value
    return repr(value.to_complex()), str(value) if value.is_exact else None


def _assert_same(f, reference, *args):
    got, want = _outcome(f, *args), _outcome(reference, *args)
    assert got == want, args


# -- draws ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 9, 11)
SIGNED = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0))
EXACT = st.fractions(-4, 4, max_denominator=6).map(Scalar.exact)
NUMERIC = st.one_of(
    st.builds(complex, st.floats(-3.0, 3.0), SIGNED),
    st.floats(0.0, 2 * math.pi).map(lambda phi: cmath.exp(1j * phi)),
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1 + 0j, -1 + 0j]),
).map(Scalar.numeric)
# a square root of 2, 3, 5 or 11: in Q(sqrt p) at its own p, incompatible at another
ROOT = st.builds(Scalar.root, st.sampled_from((2, 3, 5, 11)),
                 st.fractions(-2, 2, max_denominator=4).filter(bool))
VALUE = st.one_of(EXACT, NUMERIC, ROOT)
PARAMS = st.one_of(
    st.builds(SatakeParams, VALUE, VALUE),                       # mixed rings too
    VALUE.map(lambda a: SatakeParams(a, a)),                     # confluent
    NUMERIC.map(lambda a: SatakeParams(a, Scalar.numeric(a.to_complex() * (1 + 1e-13)))),
    VALUE.map(SatakeParams.make_ramified),                       # alpha2 = 0
    st.floats(0.0, 2 * math.pi).map(
        lambda phi: SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * phi)))),
    st.fractions(Fraction(1, 5), 5, max_denominator=6).map(
        lambda a: SatakeParams.unramified_unitary(Scalar.exact(a))),
)
POINT = st.one_of(
    st.builds(complex, st.floats(-1.0, 1.0), SIGNED).map(Scalar.numeric),
    st.fractions(-3, 3, max_denominator=3).map(Scalar.exact),   # integers, halves, thirds
    ROOT,
)
PLACE = st.builds(PlaceData, st.sampled_from(PRIMES), st.integers(0, 6))
EPS = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-1e-6, 1e-6))


@settings(max_examples=400, deadline=None)
@given(params=PARAMS, place=PLACE, s=POINT)
def test_weighted_integral_is_its_scalar_evaluation(params, place, s):
    _assert_same(weighted_integral_closed, _reference_weighted, params, place, s)


@settings(max_examples=300, deadline=None)
@given(params=PARAMS, place=PLACE)
def test_norm_is_its_scalar_evaluation(params, place):
    _assert_same(whittaker_norm_sq, _reference_norm, params, place)
    _assert_same(rankin_selberg_self_l, _reference_self_l, params,
                 Scalar.exact(Fraction(1, place.p)))


@settings(max_examples=400, deadline=None)
@given(pi=PARAMS, pi0=PARAMS, place=PLACE)
def test_rs_local_value_is_its_scalar_evaluation(pi, pi0, place):
    _assert_same(rs_local_value, _reference_rs, pi, pi0, place)


@settings(max_examples=400, deadline=None)
@given(pi=PARAMS, place=PLACE, z=POINT)
def test_reg_local_closed_is_its_scalar_evaluation(pi, place, z):
    _assert_same(reg_local_closed, _reference_reg, pi, place, z)
    _assert_same(reg_local_bound, _reference_reg_bound, pi, place, z)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from(PRIMES), r=st.integers(0, 6), eps=EPS, exact_pi0=st.booleans(),
       s=st.floats(-0.5, 0.5))
def test_points_next_to_a_pole_raise_as_the_scalar_evaluation(p, r, eps, exact_pi0, s):
    # a_1 b_1 p**(-1/2) = 1 + eps, |alpha1|**2 p**(-1-s) = 1 + eps and
    # alpha1 p**(-1/2-z) = 1 + eps: within 1e-13 of a pole both raise PoleError
    place = PlaceData(p, r)
    one = Scalar.exact(1) if exact_pi0 else Scalar.numeric(1 + 0j)
    pi0 = SatakeParams(one, one)
    pi = SatakeParams.make_ramified(Scalar.numeric(p ** 0.5 * (1 + eps)))
    _assert_same(rs_local_value, _reference_rs, pi, pi0, place)
    _assert_same(rs_local_value, _reference_rs, pi0, pi, place)
    tilted = SatakeParams.make_ramified(Scalar.numeric(p ** ((1 + s) / 2) * (1 + eps)))
    _assert_same(weighted_integral_closed, _reference_weighted, tilted, place,
                 Scalar.numeric(s))
    z = Scalar.numeric(s / 4)
    near = Scalar.numeric(p ** (0.5 + s / 4) * (1 + eps))
    for pi in (SatakeParams(near, one), SatakeParams(near, near)):
        _assert_same(reg_local_closed, _reference_reg, pi, place, z)


@pytest.mark.parametrize("p", PRIMES)
def test_an_exact_pole_still_raises(p):
    # exact parameters at an exact pole: PoleError, as before
    root = Scalar.root(p, 1)
    with pytest.raises(PoleError):
        rs_local_value(SatakeParams.make_ramified(root), SatakeParams.make_ramified(SC_ONE),
                       PlaceData(p, 1))
    with pytest.raises(PoleError):
        reg_local_closed(SatakeParams.make_ramified(root), PlaceData(p, 1), Scalar.exact(0))


# -- one Scalar per numeric call, exact values for exact inputs ----------------------

def _numeric_calls():
    calls = []
    for k, p in enumerate(PRIMES):
        pi = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * (0.3 + k))))
        pi0 = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * (1.1 - k))))
        ramified = SatakeParams.make_ramified(Scalar.numeric(0.4 - 0.2j))
        confluent = SatakeParams(Scalar.numeric(0.5 + 0j), Scalar.numeric(0.5 + 0j))
        for r in range(7):
            place = PlaceData(p, r)
            for params in (pi, ramified, confluent):
                calls += [(weighted_integral_closed, (params, place, Scalar.numeric(0.25))),
                          (rs_local_value, (params, pi0, place)),
                          (reg_local_closed, (params, place, Scalar.numeric(0.1 - 0.0j))),
                          (whittaker_norm_sq, (params, place))]
    return calls


def test_a_numeric_call_builds_one_scalar_its_value(monkeypatch):
    calls = _numeric_calls()
    built = []
    init = Scalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counting)
    for f, args in calls:
        built.clear()
        value = f(*args)
        assert len(built) == 1 and not value.is_exact, f.__name__


def test_the_norm_oracle_builds_one_scalar_its_value(monkeypatch):
    pi = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(0.7j)))
    built = []
    init = Scalar.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counting)
    value = whittaker_norm_sq_oracle(pi, PlaceData(3, 1))
    assert len(built) == 1 and not value.is_exact


def test_exact_inputs_give_exact_values():
    confluent = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
    spot = weighted_integral_closed(confluent, PlaceData(2, 1), Scalar.exact(0))
    assert spot.is_exact and spot == Scalar.exact(12)
    for a in (Fraction(1, 2), Fraction(2, 3), 1):
        pi = SatakeParams.unramified_unitary(Scalar.exact(a))
        for p, r, z in ((2, 0, 1), (3, 3, 0), (5, 2, Fraction(1, 2)), (9, 1, 1)):
            place = PlaceData(p, r)
            closed = reg_local_closed(pi, place, Scalar.exact(z))
            assert closed.is_exact and closed == reg_local_closed_s_form(pi, place,
                                                                         Scalar.exact(z))
            assert rs_local_value(pi, confluent, place).is_exact
        for p in (5, 9):
            assert whittaker_norm_sq(pi, PlaceData(p, 1)) == Scalar.exact(1)
