import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lambda_poly_reference import LambdaPoly, lifted, negated, num_mul, series_inverse
from test_zetaint import h_reference, pole_factor_reference

from rankinlab import laurent, numerator, scalars
from rankinlab.degenerate import build_h, degenerate_limit
from rankinlab.exactalg import Poly2, RationalFunction2
from rankinlab.laurent import (EXACT_DEPTH, SYMMETRY_BREAKERS, LaurentSeries2, _peel_divisors,
                               break_one_symmetry, four_term_combination, ls_from_rational,
                               ls_inverse_regular, pole_factor_series,
                               random_simple_pole_coeffs, random_symmetric_quadruple)
from rankinlab.localdata import IdealFactorization, PlaceData, Shift, zeta_local
from rankinlab.scalars import Scalar
from rankinlab.verify import model_data
from rankinlab.whittaker import SatakeParams
from rankinlab.zetaint import _abs_power, correction_factor_rf


def _poly_series(coeffs, poles=(0, 0, 0, 0)):
    return LaurentSeries2(
        {m: Scalar.exact(v) for m, v in coeffs.items()}, poles)


def test_unit_series_from_rational():
    place = PlaceData(2, 1)
    f = zeta_local(place, Shift.of(1, 2, 0))
    # exact log surrogate keeps the whole expansion in rational arithmetic,
    # so the cancellation is exact term by term
    one = ls_from_rational(f * f.inverse(), 8, log_p=Scalar.exact(Fraction(7, 10)))
    assert one.poles == (0, 0, 0, 0)
    assert one.coeff(0, 0).coeff(0) == Scalar.exact(1)
    assert all(m == (0, 0) for m in one.num)


def test_from_rational_expands_in_lam_by_default():
    # a numeric log p is passed as a number, such as math.log(p); no string names it
    f = zeta_local(PlaceData(2, 1), Shift.of(1, 2, 0)).inverse()
    default, lam = ls_from_rational(f, 8), ls_from_rational(f, 8, log_p="lambda")
    assert (default.den, default.terms, default.poles) == (lam.den, lam.terms, lam.poles)
    with pytest.raises(ValueError, match="unknown log_p mode 'numeric'"):
        ls_from_rational(f, 8, log_p="numeric")


def test_simple_pole_along_diagonal_direction():
    # zeta_v(2z+2w) = (1 - exp(-2(z+w) log 2))**(-1) has a simple pole
    # along z+w with leading coefficient 1/(2 log 2)
    place = PlaceData(2, 1)
    ser = ls_from_rational(zeta_local(place, Shift.of(0, 2, 2)), 8, log_p=math.log(2))
    assert ser.poles == (0, 0, 1, 0)
    lead = ser.coeff(0, 0).coeff(0).to_complex()
    assert abs(lead - 1 / (2 * math.log(2))) < 1e-14


def test_regular_expansion_coefficients():
    place = PlaceData(2, 1)
    ser = ls_from_rational(zeta_local(place, Shift.of(1, 2, 0)).inverse(), 8, log_p=math.log(2))
    assert ser.poles == (0, 0, 0, 0)
    assert abs(ser.coeff(0, 0).coeff(0).to_complex() - 0.5) < 1e-15
    assert abs(ser.coeff(1, 0).coeff(0).to_complex() - math.log(2)) < 1e-14


def test_non_divisor_denominator_rejected():
    # denominator vanishing at T1 = 1 only through (1 - T1**2) factors is fine;
    # 2 - T1 - T2 vanishes at the origin along z+w... but (2 - 3*T1 + T2**2)
    # vanishes at the origin in a non-divisor direction
    bad = RationalFunction2.from_poly(Poly2.const(1), 2).with_factor(
        Poly2.const(2) - Poly2.monomial(1, 0, 3) + Poly2.monomial(0, 2))
    with pytest.raises((ValueError, ZeroDivisionError)):
        ls_from_rational(bad, 8, log_p=math.log(2))


def test_mul_and_add_pole_bookkeeping():
    a = _poly_series({(0, 0): Fraction(1)}, (1, 0, 0, 0))  # 1/z
    b = _poly_series({(0, 0): Fraction(1)}, (0, 1, 0, 0))  # 1/w
    prod = a * b
    assert prod.poles == (1, 1, 0, 0)
    x = _poly_series({(0, 0): Fraction(1)}, (1, 1, 1, 0))
    assert (x - x).is_zero()
    c = _poly_series({(1, 0): Fraction(2)})
    assert lifted((c * LaurentSeries2.one()).num) == lifted(c.num)


def test_flip_involution_and_signs():
    base = _poly_series({(0, 0): Fraction(1)}, (1, 1, 1, 0))  # 1/(zw(z+w))
    both = base.flip(True, True)
    assert both.poles == (1, 1, 1, 0)
    assert both.coeff(0, 0).coeff(0) == Scalar.exact(-1)
    assert lifted(base.flip(True, False).flip(True, False).num) == lifted(base.num)
    # single flip swaps the z+w and z-w divisors
    zw = _poly_series({(0, 0): Fraction(1)}, (0, 0, 0, 1))  # 1/(z-w)
    assert zw.flip(False, True).poles == (0, 0, 1, 0)
    assert zw.flip(False, True).coeff(0, 0).coeff(0) == Scalar.exact(1)


def test_singular_part_cases():
    regular = _poly_series({(0, 0): Fraction(3), (1, 1): Fraction(2)})
    assert regular.singular_part().is_zero()
    s = _poly_series({(0, 0): Fraction(1), (1, 0): Fraction(5)}, (1, 0, 0, 0))
    reg, sing, _ = s.split_singular()
    assert sing.poles == (1, 0, 0, 0) and sing.coeff(0, 0).coeff(0) == Scalar.exact(1)
    assert reg.coeff(0, 0).coeff(0) == Scalar.exact(5)


def test_model_four_term_combination_vanishes():
    base = _poly_series({(0, 0): Fraction(1)}, (1, 1, 1, 0))
    combo = (base + base.flip(True, False) + base.flip(False, True)
             + base.flip(True, True))
    assert combo.singular_part().is_zero()
    assert not combo.constant_term().c


def test_constant_term_and_cubic():
    assert LaurentSeries2.one().constant_term().coeff(0) == Scalar.exact(1)
    lam3 = LambdaPoly.lam(Fraction(1, 24), 3)
    lone = LaurentSeries2(
        {(m, 3 - m): lam3.scale(math.comb(3, m)) for m in range(4)}, (1, 1, 1, 0))
    with pytest.raises(ValueError):
        lone.constant_term()
    sym = (lone + lone.flip(True, False) + lone.flip(False, True)
           + lone.flip(True, True))
    ct = sym.constant_term()
    assert ct.coeff(3) == Scalar.exact(Fraction(1, 3))
    assert ct.degree() == 3 and ct.coeff(0).is_zero()


def test_depth_truncation_guards_certificates():
    # terms beyond the declared validity window are dropped at construction
    s = LaurentSeries2({(0, 0): Fraction(1), (5, 5): Fraction(7)}, depth=4)
    assert (5, 5) not in s.num


def _series_value(s, z, w):
    """s at the complex point (z, w) with lam = 0, read off its kernel form:
    each monomial's lam**0 value (an int over den, or a complex) times
    z**i w**j, over the pole product."""
    total = 0j
    for (i, j), c in s.terms.items():
        v = c.get(0, 0)
        total += (v / s.den if v.__class__ is int else v) * z ** i * w ** j
    a, b, c, d = s.poles
    return total / (z ** a * w ** b * (z + w) ** c * (z - w) ** d)


def test_eval_matches_rational_function():
    place = PlaceData(3, 1)
    f = zeta_local(place, Shift.of(1, 2, 0)).inverse() * zeta_local(place, Shift.of(2, 2, 2))
    ser = ls_from_rational(f, 8, log_p=math.log(3))
    z, w = 1e-4, 2e-4
    lhs = _series_value(ser, z, w)
    rhs = f.eval_zw(Scalar.numeric(z), Scalar.numeric(w)).to_complex()
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_series_inverse_round_trip():
    s = _poly_series({(0, 0): Fraction(2), (1, 0): Fraction(1, 3), (0, 2): Fraction(-1)})
    s = LaurentSeries2(s.num, s.poles, 8)
    inv = ls_inverse_regular(s)
    prod = s * inv
    assert prod.coeff(0, 0).coeff(0) == Scalar.exact(1)
    assert all(not v.c for m, v in prod.num.items() if m != (0, 0))


@pytest.mark.parametrize("series", [LaurentSeries2({(0, 0): 2, (1, 0): 1}),
                                    LaurentSeries2.one()], ids=["unit", "one"])
def test_inverse_of_an_untruncated_series_is_refused(series):
    # the inverse of a series valid to every degree has no last degree
    assert series.depth == EXACT_DEPTH
    with pytest.raises(ValueError, match="truncate it first"):
        ls_inverse_regular(series)
    short = series.truncated(4)
    assert (short * ls_inverse_regular(short)).constant_term() == LambdaPoly.const(1)


def test_random_quadruples_cancel():
    rng = random.Random(99)
    for _ in range(25):
        g = pole_factor_series(random_simple_pole_coeffs(rng, 8),
                               random_simple_pole_coeffs(rng, 8), 8)
        quadruple = random_symmetric_quadruple(rng)
        assert four_term_combination(g, quadruple, 8).singular_part().is_zero()


@pytest.mark.parametrize("constraint", sorted(SYMMETRY_BREAKERS))
def test_single_broken_constraint_is_detected(constraint):
    # seeded by position: str hashes are salted per process, so a failure would not replay
    rng = random.Random(sorted(SYMMETRY_BREAKERS).index(constraint))
    quadruple = break_one_symmetry(random_symmetric_quadruple(rng), constraint, rng)
    g = pole_factor_series(random_simple_pole_coeffs(rng, 8),
                           random_simple_pole_coeffs(rng, 8), 8)
    assert not four_term_combination(g, quadruple, 8).singular_part().is_zero()


# -- the four-term combination against the sum of its four products --------------

def _chain_combination(g, quadruple):
    """Reference: the four products added with LaurentSeries2.__add__, each sum
    raising its operands' poles."""
    h1, h2, h3, h4 = [LaurentSeries2(h) for h in quadruple]
    return (g * h1 + g.flip(True, False) * h2
            + g.flip(False, True) * h3 + g.flip(True, True) * h4)


def _flat_fractions(flat):
    """A kernel-form numerator as {((i, j), k): value as a reduced Fraction}."""
    den, terms = flat
    return {(m, k): Fraction(v, den) for m, c in terms.items() for k, v in c.items()}


def _assert_same_combination(g, quadruple):
    got, want = four_term_combination(g, quadruple, 8), _chain_combination(g, quadruple)
    assert got.poles == want.poles and got.depth == want.depth
    assert _flat_fractions((got.den, got.terms)) == _flat_fractions((want.den, want.terms))


def _combination_draw(rng, broken):
    g = pole_factor_series(random_simple_pole_coeffs(rng, 8),
                           random_simple_pole_coeffs(rng, 8), 8)
    quadruple = random_symmetric_quadruple(rng)
    if broken is not None:
        quadruple = break_one_symmetry(quadruple, broken, rng)
    return g, quadruple


@pytest.mark.parametrize("seed", (20260809, 1017))
def test_four_term_combination_is_the_sum_of_its_products(seed):
    rng = random.Random(seed)
    names = sorted(SYMMETRY_BREAKERS)
    for k in range(260):
        broken = names[k % 6] if k >= 200 else None
        _assert_same_combination(*_combination_draw(rng, broken))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.one_of(st.none(), st.sampled_from(sorted(SYMMETRY_BREAKERS))))
def test_four_term_combination_is_the_sum_of_its_products_on_any_draw(seed, broken):
    _assert_same_combination(*_combination_draw(random.Random(seed), broken))


@st.composite
def _pole_series_and_quadruple(draw):
    """A G with lam powers and any poles, a and b odd or even, and a quadruple
    whose h may be empty or hold int or zero values; or four equal h, whose
    three signed parity sums vanish."""
    g = draw(_exact_series())
    values = st.one_of(_rationals, st.integers(-3, 3))
    quadruple = tuple({m: draw(values) for m in draw(st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))} for _ in range(4))
    if draw(st.booleans()):
        quadruple = (quadruple[0],) * 4
    return g, quadruple


@settings(max_examples=100, deadline=None)
@given(_pole_series_and_quadruple())
def test_four_term_combination_of_any_pole_pattern_is_the_sum_of_its_products(case):
    # G with any poles and depth: raised once to equal z+w and z-w exponents
    _assert_same_combination(*case)


_LAM_G = {(0, 0): LambdaPoly({0: Scalar.exact(1), 2: Scalar.exact(Fraction(1, 3))}),
          (1, 0): LambdaPoly({1: Scalar.exact(-2)}), (0, 1): Scalar.exact(Fraction(5, 2)),
          (2, 1): LambdaPoly({0: Scalar.exact(3), 3: Scalar.exact(Fraction(-1, 4))})}
_H = {(0, 0): Fraction(1, 2), (1, 0): Fraction(-3), (0, 2): Fraction(2, 3)}
_QUADRUPLES = {
    "free": (_H, {(0, 1): Fraction(1, 6)}, {(1, 1): Fraction(-5, 4), (0, 0): 2}, {(2, 0): 1}),
    "empty h": (_H, {}, {(1, 0): Fraction(7, 3)}, {}),
    "equal h": (_H, _H, _H, _H),
    "all empty": ({}, {}, {}, {}),
    # an untruncated G keeps depth EXACT_DEPTH + 1 here, not that plus the h's order
    "no constant term": ({(1, 0): 1}, {(0, 1): Fraction(1, 2)}, {(1, 1): 2}, {(2, 0): -1}),
}


@pytest.mark.parametrize("shape", sorted(_QUADRUPLES))
@pytest.mark.parametrize("a, b", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)])
def test_four_term_combination_on_each_parity_of_the_poles(a, b, shape):
    # every parity class of (i + a, j + b) meets its own signed sum of the h
    for depth in (6, EXACT_DEPTH):
        g = LaurentSeries2(_LAM_G, (a, b, 1, 0), depth)
        _assert_same_combination(g, _QUADRUPLES[shape])
    if shape == "all empty":
        assert four_term_combination(g, _QUADRUPLES[shape], 8).is_zero()


@pytest.mark.parametrize("seed", (20260809, 1017))
def test_four_term_combination_is_one_mul_sum_of_at_most_four_pairs(monkeypatch, seed):
    # the four products are one kernel call of one (class, H) pair per parity
    # class of G's terms, and G is never flipped
    g, quadruple = _combination_draw(random.Random(seed), None)
    want = _chain_combination(g, quadruple)
    mul_sum, calls = numerator.mul_sum, []

    def spy(pairs, depth):
        calls.append(pairs := list(pairs))
        return mul_sum(pairs, depth)

    monkeypatch.setattr(numerator, "mul", lambda a, b, depth: mul_sum(((a, b),), depth))
    monkeypatch.setattr(numerator, "mul_sum", spy)
    monkeypatch.setattr(LaurentSeries2, "flip", lambda *args: pytest.fail("G was flipped"))
    got = four_term_combination(g, quadruple, 8)
    assert len(calls) == 1 and 1 <= len(calls[0]) <= 4
    assert got.poles == want.poles and got.depth == want.depth
    assert _flat_fractions((got.den, got.terms)) == _flat_fractions((want.den, want.terms))


def test_from_rational_depth_guard():
    # three pole directions need depth >= 6
    place = PlaceData(2, 1)
    f = (zeta_local(place, Shift.of(0, 2, 0)) * zeta_local(place, Shift.of(0, 0, 2))
         * zeta_local(place, Shift.of(0, 2, 2)))
    with pytest.raises(ValueError, match="too shallow"):
        ls_from_rational(f, 4, log_p=math.log(2))
    ser = ls_from_rational(f, 6, log_p=math.log(2))
    assert ser.poles == (1, 1, 1, 0)


def test_flip_agrees_with_argument_substitution():
    # evaluating a flipped series equals evaluating the original at the
    # sign-flipped arguments, for every flip combination and pole pattern
    rng = random.Random(31)
    z, w = 0.013, -0.019
    for _ in range(20):
        coeffs = {(rng.randrange(3), rng.randrange(3)):
                  Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(4)}
        poles = (rng.randrange(2), rng.randrange(2), rng.randrange(2), rng.randrange(2))
        s = _poly_series({m: v for m, v in coeffs.items() if v}, poles)
        if s.is_zero():
            continue
        base = _series_value(s, z, w)
        for fz in (False, True):
            for fw in (False, True):
                flipped = s.flip(fz, fw)
                direct = _series_value(s, -z if fz else z, -w if fw else w)
                assert abs(_series_value(flipped, z, w) - direct) <= 1e-12 * max(1.0, abs(base))


def test_insufficient_depth_is_an_error():
    shallow = LaurentSeries2(
        {(0, 0): Fraction(1), (1, 1): Fraction(1)}, (1, 1, 1, 0), depth=2)
    with pytest.raises(ValueError, match="insufficient truncation depth"):
        shallow.split_singular()


# -- the numerator product kernel against the LambdaPoly pair loop ---------------


def _pair_loop_mul(a, b, depth):
    """Reference: one LambdaPoly product per pair of monomials."""
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > depth:
                continue
            prod = v1 * v2
            cur = out.get((i, j))
            s = prod if cur is None else cur + prod
            if s.is_zero():
                out.pop((i, j), None)
            else:
                out[(i, j)] = s
    return out


def _abs_bound(a, b, depth):
    """Per (i, j, k): the sum of |products| feeding it, the scale of its rounding error."""
    bound = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            if i1 + i2 + j1 + j2 > depth:
                continue
            for k1, c1 in v1.c.items():
                for k2, c2 in v2.c.items():
                    key = (i1 + i2, j1 + j2, k1 + k2)
                    bound[key] = bound.get(key, 0.0) + abs(c1.to_complex() * c2.to_complex())
    return bound


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
_floats = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)
_exact = _rationals.map(Scalar.exact)
_numeric = st.builds(complex, _floats, _floats).filter(bool).map(Scalar.numeric)
_KINDS = {
    "exact": (_exact, _exact),
    "numeric": (_numeric, st.one_of(_exact, _numeric)),
    "mixed": (st.one_of(_exact, _numeric), _exact),
}


@st.composite
def _numerators(draw, coeffs):
    num = {}
    for _ in range(draw(st.integers(0, 6))):
        m = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        lp = LambdaPoly({draw(st.integers(0, 3)): draw(coeffs)
                         for _ in range(draw(st.integers(1, 3)))})
        num[m] = lp
    return num


@st.composite
def _operand_pairs(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    first, second = _KINDS[kind]
    a, b = draw(_numerators(first)), draw(_numerators(second))
    if draw(st.booleans()):
        a, b = b, a
    return kind, a, b, draw(st.sampled_from((0, 2, 4, 6, EXACT_DEPTH)))


@settings(max_examples=300, deadline=None)
@given(_operand_pairs())
def test_num_mul_matches_pair_loop(case):
    kind, a, b, depth = case
    ref = _pair_loop_mul(a, b, depth)
    got = num_mul(a, b, depth)
    bound = _abs_bound(a, b, depth)
    keys = {(i, j, k) for num in (ref, got) for (i, j), lp in num.items() for k in lp.c}
    for i, j, k in keys:
        want = ref.get((i, j), LambdaPoly()).c.get(k)
        have = got.get((i, j), LambdaPoly()).c.get(k)
        if want is not None and have is not None:
            assert have.is_exact == want.is_exact, (kind, (i, j, k), want, have)
        if all(x is None or x.is_exact for x in (want, have)):
            assert have == want, (kind, (i, j, k), want, have)
        else:
            diff = abs((have or Scalar.exact(0)).to_complex()
                       - (want or Scalar.exact(0)).to_complex())
            assert diff <= 1e-12 * bound[(i, j, k)], (kind, (i, j, k), want, have)


# -- bitwise references: the Scalar pair loop of num_mul and the LambdaPoly loop
#    of series_inverse, as they were before the per-term and plain-number kernels


def _scalar_loop_mul(a, b, depth):
    """Reference: the flat product loop in Scalar arithmetic, b's terms led by
    their total degree, sums kept in the order their keys first appear."""
    if not a or not b:
        return {}
    ta = [(i, j, k, v) for (i, j), lp in a.items() for k, v in lp.c.items()]
    tb = [(i, j, k, v) for (i, j), lp in b.items() for k, v in lp.c.items()]
    xb = sorted(((i + j, i, j, k, v) for i, j, k, v in tb), key=lambda t: t[:4])
    acc = {}
    for i1, j1, k1, v1 in ta:
        room = depth - i1 - j1
        for d2, i2, j2, k2, v2 in xb:
            if d2 > room:
                break
            key = (i1 + i2, j1 + j2, k1 + k2)
            acc[key] = acc.get(key, Scalar.exact(0)) + v1 * v2
    out = {}
    for (i, j, k), v in acc.items():
        if not v.is_zero():
            out.setdefault((i, j), {})[k] = v
    return {m: LambdaPoly(coeffs) for m, coeffs in out.items()}


def _lambda_poly_inverse(num, depth):
    """Reference: the series inverse as a loop of LambdaPoly products and sums."""
    num = lifted(num)
    inv0 = num[(0, 0)].coeff(0).inverse()
    out = {(0, 0): LambdaPoly.const(inv0)}
    monomials = sorted((m for m in num if m != (0, 0)), key=lambda m: m[0] + m[1])
    for d in range(1, depth + 1):
        for i in range(d + 1):
            acc = LambdaPoly()
            for (i1, j1) in monomials:
                if i1 > i or j1 > d - i or i1 + j1 > d:
                    continue
                prev = out.get((i - i1, d - i - j1))
                if prev is not None:
                    acc = acc + num[(i1, j1)] * prev
            if not acc.is_zero():
                out[(i, d - i)] = acc.scale(-inv0)
    return out


def _assert_same_bits(got, want):
    """Same keys in the same order at both levels, same exactness, equal exact
    values and repr-equal complex values."""
    assert list(got) == list(want)
    for m, lp in want.items():
        assert list(got[m].c) == list(lp.c), m
        for k, w in lp.c.items():
            h = got[m].c[k]
            assert h.is_exact == w.is_exact, (m, k, h, w)
            if w.is_exact:
                assert (h.a, h.b, h.base) == (w.a, w.b, w.base), (m, k, h, w)
            else:
                assert repr(h.z) == repr(w.z), (m, k, h, w)


# large denominators put common denominators past 2**53; units make sums cancel
_wide_exact = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12).filter(bool),
                        st.integers(10 ** 8, 10 ** 9)).map(Scalar.exact)
_signs = st.sampled_from((-1, 1))
_any_exact = st.one_of(_exact, _wide_exact, _signs.map(Scalar.exact))
_any_numeric = st.one_of(_numeric, _signs.map(lambda s: Scalar.numeric(float(s))))
_COEFF_KINDS = {
    "exact": _any_exact,
    "numeric": _any_numeric,
    "mixed": st.one_of(_any_exact, _any_numeric),
}
_any_kind = st.sampled_from(sorted(_COEFF_KINDS)).flatmap(
    lambda kind: _numerators(_COEFF_KINDS[kind]))


@settings(max_examples=250, deadline=None)
@given(_any_kind, _any_kind, st.one_of(st.integers(0, 6), st.just(EXACT_DEPTH)))
def test_num_mul_is_bitwise_the_scalar_loop(a, b, depth):
    _assert_same_bits(num_mul(a, b, depth), _scalar_loop_mul(a, b, depth))


def _untruncated_numeric_product():
    a = LaurentSeries2({(0, 0): 0.5j, (3, 0): Fraction(3, 2),
                        (1, 2): LambdaPoly({0: Scalar.exact(Fraction(-1, 3)),
                                            2: Scalar.numeric(complex(-0.25, -0.0))})})
    b = LaurentSeries2({(1, 0): complex(2, -0.0), (0, 2): Fraction(-2, 7),
                        (2, 2): LambdaPoly({1: Scalar.exact(3)})})
    prod = a * b
    assert a.depth == b.depth == prod.depth == EXACT_DEPTH
    _assert_same_bits(prod.num, _scalar_loop_mul(a.num, b.num, EXACT_DEPTH))


# under a 1 GiB address-space cap, a product whose work followed its depth
# (EXACT_DEPTH is 10**9) stops with MemoryError in this test
_CAPPED_PRODUCT = """
import resource
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from test_laurent import _untruncated_numeric_product
_untruncated_numeric_product()
"""


def test_an_untruncated_numeric_product_is_sized_by_its_operands():
    path = (Path(laurent.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    done = subprocess.run([sys.executable, "-c", _CAPPED_PRODUCT],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


# -- the product-sum kernel -------------------------------------------------------

def _integer_loop_mul(a, b, depth):
    """Reference: the integer product loop as it ran before the product sum, over
    da * db reduced by one gcd."""
    (da, ta), (db, tb) = a, b
    if not ta or not tb:
        return 1, {}
    xa = [(i, j, k, v) for (i, j), c in ta.items() for k, v in c.items()]
    xb = sorted((i + j, i, j, k, v) for (i, j), c in tb.items() for k, v in c.items())
    acc = {}
    for i1, j1, k1, v1 in xa:
        room = depth - i1 - j1
        for d2, i2, j2, k2, v2 in xb:
            if d2 > room:
                break
            key = (i1 + i2, j1 + j2, k1 + k2)
            acc[key] = acc.get(key, 0) + v1 * v2
    g = math.gcd(da * db, *acc.values())
    terms = {}
    for (i, j, k), v in acc.items():
        if v:
            terms.setdefault((i, j), {})[k] = v // g
    return da * db // g, terms


@st.composite
def _flats(draw, values=st.integers(-40, 40).filter(bool)):
    """A numerator in kernel form: a denominator and (i, j) -> {k: value}."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        m = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[m] = {draw(st.integers(0, 2)): draw(values) for _ in range(draw(st.integers(1, 3)))}
    return draw(st.integers(1, 36)), terms


_product_depths = st.sampled_from((0, 2, 4, 6, EXACT_DEPTH))


@settings(max_examples=250, deadline=None)
@given(_flats(), _flats(), _product_depths)
def test_one_pair_product_sum_is_bitwise_the_integer_loop(a, b, depth):
    b = (a[0] + b[0], b[1])  # unequal denominators
    got = numerator.mul_sum([(a, b)], depth)
    want = _integer_loop_mul(a, b, depth)
    assert got[0] == want[0] and repr(got[1]) == repr(want[1])
    assert repr(numerator.mul(a, b, depth)) == repr(got)


@settings(max_examples=250, deadline=None)
@given(st.lists(st.tuples(_flats(), _flats()), max_size=4), _product_depths)
def test_exact_product_sum_is_the_sum_of_the_products(pairs, depth):
    want = (1, {})
    for a, b in pairs:
        want = numerator.num_add(want, numerator.mul(a, b, depth))
    assert _flat_fractions(numerator.mul_sum(pairs, depth)) == _flat_fractions(want)


_complex_values = st.one_of(st.integers(-40, 40).filter(bool),
                            st.builds(complex, _floats, _floats).filter(bool))


@settings(max_examples=250, deadline=None)
@given(st.lists(st.tuples(_flats(), _flats()), max_size=3), _flats(_complex_values),
       _flats(), st.integers(0, 3), _product_depths)
def test_product_sum_with_a_numeric_pair_is_the_sum_of_per_pair_products(
        pairs, a, b, at, depth):
    a = (a[0], {**a[1], (4, 0): {0: 0.5j}})  # at least one complex value
    b = (b[0], b[1] or {(1, 0): {0: 1}})
    pairs.insert(min(at, len(pairs)), (a, b))
    want = (1, {})
    for x, y in pairs:
        want = numerator.num_add(want, numerator.mul(x, y, depth))
    assert repr(numerator.mul_sum(pairs, depth)) == repr(want)


@st.composite
def _units(draw):
    """A numerator with a rational unit constant term and lam powers up to 3."""
    coeffs = _COEFF_KINDS[draw(st.sampled_from(sorted(_COEFF_KINDS)))]
    num = {(0, 0): LambdaPoly({0: draw(_any_exact)})}
    for _ in range(draw(st.integers(0, 6))):
        m = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        if m != (0, 0):
            num[m] = LambdaPoly({draw(st.integers(0, 3)): draw(coeffs)
                                 for _ in range(draw(st.integers(1, 3)))})
    return num


@settings(max_examples=250, deadline=None)
@given(_units(), st.integers(0, 6))
def test_series_inverse_is_bitwise_the_lambda_poly_loop(num, depth):
    _assert_same_bits(series_inverse(num, depth), _lambda_poly_inverse(num, depth))


# imaginary parts of either sign of zero, so a sum's signed zeros show
_signed_zero_numeric = st.builds(complex, _floats, st.sampled_from((0.0, -0.0))) \
    .filter(bool).map(Scalar.numeric)
_numeric_kind = st.one_of(_numeric, _signed_zero_numeric)
_units_kind = st.one_of(_signs.map(Scalar.exact), _signs.map(lambda s: Scalar.numeric(float(s))))
_mixed_kind = st.one_of(_any_exact, _any_numeric, _signed_zero_numeric)
# (constant term, other coefficients); the last kind is the shape build_h
# inverts: an exact (p-1)/p constant with numeric coefficients, so that a
# Fraction meets a complex in every product with the constant's inverse
_LAM_FREE_KINDS = {
    "exact": (_exact, _exact),
    "wide exact": (_wide_exact, _wide_exact),
    "units": (_units_kind, _units_kind),
    "numeric": (_numeric_kind, _numeric_kind),
    "mixed": (_mixed_kind, _mixed_kind),
    "exact constant, numeric rest": (_any_exact,
                                     st.one_of(_any_numeric, _signed_zero_numeric)),
}


@st.composite
def _lam_free_units(draw):
    """A unit numerator whose every coefficient has lam power 0 only."""
    constant, coeffs = _LAM_FREE_KINDS[draw(st.sampled_from(sorted(_LAM_FREE_KINDS)))]
    num = {(0, 0): LambdaPoly.const(draw(constant))}
    for _ in range(draw(st.integers(0, 6))):
        m = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        if m != (0, 0):
            num[m] = LambdaPoly.const(draw(coeffs))
    return num


@settings(max_examples=250, deadline=None)
@given(_lam_free_units(), st.integers(0, 8))
def test_lam_free_series_inverse_is_bitwise_the_lambda_poly_loop(num, depth):
    # an all-exact unit takes the integer inverse, one with a numeric value
    # the one-value-per-monomial loop
    calls = []
    exact = all(v.is_exact for lp in num.values() for v in lp.c.values())
    route = "_exact_inverse" if exact else "_lam_free_inverse"
    branch = getattr(numerator, route)

    def spy(*args):
        calls.append(args)
        return branch(*args)

    with mock.patch.object(numerator, route, spy):
        got = series_inverse(num, depth)
    assert len(calls) == 1
    _assert_same_bits(got, _lambda_poly_inverse(num, depth))


@st.composite
def _exact_series(draw):
    num = draw(_numerators(_exact))
    poles = tuple(draw(st.integers(0, 2)) for _ in range(4))
    return LaurentSeries2(num, poles, draw(st.sampled_from((4, 8, EXACT_DEPTH))))


def _same_series(x, y):
    return x.poles == y.poles and x.depth == y.depth and lifted(x.num) == lifted(y.num)


_FLIPS = st.sampled_from([(True, False), (False, True), (True, True)])


@settings(max_examples=100, deadline=None)
@given(_exact_series(), _FLIPS)
def test_flip_is_an_involution(s, flips):
    assert _same_series(s.flip(*flips).flip(*flips), s)


@settings(max_examples=100, deadline=None)
@given(_exact_series(), _exact_series(), _FLIPS)
def test_flip_commutes_with_product(a, b, flips):
    assert _same_series((a * b).flip(*flips), a.flip(*flips) * b.flip(*flips))


# -- pole structure: split_singular and normalized ---------------------------------

_DIVISOR_SERIES = tuple(
    LaurentSeries2({m: Scalar.exact(c) for m, c in coeffs.items()})
    for coeffs in ({(1, 0): 1}, {(0, 1): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}))

# each division by a divisor costs one degree of depth, so a split needs at
# least as much depth as the total pole order (less is a ValueError by design)
_splittable = _exact_series().filter(lambda s: sum(s.poles) <= s.depth)


@st.composite
def _removable_or_not(draw):
    """A splittable exact series; half the time its numerator is a multiple of
    every divisor it is divided by, so the origin is removable (with a nonzero
    value there)."""
    s = draw(_splittable)
    if draw(st.booleans()):
        num = {**s.num, (0, 0): LambdaPoly({0: draw(_exact)})}
        cleared = LaurentSeries2(num, (0, 0, 0, 0), s.depth)
        for divisor, e in zip(_DIVISOR_SERIES, s.poles):
            for _ in range(e):
                cleared = cleared * divisor
        s = LaurentSeries2(cleared.num, s.poles, cleared.depth)
    return s


@settings(max_examples=200, deadline=None)
@given(_splittable)
def test_split_singular_parts_add_back(s):
    regular, singular, _ = s.split_singular()
    assert ((regular + singular) - s).is_zero()


@settings(max_examples=200, deadline=None)
@given(_removable_or_not())
def test_normalized_keeps_constant_term(s):
    normal = s.normalized()
    assert sum(normal.poles) <= sum(s.poles)
    if not s.singular_part().is_zero():
        assert not normal.singular_part().is_zero()
        return
    assert LambdaPoly(normal.constant_term().c) == LambdaPoly(s.constant_term().c)


# -- ls_from_rational is a ring homomorphism --------------------------------------

_LOG_SURROGATE = Scalar.exact(Fraction(7, 10))
_small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _poly_nonzero_at_origin(draw):
    """A rational polynomial in T1, T2 that is nonzero at T1 = T2 = 1 (z = w = 0)."""
    coeffs = {(draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(_small_rationals)
              for _ in range(draw(st.integers(1, 3)))}
    poly = Poly2({m: Scalar.exact(c) for m, c in coeffs.items() if c})
    if poly.eval(Scalar.exact(1), Scalar.exact(1)).is_zero():
        poly = poly + Poly2.const(1)
    return poly


@st.composite
def _exact_rfs(draw, p):
    """num / prod(factor**e) with every factor nonzero at the origin."""
    rf = RationalFunction2.from_poly(draw(_poly_nonzero_at_origin()), p)
    for _ in range(draw(st.integers(0, 2))):
        rf = rf.with_factor(draw(_poly_nonzero_at_origin()), draw(st.integers(1, 2)))
    return rf


@st.composite
def _rf_pairs(draw):
    p = draw(st.sampled_from((2, 3)))
    return draw(_exact_rfs(p)), draw(_exact_rfs(p))


def _ls(f):
    return ls_from_rational(f, 8, log_p=_LOG_SURROGATE)


@settings(max_examples=60, deadline=None)
@given(_rf_pairs())
def test_ls_from_rational_is_a_ring_homomorphism(pair):
    f, g = pair
    assert _same_series(_ls(f * g), _ls(f) * _ls(g))
    assert _same_series(_ls(f + g), _ls(f) + _ls(g))


# -- square-root data has no kernel form: refused where coefficients enter --------

_ROOT = Scalar.exact(1) + Scalar.root(3)
_ROOT_ENTRIES = {
    "constructor": lambda: LaurentSeries2({(0, 0): _ROOT}, (0, 0, 0, 0), 4),
    "constructor LambdaPoly": lambda: LaurentSeries2({(1, 0): LambdaPoly({1: _ROOT})}),
    "from_direction": lambda: LaurentSeries2.from_direction([1, _ROOT], 1, "z", 4),
    "exp_direction": lambda: LaurentSeries2.exp_direction(LambdaPoly.const(_ROOT), "w", 4),
    "scale": lambda: LaurentSeries2.one().scale(_ROOT),
    "ls_from_rational log_p": lambda: ls_from_rational(
        zeta_local(PlaceData(3, 1), Shift.of(1, 2, 0)), 8, log_p=_ROOT),
    "ls_from_rational coefficient": lambda: ls_from_rational(
        RationalFunction2.from_poly(Poly2.const(_ROOT), 3), 8, log_p=_LOG_SURROGATE),
    "build_h log_map": lambda: build_h(IdealFactorization.parse("3^1"), 4, {3: _ROOT})[0],
    "degenerate_limit log_map": lambda: degenerate_limit(
        model_data(), IdealFactorization.parse("2^1*3^1"), log_map={2: _ROOT}),
    "Poly2": lambda: Poly2({(1, 0): 2, (0, 1): _ROOT}),
    "Poly2.monomial": lambda: Poly2.monomial(1, 1, _ROOT),
    "Poly2.scale": lambda: Poly2.monomial(1, 0).scale(_ROOT),
    "RationalFunction2.const": lambda: RationalFunction2.const(_ROOT, 3),
    "RationalFunction2 * root": lambda: RationalFunction2.const(2, 3) * Scalar.root(3),
    "RationalFunction2 / root": lambda: RationalFunction2.const(2, 3) / Scalar.root(3),
    # p**(-1/2) * T1: |pi|**s for a half-integer constant shift
    "_abs_power": lambda: _abs_power(PlaceData(3, 1), 1, Shift.of(Fraction(1, 2), 1, 0)),
}


@pytest.mark.parametrize("entry", sorted(_ROOT_ENTRIES))
def test_square_root_coefficients_are_refused(entry):
    with pytest.raises(ValueError) as refused:
        _ROOT_ENTRIES[entry]()
    assert str(refused.value) == scalars.ROOT_REFUSAL


# -- the kernel-form series operations against the LambdaPoly-dict code they replace
#
# The references below are the LambdaPoly-dict operations as they were before
# numerators kept their kernel form: sums, pole raising through products,
# negation, flips, scaling, divisor peeling and expansion along a direction.
# A reference series is a (num, poles, depth) triple.


def _ref_series(num, poles, depth):
    if depth < EXACT_DEPTH:
        num = {m: v for m, v in num.items() if m[0] + m[1] <= depth}
    return num, poles, depth


def _ref_num_add(a, b):
    out = dict(a)
    for m, v in b.items():
        cur = out.get(m)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _ref_direction_power(direction, k):
    if direction == "z":
        return {(k, 0): LambdaPoly.const(1)}
    if direction == "w":
        return {(0, k): LambdaPoly.const(1)}
    sign = 1 if direction == "zw_plus" else -1
    return {(m, k - m): LambdaPoly.const(Fraction(math.comb(k, m)) * (sign ** (k - m)))
            for m in range(k + 1)}


_DIRECTIONS = ("z", "w", "zw_plus", "zw_minus")


def _ref_add(x, y):
    (n1, p1, d1), (n2, p2, d2) = x, y
    poles = tuple(max(a, b) for a, b in zip(p1, p2))
    for idx, direction in enumerate(_DIRECTIONS):
        e1, e2 = poles[idx] - p1[idx], poles[idx] - p2[idx]
        if e1:
            n1 = _scalar_loop_mul(n1, _ref_direction_power(direction, e1), d1 + e1)
            d1 += e1
        if e2:
            n2 = _scalar_loop_mul(n2, _ref_direction_power(direction, e2), d2 + e2)
            d2 += e2
    return _ref_series(_ref_num_add(n1, n2), poles, min(d1, d2))


def _ref_neg(x):
    num, poles, depth = x
    return {m: -v for m, v in num.items()}, poles, depth


def _ref_flip(x, flip_z, flip_w):
    num, (a, b, c, d), depth = x
    out = {}
    for (i, j), v in num.items():
        sign = (-1) ** ((i if flip_z else 0) + (j if flip_w else 0))
        out[(i, j)] = v if sign == 1 else -v
    if flip_z and flip_w:
        extra, poles = (-1) ** (a + b + c + d), (a, b, c, d)
    elif flip_z:
        extra, poles = (-1) ** (a + c + d), (a, b, d, c)
    else:
        extra, poles = (-1) ** b, (a, b, d, c)
    if extra == -1:
        out = {m: -v for m, v in out.items()}
    return out, poles, depth


def _ref_scale(x, factor):
    num, poles, depth = x
    lp = LambdaPoly.const(factor)
    if lp.is_zero():
        return {}, poles, depth
    s = lp.coeff(0)
    return {m: v.scale(s) for m, v in num.items()}, poles, depth


def _ref_max_abs(lp):
    return max((abs(v.to_complex()) for v in lp.c.values()), default=0.0)


def _ref_negligible(lp, tol):
    return lp.is_zero() if tol == 0.0 else _ref_max_abs(lp) <= tol


def _ref_div_linear(num, direction, tol):
    quot, rem, max_rem = {}, {}, 0.0
    if direction in ("z", "w"):
        for (i, j), v in num.items():
            if (i if direction == "z" else j) == 0:
                if not _ref_negligible(v, tol):
                    rem[(i, j)] = v
                    max_rem = max(max_rem, _ref_max_abs(v))
            else:
                quot[(i - 1, j) if direction == "z" else (i, j - 1)] = v
        return quot, rem, max_rem
    sign = 1 if direction == "zw_plus" else -1
    by_degree = {}
    for (i, j), v in num.items():
        by_degree.setdefault(i + j, {})[i] = v
    for d, comp in by_degree.items():
        if d == 0:
            v = comp.get(0, LambdaPoly())
            if not _ref_negligible(v, tol):
                rem[(0, 0)] = v
                max_rem = max(max_rem, _ref_max_abs(v))
            continue
        q = {}
        carry = comp.get(d, LambdaPoly())
        q[d - 1] = carry
        for k in range(d - 1, 0, -1):
            carry = comp.get(k, LambdaPoly()) - (carry.scale(sign) if sign == -1 else carry)
            q[k - 1] = carry
        rho = comp.get(0, LambdaPoly()) - (q[0].scale(sign) if sign == -1 else q[0])
        if not _ref_negligible(rho, tol):
            rem[(0, d)] = rho
            max_rem = max(max_rem, _ref_max_abs(rho))
        for k, v in q.items():
            if not v.is_zero():
                quot[(k, d - 1 - k)] = v
    return quot, rem, max_rem


def _ref_split(x, tol, want_singular):
    num, poles, depth = x
    poles = list(poles)
    singular = ({}, (0, 0, 0, 0), EXACT_DEPTH)
    max_res = 0.0
    for idx, direction in enumerate(_DIRECTIONS):
        while poles[idx] > 0:
            quot, rem, mag = _ref_div_linear(num, direction, tol)
            if rem and not want_singular:
                break
            if rem:
                max_res = max(max_res, mag)
                if depth < 0:
                    raise ValueError("insufficient truncation depth")
                singular = _ref_add(singular, (rem, tuple(poles), depth))
            num = quot
            depth -= 1
            poles[idx] -= 1
    if depth < 0:
        raise ValueError("insufficient truncation depth")
    return (num, tuple(poles), depth), singular, max_res


def _ref_from_direction(coeffs, pole_order, direction, depth):
    num = {}
    for k, coeff in enumerate(coeffs):
        lp = coeff if isinstance(coeff, LambdaPoly) else LambdaPoly.const(coeff)
        if lp.is_zero() or k > depth:
            continue
        num = _ref_num_add(num, {m: v * lp for m, v in _ref_direction_power(direction, k).items()})
    poles = [0, 0, 0, 0]
    if pole_order:
        poles[_DIRECTIONS.index(direction)] = pole_order
    return _ref_series(num, tuple(poles), depth)


def _ref_exp_direction(rate, direction, depth):
    coeffs, term = [], LambdaPoly.const(1)
    for k in range(depth + 1):
        if k:
            term = term * rate.scale(Fraction(1, k))
        coeffs.append(term)
    return _ref_from_direction(coeffs, 0, direction, depth)


def _assert_same_series(got, want):
    """A LaurentSeries2 against a reference triple: poles, depth, and the
    numerator view bit for bit (see _assert_same_bits)."""
    num, poles, depth = want
    assert (got.poles, got.depth) == (poles, depth)
    _assert_same_bits(got.num, num)


# numeric values include signed zero imaginary parts, which products and
# negations produce and which a shortcut past Scalar's complex arithmetic flips
_signed_numeric = st.builds(lambda x, y: Scalar.numeric(complex(x, y)), _floats,
                            st.sampled_from((0.0, -0.0)) | _floats).filter(lambda s: s.z != 0)
_unit_numeric = _signs.map(lambda s: Scalar.numeric(complex(float(s), 0.0)))
_FLAT_KINDS = {
    "rational": (_any_exact, 0),
    "rational_lam": (_any_exact, 3),
    "numeric": (st.one_of(_signed_numeric, _unit_numeric, _numeric), 3),
    "mixed": (st.one_of(_any_exact, _signed_numeric, _unit_numeric), 3),
}


@st.composite
def _kind_numerators(draw, kind=None):
    coeffs, top = _FLAT_KINDS[kind or draw(st.sampled_from(sorted(_FLAT_KINDS)))]
    num = {}
    for _ in range(draw(st.integers(0, 7))):
        m = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        num[m] = LambdaPoly({draw(st.integers(0, top)): draw(coeffs)
                             for _ in range(draw(st.integers(1, 3)))})
    return num


@st.composite
def _cancelling(draw, num):
    """Negatives of some of num's coefficients plus fresh ones, so a sum drops
    lam powers and monomials."""
    out = {}
    for m, lp in num.items():
        if draw(st.booleans()):
            out[m] = LambdaPoly({k: -v for k, v in lp.c.items() if draw(st.booleans())}
                                or {0: -next(iter(lp.c.values()))})
    out.update(draw(_kind_numerators()))
    return out


_poles = st.tuples(*[st.integers(0, 2)] * 4)
_depths = st.sampled_from((2, 4, 8, EXACT_DEPTH))


@st.composite
def _series_pairs(draw):
    """(num, poles, depth) triples: a random one, one that partly cancels it,
    and one that partly cancels that again (a dropped key comes back)."""
    a = draw(_kind_numerators())
    b = draw(_cancelling(a))
    c = draw(_cancelling(b))
    return [(n, draw(_poles), draw(_depths)) for n in (a, b, c)]


def _both(triple):
    num, poles, depth = triple
    return LaurentSeries2(num, poles, depth), _ref_series(lifted(num), poles, depth)


@settings(max_examples=200, deadline=None)
@given(_series_pairs())
def test_sum_is_bitwise_the_lambda_poly_sum(triples):
    (x, rx), (y, ry), (z, rz) = (_both(t) for t in triples)
    _assert_same_series(x + y, _ref_add(rx, ry))
    _assert_same_series((x + y) + z, _ref_add(_ref_add(rx, ry), rz))
    _assert_same_series(x - y, _ref_add(rx, _ref_neg(ry)))


@settings(max_examples=200, deadline=None)
@given(_kind_numerators(), _poles, _depths, _FLIPS)
def test_negation_and_flip_are_bitwise_the_lambda_poly_ones(num, poles, depth, flips):
    s, ref = _both((num, poles, depth))
    _assert_same_series(-s, _ref_neg(ref))
    _assert_same_series(s.flip(*flips), _ref_flip(ref, *flips))


_factors = st.one_of(
    _any_exact, _signed_numeric, st.just(Scalar.exact(0)),
    _rationals, st.integers(-3, 3), _floats.map(float))
# scale takes a constant only: a lam polynomial, even one of degree 0, is refused
_lam_factors = st.one_of(
    st.builds(lambda v, k: LambdaPoly({k: v}), st.one_of(_any_exact, _signed_numeric),
              st.integers(0, 2)),
    st.builds(lambda u, v: LambdaPoly({0: u, 1: v}), _any_exact, _any_exact | _signed_numeric))


@settings(max_examples=200, deadline=None)
@given(_kind_numerators(), _poles, _depths, _factors, _lam_factors)
def test_scale_is_bitwise_the_lambda_poly_scale(num, poles, depth, factor, lam_factor):
    s, ref = _both((num, poles, depth))
    _assert_same_series(s.scale(factor), _ref_scale(ref, factor))
    with pytest.raises(TypeError, match="cannot build Scalar from LambdaPoly"):
        s.scale(lam_factor)


@st.composite
def _split_cases(draw):
    """A series, often divisible by its pole divisors so the remainders vanish,
    and a tolerance that is zero or lets small remainders pass."""
    num, poles, depth = draw(_kind_numerators()), draw(_poles), draw(_depths)
    if draw(st.booleans()):
        cleared = LaurentSeries2(num, (0, 0, 0, 0), depth)
        for divisor, e in zip(_DIVISOR_SERIES, poles):
            for _ in range(e):
                cleared = cleared * divisor
        num, depth = cleared.num, cleared.depth
    return (num, poles, depth), draw(st.sampled_from((0.0, 0.0, 1e-12, 0.75)))


@settings(max_examples=250, deadline=None)
@given(_split_cases(), st.booleans())
def test_divisor_peeling_is_bitwise_the_lambda_poly_division(case, want_singular):
    triple, tol = case
    s, ref = _both(triple)
    split = s.split_singular if want_singular else s.normalized
    try:
        want = _ref_split(ref, tol, want_singular)
    except ValueError:
        with pytest.raises(ValueError, match="insufficient truncation depth"):
            split(tol)
        return
    if not want_singular:
        _assert_same_series(split(tol), want[0])
        return
    regular, singular, max_res = split(tol)
    _assert_same_series(regular, want[0])
    _assert_same_series(singular, want[1])
    assert max_res.hex() == want[2].hex()


_direction_coeffs = st.lists(st.one_of(
    _any_exact, _signed_numeric, _rationals, st.integers(-2, 2), st.just(Scalar.exact(0)),
    _kind_numerators().map(lambda num: next(iter(num.values()), LambdaPoly()))), max_size=9)


@settings(max_examples=200, deadline=None)
@given(_direction_coeffs, st.integers(0, 2), st.sampled_from(_DIRECTIONS), st.integers(0, 7))
def test_from_direction_is_bitwise_the_lambda_poly_expansion(coeffs, pole_order, direction, depth):
    _assert_same_series(LaurentSeries2.from_direction(coeffs, pole_order, direction, depth),
                        _ref_from_direction(coeffs, pole_order, direction, depth))


@settings(max_examples=200, deadline=None)
@given(_kind_numerators().map(lambda num: next(iter(num.values()), LambdaPoly.lam())),
       st.sampled_from(_DIRECTIONS), st.integers(0, 8))
def test_exp_direction_is_bitwise_the_lambda_poly_expansion(rate, direction, depth):
    _assert_same_series(LaurentSeries2.exp_direction(rate, direction, depth),
                        _ref_exp_direction(rate, direction, depth))


def test_cancellation_chain_builds_no_scalar(monkeypatch):
    # the lemma44 chain (pole factor, four products, flips, sums, divisor
    # peeling) keeps every numerator in kernel form from its Fraction inputs
    # on; Scalars appear only when a caller reads the num view.  The
    # LambdaPoly-dict code built 139 Scalars for G and 850 in the combination
    # and its split on this draw.
    rng = random.Random(20260809)
    h1, h2 = random_simple_pole_coeffs(rng, 8), random_simple_pole_coeffs(rng, 8)
    quadruple = random_symmetric_quadruple(rng)
    built = [0]
    init = Scalar.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", counted)
    g = pole_factor_series(h1, h2, 8)
    regular, singular, _ = four_term_combination(g, quadruple, 8).split_singular()
    assert built[0] == 0
    assert singular.is_zero() and regular.coeff(0, 0).c
    assert built[0] > 0


# -- the quadruple generator against the Fraction-dict version it replaced ----------

def _old_rand_poly(rng, terms, max_deg):
    out = {}
    for _ in range(terms):
        i = rng.randrange(max_deg + 1)
        j = rng.randrange(max_deg + 1 - i)
        val = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if val:
            out[(i, j)] = out.get((i, j), Fraction(0)) + val
    return {m: v for m, v in out.items() if v}


def _old_poly_add(*parts):
    out = {}
    for part in parts:
        for m, v in part.items():
            out[m] = out.get(m, Fraction(0)) + v
    return {m: v for m, v in out.items() if v}


def _old_poly_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, Fraction(0)) + v1 * v2
    return {m: v for m, v in out.items() if v}


def _old_antidiag(h):
    out = {}
    for (i, j), v in h.items():
        out[i + j] = out.get(i + j, Fraction(0)) + v * (-1) ** i
    return {k: v for k, v in out.items() if v}


def _old_random_symmetric_quadruple(rng, terms=5, max_deg=4):
    """The Fraction-dict generator, as it was before it moved to integer numerators."""
    def z_axis_of(h):
        return {i: v for (i, j), v in h.items() if j == 0}

    def w_axis_of(h):
        return {j: v for (i, j), v in h.items() if i == 0}

    def in_w(u):
        return {(0, k): v for k, v in u.items()}

    def in_z(u):
        return {(k, 0): v for k, v in u.items()}

    def shift(h, di, dj):
        return {(i + di, j + dj): v for (i, j), v in h.items()}

    h1 = _old_poly_add({(0, 0): Fraction(rng.randrange(1, 6))}, _old_rand_poly(rng, terms, max_deg))
    r2 = _old_rand_poly(rng, terms, max_deg)
    h2 = _old_poly_add(in_w(w_axis_of(h1)), shift(r2, 1, 0))
    w_axis, z_axis = w_axis_of(h1), z_axis_of(h1)
    delta = {k - 1: w_axis.get(k, Fraction(0)) - z_axis.get(k, Fraction(0))
             for k in set(w_axis) | set(z_axis) if k >= 1}
    delta = {k: v for k, v in delta.items() if v}
    r3 = _old_poly_add(r2, in_w(delta),
                       _old_poly_mul({(1, 0): Fraction(1), (0, 1): Fraction(-1)},
                                     _old_rand_poly(rng, terms, max_deg)))
    h3 = _old_poly_add(in_z(z_axis), shift(r3, 0, 1))
    base = _old_poly_add(in_z(z_axis_of(h2)), in_w(w_axis_of(h3)),
                         {(0, 0): -h1.get((0, 0), Fraction(0))})
    anti_base, anti_h1 = _old_antidiag(base), _old_antidiag(h1)
    diff = {k: anti_base.get(k, Fraction(0)) - anti_h1.get(k, Fraction(0))
            for k in set(anti_base) | set(anti_h1)}
    eta = {k - 2: v for k, v in diff.items() if v}
    h4 = _old_poly_add(base, _old_poly_mul(
        {(1, 1): Fraction(1)},
        _old_poly_add(in_w(eta), _old_poly_mul({(1, 0): Fraction(1), (0, 1): Fraction(1)},
                                               _old_rand_poly(rng, terms, max_deg)))))
    return h1, h2, h3, h4


@pytest.mark.parametrize("terms, max_deg", [(5, 4), (2, 1), (8, 6)])
def test_quadruple_generator_matches_fraction_version(terms, max_deg, monkeypatch):
    # (5, 4) is what every caller draws; the other sizes test the generator
    # away from its constants
    monkeypatch.setattr(laurent, "_RAND_TERMS", terms)
    monkeypatch.setattr(laurent, "_RAND_MAX_DEG", max_deg)
    names = sorted(SYMMETRY_BREAKERS)
    for seed in range(400):
        old_rng, new_rng = random.Random(seed), random.Random(seed)
        want = _old_random_symmetric_quadruple(old_rng, terms, max_deg)
        got = random_symmetric_quadruple(new_rng)
        # same values, same key order, Fractions only, and the same draws
        assert [list(h.items()) for h in got] == [list(h.items()) for h in want]
        assert all(type(v) is Fraction for h in got for v in h.values())
        assert new_rng.getstate() == old_rng.getstate()
        # the generic helpers still add Fraction perturbations as before
        target, pattern = SYMMETRY_BREAKERS[names[seed % 6]]
        broken = break_one_symmetry(got, names[seed % 6], new_rng)
        eps = Fraction(old_rng.randrange(1, 9), old_rng.randrange(1, 4))
        old_broken = _old_poly_add(want[target - 1], {m: eps * v for m, v in pattern.items()})
        assert list(broken[target - 1].items()) == list(old_broken.items())


# -- ls_from_rational against the expansion loops it replaced ----------------------
#
# The reference below is the expansion as it was before every exponential came
# from numerator.exp_coeffs: the power loop of the linear form per monomial,
# the power-and-factorial loop of the peeled units, and each unit multiplied
# in once per numerator count and its inverse once per denominator count.


def _ref_expand_poly(poly, depth, lp):
    out = (1, {})
    one = (1, {(0, 0): {0: 1}})
    for (i, j), coeff in poly.terms.items():
        g = math.gcd(coeff, poly.den)
        term = (poly.den // g, {(0, 0): {0: coeff // g}})
        if i or j:
            lin = {}
            if i:
                lin[(1, 0)] = {k: -v * Fraction(i) for k, v in lp.items()}
            if j:
                lin[(0, 1)] = {k: -v * Fraction(j) for k, v in lp.items()}
            lin = numerator.lower(lin)
            expf = power = one
            for k in range(1, depth + 1):
                power = numerator.mul(power, lin, depth)
                if not power[1]:
                    break
                expf = numerator.num_add(
                    expf, numerator.scaled(power, Fraction(1, math.factorial(k))))
            term = numerator.mul(term, expf, depth)
        out = numerator.num_add(out, term)
    return out


def _ref_peeled_unit_series(idx, lp, depth):
    coeffs, sign, power = [], 1, lp
    for k in range(depth + 1):
        f = Fraction(sign, math.factorial(k + 1))
        coeffs.append({kk: v * f for kk, v in power.items()})
        power = numerator.lam_mul(power, lp)
        sign = -sign
    if idx < 3:
        return numerator.along(("z", "w", "zw_plus")[idx], coeffs, depth)
    base_den, base = numerator.along("zw_minus", coeffs, depth)
    envelope = numerator.along(
        "w", numerator.exp_coeffs({k: -v for k, v in lp.items()}, depth), depth)
    return numerator.mul((base_den, negated(base)), envelope, depth)


def _ref_ls_from_rational(f, depth, lp):
    num_red, num_counts = _peel_divisors(f.num)
    den_counts, den_units = [0, 0, 0, 0], []
    for poly, exp in f.fac.values():
        red, counts = _peel_divisors(poly)
        den_counts = [a + c * exp for a, c in zip(den_counts, counts)]
        den_units.append((red, exp))
    num = _ref_expand_poly(num_red, depth, lp)
    denominator = numerator.lower({(0, 0): {0: Fraction(1)}})
    for red, exp in den_units:
        factor = _ref_expand_poly(red, depth, lp)
        for _ in range(exp):
            denominator = numerator.mul(denominator, factor, depth)
    series = numerator.mul(num, numerator.inverse(denominator, depth), depth)
    poles = [0, 0, 0, 0]
    for idx, direction in enumerate(("z", "w", "zw_plus", "zw_minus")):
        net = den_counts[idx] - num_counts[idx]
        for _ in range(num_counts[idx]):
            series = numerator.mul(series, _ref_peeled_unit_series(idx, lp, depth), depth)
        if den_counts[idx]:
            uinv = numerator.inverse(_ref_peeled_unit_series(idx, lp, depth), depth)
            for _ in range(den_counts[idx]):
                series = numerator.mul(series, uinv, depth)
        if net >= 0:
            poles[idx] = net
        else:
            series = numerator.mul(series, numerator.direction_power(direction, -net), depth)
    return series, tuple(poles)


def _divisor_rf(idx, p):
    """The divisor polynomial 1 - T1, 1 - T2, 1 - T1*T2 or T1 - T2 as a rational function."""
    polys = (Poly2.const(1) - Poly2.monomial(1, 0), Poly2.const(1) - Poly2.monomial(0, 1),
             Poly2.const(1) - Poly2.monomial(1, 1), Poly2.monomial(1, 0) - Poly2.monomial(0, 1))
    return RationalFunction2.from_poly(polys[idx], p)


# zeta_local(place, Shift.of(0, a, b)) has a simple pole along the divisor of that index
_POLE_SHIFTS = {0: (0, 2, 0), 1: (0, 0, 2), 2: (0, 2, 2), 3: (0, 1, -1)}


def _expansion_inputs(p, r):
    place = PlaceData(p, r)
    yield correction_factor_rf(place)
    for which in (1, 2, 3, 4):
        yield h_reference(which, place)
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(2), Scalar.exact(Fraction(1, 2)))
    yield pole_factor_reference(place, pi0, 1, -1)
    zeta_minus = zeta_local(place, Shift.of(0, 2, -2))
    yield zeta_minus
    yield zeta_minus.inverse()
    for idx, shift in _POLE_SHIFTS.items():
        # the divisor factor of the numerator cancels the one of the denominator
        yield zeta_local(place, Shift.of(*shift)) * _divisor_rf(idx, p)
    # a double pole, and a unit raised to the third power
    yield zeta_local(place, Shift.of(0, 2, 2)) ** 2
    yield correction_factor_rf(place) * _divisor_rf(2, p) ** 2


_LAMBDA = {1: Fraction(1)}
_SURROGATE = {0: Fraction(7, 10)}


@pytest.mark.parametrize("p, r", [(2, 1), (3, 2), (4, 1), (9, 3)])
def test_ls_from_rational_equals_the_replaced_loops(p, r):
    compared = 0
    for f in _expansion_inputs(p, r):
        for depth in (6, 8):
            for lp, log_p in ((_LAMBDA, "lambda"), (_SURROGATE, _LOG_SURROGATE)):
                try:
                    (den, terms), poles = _ref_ls_from_rational(f, depth, lp)
                except ValueError:
                    continue  # the replaced loops inverted every lam-mode unit
                got = ls_from_rational(f, depth, log_p=log_p)
                assert (got.den, got.terms, got.poles, got.depth) == (den, terms, poles, depth)
                compared += 1
    assert compared >= 30


# -- the closed-form monomial exponentials against the two products they replaced --

def _product_expand_poly(poly, depth, lp):
    """Reference: each monomial's exp(-(i*z + j*w)*log_p) as two kernel products
    of exp series along z and w, joined by num_add."""
    out = (1, {})
    for (i, j), coeff in poly.terms.items():
        term = laurent._lower_num({(0, 0): Fraction(coeff, poly.den)})
        for direction, n in (("z", i), ("w", j)):
            if n:
                rate = {k: -n * v for k, v in lp.items()}
                term = numerator.mul(term, numerator.along(
                    direction, numerator.exp_coeffs(rate, depth), depth), depth)
        out = numerator.num_add(out, term)
    return out


_EXACT_LOGS = st.one_of(st.just({1: Fraction(1)}), st.just({1: 1}),
                        st.builds(lambda n: {0: n}, st.integers(-5, 5).filter(bool)),
                        st.builds(lambda q: {0: q}, _rationals),
                        st.builds(lambda q: {2: q}, _rationals))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool),
                       min_size=1, max_size=6),
       _EXACT_LOGS, st.integers(0, 10))
def test_expand_poly_closed_form_is_the_product_route(coeffs, lp, depth):
    # lam mode, int and Fraction surrogates, a polynomial over a denominator:
    # the same den, keys, key order and exact values
    poly = Poly2(coeffs)
    got, want = laurent._expand_poly(poly, depth, lp), _product_expand_poly(poly, depth, lp)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("p, r", [(2, 1), (9, 3)])
def test_lambda_mode_expands_its_polynomials_without_products(p, r, monkeypatch):
    # a lam-mode expansion writes each monomial's exponential in closed form:
    # no numerator.mul runs inside _expand_poly
    f = correction_factor_rf(PlaceData(p, r))
    want = ls_from_rational(f, 8, log_p="lambda")
    expand, mul, inside = laurent._expand_poly, numerator.mul, [0]

    def expanding(*args):
        inside[0] += 1
        try:
            return expand(*args)
        finally:
            inside[0] -= 1

    def no_product(*args):
        assert not inside[0], "a kernel product inside the polynomial expansion"
        return mul(*args)

    monkeypatch.setattr(laurent, "_expand_poly", expanding)
    monkeypatch.setattr(numerator, "mul", no_product)
    got = ls_from_rational(f, 8, log_p="lambda")
    assert (got.den, got.terms, got.poles) == (want.den, want.terms, want.poles)


@pytest.mark.parametrize("idx", sorted(_POLE_SHIFTS))
@pytest.mark.parametrize("p, r", [(2, 1), (5, 3)])
def test_cancelling_divisor_factors_expand_in_lambda_mode(idx, p, r):
    f = zeta_local(PlaceData(p, r), Shift.of(*_POLE_SHIFTS[idx])) * _divisor_rf(idx, p)
    with pytest.raises(ValueError, match="constant term involves lam"):
        _ref_ls_from_rational(f, 8, _LAMBDA)
    lam = ls_from_rational(f, 8, log_p="lambda")
    surrogate = ls_from_rational(f, 8, log_p=_LOG_SURROGATE)
    assert lam.poles == surrogate.poles == (0, 0, 0, 0)
    at = Scalar.exact(Fraction(7, 10))
    values = {m: v for m, lp in lifted(lam.num).items() if not (v := lp.eval(at)).is_zero()}
    assert values == {m: lp.coeff(0) for m, lp in surrogate.num.items()}
    assert any(lp.degree() > 0 for lp in lam.num.values())


@pytest.mark.parametrize("idx", sorted(_POLE_SHIFTS))
def test_divisor_pole_in_lambda_mode_still_raises(idx):
    f = zeta_local(PlaceData(3, 1), Shift.of(*_POLE_SHIFTS[idx]))
    with pytest.raises(ValueError, match="cannot invert a unit whose constant term involves lam"):
        ls_from_rational(f, 8, log_p="lambda")
    assert ls_from_rational(f, 8, log_p=_LOG_SURROGATE).poles[idx] == 1


# -- the integer inverse and the one-power exp route, against the loops they replaced --

def _expansion_units(p, r):
    """(unit, depth) of every inverse the lam-mode expansion of the correction
    factor at p^r takes."""
    units = []
    inverse = numerator.inverse
    with mock.patch.object(numerator, "inverse",
                           lambda a, depth: units.append((a, depth)) or inverse(a, depth)):
        ls_from_rational(correction_factor_rf(PlaceData(p, r)), 8, log_p="lambda")
    return units


@pytest.mark.parametrize("r", (1, 2, 3, 4))
@pytest.mark.parametrize("p", (2, 3, 4, 5, 7, 9))
def test_integer_inverse_is_bitwise_the_lambda_poly_loop_on_the_expansion_units(p, r):
    units = _expansion_units(p, r)
    assert units and all(any(max(c) for c in a[1].values()) for a, _ in units)
    calls = []
    route = numerator._exact_inverse
    with mock.patch.object(numerator, "_exact_inverse",
                           lambda *args: calls.append(args) or route(*args)):
        for a, depth in units:
            want = _lambda_poly_inverse(scalars._view(*a), depth)
            got = numerator.inverse(a, depth)
            _assert_same_bits(scalars._view(*got), want)
            # the denominator and numerators lower() gives the Fraction loop's values
            assert got == laurent._lower_num(want)
    assert len(calls) == len(units)


# exact units whose monomials reach past the depth, and one whose sums cancel:
# 3 (1 + x + x**2) with x = lam z has the inverse (1 - x + x**3 - x**4 ...) / 3,
# so the z**2 and z**5 sums reach zero and must leave the output
_EXACT_UNITS = (
    {(0, 0): LambdaPoly.const(-1), (0, 2): LambdaPoly.lam()},
    {(0, 0): LambdaPoly.const(3), (0, 1): LambdaPoly.const(5), (1, 3): LambdaPoly.lam(2, 2)},
    {(0, 0): LambdaPoly.const(3), (1, 0): LambdaPoly.lam(3), (2, 0): LambdaPoly.lam(3, 2)},
    {(0, 0): LambdaPoly.const(Fraction(-4, 7)), (1, 1): LambdaPoly.const(Fraction(2, 9)),
     (0, 1): LambdaPoly({0: Scalar.exact(1), 1: Scalar.exact(Fraction(-1, 2))})},
)


@pytest.mark.parametrize("depth", (0, 1, 2, 3, 6))
@pytest.mark.parametrize("index", range(len(_EXACT_UNITS)))
def test_integer_inverse_of_units_past_the_depth_and_with_cancelling_sums(index, depth):
    num = _EXACT_UNITS[index]
    _assert_same_bits(series_inverse(num, depth), _lambda_poly_inverse(num, depth))
    assert numerator.inverse(laurent._lower_num(num), depth) == laurent._lower_num(
        _lambda_poly_inverse(num, depth))


def _lambda_poly_exp_coeffs(rate, depth):
    """Reference: rate**k / k! as the loop of LambdaPoly products with rate / k,
    each term's values as plain numbers."""
    rate = LambdaPoly({k: Scalar.wrap(v) for k, v in rate.items()})
    coeffs, term = [], LambdaPoly.const(1)
    for k in range(depth + 1):
        if k:
            term = term * rate.scale(Fraction(1, k))
        coeffs.append({kk: scalars._ring(v) for kk, v in term.c.items()})
    return coeffs


_EXACT_RATES = (1, -1, 2, -3, 12, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 10),
                Fraction(-5, 4), Fraction(6931, 10000))


@pytest.mark.parametrize("e", (0, 1, 2))
def test_one_power_exact_exp_is_the_lam_product_loop(e, monkeypatch):
    cases = [({e: v}, depth) for v in _EXACT_RATES for depth in (-1, 0, 1, 4, 9)]
    want = [repr(_lambda_poly_exp_coeffs(*case)) for case in cases]
    calls = []
    mul = numerator.lam_mul
    monkeypatch.setattr(numerator, "lam_mul", lambda x, y: calls.append(1) or mul(x, y))
    # repr tells a Fraction from an int
    assert [repr(numerator.exp_coeffs(*case)) for case in cases] == want
    assert not calls


@pytest.mark.parametrize("rate", [{1: 0.5 + 0.25j}, {0: complex(-0.6931471805599453)},
                                  {0: Fraction(1, 2), 1: Fraction(-1)}, {2: 0j}, {1: Fraction(0)}],
                         ids=["complex lam", "complex constant", "two powers", "complex zero",
                              "exact zero"])
def test_complex_and_several_power_rates_keep_the_lam_product_loop(rate, monkeypatch):
    want = _lambda_poly_exp_coeffs(rate, 6)
    calls = []
    mul = numerator.lam_mul
    monkeypatch.setattr(numerator, "lam_mul", lambda x, y: calls.append(1) or mul(x, y))
    assert repr(numerator.exp_coeffs(rate, 6)) == repr(want)
    assert len(calls) == 6
