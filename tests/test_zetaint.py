import cmath
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rankinlab
from rankinlab.exactalg import PoleError, Poly2, RationalFunction2, rf_equal
from rankinlab.localdata import PlaceData, Shift, zeta_local, zeta_value
from rankinlab.scalars import ROOT_REFUSAL, Scalar, _plain
from rankinlab.verify import PSI_GRID_PAIRS
from rankinlab.whittaker import SatakeParams, rankin_selberg_self_l, satake_sum
from rankinlab.zetaint import (HALF_W, HALF_Z, KIND_SIGNS, KINDS, LocalZetaResult, _abs_power,
                               _ftilde_section, correction_factor_rf,
                               psi_closed, psi_oracle, reg_local_bound,
                               reg_local_closed, reg_local_closed_s_form, reg_local_oracle,
                               rs_l_rf, rs_local_oracle, rs_local_value, whittaker_square_sum)

PLACE = PlaceData(2, 1)
PI0_11 = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
S_HALF_Z = Shift.of(Fraction(1, 2), 1, 0)


def test_ftilde_branches():
    # integral c at the symmetric point: zeta(2(1-s))/zeta(1) = 1 at s = 1/2
    (flat,) = _ftilde_section(PLACE, Shift.of(Fraction(1, 2)), 0)
    assert flat.eval_zw(0, 0) == Scalar.exact(1)
    # every integral c is the one branch
    at_0, at_7 = _ftilde_section(PLACE, S_HALF_Z, 0, 7)
    assert _full_form(at_0) == _full_form(at_7)
    # the two branches are the formula zeta(2-2s)/zeta(1), and
    # zeta(2-2s)/zeta(2s-1) |c|**(2s-2) off the integers, at other shifts too
    for p in (2, 3, 4, 9):
        place = PlaceData(p, 1)
        for s in (S_HALF_Z, HALF_W, Shift.of(1, 1, 0), Shift.of(2, 1, -1)):
            got = _ftilde_section(place, s, 0, -1, -3)
            assert all(rf_equal(v, _division_ftilde(place, val_c, s))
                       for v, val_c in zip(got, (0, -1, -3))), (p, s)
    # the kind-iv oracle sums the shells val(c) = -j, j >= 1, as the pair at
    # j = 1 times a geometric factor: each step from val(c) to val(c) - 1 is
    # exactly p**(2s-2), p**(-1) T1**(-2) at s = 1/2 + z, p**(-1) T2**(-2) at 1/2 + w
    for p in (2, 3, 4, 5, 9):
        place = PlaceData(p, 1)
        for s, step in ((HALF_Z, RationalFunction2.monomial(-2, 0, Fraction(1, p), p)),
                        (HALF_W, RationalFunction2.monomial(0, -2, Fraction(1, p), p))):
            shells = _ftilde_section(place, s, -1, -2, -3, -4)
            assert all(rf_equal(inner, outer * step)
                       for outer, inner in zip(shells, shells[1:])), (p, s)


@pytest.mark.parametrize("psi", [psi_closed, psi_oracle])
def test_psi_refuses_an_unknown_kind_naming_the_kinds(psi):
    with pytest.raises(ValueError, match=r"one of \('i', 'ii', 'iii', 'iv'\), got 'v'"):
        psi("v", PLACE, PI0_11)


def test_psi_values_at_origin():
    # the first integral at the origin is L(1, pi0 x conj pi0)/zeta(2) = 12
    val = psi_closed("i", PLACE, PI0_11).value.eval_zw(0, 0)
    assert val == Scalar.exact(12)
    assert psi_closed("ii", PLACE, PI0_11).value.eval_zw(0, 0) == Scalar.exact(12)
    l_over_zeta = rankin_selberg_self_l(PI0_11, Scalar.exact(Fraction(1, 2))) \
        / Scalar.exact(zeta_value(PLACE, 2))
    assert val == l_over_zeta


# -- the paper's literal product G_v h_v, a reference for psi_closed ---------------

def pole_factor_reference(place, pi0, sz, sw):
    """G_v(sz z, sw w) = N(p)**(r(sz z+sw w)) zeta(1+2sz z) zeta(1+2sw w)
    L(1+sz z+sw w, pi0 x pi0~) / zeta(2+2sz z+2sw w), every factor built."""
    g = zeta_local(place, Shift.of(1, 2 * sz, 0)) * zeta_local(place, Shift.of(1, 0, 2 * sw))
    g = g / zeta_local(place, Shift.of(2, 2 * sz, 2 * sw))
    g = g * rs_l_rf(pi0, place, Shift.of(1, sz, sw))
    return g * RationalFunction2.monomial(-sz * place.r, -sw * place.r, 1, place.p)


def h_reference(which, place):
    """h_v of the kind numbered ``which`` (1..4), every factor built."""
    one = RationalFunction2.const(1, place.p)
    zeta_z, zeta_w = Shift.of(1, 2, 0), Shift.of(1, 0, 2)
    if which == 1:
        return one / zeta_local(place, zeta_z) / zeta_local(place, zeta_w)
    if which == 2:
        return one / zeta_local(place, zeta_w) / Scalar.exact(zeta_value(place, 1))
    if which == 3:
        return one / zeta_local(place, zeta_z) / Scalar.exact(zeta_value(place, 1))
    mix = zeta_local(place, Shift.of(1, -2, -2))
    return one / zeta_local(place, Shift.of(1, -2, 0)) / zeta_local(place, Shift.of(1, 0, -2)) \
        * mix / Scalar.exact(zeta_value(place, 1))


def psi_reference(kind, place, pi0):
    """G_v(sz z, sw w) h_v, times 1 - correction for kind iv."""
    value = pole_factor_reference(place, pi0, *KIND_SIGNS[kind]) \
        * h_reference(KINDS.index(kind) + 1, place)
    if kind == "iv":
        value = value * (RationalFunction2.const(1, place.p) - correction_factor_rf(place))
    return value


def test_psi_closed_factors_structurally():
    # psi_closed builds only the factors that survive G_v h_v: it is that
    # product as a rational function
    for p, r in itertools.product((2, 3, 5, 9), (1, 2, 3)):
        place = PlaceData(p, r)
        for a1, a2 in PSI_GRID_PAIRS:
            pi0 = SatakeParams.unramified_unitary(Scalar.exact(a1), Scalar.exact(a2))
            for kind in KINDS:
                assert rf_equal(psi_closed(kind, place, pi0).value,
                                psi_reference(kind, place, pi0)), (kind, p, r, a1)


@pytest.mark.parametrize("kind", ("i", "ii", "iii", "iv"))
@pytest.mark.parametrize("p,r", ((2, 1), (3, 2), (9, 1)))
def test_psi_oracle_equals_closed(kind, p, r):
    place = PlaceData(p, r)
    for a in (Fraction(1), Fraction(2), Fraction(3, 2)):
        pi0 = SatakeParams.unramified_unitary(Scalar.exact(a))
        closed = psi_closed(kind, place, pi0)
        oracle = psi_oracle(kind, place, pi0)
        assert closed.provenance == "closed-form" and oracle.provenance == "oracle"
        assert rf_equal(closed.value, oracle.value)


def test_psi_requires_dividing_place():
    with pytest.raises(ValueError):
        psi_closed("i", PlaceData(2, 0), PI0_11)


def test_rs_local_value_cases():
    # ramified first argument: numerator 1, plain product of two factors
    ram = SatakeParams.make_ramified(Scalar.exact(1))
    place = PlaceData(4, 1)
    val = rs_local_value(ram, PI0_11, place)
    assert val == (Scalar.exact(1) - Scalar.root(Fraction(1, 4))) ** (-2)
    # all-ones parameters at residue cardinality 4: (1 - 1/4)/(1 - 1/2)**4 = 12
    assert rs_local_value(PI0_11, PI0_11, place) == Scalar.exact(12)


def test_rs_local_oracle_agreement():
    rng = random.Random(3)
    for _ in range(15):
        phi1, phi2 = rng.uniform(0, 2 * cmath.pi), rng.uniform(0, 2 * cmath.pi)
        pi = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * phi1)))
        pi0 = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1j * phi2)))
        place = PlaceData(rng.choice((2, 3, 5)), 1)
        closed = rs_local_value(pi, pi0, place).to_complex()
        oracle = rs_local_oracle(pi, pi0, place, terms=10_000).to_complex()
        assert abs(closed - oracle) <= 1e-10 * max(1.0, abs(closed))


def test_rs_local_oracle_sums_a_non_tempered_pi0():
    # pi0 non-tempered: its undecayed stream would overflow at n = 9,329, where
    # the decayed pi stream is subnormal, and inf * 5e-324 is NaN; lifted by
    # max|alpha_pi0| against pi's stream, neither overflows and the bound stops
    pi0 = SatakeParams.unramified_unitary(Scalar.numeric(2 ** (7 / 64)))
    pi = SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(0.7j)))
    closed = rs_local_value(pi, pi0, PLACE).to_complex()
    assert abs(closed - 2.8216) < 1e-4
    oracle = rs_local_oracle(pi, pi0, PLACE).to_complex()
    assert abs(oracle - closed) <= 1e-10 * abs(closed)
    # with the roles swapped the growing family is the decayed one
    swapped = rs_local_oracle(pi0, pi, PLACE).to_complex()
    assert abs(swapped - closed) <= 1e-10 * abs(closed)


def test_reg_local_forms_agree_exactly():
    rng = random.Random(8)
    done = 0
    while done < 30:
        a = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        p = rng.choice((2, 3, 5, 9))
        r = rng.randrange(0, 5)
        zf = Fraction(rng.choice((0, 1, 2)), 2)
        if max(a, 1 / a) ** 2 >= Fraction(p) ** (1 + 2 * zf):
            continue
        done += 1
        pi = SatakeParams.unramified_unitary(Scalar.exact(a))
        place = PlaceData(p, r)
        assert reg_local_closed(pi, place, Scalar.exact(zf)) \
            == reg_local_closed_s_form(pi, place, Scalar.exact(zf))


def test_reg_local_degenerate_and_oracle():
    # alpha = (1,1), p=2, r=1, z=0: S(n) = n path
    val = reg_local_closed(PI0_11, PLACE, Scalar.exact(0))
    assert val == reg_local_closed_s_form(PI0_11, PLACE, Scalar.exact(0))
    oracle = reg_local_oracle(PI0_11, PLACE, Scalar.exact(0), terms=5_000)
    assert abs(val.to_complex() - oracle.to_complex()) <= 1e-9


def test_reg_local_r_zero_boundary():
    # at r=0 the boundary term uses W(pi**(-1)) = 0
    pi = SatakeParams.unramified_unitary(Scalar.exact(Fraction(1, 2)))
    place = PlaceData(5, 0)
    closed = reg_local_closed(pi, place, Scalar.exact(Fraction(1, 2)))
    oracle = reg_local_oracle(pi, place, Scalar.exact(Fraction(1, 2)), terms=3_000)
    assert abs(closed.to_complex() - oracle.to_complex()) <= 1e-10


def test_reg_local_ramified_is_single_geometric():
    ram = SatakeParams.make_ramified(Scalar.exact(Fraction(1, 3)))
    place = PlaceData(3, 2)
    closed = reg_local_closed(ram, place, Scalar.exact(0))
    s_form = reg_local_closed_s_form(ram, place, Scalar.exact(0))
    oracle = reg_local_oracle(ram, place, Scalar.exact(0), terms=3_000)
    assert closed == s_form
    assert abs(closed.to_complex() - oracle.to_complex()) <= 1e-10


def test_reg_local_bound_envelope():
    rng = random.Random(23)
    for _ in range(40):
        pi = SatakeParams.unramified_unitary(
            Scalar.numeric(cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))))
        place = PlaceData(rng.choice((2, 3, 5)), rng.randrange(1, 7))
        z = Scalar.numeric(rng.uniform(0, 0.3))
        value = abs(reg_local_closed(pi, place, z).to_complex())
        assert value <= 4.0 * reg_local_bound(pi, place, z)


def test_reg_local_pole_detection():
    # alpha1 = p**(1/2+z) makes the closed form blow up
    pi = SatakeParams.unramified_unitary(Scalar.exact(2))
    with pytest.raises(PoleError):
        reg_local_closed(pi, PlaceData(2, 1), Scalar.exact(Fraction(1, 2)))


def test_psi_rejects_ramified_fixed_representation():
    ram = SatakeParams.make_ramified(Scalar.exact(1))
    with pytest.raises(ValueError, match="unramified"):
        psi_closed("i", PLACE, ram)
    with pytest.raises(ValueError, match="unramified"):
        psi_oracle("ii", PLACE, ram)


def test_rs_local_value_pole():
    # alpha_i * beta_j = p**(1/2) puts a factor exactly on its pole
    pi = SatakeParams.unramified_unitary(Scalar.exact(2))
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
    with pytest.raises(PoleError):
        rs_local_value(pi, pi0, PlaceData(4, 1))


def test_canonical_form_of_psi_round_trips():
    place = PlaceData(3, 1)
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(Fraction(3, 2)))
    val = psi_closed("iv", place, pi0).value
    num, den = val.canonical()
    rebuilt = RationalFunction2.from_poly(num, 3).with_factor(den)
    assert rf_equal(rebuilt, val)


def _reference_square_sum(pi0, place, a, b, cutoff=6):
    """The Whittaker square sum as it was built on RationalFunction2 arithmetic
    with Scalar coefficients and one satake_sum per explicit term."""
    p = place.p
    cutoff = max(3, cutoff)
    x = RationalFunction2.monomial(a, b, Fraction(1, p), p)
    a_seq = []
    for n in range(cutoff):
        s_n = satake_sum(pi0, n + 1)
        a_seq.append(s_n * s_n)
    partial = RationalFunction2.const(0, p)
    xpow = RationalFunction2.const(1, p)
    xpows = []
    for n in range(cutoff):
        xpows.append(xpow)
        partial = partial + xpow * a_seq[n]
        xpow = xpow * x
    a1, a2 = Scalar.wrap(pi0.alpha1), Scalar.wrap(pi0.alpha2)
    t = a1 + a2
    delta = a1 * a2
    e1 = t * t - delta
    e2 = delta * t * t - delta * delta
    e3 = delta ** 3
    m = cutoff
    rhs = (x * xpows[m - 1] * (a_seq[m - 1] * e1)
           - x * x * (xpows[m - 1] * a_seq[m - 1] + xpows[m - 2] * a_seq[m - 2]) * e2
           + x ** 3 * (xpows[m - 1] * a_seq[m - 1] + xpows[m - 2] * a_seq[m - 2]
                       + xpows[m - 3] * a_seq[m - 3]) * e3)
    denom = RationalFunction2.const(1, p) - x * e1 + x * x * e2 - x ** 3 * e3
    return partial + rhs / denom


SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))
EXACT_PI0 = (
    SatakeParams.unramified_unitary(Scalar.exact(Fraction(3, 5)), Scalar.exact(Fraction(5, 3))),
    PI0_11,  # confluent
    SatakeParams.unramified_unitary(Scalar.exact(2), Scalar.exact(Fraction(1, 2))),
    SatakeParams(Scalar.exact(2), Scalar.exact(3)),  # not unitary: delta = 6
)


@pytest.mark.parametrize("p", (2, 3, 4, 5, 9))
def test_square_sum_matches_reference_exactly(p):
    for r in (1, 2):
        place = PlaceData(p, r)
        for pi0 in EXACT_PI0:
            for a, b in SIGNS:
                got = whittaker_square_sum(pi0, place, a, b)
                for cutoff in range(3, 10):
                    assert rf_equal(got, _reference_square_sum(pi0, place, a, b, cutoff)), \
                        (p, r, pi0, a, b, cutoff)


def test_square_sum_is_the_cauchy_closed_form():
    # sum S(n+1)**2 X**n = (1 + delta X) / ((1 - a1**2 X)(1 - delta X)(1 - a2**2 X))
    place = PlaceData(3, 1)
    pi0 = EXACT_PI0[3]
    x = RationalFunction2.monomial(-1, 1, Fraction(1, 3), 3)
    one = RationalFunction2.const(1, 3)
    closed = (one + x * 6) / ((one - x * 4) * (one - x * 6) * (one - x * 9))
    assert rf_equal(whittaker_square_sum(pi0, place, -1, 1), closed)


def test_square_sum_of_zero_parameters_is_one():
    # S(n+1) = 1, 0, 0: the recursion ends at two exact zeros after three values
    exact = SatakeParams(Scalar.exact(0), Scalar.exact(0))
    numeric = SatakeParams(Scalar.numeric(0j), Scalar.numeric(0j))
    assert rf_equal(whittaker_square_sum(exact, PLACE, 1, 1), RationalFunction2.const(1, PLACE.p))
    value = whittaker_square_sum(numeric, PLACE, -1, 1).eval_zw(0.25, 0.5)
    assert value.to_complex() == 1


@pytest.mark.parametrize("alpha", (0.6 + 0.8j, cmath.exp(0.3j), 1.0 + 0j))
def test_square_sum_numeric_parameters_match_reference(alpha):
    pi0 = SatakeParams.unramified_unitary(Scalar.numeric(alpha))
    for p in (2, 5):
        place = PlaceData(p, 1)
        for a, b in SIGNS:
            got = whittaker_square_sum(pi0, place, a, b)
            want = _reference_square_sum(pi0, place, a, b)
            for z, w in ((0, 0), (Fraction(1, 3), Fraction(1, 4)), (Fraction(-1, 5), 1)):
                g, v = got.eval_zw(z, w).to_complex(), want.eval_zw(z, w).to_complex()
                assert abs(g - v) <= 1e-12 * abs(v), (alpha, p, a, b, z, w)


def test_square_sum_refuses_a_square_root_satake_parameter():
    pi0 = SatakeParams(Scalar.root(2), Scalar.root(Fraction(1, 2)))
    with pytest.raises(ValueError) as refused:
        whittaker_square_sum(pi0, PLACE, 1, 1)
    assert str(refused.value) == ROOT_REFUSAL
    with pytest.raises(ValueError, match="Satake parameter"):
        psi_oracle("i", PLACE, pi0)


@pytest.mark.parametrize("kind", KINDS)
def test_both_psi_forms_refuse_a_square_root_satake_pair(kind):
    # the pair's products are rational, so only the one input check keeps the
    # closed form from building a value the oracle cannot
    pi0 = SatakeParams(Scalar.root(2), Scalar.root(Fraction(1, 2)))
    messages = []
    for form in (psi_closed, psi_oracle):
        with pytest.raises(ValueError) as refused:
            form(kind, PlaceData(3, 1), pi0)
        messages.append(str(refused.value))
    assert messages == ["Satake parameter sqrt(2) has a square-root part"] * 2


_BROKEN_SQUARE_SUM = """
from rankinlab import zetaint
from rankinlab.localdata import PlaceData
from rankinlab.scalars import Scalar
from rankinlab.whittaker import SatakeParams

recursion = zetaint._hecke_recursion

def broken(t, delta):
    # the third value one too large: the X**2 term of the square sum is 1, not 0
    for n, u in enumerate(recursion(t, delta)):
        yield u + 1 if n == 2 else u

zetaint._hecke_recursion = broken
try:
    zetaint.whittaker_square_sum(SatakeParams.unramified_unitary(Scalar.exact(2)),
                                 PlaceData(3, 1), 1, 1)
except AssertionError as exc:
    print(exc)
"""


def test_square_sum_check_survives_python_optimize():
    # python -O strips assert statements; the integer X**2 certificate must still refuse
    src = str(Path(rankinlab.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-O", "-c", _BROKEN_SQUARE_SUM],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "square sum: nonzero X**2 term\n"


def _fraction_square_sum(pi0, place, a, b):
    """The Whittaker square sum summed on Fraction (or complex) values in
    X = p**(-1) T1**a T2**b, with X substituted once: the denominator from the
    recursion of S(n)**2 and the numerator from its first two terms (the
    third, b0 e2 - b1 e1 + b2, is identically 0)."""
    p = place.p
    a1, a2 = _plain(pi0.alpha1), _plain(pi0.alpha2)
    t, delta = a1 + a2, a1 * a2
    s_prev, s = 0, Fraction(1)
    seq = []
    for _ in range(3):
        seq.append(s * s)
        s_prev, s = s, t * s - delta * s_prev
    e1 = t * t - delta
    e2 = delta * t * t - delta * delta
    e3 = delta ** 3
    den = [Fraction(1), -e1, e2, -e3]
    num = [seq[0], seq[1] - seq[0] * e1]
    for coeffs in (num, den):
        while not coeffs[-1]:
            coeffs.pop()

    def at_x(coeffs):
        top = len(coeffs) - 1
        i0, j0 = max(0, -a) * top, max(0, -b) * top
        return Poly2({(i0 + a * k, j0 + b * k): Scalar.wrap(c * Fraction(1, p ** k))
                      for k, c in enumerate(coeffs) if c})

    value = RationalFunction2.from_poly(at_x(num), p).with_factor(at_x(den))
    shift = len(den) - len(num)
    i, j = max(0, -a) * shift, max(0, -b) * shift
    return value * RationalFunction2.monomial(i, j, 1, p) if i or j else value


def _form(rf):
    """What a RationalFunction2 holds, term order and zero signs included."""
    factors = [(key, list(poly.terms.items()), poly.den, exp)
               for key, (poly, exp) in rf.fac.items()]
    return repr((list(rf.num.terms.items()), rf.num.den, factors))


INTEGER_SUM_PI0 = (
    *(SatakeParams.unramified_unitary(Scalar.exact(a1), Scalar.exact(a2))
      for a1, a2 in PSI_GRID_PAIRS),
    *EXACT_PI0,
    *(SatakeParams.unramified_unitary(Scalar.numeric(z), Scalar.numeric(z.conjugate()))
      for z in (0.6 + 0.8j, 0.28 + 0.96j)),
    SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(0.3j))),
    SatakeParams.unramified_unitary(Scalar.numeric(1.0 + 0j)),
    # (-0-1j, -0+1j): a complex times 1 would flip some of these zero signs
    SatakeParams.unramified_unitary(Scalar.numeric(-1j)),
)


@pytest.mark.parametrize("p", (2, 3, 5, 9))
def test_integer_square_sum_is_the_fraction_sum(p):
    # rational parameters: the same rational function; complex ones: bit for bit
    place = PlaceData(p, 1)
    for pi0 in INTEGER_SUM_PI0:
        for a, b in SIGNS:
            got = _form(whittaker_square_sum(pi0, place, a, b))
            assert got == _form(_fraction_square_sum(pi0, place, a, b)), (p, pi0, a, b)


NUMERIC_UNITARY_PI0 = tuple(
    SatakeParams.unramified_unitary(Scalar.numeric(a1), Scalar.numeric(a2))
    for a1, a2 in ((0.6 + 0.8j, 0.6 - 0.8j), (0.28 + 0.96j, 0.28 - 0.96j),
                   (0.999 + 0.0447101778j, 0.999 - 0.0447101778j),
                   (-909.0, -1 / 909.0), (1.5, 1 / 1.5)))


@pytest.mark.parametrize("p", (2, 3, 5, 9))
def test_square_sum_numerator_of_numeric_unitary_pairs_stops_at_y(p):
    # the numerator is the first two terms of den * series; a Y**2 term would
    # be float residue of terms that cancel exactly, which T1 = p**(-z) lifts
    # past any tolerance at negative z
    for r in (1, 2):
        place = PlaceData(p, r)
        for pi0 in NUMERIC_UNITARY_PI0:
            for a, b in SIGNS:
                value = whittaker_square_sum(pi0, place, a, b)
                assert len(value.num.terms) <= 2, (p, r, pi0, a, b, value.num.terms)


@pytest.mark.parametrize("r", (1, 2, 4))
def test_kind_iv_oracle_builds_the_ftilde_pair_once_and_no_closed_form(r, monkeypatch):
    # one zeta(2 - 2s) per ftilde section, s = 1/2 + z and 1/2 + w, gives its
    # values at val(c) = 0 and -1; the latter divide by zeta(2s - 1) once each
    from rankinlab import zetaint
    built = {"zeta_local": [], "zeta_local_inverse": []}
    for name, calls in built.items():
        monkeypatch.setattr(zetaint, name, lambda place, shift, *alpha, _f=getattr(zetaint, name),
                            _calls=calls: _calls.append(shift) or _f(place, shift, *alpha))
    for name in ("psi_closed", "rs_l_rf", "correction_factor_rf"):
        monkeypatch.setattr(zetaint, name, lambda *args, _name=name: pytest.fail(_name))
    place = PlaceData(3, r)
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(2), Scalar.exact(Fraction(1, 2)))
    oracle = psi_oracle("iv", place, pi0).value
    assert built == {"zeta_local": [Shift.of(1, -2, 0), Shift.of(1, 0, -2)],
                     "zeta_local_inverse": [Shift.of(0, 2, 0), Shift.of(0, 0, 2)]}
    monkeypatch.undo()
    assert rf_equal(oracle, psi_closed("iv", place, pi0).value)


@pytest.mark.parametrize("kind, built", (("i", 4), ("ii", 5), ("iii", 5), ("iv", 10)))
def test_psi_closed_builds_only_the_zeta_factors_that_survive(kind, built, monkeypatch):
    # three Rankin-Selberg factors (alpha1 alpha2 = alpha2 alpha1 is built
    # once) and 1/zeta(2 + ...); zeta(1 - ...) where a sign is -1; the five of
    # the correction in kind iv (psi_reference builds 9, 8, 8 and 15)
    from rankinlab import zetaint
    shifts = []
    for name in ("zeta_local", "zeta_local_inverse"):
        monkeypatch.setattr(zetaint, name, lambda place, shift, *alpha, _f=getattr(zetaint, name):
                            shifts.append(shift) or _f(place, shift, *alpha))
    psi_closed(kind, PlaceData(3, 2), SatakeParams.unramified_unitary(
        Scalar.exact(2), Scalar.exact(Fraction(1, 2))))
    assert len(shifts) == built


# -- the integer routes against the Scalar and Fraction routes they replaced ---------

def _reference_at_y(coeffs, a, b, y_den):
    """_at_y as it was for every coefficient: c_k / y_den**k as a Fraction."""
    top = len(coeffs) - 1
    i0, j0 = max(0, -a) * top, max(0, -b) * top
    return Poly2({(i0 + a * k, j0 + b * k): c * Fraction(1, y_den ** k)
                  for k, c in enumerate(coeffs) if c})


@pytest.mark.parametrize("p", (2, 3, 5, 9))
def test_integer_at_y_is_the_fraction_poly(p, monkeypatch):
    from rankinlab import zetaint
    calls = []
    at_y = zetaint._at_y
    monkeypatch.setattr(zetaint, "_at_y",
                        lambda *args: calls.append(args) or at_y(*args))
    rational = [*EXACT_PI0, *(SatakeParams.unramified_unitary(Scalar.exact(a1), Scalar.exact(a2))
                              for a1, a2 in PSI_GRID_PAIRS)]
    for pi0 in rational:
        for a, b in SIGNS:
            whittaker_square_sum(pi0, PlaceData(p, 1), a, b)
    assert len(calls) == 2 * 4 * len(rational)
    for args in calls:
        assert all(c.__class__ is int for c in args[0])
        got, want = at_y(*args), _reference_at_y(*args)
        assert (got.den, list(got.terms.items())) == (want.den, list(want.terms.items())), args


def _reference_rs_l_rf(pi0, place, shift):
    """rs_l_rf as it was: Scalar products alpha_i * alpha_j, from the constant 1."""
    alphas = (Scalar.wrap(pi0.alpha1), Scalar.wrap(pi0.alpha2))
    out = RationalFunction2.const(1, place.p)
    for ai in alphas:
        for aj in alphas:
            out = out * zeta_local(place, shift, ai * aj)
    return out


RS_PI0 = (
    *EXACT_PI0,
    SatakeParams.unramified_unitary(Scalar.numeric(0.6 + 0.8j), Scalar.numeric(0.6 - 0.8j)),
    SatakeParams.unramified_unitary(Scalar.numeric(1.3 * cmath.exp(0.4j))),  # not tempered
    SatakeParams.unramified_unitary(Scalar.numeric(-1j)),
    SatakeParams(Scalar.exact(3), Scalar.numeric(0.5j)),  # exact times numeric
)


def test_rs_l_rf_is_the_scalar_product_route():
    # complex values bit for bit: _form compares them by repr, zero signs included
    for p in (2, 3, 9):
        place = PlaceData(p, 2)
        for pi0 in RS_PI0:
            for m in (1, 2):
                for sz, sw in SIGNS:
                    shift = Shift.of(m, sz, sw)
                    assert _form(rs_l_rf(pi0, place, shift)) == \
                        _form(_reference_rs_l_rf(pi0, place, shift)), (p, pi0, shift)


# -- the products by zeta_local_inverse against the division route they replaced -----

def _division_correction(place):
    """correction_factor_rf as it was: divided by three zeta_local."""
    r1 = place.r + 1
    lead = RationalFunction2.monomial(-2 * r1, -2 * r1, Fraction(1, place.p ** r1), place.p)
    out = lead * zeta_local(place, Shift.of(1, -2, 0)) * zeta_local(place, Shift.of(1, 0, -2))
    out = out * zeta_value(place, 1)
    out = out / zeta_local(place, Shift.of(0, 2, 0)) / zeta_local(place, Shift.of(0, 0, 2))
    return out / zeta_local(place, Shift.of(0, 2, 2))


def _division_ftilde(place, val_c, s):
    """ftilde_s at y = 1 as it was built: one zeta(2 - 2s) per value, divided by
    zeta_local(2s - 1) off the integers."""
    one_minus = s.times(-1).plus(1)
    out = zeta_local(place, one_minus.times(2))
    if val_c >= 0:
        return out / zeta_value(place, 1)
    out = out / zeta_local(place, s.times(2).plus(-1))
    return out * _abs_power(place, val_c, one_minus.times(-2))


def _division_psi_closed(kind, place, pi0):
    """psi_closed as it was: four Rankin-Selberg factors, divided by zeta(2 + ...)."""
    sz, sw = KIND_SIGNS[kind]
    p, r = place.p, place.r
    value = _reference_rs_l_rf(pi0, place, Shift.of(1, sz, sw)) * RationalFunction2.monomial(
        -sz * r, -sw * r, 1, p)
    value = value / zeta_local(place, Shift.of(2, 2 * sz, 2 * sw))
    if sz < 0 or sw < 0:
        value = value * zeta_local(place, Shift.of(1, min(0, 2 * sz), min(0, 2 * sw)))
        value = value / zeta_value(place, 1)
    if kind == "iv":
        value = value * (RationalFunction2.const(1, p) - _division_correction(place))
    return value


def _division_psi_oracle(kind, place, pi0):
    """psi_oracle as it was: every ftilde value from :func:`_division_ftilde`."""
    sz, sw = KIND_SIGNS[kind]
    p, r = place.p, place.r
    pref = RationalFunction2.monomial(-sz * r, -sw * r, 1, p)
    y_inner = whittaker_square_sum(pi0, place, sz, sw)
    if kind != "iv":
        # f = 1 at integral c, as the unit rational function it was built as
        unit = RationalFunction2.monomial(0, 0, 1, p)
        c_val = ((unit if sz > 0 else _division_ftilde(place, 0, HALF_Z))
                 * (unit if sw > 0 else _division_ftilde(place, 0, HALF_W)))
        return pref * c_val * y_inner
    pair = _division_ftilde(place, -1, HALF_Z) * _division_ftilde(place, -1, HALF_W)
    shells = Poly2({(2 * (r - j), 2 * (r - j)): Fraction((p - 1) * p ** j, p ** (2 * j - 1))
                    for j in range(1, r + 1)})
    shells_rf = RationalFunction2.from_poly(shells, p).with_factor(
        Poly2.monomial(2 * r - 2, 2 * r - 2))
    total_c = _division_ftilde(place, 0, HALF_Z) * _division_ftilde(place, 0, HALF_W) \
        + pair * shells_rf
    pair_shape = pair * RationalFunction2.monomial(2, 2, p * p, p)
    xr = RationalFunction2.monomial(-2 * r, -2 * r, 1, p)
    outer = pair_shape * Fraction(1, p ** (r + 1)) * xr * y_inner
    return pref * total_c * y_inner + pref * outer


def _full_form(rf):
    """The numerator's den and terms in order, and the factors in order."""
    return repr((rf.num.den, list(rf.num.terms.items()),
                 [(key, poly.den, list(poly.terms.items()), exp)
                  for key, (poly, exp) in rf.fac.items()]))


GRID_PI0 = tuple(SatakeParams.unramified_unitary(Scalar.exact(a1), Scalar.exact(a2))
                 for a1, a2 in PSI_GRID_PAIRS)


@pytest.mark.parametrize("p", (2, 3, 5, 9))
def test_psi_forms_are_the_division_route_forms(p):
    checked = 0
    for r in (1, 2, 3, 4):
        place = PlaceData(p, r)
        assert _full_form(correction_factor_rf(place)) == _full_form(_division_correction(place))
        for pi0 in (*GRID_PI0, *RS_PI0):
            for kind in KINDS:
                assert _full_form(psi_closed(kind, place, pi0).value) == \
                    _full_form(_division_psi_closed(kind, place, pi0)), (p, r, pi0, kind)
                assert _full_form(psi_oracle(kind, place, pi0).value) == \
                    _full_form(_division_psi_oracle(kind, place, pi0)), (p, r, pi0, kind)
                checked += 1
    assert checked == 4 * (len(GRID_PI0) + len(RS_PI0)) * 4


PSI_ARGVS = (
    ["--p", "9", "--r", "1", "--pi0=2.5", "--at=0.1,0.2"],
    ["--p", "9", "--r", "3", "--pi0=1.7-0.2j", "--at=-0.3,0.25"],
    ["--p", "9", "--r", "2", "--pi0=1e3", "--at=1.5,-0.7", "--expand"],
    ["--p", "2", "--r", "3", "--pi0=0.6+0.8j", "--at=0.5,0.5"],
    ["--p", "3", "--r", "2", "--pi0=0.3", "--at=0,0", "--expand"],
    ["--p", "5", "--r", "1", "--pi0=2.5", "--at=-0.3,0.25"],
)


@pytest.mark.parametrize("argv", PSI_ARGVS, ids=" ".join)
def test_numeric_psi_stdout_is_the_division_route_stdout(argv, capsys, monkeypatch):
    # a complex numerator keeps psi_closed's division by zeta(2 + ...): a
    # product by the exact inverse rounds the p = 9 reports differently
    from rankinlab import cli
    reports = []
    for route in ("product", "division"):
        if route == "division":
            monkeypatch.setattr(cli, "psi_closed", lambda kind, place, pi0: LocalZetaResult(
                _division_psi_closed(kind, place, pi0), "closed-form"))
            monkeypatch.setattr(cli, "psi_oracle", lambda kind, place, pi0: LocalZetaResult(
                _division_psi_oracle(kind, place, pi0), "oracle"))
            monkeypatch.setattr(cli, "correction_factor_rf", _division_correction)
        code = cli.main(["psi", *argv])
        reports.append((code, capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0][0] in (0, 1) and '"mode":"numeric"' in reports[0][1]
