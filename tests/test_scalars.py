import math
import struct
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_degenerate import SCALAR_ARITHMETIC

from rankinlab.exactalg import Poly2
from rankinlab.scalars import (ROOT_REFUSAL, Scalar, _inv, _plain, _pow, _ring, _root,
                               _square_split, format_scalar, parse_exact)
from rankinlab.verify import run_suites


def test_exact_arithmetic_closed():
    a = Scalar.exact(Fraction(3, 7))
    b = Scalar.exact(Fraction(-2, 5))
    assert (a + b) == Scalar.exact(Fraction(1, 35))
    assert (a * b) == Scalar.exact(Fraction(-6, 35))
    assert (a / b) == Scalar.exact(Fraction(-15, 14))
    assert a ** 3 == Scalar.exact(Fraction(27, 343))


def test_root_extension():
    s = Scalar.root(Fraction(1, 2))
    assert s * s == Scalar.exact(Fraction(1, 2))
    assert s.inverse() * s == Scalar.exact(1)
    # perfect squares collapse to rationals
    assert Scalar.root(Fraction(1, 4)) == Scalar.exact(Fraction(1, 2))
    assert Scalar.root(9) == Scalar.exact(3)


def test_root_base_canonicalization():
    # sqrt(1/2) and (1/2) sqrt(2) are the same element and must combine freely
    assert Scalar.root(Fraction(1, 2)) == Scalar.root(2, Fraction(1, 2))
    assert Scalar.root(8) == Scalar.root(2, 2)
    mixed = Scalar.root(Fraction(1, 2)) + Scalar.root(2)
    assert mixed == Scalar.root(2, Fraction(3, 2))


def test_mixed_mode_promotes():
    x = Scalar.exact(Fraction(1, 3)) + Scalar.numeric(0.5)
    assert not x.is_exact
    assert abs(x.to_complex() - (1 / 3 + 0.5)) < 1e-15


def test_numeric_equality_needs_tolerance():
    x = Scalar.numeric(1.0)
    with pytest.raises(ValueError):
        _ = x == Scalar.numeric(1.0)
    assert x.close(Scalar.numeric(1.0 + 1e-15))
    assert not x.close(Scalar.numeric(1.1))


def test_conjugate_and_abs2():
    z = Scalar.numeric(1 + 2j)
    assert z.conjugate().to_complex() == 1 - 2j
    assert abs(z.abs2().to_complex() - 5) < 1e-15
    r = Scalar.exact(Fraction(-2, 3))
    assert r.conjugate() == r
    assert r.abs2() == Scalar.exact(Fraction(4, 9))


def test_formatting_and_parsing():
    assert format_scalar(Scalar.exact(Fraction(3, 4))) == "3/4"
    assert format_scalar(Scalar.root(2, 8) + Scalar.exact(11)) == "11+8*sqrt(2)"
    assert parse_exact("3/4") == Scalar.exact(Fraction(3, 4))
    assert parse_exact("-5") == Scalar.exact(-5)
    assert abs(parse_exact("0.25").to_complex() - 0.25) == 0


# -- the boundary helpers, bit for bit against Scalar ---------------------------------
#    Floats compare by the bits of their real and imaginary parts (struct), so
#    signed zeros and NaN payloads count.

EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
              math.inf, -math.inf, math.nan)
PARTS = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(allow_subnormal=True))
COMPLEX = st.builds(complex, PARTS, PARTS)
FRACTIONS = st.fractions(max_denominator=10 ** 30)
SCALARS = st.one_of(FRACTIONS.map(Scalar.exact), COMPLEX.map(Scalar.numeric),
                    st.builds(Scalar.root, st.integers(2, 10 ** 4), FRACTIONS))


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _outcome(fn, *args):
    """("raise", exception type) or ("value", class, exact value or float bits)."""
    try:
        v = fn(*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        return ("raise", type(exc))
    if v.__class__ is Scalar:
        if v.z is not None:
            return ("value", "numeric", _bits(v.z))
        return ("value", "exact", v.a) if not v.b else ("value", "root", v.a, v.b, v.base)
    if v.__class__ is complex:
        return ("value", "numeric", _bits(v))
    assert v.__class__ is Fraction, v
    return ("value", "exact", v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-10 ** 20, 10 ** 20), st.booleans(), FRACTIONS,
                 st.floats(allow_subnormal=True), COMPLEX, SCALARS))
@example(True)
@example(-0.0)
@example(Scalar.root(2))
def test_ring_and_plain_give_the_scalar_value_of_their_ring(v):
    want = _outcome(Scalar.wrap, v)
    if v.__class__ in (int, Fraction, complex):  # plain's first line returns these as they are
        assert _plain(v) is v
    elif want[1] == "root":
        with pytest.raises(ValueError) as refused:
            _plain(v)
        assert str(refused.value) == ROOT_REFUSAL
    else:
        assert _outcome(_plain, v) == want
    assert _outcome(_ring, v) == want  # an int too becomes a Fraction
    if want[1] == "root":
        assert _ring(v) is v


@settings(max_examples=400, deadline=None)
@given(st.one_of(COMPLEX, FRACTIONS), st.integers(-6, 6))
@example(complex(5e-324, -0.0), -1)
@example(complex(-0.0, 0.0), -2)
@example(complex(1e300, -1e300), 3)
@example(complex(math.inf, math.nan), 2)
@example(Fraction(0), -1)
@example(Fraction(-3, 7), 0)
def test_inv_and_pow_are_the_scalar_inverse_and_power(x, n):
    s = Scalar.wrap(x)
    assert _outcome(_inv, x) == _outcome(Scalar.inverse, s)
    assert _outcome(_pow, x, n) == _outcome(lambda: s ** n)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 4), FRACTIONS)
@example(4, Fraction(1, 4))
@example(8, Fraction(-1, 8))
@example(12, Fraction(1, 12))
@example(18, Fraction(5, 18))
@example(50, Fraction(-1, 50))
@example(10 ** 4, Fraction(1, 10 ** 4))
@example(9973, Fraction(0))
@example(2, Fraction(-1, 10 ** 400))  # the root part rounds to -0.0; to_complex gives +0.0
def test_root_is_scalar_root_and_its_to_complex(p, coeff):
    exact = Scalar.root(p, coeff)
    assert _outcome(_root, p, coeff, False) == _outcome(lambda: exact)
    assert _bits(_root(p, coeff, True)) == _bits(exact.to_complex())


def test_square_split_is_the_largest_square():
    # the descending isqrt search that one closed form used before
    for n in range(1, 10 ** 4 + 1):
        square = next(s for s in range(math.isqrt(n), 0, -1) if n % (s * s) == 0)
        assert _square_split(n) == (square, n // (square * square)), n


def _per_term_c(poly: Poly2) -> dict:
    """The coefficient view as it was built before it shared the lift of
    LaurentSeries2's views."""
    den = poly.den
    if den is None:
        return {m: Scalar.numeric(z) for m, z in poly.terms.items()}
    return {m: Scalar.exact(Fraction(n, den)) for m, n in poly.terms.items()}


MONOMIALS = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(MONOMIALS, st.one_of(FRACTIONS, COMPLEX), max_size=8))
def test_poly2_c_is_the_per_term_map_it_replaces(coeffs):
    poly = Poly2(coeffs)
    got, want = poly.c, _per_term_c(poly)
    assert list(got) == list(want)
    if poly.den is None:
        assert all(v.__class__ is complex for v in poly.terms.values())
    for m, w in want.items():
        assert _outcome(lambda: got[m]) == _outcome(lambda: w), m


# Scalar arithmetic outside Scalar itself: where a root is live, and at the
# report and parse boundaries
SCALAR_CALLERS = {("rankinlab.zetaint", "reg_local_closed"),
                  ("rankinlab.zetaint", "reg_local_closed_s_form"),
                  ("rankinlab.degenerate", "GlobalZetaData.validate")}
SCALAR_MODULES = {"rankinlab.scalars", "rankinlab.specweight", "rankinlab.verify"}


def test_scalar_arithmetic_below_the_reports_only_where_a_root_is_live(monkeypatch):
    # every Scalar arithmetic call of an in-process verify, by its caller: the
    # exact reg forms (and their generator expressions), whose square roots
    # are live, and the boundaries; exactalg, the kernels and the Satake sums
    # compute on plain values
    callers = Counter()

    def recorded(fn):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            callers[(frame.f_globals["__name__"], frame.f_code.co_qualname)] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SCALAR_ARITHMETIC:
        monkeypatch.setattr(Scalar, name, recorded(getattr(Scalar, name)))
    assert all(res.correct for _, res in run_suites())
    assert callers
    stray = {(module, name): n for (module, name), n in callers.items()
             if module not in SCALAR_MODULES
             and (module, name.removesuffix(".<locals>.<genexpr>")) not in SCALAR_CALLERS}
    assert not stray
