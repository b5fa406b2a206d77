"""Bivariate Laurent objects around the origin with pole divisors z, w, z+w, z-w.

A :class:`LaurentSeries2` is ``N(z,w) / (z**a * w**b * (z+w)**c * (z-w)**d)``
where the numerator is a total-degree-truncated power series whose
coefficients are polynomials in a formal symbol ``lam``.  ``lam`` stands for
``log N(q)`` in the degenerate-term pipeline and is never a float there;
coefficients of each power of ``lam`` are extracted exactly.

The four divisors are the only singularities this module knows about; any
other vanishing denominator direction is a hard error.  Minimal pole
exponents are restored by :meth:`LaurentSeries2.normalized`, which exactly
divides the numerator by each divisor while possible.  Division remainders
certify singular behaviour: a value is pole-free iff every remainder in the
chain vanishes (the divisors are coprime primes of the power-series ring).

The numerator is kept in the kernel form of :mod:`rankinlab.numerator`: one
integer denominator and a nested dict ``(i, j) -> {lam power: value}`` of
``int`` numerators (exact) or ``complex`` values (numeric).  A square-root
coefficient is refused with ``ValueError`` wherever one would enter: the
constructors, :meth:`~LaurentSeries2.scale` and :func:`ls_from_rational`.
Every operation here (product, sum with pole raising, negation, flip,
scaling, divisor peeling, inverse, expansion of rational functions, and the
four-term combination as one product per sign-parity class of G) runs on
that form and gives the values, exactness, key order and float bits of
:class:`Scalar` arithmetic (the ring rule of :mod:`rankinlab.scalars`).
:attr:`LaurentSeries2.num` is a read-only view, built on each read:
``dict[(i, j)] -> LambdaPoly`` of :class:`Scalar` values in the kernel's key
order.  :meth:`~LaurentSeries2.coeff` and :meth:`~LaurentSeries2.constant_term`
build only the coefficient asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import numerator as nm
from .exactalg import Poly2, RationalFunction2, poly_div_exact
from .numerator import Flat, Terms
from .scalars import (LP_ZERO, LambdaPoly, Plain, Scalar, ScalarLike, SeriesNum,  # noqa: F401
                      _lifted, _plain_coeffs, _view)

EXACT_DEPTH = 10 ** 9  # sentinel depth for untruncated numerators
DEFAULT_DEPTH = 8

DIVISORS = ("z", "w", "zw_plus", "zw_minus")
_SIGNS = {"zw_plus": 1, "zw_minus": -1}


def _truncated(terms: Terms, depth: int) -> Terms:
    """Stored terms beyond the validity window are meaningless; keeping them
    would corrupt later divisibility certificates."""
    if depth >= EXACT_DEPTH:
        return terms
    return {m: c for m, c in terms.items() if m[0] + m[1] <= depth}


def _num_val(terms: Terms) -> int:
    """Lowest total degree present (0 for the zero numerator)."""
    return 0 if (0, 0) in terms else min((i + j for i, j in terms), default=0)


# -- the LambdaPoly-dict entry points of the kernels ------------------------------

def _lower_num(num: dict) -> Flat:
    """Kernel form of a numerator given as (i, j) -> LambdaPoly, Scalar or
    Python number; zero entries are left out."""
    return nm.lower({m: c for m, v in num.items() if (c := _plain_coeffs(v))})


def _num_mul(a: SeriesNum, b: SeriesNum, depth: int) -> SeriesNum:
    """Product of two ``dict[(i, j)] -> LambdaPoly`` numerators up to total
    degree depth, through the kernel form."""
    return _view(*nm.mul(_lower_num(a), _lower_num(b), depth))


def _series_inverse(num: SeriesNum, depth: int) -> SeriesNum:
    """Inverse of a unit ``dict[(i, j)] -> LambdaPoly`` numerator up to total
    degree depth, through the kernel form."""
    return _view(*nm.inverse(_lower_num(num), depth))


class LaurentSeries2:
    """Truncated bivariate Laurent value N/(z**a w**b (z+w)**c (z-w)**d), the
    numerator N in kernel form: ``den`` and ``terms`` (see :mod:`rankinlab.numerator`)."""

    __slots__ = ("den", "terms", "poles", "depth")

    def __init__(self, num: dict, poles: tuple[int, int, int, int] = (0, 0, 0, 0),
                 depth: int = EXACT_DEPTH):
        """num maps (i, j) to a LambdaPoly, a Scalar or a Python number."""
        den, terms = _lower_num(num)
        self._set(den, _truncated(terms, depth), poles, depth)

    @classmethod
    def _make(cls, den: int, terms: Terms, poles: tuple[int, int, int, int],
              depth: int) -> "LaurentSeries2":
        self = object.__new__(cls)
        self._set(den, terms, poles, depth)
        return self

    def _set(self, den, terms, poles, depth) -> None:
        if min(poles) < 0:
            raise ValueError("pole exponents must be nonnegative")
        if depth < 0:
            raise ValueError("insufficient truncation depth for the requested operation")
        self.den = den
        self.terms = terms
        self.poles = poles
        self.depth = depth

    @property
    def num(self) -> SeriesNum:
        """The numerator as ``dict[(i, j)] -> LambdaPoly``, built on each read."""
        return _view(self.den, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentSeries2":
        return cls._make(1, {}, (0, 0, 0, 0), EXACT_DEPTH)

    @classmethod
    def one(cls) -> "LaurentSeries2":
        return cls._make(1, {(0, 0): {0: 1}}, (0, 0, 0, 0), EXACT_DEPTH)

    @classmethod
    def from_direction(cls, coeffs: list, pole_order: int, direction: str,
                       depth: int) -> "LaurentSeries2":
        """sum_k coeffs[k] * dir**(k - pole_order), coefficients low to high."""
        if direction not in DIVISORS:
            raise ValueError(f"unknown direction {direction}")
        poles = [0, 0, 0, 0]
        if pole_order:
            poles[DIVISORS.index(direction)] = pole_order
        den, terms = nm.along(direction, [_plain_coeffs(x) for x in coeffs], depth)
        return cls._make(den, terms, tuple(poles), depth)

    @classmethod
    def exp_direction(cls, rate: LambdaPoly, direction: str, depth: int) -> "LaurentSeries2":
        """exp(rate * dir) truncated to the requested depth."""
        if direction not in DIVISORS:
            raise ValueError(f"unknown direction {direction}")
        den, terms = nm.along(direction, nm.exp_coeffs(_plain_coeffs(rate), depth), depth)
        return cls._make(den, terms, (0, 0, 0, 0), depth)

    # -- basic operations ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def truncated(self, depth: int) -> "LaurentSeries2":
        """The same value with its numerator valid to total degree depth."""
        return LaurentSeries2._make(self.den, _truncated(self.terms, depth), self.poles, depth)

    def scale(self, factor) -> "LaurentSeries2":
        f = _plain_coeffs(factor)
        if not f:
            return LaurentSeries2._make(1, {}, self.poles, self.depth)
        if max(f) == 0:
            den, terms = nm.scaled((self.den, self.terms), f[0])
        else:
            den, terms = nm.lower({m: p for m, c in self.terms.items()
                                   if (p := nm.lam_mul(nm.plain_values(c, self.den), f))})
        return LaurentSeries2._make(den, terms, self.poles, self.depth)

    def __neg__(self) -> "LaurentSeries2":
        return LaurentSeries2._make(self.den, nm.negated(self.terms), self.poles, self.depth)

    def __mul__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        depth = min(self.depth + _num_val(other.terms), other.depth + _num_val(self.terms))
        den, terms = nm.mul((self.den, self.terms), (other.den, other.terms), depth)
        poles = tuple(x + y for x, y in zip(self.poles, other.poles))
        return LaurentSeries2._make(den, terms, poles, depth)

    def raised(self, poles: tuple[int, int, int, int]) -> "LaurentSeries2":
        """The same value over pole exponents at least its own: the numerator
        times each divisor to the power gained, valid one degree further per
        factor.  A numeric numerator gaining one z+w or z-w runs
        :func:`~rankinlab.numerator.times_linear`, the kernel product's sums."""
        a, depth = (self.den, self.terms), self.depth
        for direction, e in zip(DIVISORS, (x - y for x, y in zip(poles, self.poles))):
            if e == 1 and direction in _SIGNS and any(
                    v.__class__ is complex for c in a[1].values() for v in c.values()):
                a = nm.times_linear(a, _SIGNS[direction], depth + 1)
            elif e:
                a = nm.mul(a, nm.direction_power(direction, e), depth + e)
            depth += e
        return LaurentSeries2._make(*a, poles, depth)

    def __add__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        poles = tuple(max(x, y) for x, y in zip(self.poles, other.poles))
        a, b = self.raised(poles), other.raised(poles)
        den, terms = nm.num_add((a.den, a.terms), (b.den, b.terms))
        depth = min(a.depth, b.depth)
        return LaurentSeries2._make(den, _truncated(terms, depth), poles, depth)

    def __sub__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        return self + (-other)

    def flip(self, flip_z: bool, flip_w: bool) -> "LaurentSeries2":
        """Substitute z -> -z and/or w -> -w.

        Swapping exactly one sign exchanges the z+w and z-w divisors.
        """
        if not flip_z and not flip_w:
            return self
        a, b, c, d = self.poles
        if flip_z and flip_w:
            extra = (a + b + c + d) % 2
            poles = (a, b, c, d)
        elif flip_z:
            extra = (a + c + d) % 2
            poles = (a, b, d, c)
        else:
            extra = b % 2
            poles = (a, b, d, c)
        terms: Terms = {}
        for (i, j), cc in self.terms.items():
            odd = ((i if flip_z else 0) + (j if flip_w else 0) + extra) % 2
            terms[(i, j)] = {k: -v for k, v in cc.items()} if odd else cc
        return LaurentSeries2._make(self.den, terms, poles, self.depth)

    def along_line(self, sz: int, sw: int, depth: int) -> "LaurentSeries2":
        """Taylor coefficients of t -> N(sz*t, sw*t) up to degree depth, the one
        of t**d stored at (d, 0), for sz and sw in {-1, 0, 1}; the pole
        exponents are not applied.  Monomials are summed in sorted order."""
        out: Terms = {}
        for (i, j), c in sorted(self.terms.items()):
            if i + j > depth or (i and not sz) or (j and not sw):
                continue
            term = c if sz ** i * sw ** j == 1 else {k: -v for k, v in c.items()}
            cur = out.get((i + j, 0))
            out[(i + j, 0)] = term if cur is None else nm.lam_add(cur, term, self.den)
        return LaurentSeries2._make(self.den, {m: c for m, c in out.items() if c},
                                    (0, 0, 0, 0), EXACT_DEPTH)

    # -- pole structure ------------------------------------------------------

    def normalized(self, tol: float = 0.0) -> "LaurentSeries2":
        """Minimal pole exponents: divide the numerator by each divisor while
        the remainder vanishes (exactly, or within tol for numeric data)."""
        return self._split(tol, want_singular=False)[0]

    def split_singular(self, tol: float = 0.0) -> tuple["LaurentSeries2", "LaurentSeries2", float]:
        """Decompose into (regular-or-minimal part, singular part, max residual).

        The singular part collects every division obstruction; it is zero
        (and the first component has all pole exponents zero) precisely when
        the value extends holomorphically over the origin.
        """
        return self._split(tol, want_singular=True)

    def _split(self, tol: float, want_singular: bool):
        den, terms = self.den, self.terms
        depth = self.depth
        poles = list(self.poles)
        singular = LaurentSeries2.zero()
        max_res = 0.0
        for idx, direction in enumerate(DIVISORS):
            while poles[idx] > 0:
                quot, rem, mag = nm.div_linear(den, terms, direction, tol)
                if rem and not want_singular:
                    break  # not divisible: this exponent is already minimal
                if rem:
                    max_res = max(max_res, mag)
                    singular = singular + LaurentSeries2._make(den, rem, tuple(poles), depth)
                terms = quot
                depth -= 1
                poles[idx] -= 1
        result = LaurentSeries2._make(den, terms, tuple(poles), depth)
        return (result, singular, max_res)

    def singular_part(self) -> "LaurentSeries2":
        return self.split_singular()[1]

    def constant_term(self, tol: float = 0.0) -> LambdaPoly:
        """Value at the origin as a polynomial in lam; requires zero singular part."""
        regular, singular, max_res = self.split_singular(tol)
        if not singular.is_zero():
            raise ValueError(
                f"nonzero singular part (max obstruction {max_res:.3e}); "
                "the origin is not removable"
            )
        return regular.coeff(0, 0)

    # -- evaluation ----------------------------------------------------------

    def eval(self, z: complex, w: complex, lam: complex = 0.0) -> complex:
        total = 0j
        for (i, j), v in self.num.items():
            total += v.eval(Scalar.numeric(lam)).to_complex() * z ** i * w ** j
        a, b, c, d = self.poles
        return total / (z ** a * w ** b * (z + w) ** c * (z - w) ** d)

    def coeff(self, i: int, j: int) -> LambdaPoly:
        c = self.terms.get((i, j))
        return LambdaPoly(_lifted(c, self.den)) if c else LambdaPoly()

    def max_abs(self) -> float:
        return max((nm.max_abs(c, self.den) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        a, b, c, d = self.poles
        den = "".join(s for s, e in (("z", a), ("w", b), ("(z+w)", c), ("(z-w)", d))
                      for _ in range(e)) or "1"
        terms = ", ".join(f"z^{i} w^{j}: {v!r}" for (i, j), v in sorted(self.num.items())[:8])
        return f"LaurentSeries2[depth={self.depth}]({terms} ...)/{den}"


def ls_inverse_regular(a: LaurentSeries2) -> LaurentSeries2:
    """Multiplicative inverse of a pole-free series with invertible constant
    term, valid to the series' own depth, which must be finite."""
    if any(a.poles):
        raise ValueError("only pole-free series can be inverted")
    if a.depth >= EXACT_DEPTH:
        raise ValueError("cannot invert an untruncated series: its inverse has no "
                         "last degree; truncate it first with .truncated(depth)")
    den, terms = nm.inverse((a.den, a.terms), a.depth)
    return LaurentSeries2._make(den, terms, (0, 0, 0, 0), a.depth)


# -- expansion of rational functions -----------------------------------------

def _expand_poly(poly: Poly2, depth: int, lp: dict[int, Plain]) -> Flat:
    """Substitute T1 = exp(-z*log_p), T2 = exp(-w*log_p) into a polynomial:
    T1**i * T2**j is exp(-i*log_p*z) * exp(-j*log_p*w), and the monomials'
    series are joined by ``num_add`` in the polynomial's order.  An exact
    polynomial and a one-power nonzero exact log p (lam mode, a rational
    surrogate) run :func:`~rankinlab.numerator.exp_monomial`: the exact
    values and key order of the two products, which a numeric one runs, its
    float order being pinned."""
    e, v = next(iter(lp.items())) if len(lp) == 1 else (0, None)
    closed = poly.den is not None and v.__class__ in (int, Fraction) and v != 0
    out: Flat = (1, {})
    for (i, j), coeff in poly.terms.items():
        if closed:
            out = nm.num_add(out, nm.exp_monomial(Fraction(coeff, poly.den), i, j, e, v, depth))
            continue
        term = _lower_num({(0, 0): coeff if poly.den is None else Fraction(coeff, poly.den)})
        for direction, n in (("z", i), ("w", j)):
            if n:
                rate = {k: -n * v for k, v in lp.items()}
                term = nm.mul(term, nm.along(direction, nm.exp_coeffs(rate, depth), depth), depth)
        out = nm.num_add(out, term)
    return out


# Polynomial counterparts of the four divisors: z, w, z+w, z-w vanish on
# T1 = 1, T2 = 1, T1*T2 = 1 and T1 = T2 respectively.
_DIVISOR_POLYS = (
    Poly2._make(1, {(0, 0): 1, (1, 0): -1}),          # 1 - T1
    Poly2._make(1, {(0, 0): 1, (0, 1): -1}),          # 1 - T2
    Poly2._make(1, {(0, 0): 1, (1, 1): -1}),          # 1 - T1*T2
    Poly2._make(1, {(1, 0): 1, (0, 1): -1}),          # T1 - T2
)


def _peel_divisors(poly: Poly2) -> tuple[Poly2, list[int]]:
    """Exactly factor out the divisor polynomials; returns (reduced, counts)."""
    counts = [0, 0, 0, 0]
    for idx, dpoly in enumerate(_DIVISOR_POLYS):
        while (q := poly_div_exact(poly, dpoly)) is not None:
            poly = q
            counts[idx] += 1
    return poly, counts


def _peeled_unit_series(idx: int, lp: dict[int, Plain], depth: int) -> Flat:
    """Series of (divisor polynomial)/(divisor form), a unit at the origin:

    (1 - exp(-u*L))/u = L - L**2 u/2 + ...  along u = z, w or z+w, and
    (T1-T2)/(z-w) = -exp(-w*L) * (1 - exp(-v*L))/v  along v = z-w,
    both read off the coefficients e_k of exp(-L*x): (1 - exp(-u*L))/u is
    -sum_k e_(k+1) u**k.
    """
    e = nm.exp_coeffs({k: -v for k, v in lp.items()}, depth + 1)
    if idx < 3:
        return nm.along(DIVISORS[idx], [{k: -v for k, v in c.items()} for c in e[1:]], depth)
    return nm.mul(nm.along("zw_minus", e[1:], depth), nm.along("w", e, depth), depth)


def ls_from_rational(f: RationalFunction2, depth: int = DEFAULT_DEPTH,
                     log_p: ScalarLike | LambdaPoly | str = "lambda") -> LaurentSeries2:
    """Laurent-expand a rational function in T1 = p**(-z), T2 = p**(-w).

    ``log_p`` selects how log p enters: "lambda" (the formal symbol, for
    exact symbolic certificates), or a value: a rational or numeric Scalar
    surrogate, or a number such as ``math.log(p)``.  A square-root surrogate,
    or a square-root coefficient of ``f``, is refused with ``ValueError``.
    Vanishing of numerator and denominator along the four divisors is peeled
    off exactly at the polynomial level, so pole exponents are minimal by
    construction; a denominator vanishing at the origin in any other
    direction raises.  Each divisor's peeled unit (its polynomial over its
    linear form) enters once, raised to the numerator's count minus the
    denominator's, and is inverted only when that count is negative: so
    divisor factors that cancel expand in every mode, while a genuine divisor
    pole in "lambda" mode raises ``ValueError``, the unit's constant term
    being lam itself.
    """
    if isinstance(log_p, str):
        if log_p != "lambda":
            raise ValueError(f"unknown log_p mode {log_p!r}")
        lp = {1: Fraction(1)}
    else:
        lp = _plain_coeffs(log_p)

    num_red, num_counts = _peel_divisors(f.num)
    den_counts = [0, 0, 0, 0]
    den_units: list[tuple[Poly2, int]] = []
    for poly, exp in f.fac.values():
        red, counts = _peel_divisors(poly)
        den_counts = [a + c * exp for a, c in zip(den_counts, counts)]
        den_units.append((red, exp))
    pole_total = sum(max(0, d - n) for d, n in zip(den_counts, num_counts))
    if depth < pole_total + 3:
        raise ValueError(
            f"truncation depth {depth} too shallow for pole exponents summing "
            f"to {pole_total} (need at least {pole_total + 3})"
        )

    num = _expand_poly(num_red, depth, lp)
    denominator = (1, {(0, 0): {0: 1}})
    for red, exp in den_units:
        factor = _expand_poly(red, depth, lp)
        for _ in range(exp):
            denominator = nm.mul(denominator, factor, depth)
    if (0, 0) not in denominator[1]:
        raise ValueError("denominator vanishes at the origin in a non-divisor direction")
    series = nm.mul(num, nm.inverse(denominator, depth), depth)

    poles = [0, 0, 0, 0]
    for idx, direction in enumerate(DIVISORS):
        net = num_counts[idx] - den_counts[idx]
        if net:
            unit = _peeled_unit_series(idx, lp, depth)
            if net < 0:
                unit = nm.inverse(unit, depth)
            for _ in range(abs(net)):
                series = nm.mul(series, unit, depth)
        if net > 0:
            series = nm.mul(series, nm.direction_power(direction, net), depth)
        poles[idx] = max(0, -net)
    return LaurentSeries2._make(*series, tuple(poles), depth)


# -- cubic output -------------------------------------------------------------


@dataclass(frozen=True)
class CubicPolynomial:
    """c3*lam**3 + c2*lam**2 + c1*lam + c0."""

    c3: Scalar
    c2: Scalar
    c1: Scalar
    c0: Scalar


# -- random quadruples for the cancellation property --------------------------
#
# The four-term combination
#     G(z,w)h1 + G(-z,w)h2 + G(z,-w)h3 + G(-z,-w)h4,
# with G(z,w) = H1(z+w)H2(z)H2(w) where H1, H2 have at most simple poles at 0,
# extends over the origin whenever the h_j satisfy six compatibility
# constraints on the lines z=0, w=0, w=z and w=-z.  The helpers below build
# random exact quadruples satisfying the constraints (and controlled
# violations of a single constraint for sharpness checks).

Coeffs = dict[tuple[int, int], Fraction]

# Every random coefficient has a denominator dividing 12, and the quadruple is
# built from them with integer multipliers only, so it is generated as integer
# numerators over _RAND_DEN and turned into Fractions once at the end.  The
# helpers below are generic in the coefficient type: they add into a running
# dict without dropping a key whose sum passes through zero, and remove the
# zero keys at the end.
_RAND_DEN = 12
_RAND_TERMS, _RAND_MAX_DEG = 5, 4  # random draws per polynomial, and their largest total degree


def _rand_poly(rng) -> dict[tuple[int, int], int]:
    """Numerators over _RAND_DEN of _RAND_TERMS random coefficients num/den."""
    out: dict[tuple[int, int], int] = {}
    for _ in range(_RAND_TERMS):
        i = rng.randrange(_RAND_MAX_DEG + 1)
        j = rng.randrange(_RAND_MAX_DEG + 1 - i)
        num = rng.randrange(-9, 10)
        den = rng.randrange(1, 5)
        if num:
            out[(i, j)] = out.get((i, j), 0) + num * (_RAND_DEN // den)
    return {m: v for m, v in out.items() if v}


def _restrict_z_axis(h: dict) -> dict:
    """Coefficients of h(z, 0)."""
    return {i: v for (i, j), v in h.items() if j == 0}


def _restrict_w_axis(h: dict) -> dict:
    return {j: v for (i, j), v in h.items() if i == 0}


def _restrict_antidiag(h: dict) -> dict:
    """Coefficients of h(-t, t)."""
    out: dict = {}
    for (i, j), v in h.items():
        out[i + j] = out.get(i + j, 0) + v * (-1) ** i
    return {k: v for k, v in out.items() if v}


def _embed_in_w(u: dict) -> dict:
    return {(0, k): v for k, v in u.items()}


def _embed_in_z(u: dict) -> dict:
    return {(k, 0): v for k, v in u.items()}


def _poly_add(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for m, v in part.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def _poly_shift(h: dict, di: int, dj: int) -> dict:
    return {(i + di, j + dj): v for (i, j), v in h.items()}


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + v1 * v2
    return {m: v for m, v in out.items() if v}


def random_symmetric_quadruple(rng) -> tuple[Coeffs, Coeffs, Coeffs, Coeffs]:
    """Random (h1,h2,h3,h4) satisfying all six cancellation constraints exactly."""
    h1 = _poly_add({(0, 0): rng.randrange(1, 6) * _RAND_DEN}, _rand_poly(rng))
    r2 = _rand_poly(rng)
    h2 = _poly_add(_embed_in_w(_restrict_w_axis(h1)), _poly_shift(r2, 1, 0))

    # delta(t) = (h1(0,t) - h1(t,0)) / t
    w_axis = _restrict_w_axis(h1)
    z_axis = _restrict_z_axis(h1)
    delta = {k - 1: w_axis.get(k, 0) - z_axis.get(k, 0)
             for k in set(w_axis) | set(z_axis) if k >= 1}
    delta = {k: v for k, v in delta.items() if v}
    r3 = _poly_add(r2, _embed_in_w(delta),
                   _poly_mul({(1, 0): 1, (0, 1): -1}, _rand_poly(rng)))
    h3 = _poly_add(_embed_in_z(z_axis), _poly_shift(r3, 0, 1))

    base = _poly_add(_embed_in_z(_restrict_z_axis(h2)), _embed_in_w(_restrict_w_axis(h3)),
                     {(0, 0): -h1.get((0, 0), 0)})
    # eta(t) = (base(-t,t) - h1(-t,t)) / t**2
    anti_base = _restrict_antidiag(base)
    anti_h1 = _restrict_antidiag(h1)
    diff = {k: anti_base.get(k, 0) - anti_h1.get(k, 0) for k in set(anti_base) | set(anti_h1)}
    diff = {k: v for k, v in diff.items() if v}
    if any(k < 2 for k in diff):
        raise AssertionError("constraint bookkeeping failed: antidiagonal not divisible by t^2")
    eta = {k - 2: v for k, v in diff.items()}
    h4 = _poly_add(base,
                   _poly_mul({(1, 1): 1},
                             _poly_add(_embed_in_w(eta),
                                       _poly_mul({(1, 0): 1, (0, 1): 1},
                                                 _rand_poly(rng)))))
    return tuple({m: Fraction(n, _RAND_DEN) for m, n in h.items()} for h in (h1, h2, h3, h4))


# perturbations that violate exactly one constraint: (target h index, polynomial)
SYMMETRY_BREAKERS: dict[str, tuple[int, Coeffs]] = {
    "h1(z,0)=h3(z,0)": (3, {(2, 0): Fraction(1), (1, 1): Fraction(-1)}),   # z(z-w) on h3
    "h2(z,0)=h4(z,0)": (4, {(2, 0): Fraction(1), (1, 1): Fraction(1)}),    # z(z+w) on h4
    "h1(0,w)=h2(0,w)": (2, {(1, 1): Fraction(1), (0, 2): Fraction(-1)}),   # w(z-w) on h2
    "h3(0,w)=h4(0,w)": (4, {(1, 1): Fraction(1), (0, 2): Fraction(1)}),    # w(z+w) on h4
    "h1(-z,z)=h4(-z,z)": (1, {(1, 1): Fraction(1)}),                       # zw on h1
    "h2(z,z)=h3(z,z)": (2, {(1, 1): Fraction(1)}),                         # zw on h2
}


def break_one_symmetry(quadruple, which: str, rng) -> tuple[Coeffs, Coeffs, Coeffs, Coeffs]:
    target, pattern = SYMMETRY_BREAKERS[which]
    eps = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
    hs = list(quadruple)
    hs[target - 1] = _poly_add(hs[target - 1], {m: eps * v for m, v in pattern.items()})
    return tuple(hs)


def random_simple_pole_coeffs(rng, depth: int) -> list[Fraction]:
    """Laurent coefficients [c_{-1}, c_0, c_1, ...] with c_{-1} != 0, sparse."""
    coeffs = [Fraction(0)] * (depth + 1)
    coeffs[0] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
    for _ in range(3):
        k = rng.randrange(1, depth + 1)
        coeffs[k] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return coeffs


def pole_factor_series(h1_coeffs: list[Fraction], h2_coeffs: list[Fraction],
                       depth: int) -> LaurentSeries2:
    """G(z,w) = H1(z+w) * H2(z) * H2(w) from simple-pole Laurent coefficients."""
    g = LaurentSeries2.from_direction(h1_coeffs, 1, "zw_plus", depth)
    g = g * LaurentSeries2.from_direction(h2_coeffs, 1, "z", depth)
    g = g * LaurentSeries2.from_direction(h2_coeffs, 1, "w", depth)
    return g


def four_term_combination(g: LaurentSeries2, quadruple: Iterable[Coeffs],
                          depth: int) -> LaurentSeries2:
    """G(z,w)h1 + G(-z,w)h2 + G(z,-w)h3 + G(-z,-w)h4, G exact, the h_i rational.

    G's poles are raised once to (a, b, c, c) ((1,1,1,0) becomes (1,1,1,1):
    the numerator times z-w).  A flip then keeps the poles and only negates
    terms: term (i, j) of G(-z,w) has sign (-1)**(i+a), of G(z,-w)
    (-1)**(j+b), of G(-z,-w) both.  So each parity class of (i+a, j+b) of G's
    terms multiplies one H = h1 + s*h2 + t*h3 + s*t*h4 (s, t its signs) on
    integers over the h_i's lcm: one
    :func:`~rankinlab.numerator.mul_sum` of at most four pairs.  Value, poles
    and depth are those of the four products added with ``+``; only the key
    order may differ.  ``depth`` is never read: G and the h_i set it.  It
    stays: certbench passes it positionally."""
    a, b, c, d = g.poles
    up = g.raised((a, b, max(c, d), max(c, d)))
    hs = [{m: v for m, v in h.items() if v} for h in quadruple]
    valid = min(g.depth + min(_num_val(h) for h in hs),  # each h is untruncated
                EXACT_DEPTH + _num_val(g.terms)) + up.depth - g.depth
    den = math.lcm(*[v.denominator for h in hs for v in h.values()])
    n = [{m: v.numerator * (den // v.denominator) for m, v in h.items()} for h in hs]
    sums: tuple[Terms, ...] = ({}, {}, {}, {})  # the H of class (i+a)%2 + 2*((j+b)%2)
    for m in {m: 0 for h in n for m in h}:
        x1, x2, x3, x4 = [h.get(m, 0) for h in n]
        for s, v in zip(sums, (x1 + x2 + x3 + x4, x1 - x2 + x3 - x4,
                               x1 + x2 - x3 - x4, x1 - x2 - x3 + x4)):
            if v:
                s[m] = {0: v}
    parts: tuple[Terms, ...] = ({}, {}, {}, {})
    for (i, j), cc in up.terms.items():
        parts[(i + a) % 2 + (j + b) % 2 * 2][(i, j)] = cc
    den, terms = nm.mul_sum([((up.den, p), (den, s)) for p, s in zip(parts, sums)], valid)
    return LaurentSeries2._make(den, terms, up.poles, valid)
