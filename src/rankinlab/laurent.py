"""Bivariate Laurent objects around the origin with pole divisors z, w, z+w, z-w.

A :class:`LaurentSeries2` is ``N(z,w) / (z**a * w**b * (z+w)**c * (z-w)**d)``
where the numerator is a total-degree-truncated power series whose
coefficients are polynomials in a formal symbol ``lam`` (:class:`LambdaPoly`).
``lam`` stands for ``log N(q)`` in the degenerate-term pipeline and is never a
float there; coefficients of each power of ``lam`` are extracted exactly.

The four divisors are the only singularities this module knows about; any
other vanishing denominator direction is a hard error.  Minimal pole
exponents are restored by :meth:`LaurentSeries2.normalized`, which exactly
divides the numerator by each divisor while possible.  Division remainders
certify singular behaviour: a value is pole-free iff every remainder in the
chain vanishes (the divisors are coprime primes of the power-series ring).

Numerator products run over flat ``(i, j, k, value)`` terms, ``k`` being the
power of ``lam``, in a kernel chosen per product from what the operands hold:

* every coefficient a plain rational: Python integers over each operand's
  common denominator (FLINT's ``fmpq_poly`` layout); the result's denominator
  is the product of the two, reduced once per output term;
* no coefficient with a square-root part: one kernel over per-term values,
  an exact term as its integer numerator over its operand's common
  denominator, a numeric term as a complex double.  Exact-by-exact products
  add as integers; a product with a numeric factor is complex, the exact
  factor converted as :meth:`Scalar.to_complex` does; a sum turns complex at
  its first numeric product, as :class:`Scalar` addition promotes it;
* otherwise (root-extension data) :class:`Scalar`.

The series inverse runs on the coefficients as plain Python numbers
(``Fraction``, ``complex``, and :class:`Scalar` only for root-extension
values).  Every kernel adds the same products in the same order as
:class:`Scalar` arithmetic would, so exact values, exactness, key order and
every float bit are the ones :class:`Scalar` gives.

Series numerators stay ``dict[(i, j)] -> LambdaPoly`` between operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import Poly2, RationalFunction2
from .scalars import (SC_ZERO, Scalar, ScalarLike, all_rational, common_denominator, rational,
                      root_free)

EXACT_DEPTH = 10 ** 9  # sentinel depth for untruncated numerators
DEFAULT_DEPTH = 8

DIVISORS = ("z", "w", "zw_plus", "zw_minus")


class LambdaPoly:
    """Polynomial in the formal symbol lam with Scalar coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        self.c = coeffs if coeffs is not None else {}

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        v = Scalar.wrap(value)
        return cls({} if v.is_zero() else {0: v})

    @classmethod
    def lam(cls, coeff: ScalarLike = 1, power: int = 1) -> "LambdaPoly":
        v = Scalar.wrap(coeff)
        return cls({} if v.is_zero() else {power: v})

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return max(self.c, default=-1)

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return LambdaPoly(out)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly({k: -v for k, v in self.c.items()})

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        if not self.c or not other.c:
            return LambdaPoly()
        out: dict[int, Scalar] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                prod = v1 * v2
                cur = out.get(k)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return LambdaPoly(out)

    def scale(self, factor: ScalarLike) -> "LambdaPoly":
        f = Scalar.wrap(factor)
        if f.is_zero():
            return LambdaPoly()
        return LambdaPoly({k: v * f for k, v in self.c.items()})

    def coeff(self, k: int) -> Scalar:
        return self.c.get(k, SC_ZERO)

    def eval(self, lam: ScalarLike) -> Scalar:
        lam = Scalar.wrap(lam)
        total = SC_ZERO
        for k, v in self.c.items():
            total = total + v * lam ** k
        return total

    def max_abs(self) -> float:
        return max((abs(v.to_complex()) for v in self.c.values()), default=0.0)

    def negligible(self, tol: float) -> bool:
        if tol == 0.0:
            return self.is_zero()
        return self.max_abs() <= tol

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return set(self.c) == set(other.c) and all(self.c[k] == other.c[k] for k in self.c)

    def __hash__(self):
        raise TypeError("LambdaPoly is unhashable")

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            f"({v})" + ("" if k == 0 else f"*lam^{k}" if k > 1 else "*lam")
            for k, v in sorted(self.c.items())
        )


LP_ZERO = LambdaPoly()
LP_ONE = LambdaPoly.const(1)

SeriesNum = dict[tuple[int, int], LambdaPoly]


def _num_add(a: SeriesNum, b: SeriesNum) -> SeriesNum:
    out = dict(a)
    for m, v in b.items():
        cur = out.get(m)
        s = v if cur is None else cur + v
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


Term = tuple[int, int, int, Scalar]  # (i, j, k, coefficient of z**i w**j lam**k)


def _terms(num: SeriesNum) -> list[Term]:
    return [(i, j, k, v) for (i, j), lp in num.items() for k, v in lp.c.items()]


def _lowered(terms: list[Term]) -> tuple[int, list[tuple[int, int, int, int | complex]]]:
    """Root-free terms with each exact value as an integer numerator over the
    common denominator of the exact values, each numeric value as its complex
    double; returns (that denominator, the terms)."""
    den = common_denominator(v for *_, v in terms if v.z is None)
    return den, [(i, j, k, v.a.numerator * (den // v.a.denominator) if v.z is None else v.z)
                 for i, j, k, v in terms]


def _by_degree(terms: list) -> list:
    """Terms led by their total degree and sorted, so the truncation can end
    each inner product loop early."""
    return sorted((i + j, i, j, k, v) for i, j, k, v in terms)


def _num_mul(a: SeriesNum, b: SeriesNum, depth: int) -> SeriesNum:
    """Product of two numerators up to total degree depth, in the coefficient
    ring the module docstring describes."""
    if not a or not b:
        return {}
    ta, tb = _terms(a), _terms(b)
    if all_rational(v for *_, v in ta) and all_rational(v for *_, v in tb):
        da, xa = _lowered(ta)
        db, xb = _lowered(tb)
        den = da * db
        zero, nonzero = 0, bool

        def to_scalar(n: int) -> Scalar:
            return rational(Fraction(n, den))
    elif root_free(v for *_, v in ta) and root_free(v for *_, v in tb):
        return _per_term_mul(ta, tb, depth)
    else:
        xa, xb = ta, tb
        zero, nonzero, to_scalar = SC_ZERO, lambda v: not v.is_zero(), None
    xb = _by_degree(xb)
    # each output term receives its products in the order of a's terms
    acc: dict[tuple[int, int, int], object] = {}
    get = acc.get
    for i1, j1, k1, v1 in xa:
        room = depth - i1 - j1
        for d2, i2, j2, k2, v2 in xb:
            if d2 > room:
                break
            key = (i1 + i2, j1 + j2, k1 + k2)
            acc[key] = get(key, zero) + v1 * v2
    return _collect(acc, nonzero, to_scalar)


def _per_term_mul(ta: list[Term], tb: list[Term], depth: int) -> SeriesNum:
    """Product of root-free numerators, term by term as the module docstring
    describes.  Python's integer true division rounds correctly, so an
    unreduced ``n / den`` is the ``float`` of the reduced fraction that
    :meth:`Scalar.to_complex` and :class:`Scalar` addition use."""
    da, xa = _lowered(ta)
    db, xb = _lowered(tb)
    den = da * db
    # (..., integer numerator or None, complex value)
    ya = [(i, j, k, x, complex(x / da)) if x.__class__ is int else (i, j, k, None, x)
          for i, j, k, x in xa]
    yb = [(d, i, j, k, x, complex(x / db)) if x.__class__ is int else (d, i, j, k, None, x)
          for d, i, j, k, x in _by_degree(xb)]
    acc: dict[tuple[int, int, int], int | complex] = {}
    get = acc.get
    for i1, j1, k1, n1, c1 in ya:
        room = depth - i1 - j1
        for d2, i2, j2, k2, n2, c2 in yb:
            if d2 > room:
                break
            key = (i1 + i2, j1 + j2, k1 + k2)
            if n1 is None or n2 is None:
                s = get(key, 0j)
                acc[key] = (s if s.__class__ is complex else complex(s / den)) + c1 * c2
            else:
                s = get(key, 0)
                acc[key] = (s + n1 * n2 if s.__class__ is int
                            else s + complex(n1 * n2 / den))

    def to_scalar(v: int | complex) -> Scalar:
        return rational(Fraction(v, den)) if v.__class__ is int else Scalar.numeric(v)
    return _collect(acc, bool, to_scalar)


def _collect(acc: dict[tuple[int, int, int], object], nonzero, to_scalar) -> SeriesNum:
    """Series numerator from (i, j, k) sums in the order the keys first
    appeared, dropping sums that vanished."""
    out: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, k), v in acc.items():
        if nonzero(v):
            coeffs = out.get((i, j))
            if coeffs is None:
                coeffs = out[(i, j)] = {}
            coeffs[k] = v if to_scalar is None else to_scalar(v)
    return {m: LambdaPoly(coeffs) for m, coeffs in out.items()}


def _num_val(a: SeriesNum) -> int:
    """Lowest total degree present (0 for the zero numerator)."""
    return min((i + j for i, j in a), default=0)


def _direction_power(direction: str, k: int) -> SeriesNum:
    """(z, w, z+w or z-w)**k as an exact numerator."""
    if direction == "z":
        return {(k, 0): LP_ONE}
    if direction == "w":
        return {(0, k): LP_ONE}
    sign = 1 if direction == "zw_plus" else -1
    out: SeriesNum = {}
    for m in range(k + 1):
        coeff = Fraction(math.comb(k, m)) * (sign ** (k - m))
        out[(m, k - m)] = LambdaPoly.const(coeff)
    return out


def _div_linear(num: SeriesNum, direction: str, depth: int,
                tol: float) -> tuple[SeriesNum, SeriesNum, float]:
    """Divide a numerator by z, w, z+w or z-w.

    Returns (quotient valid to depth-1, remainder, max remainder magnitude).
    The remainder per homogeneous degree d is canonically supported on w**d
    for directions z, z+w, z-w and on z**d for direction w.
    """
    quot: SeriesNum = {}
    rem: SeriesNum = {}
    max_rem = 0.0
    if direction == "z":
        for (i, j), v in num.items():
            if i == 0:
                if not v.negligible(tol):
                    rem[(0, j)] = v
                    max_rem = max(max_rem, v.max_abs())
            else:
                quot[(i - 1, j)] = v
        return quot, rem, max_rem
    if direction == "w":
        for (i, j), v in num.items():
            if j == 0:
                if not v.negligible(tol):
                    rem[(i, 0)] = v
                    max_rem = max(max_rem, v.max_abs())
            else:
                quot[(i, j - 1)] = v
        return quot, rem, max_rem
    sign = 1 if direction == "zw_plus" else -1
    by_degree: dict[int, dict[int, LambdaPoly]] = {}
    for (i, j), v in num.items():
        by_degree.setdefault(i + j, {})[i] = v
    for d, comp in by_degree.items():
        if d == 0:
            v = comp.get(0, LP_ZERO)
            if not v.negligible(tol):
                rem[(0, 0)] = v
                max_rem = max(max_rem, v.max_abs())
            continue
        # synthetic division of the homogeneous component by z + sign*w
        q: dict[int, LambdaPoly] = {}
        carry = comp.get(d, LP_ZERO)
        q[d - 1] = carry
        for k in range(d - 1, 0, -1):
            carry = comp.get(k, LP_ZERO) - (carry.scale(sign) if sign == -1 else carry)
            q[k - 1] = carry
        rho = comp.get(0, LP_ZERO) - (q[0].scale(sign) if sign == -1 else q[0])
        if not rho.negligible(tol):
            rem[(0, d)] = rho
            max_rem = max(max_rem, rho.max_abs())
        for k, v in q.items():
            if not v.is_zero():
                quot[(k, d - 1 - k)] = v
    return quot, rem, max_rem


class LaurentSeries2:
    """Truncated bivariate Laurent value N/(z**a w**b (z+w)**c (z-w)**d)."""

    __slots__ = ("num", "poles", "depth")

    def __init__(self, num: SeriesNum, poles: tuple[int, int, int, int],
                 depth: int = EXACT_DEPTH):
        if any(e < 0 for e in poles):
            raise ValueError("pole exponents must be nonnegative")
        if depth < 0:
            raise ValueError("insufficient truncation depth for the requested operation")
        if depth < EXACT_DEPTH:
            # stored terms beyond the validity window are meaningless; keeping
            # them would corrupt later divisibility certificates
            num = {m: v for m, v in num.items() if m[0] + m[1] <= depth}
        self.num = num
        self.poles = poles
        self.depth = depth

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentSeries2":
        return cls({}, (0, 0, 0, 0))

    @classmethod
    def one(cls) -> "LaurentSeries2":
        return cls({(0, 0): LP_ONE}, (0, 0, 0, 0))

    @classmethod
    def from_coeffs(cls, coeffs: dict[tuple[int, int], ScalarLike],
                    poles: tuple[int, int, int, int] = (0, 0, 0, 0),
                    depth: int = EXACT_DEPTH) -> "LaurentSeries2":
        num = {}
        for m, v in coeffs.items():
            lp = v if isinstance(v, LambdaPoly) else LambdaPoly.const(v)
            if not lp.is_zero():
                num[m] = lp
        return cls(num, poles, depth)

    @classmethod
    def from_direction(cls, coeffs: list, pole_order: int, direction: str,
                       depth: int) -> "LaurentSeries2":
        """sum_k coeffs[k] * dir**(k - pole_order), coefficients low to high."""
        if direction not in DIVISORS:
            raise ValueError(f"unknown direction {direction}")
        num: SeriesNum = {}
        for k, coeff in enumerate(coeffs):
            lp = coeff if isinstance(coeff, LambdaPoly) else LambdaPoly.const(coeff)
            if lp.is_zero() or k > depth:
                continue
            num = _num_add(num, {m: v * lp for m, v in _direction_power(direction, k).items()})
        poles = [0, 0, 0, 0]
        if pole_order:
            poles[DIVISORS.index(direction)] = pole_order
        return cls(num, tuple(poles), depth)

    @classmethod
    def exp_direction(cls, rate: LambdaPoly, direction: str, depth: int) -> "LaurentSeries2":
        """exp(rate * dir) truncated to the requested depth."""
        coeffs = []
        term = LP_ONE
        for k in range(depth + 1):
            if k:
                term = term * rate.scale(Fraction(1, k))
            coeffs.append(term)
        return cls.from_direction(coeffs, 0, direction, depth)

    # -- basic operations ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def scale(self, factor) -> "LaurentSeries2":
        lp = factor if isinstance(factor, LambdaPoly) else LambdaPoly.const(factor)
        if lp.is_zero():
            return LaurentSeries2({}, self.poles, self.depth)
        if lp.degree() == 0:
            s = lp.coeff(0)
            return LaurentSeries2({m: v.scale(s) for m, v in self.num.items()},
                                  self.poles, self.depth)
        return LaurentSeries2({m: v * lp for m, v in self.num.items()},
                              self.poles, self.depth)

    def __neg__(self) -> "LaurentSeries2":
        return LaurentSeries2({m: -v for m, v in self.num.items()}, self.poles, self.depth)

    def __mul__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        depth = min(self.depth + _num_val(other.num), other.depth + _num_val(self.num))
        num = _num_mul(self.num, other.num, depth)
        poles = tuple(x + y for x, y in zip(self.poles, other.poles))
        return LaurentSeries2(num, poles, depth)

    def __add__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        poles = tuple(max(x, y) for x, y in zip(self.poles, other.poles))
        n1, d1 = self.num, self.depth
        n2, d2 = other.num, other.depth
        for idx, direction in enumerate(DIVISORS):
            e1 = poles[idx] - self.poles[idx]
            e2 = poles[idx] - other.poles[idx]
            if e1:
                n1 = _num_mul(n1, _direction_power(direction, e1), d1 + e1)
                d1 += e1
            if e2:
                n2 = _num_mul(n2, _direction_power(direction, e2), d2 + e2)
                d2 += e2
        return LaurentSeries2(_num_add(n1, n2), poles, min(d1, d2))

    def __sub__(self, other: "LaurentSeries2") -> "LaurentSeries2":
        return self + (-other)

    def flip(self, flip_z: bool, flip_w: bool) -> "LaurentSeries2":
        """Substitute z -> -z and/or w -> -w.

        Swapping exactly one sign exchanges the z+w and z-w divisors.
        """
        if not flip_z and not flip_w:
            return self
        a, b, c, d = self.poles
        num: SeriesNum = {}
        for (i, j), v in self.num.items():
            sign = (-1) ** ((i if flip_z else 0) + (j if flip_w else 0))
            num[(i, j)] = v if sign == 1 else -v
        if flip_z and flip_w:
            extra = (-1) ** (a + b + c + d)
            poles = (a, b, c, d)
        elif flip_z:
            extra = (-1) ** (a + c + d)
            poles = (a, b, d, c)
        else:
            extra = (-1) ** b
            poles = (a, b, d, c)
        if extra == -1:
            num = {m: -v for m, v in num.items()}
        return LaurentSeries2(num, poles, self.depth)

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
        num = dict(self.num)
        depth = self.depth
        poles = list(self.poles)
        singular = LaurentSeries2.zero()
        max_res = 0.0
        for idx, direction in enumerate(DIVISORS):
            while poles[idx] > 0:
                quot, rem, mag = _div_linear(num, direction, depth, tol)
                if rem and not want_singular:
                    break  # not divisible: this exponent is already minimal
                if rem:
                    max_res = max(max_res, mag)
                    singular = singular + LaurentSeries2(rem, tuple(poles), depth)
                num = quot
                depth -= 1
                poles[idx] -= 1
        result = LaurentSeries2(num, tuple(poles), depth)
        return (result, singular, max_res)

    def singular_part(self, tol: float = 0.0) -> "LaurentSeries2":
        return self.split_singular(tol)[1]

    def constant_term(self, tol: float = 0.0) -> LambdaPoly:
        """Value at the origin as a polynomial in lam; requires zero singular part."""
        regular, singular, max_res = self.split_singular(tol)
        if not singular.is_zero():
            raise ValueError(
                f"nonzero singular part (max obstruction {max_res:.3e}); "
                "the origin is not removable"
            )
        return regular.num.get((0, 0), LP_ZERO)

    # -- evaluation ----------------------------------------------------------

    def eval(self, z: complex, w: complex, lam: complex = 0.0) -> complex:
        total = 0j
        for (i, j), v in self.num.items():
            total += v.eval(Scalar.numeric(lam)).to_complex() * z ** i * w ** j
        a, b, c, d = self.poles
        return total / (z ** a * w ** b * (z + w) ** c * (z - w) ** d)

    def coeff(self, i: int, j: int) -> LambdaPoly:
        return self.num.get((i, j), LP_ZERO)

    def max_abs(self) -> float:
        return max((v.max_abs() for v in self.num.values()), default=0.0)

    def __repr__(self):
        a, b, c, d = self.poles
        den = "".join(s for s, e in (("z", a), ("w", b), ("(z+w)", c), ("(z-w)", d))
                      for _ in range(e)) or "1"
        terms = ", ".join(f"z^{i} w^{j}: {v!r}" for (i, j), v in sorted(self.num.items())[:8])
        return f"LaurentSeries2[depth={self.depth}]({terms} ...)/{den}"


def ls_inverse_regular(a: LaurentSeries2) -> LaurentSeries2:
    """Multiplicative inverse of a pole-free series with invertible constant term."""
    if any(a.poles):
        raise ValueError("only pole-free series can be inverted")
    return LaurentSeries2(_series_inverse(a.num, a.depth), (0, 0, 0, 0), a.depth)


# -- expansion of rational functions -----------------------------------------

def _series_inverse(num: SeriesNum, depth: int) -> SeriesNum:
    """Inverse of a unit numerator up to total degree depth.

    Runs on the coefficients as plain numbers (see :func:`_plain`), in the
    pair order and with the pop-on-zero of :class:`LambdaPoly` products and
    sums, so every value equals the one :class:`Scalar` arithmetic gives:
    Python promotes a ``Fraction`` meeting a ``complex`` through
    ``complex(float(q))``, as :class:`Scalar` does."""
    u0 = num.get((0, 0), LP_ZERO)
    if u0.is_zero():
        raise ZeroDivisionError("series inverse of a non-unit")
    if u0.degree() > 0:
        raise ValueError("cannot invert a unit whose constant term involves lam")
    inv0 = u0.coeff(0).inverse()
    neg_inv0 = _plain(-inv0)
    coeffs = {m: [(k, _plain(v)) for k, v in lp.c.items()] for m, lp in num.items()}
    monomials = sorted((m for m in num if m != (0, 0)), key=lambda m: m[0] + m[1])
    out: dict[tuple[int, int], dict[int, object]] = {(0, 0): {0: _plain(inv0)}}
    for d in range(1, depth + 1):
        for i in range(d + 1):
            acc: dict[int, object] = {}
            for i1, j1 in monomials:
                if i1 + j1 > d:
                    break
                if i1 > i or j1 > d - i:
                    continue
                prev = out.get((i - i1, d - i - j1))
                if prev is None:
                    continue
                # the LambdaPoly product num[(i1, j1)] * prev, then its sum into acc
                prod: dict[int, object] = {}
                for k1, v1 in coeffs[(i1, j1)]:
                    for k2, v2 in prev.items():
                        _add_term(prod, k1 + k2, v1 * v2)
                for k, v in prod.items():
                    _add_term(acc, k, v)
            if acc:
                out[(i, d - i)] = {k: v * neg_inv0 for k, v in acc.items()}
    return {m: LambdaPoly({k: _scalar(v) for k, v in c.items()}) for m, c in out.items()}


def _add_term(coeffs: dict[int, object], k: int, v) -> None:
    """coeffs[k] += v, dropping k when the sum is zero, as LambdaPoly sums do."""
    cur = coeffs.get(k)
    s = v if cur is None else cur + v
    if s.is_zero() if s.__class__ is Scalar else not s:
        coeffs.pop(k, None)
    else:
        coeffs[k] = s


def _plain(v: Scalar) -> Fraction | complex | Scalar:
    """A coefficient as a plain Python number: a ``Fraction`` for a rational,
    a ``complex`` for a numeric value; a root-extension value stays a Scalar."""
    if v.z is not None:
        return v.z
    return v if v.b else v.a


def _scalar(x: Fraction | complex | Scalar) -> Scalar:
    """Inverse of :func:`_plain`."""
    if x.__class__ is Fraction:
        return rational(x)
    if x.__class__ is complex:
        return Scalar.numeric(x)
    return x


def _expand_poly(poly: Poly2, depth: int, log_p: LambdaPoly) -> SeriesNum:
    """Substitute T1 = exp(-z*log_p), T2 = exp(-w*log_p) into a polynomial."""
    out: SeriesNum = {}
    for (i, j), coeff in poly.c.items():
        # exp(-(i*z + j*w)*log_p) truncated by total degree
        term: SeriesNum = {(0, 0): LambdaPoly.const(coeff)}
        if i or j:
            rate = -log_p  # multiplied by (i*z + j*w)
            lin: SeriesNum = {}
            if i:
                lin[(1, 0)] = rate.scale(i)
            if j:
                lin[(0, 1)] = rate.scale(j)
            expf: SeriesNum = {(0, 0): LP_ONE}
            power: SeriesNum = {(0, 0): LP_ONE}
            for k in range(1, depth + 1):
                power = _num_mul(power, lin, depth)
                if not power:
                    break
                expf = _num_add(expf, {m: v.scale(Fraction(1, math.factorial(k)))
                                       for m, v in power.items()})
            term = _num_mul(term, expf, depth)
        out = _num_add(out, term)
    return out


def _divisor_polys() -> list[Poly2]:
    """Polynomial counterparts of the four divisors: z, w, z+w, z-w vanish on
    T1 = 1, T2 = 1, T1*T2 = 1 and T1 = T2 respectively."""
    one = Scalar.exact(1)
    return [
        Poly2({(0, 0): one, (1, 0): -one}),          # 1 - T1
        Poly2({(0, 0): one, (0, 1): -one}),          # 1 - T2
        Poly2({(0, 0): one, (1, 1): -one}),          # 1 - T1*T2
        Poly2({(1, 0): one, (0, 1): -one}),          # T1 - T2
    ]


def _peel_divisors(poly: Poly2) -> tuple[Poly2, list[int]]:
    """Exactly factor out the divisor polynomials; returns (reduced, counts)."""
    from .exactalg import poly_div_exact
    counts = [0, 0, 0, 0]
    for idx, dpoly in enumerate(_divisor_polys()):
        while True:
            q = poly_div_exact(poly, dpoly)
            if q is None:
                break
            poly = q
            counts[idx] += 1
    return poly, counts


def _peeled_unit_series(idx: int, lp: LambdaPoly, depth: int) -> SeriesNum:
    """Series of (divisor polynomial)/(divisor form), a unit at the origin:

    (1 - exp(-u*L))/u = L - L**2 u/2 + ...  along u = z, w or z+w, and
    (T1-T2)/(z-w) = -exp(-w*L) * (1 - exp(-v*L))/v  along v = z-w.
    """
    coeffs = []
    sign = 1
    power = lp
    for k in range(depth + 1):
        coeffs.append(power.scale(Fraction(sign, math.factorial(k + 1))))
        power = power * lp
        sign = -sign
    if idx < 3:
        direction = ("z", "w", "zw_plus")[idx]
        return LaurentSeries2.from_direction(coeffs, 0, direction, depth).num
    base = LaurentSeries2.from_direction(coeffs, 0, "zw_minus", depth).num
    envelope = LaurentSeries2.exp_direction(-lp, "w", depth).num
    return _num_mul({m: -v for m, v in base.items()}, envelope, depth)


def ls_from_rational(f: RationalFunction2, depth: int = DEFAULT_DEPTH,
                     log_p: ScalarLike | LambdaPoly | str = "numeric") -> LaurentSeries2:
    """Laurent-expand a rational function in T1 = p**(-z), T2 = p**(-w).

    ``log_p`` selects how log p enters: "numeric" (a float), "lambda" (the
    formal symbol, for exact symbolic certificates), or any Scalar surrogate.
    Vanishing of numerator and denominator along the four divisors is peeled
    off exactly at the polynomial level, so pole exponents are minimal by
    construction; a denominator vanishing at the origin in any other
    direction raises.
    """
    if isinstance(log_p, str):
        if log_p == "numeric":
            lp = LambdaPoly.const(Scalar.numeric(math.log(f.p)))
        elif log_p == "lambda":
            lp = LambdaPoly.lam()
        else:
            raise ValueError(f"unknown log_p mode {log_p!r}")
    elif isinstance(log_p, LambdaPoly):
        lp = log_p
    else:
        lp = LambdaPoly.const(Scalar.wrap(log_p))

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
    den: SeriesNum = {(0, 0): LambdaPoly.const(f.scale)}
    for red, exp in den_units:
        factor = _expand_poly(red, depth, lp)
        for _ in range(exp):
            den = _num_mul(den, factor, depth)
    unit = den.get((0, 0), LP_ZERO)
    if unit.is_zero():
        raise ValueError("denominator vanishes at the origin in a non-divisor direction")
    series = _num_mul(num, _series_inverse(den, depth), depth)

    poles = [0, 0, 0, 0]
    for idx in range(4):
        net = den_counts[idx] - num_counts[idx]
        if num_counts[idx]:
            upow = _peeled_unit_series(idx, lp, depth)
            for _ in range(num_counts[idx]):
                series = _num_mul(series, upow, depth)
        if den_counts[idx]:
            uinv = _series_inverse(_peeled_unit_series(idx, lp, depth), depth)
            for _ in range(den_counts[idx]):
                series = _num_mul(series, uinv, depth)
        if net >= 0:
            poles[idx] = net
        else:
            series = _num_mul(series, _direction_power(DIVISORS[idx], -net), depth)
    return LaurentSeries2(series, tuple(poles), depth)


# -- cubic output -------------------------------------------------------------


@dataclass(frozen=True)
class CubicPolynomial:
    """c3*lam**3 + c2*lam**2 + c1*lam + c0."""

    c3: Scalar
    c2: Scalar
    c1: Scalar
    c0: Scalar

    @classmethod
    def from_lambda_poly(cls, lp: LambdaPoly) -> "CubicPolynomial":
        if lp.degree() > 3:
            raise ValueError(f"polynomial has degree {lp.degree()} > 3 in lam")
        return cls(lp.coeff(3), lp.coeff(2), lp.coeff(1), lp.coeff(0))

    def eval(self, lam: ScalarLike) -> Scalar:
        lam = Scalar.wrap(lam)
        return ((self.c3 * lam + self.c2) * lam + self.c1) * lam + self.c0


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


def _rand_poly(rng, terms: int, max_deg: int) -> Coeffs:
    out: Coeffs = {}
    for _ in range(terms):
        i = rng.randrange(max_deg + 1)
        j = rng.randrange(max_deg + 1 - i)
        val = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if val:
            out[(i, j)] = out.get((i, j), Fraction(0)) + val
    return {m: v for m, v in out.items() if v}


def _restrict_z_axis(h: Coeffs) -> dict[int, Fraction]:
    """Coefficients of h(z, 0)."""
    return {i: v for (i, j), v in h.items() if j == 0}


def _restrict_w_axis(h: Coeffs) -> dict[int, Fraction]:
    return {j: v for (i, j), v in h.items() if i == 0}


def _restrict_antidiag(h: Coeffs) -> dict[int, Fraction]:
    """Coefficients of h(-t, t)."""
    out: dict[int, Fraction] = {}
    for (i, j), v in h.items():
        out[i + j] = out.get(i + j, Fraction(0)) + v * (-1) ** i
    return {k: v for k, v in out.items() if v}


def _embed_in_w(u: dict[int, Fraction]) -> Coeffs:
    return {(0, k): v for k, v in u.items()}


def _embed_in_z(u: dict[int, Fraction]) -> Coeffs:
    return {(k, 0): v for k, v in u.items()}


def _poly_add(*parts: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for part in parts:
        for m, v in part.items():
            out[m] = out.get(m, Fraction(0)) + v
    return {m: v for m, v in out.items() if v}


def _poly_shift(h: Coeffs, di: int, dj: int) -> Coeffs:
    return {(i + di, j + dj): v for (i, j), v in h.items()}


def _poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, Fraction(0)) + v1 * v2
    return {m: v for m, v in out.items() if v}


def random_symmetric_quadruple(rng, terms: int = 5, max_deg: int = 4
                               ) -> tuple[Coeffs, Coeffs, Coeffs, Coeffs]:
    """Random (h1,h2,h3,h4) satisfying all six cancellation constraints exactly."""
    h1 = _poly_add({(0, 0): Fraction(rng.randrange(1, 6))}, _rand_poly(rng, terms, max_deg))
    r2 = _rand_poly(rng, terms, max_deg)
    h2 = _poly_add(_embed_in_w(_restrict_w_axis(h1)), _poly_shift(r2, 1, 0))

    # delta(t) = (h1(0,t) - h1(t,0)) / t
    w_axis = _restrict_w_axis(h1)
    z_axis = _restrict_z_axis(h1)
    delta = {k - 1: w_axis.get(k, Fraction(0)) - z_axis.get(k, Fraction(0))
             for k in set(w_axis) | set(z_axis) if k >= 1}
    delta = {k: v for k, v in delta.items() if v}
    r3 = _poly_add(r2, _embed_in_w(delta),
                   _poly_mul({(1, 0): Fraction(1), (0, 1): Fraction(-1)},
                             _rand_poly(rng, terms, max_deg)))
    h3 = _poly_add(_embed_in_z(z_axis), _poly_shift(r3, 0, 1))

    base = _poly_add(_embed_in_z(_restrict_z_axis(h2)), _embed_in_w(_restrict_w_axis(h3)),
                     {(0, 0): -h1.get((0, 0), Fraction(0))})
    # eta(t) = (base(-t,t) - h1(-t,t)) / t**2
    anti_base = _restrict_antidiag(base)
    anti_h1 = _restrict_antidiag(h1)
    diff = {k: anti_base.get(k, Fraction(0)) - anti_h1.get(k, Fraction(0))
            for k in set(anti_base) | set(anti_h1)}
    diff = {k: v for k, v in diff.items() if v}
    if any(k < 2 for k in diff):
        raise AssertionError("constraint bookkeeping failed: antidiagonal not divisible by t^2")
    eta = {k - 2: v for k, v in diff.items()}
    h4 = _poly_add(base,
                   _poly_mul({(1, 1): Fraction(1)},
                             _poly_add(_embed_in_w(eta),
                                       _poly_mul({(1, 0): Fraction(1), (0, 1): Fraction(1)},
                                                 _rand_poly(rng, terms, max_deg)))))
    return h1, h2, h3, h4


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
    """G(z,w)h1 + G(-z,w)h2 + G(z,-w)h3 + G(-z,-w)h4."""
    h1, h2, h3, h4 = [
        LaurentSeries2.from_coeffs({m: Scalar.exact(v) for m, v in h.items()},
                                   depth=EXACT_DEPTH)
        for h in quadruple
    ]
    return (g * h1 + g.flip(True, False) * h2
            + g.flip(False, True) * h3 + g.flip(True, True) * h4)
