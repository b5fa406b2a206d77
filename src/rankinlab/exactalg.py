"""Exact arithmetic for bivariate rational functions in T1 = p**(-z), T2 = p**(-w).

A :class:`Poly2` lives in one of two rings: ``int`` numerators ``terms: (i, j)
-> int`` over one positive ``den``, reduced so equal polynomials have equal
forms, or, with any numeric coefficient, ``den = None`` and ``complex`` values.
Coefficients enter through ``scalars._plain``: square roots enter only as
evaluation points.  Zero coefficients are never stored, and :attr:`Poly2.c`
is a ``Scalar`` view built per read.

**Rings.**  Integer forms add, multiply, divide and compare on the integers,
anything else on complex values under the ring rule of
:mod:`rankinlab.scalars`, and a monomial whose sum reaches zero is dropped,
so key order does not depend on the ring.  A sum whose numeric values all
cancel stays integer.
Numeric polynomials compare only at a point: ``==`` raises ``ValueError``.
At exact points of one field Q or Q(sqrt(s)), :meth:`Poly2.eval` and
:meth:`RationalFunction2.eval_t` sum on integers and build one Scalar.
An integer product with a one-term operand shifts and scales the other
operand, and :meth:`RationalFunction2.eval_t` builds one power table per point.

A :class:`RationalFunction2` is a numerator over a multiset of monic
factors, every one a :class:`Poly2` on the two rings: a factor's lead is
divided into the numerator, so arithmetic needs no gcd and holds no
denominator constant, and equality cross-multiplies after cancelling shared
factors; :meth:`RationalFunction2.canonical` cancels the whole factors that
divide the numerator.  :meth:`RationalFunction2.monomial` puts its negative
exponents in one factor entry, the monomial T1**(-i) T2**(-j) with exponent 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import (SC_ONE, SC_ZERO, Scalar, ScalarLike, _ZERO, _binary_power, _complex, _inv,
                      _lifted, _plain, _pow, _ring, _square_split)

Monomial = tuple[int, int]
POLE_TOL = 1e-12


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a pole."""


class Poly2:
    """Sparse bivariate polynomial in one of the two rings above."""

    __slots__ = ("den", "terms")

    def __init__(self, coeffs: dict[Monomial, ScalarLike] | None = None):
        values = {m: q for m, v in (coeffs or {}).items() if (q := _plain(v))}
        if any(q.__class__ is complex for q in values.values()):
            self.den, self.terms = None, {m: complex(q) for m, q in values.items()}
        else:
            den = math.lcm(*[q.denominator for q in values.values()])
            self.den, self.terms = den, {m: q.numerator * (den // q.denominator)
                                         for m, q in values.items()}

    @classmethod
    def _make(cls, den: int | None, terms: dict) -> "Poly2":
        self = object.__new__(cls)
        self.den, self.terms = den if terms else 1, terms
        return self

    @property
    def c(self) -> dict[Monomial, Scalar]:
        """The coefficients as exact or numeric Scalars, built on each read."""
        return _lifted(self.terms, self.den)

    def _complex(self) -> dict[Monomial, complex]:
        d = self.den
        return self.terms if d is None else {m: complex(n / d) for m, n in self.terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike) -> "Poly2":
        return cls.monomial(0, 0, value)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: ScalarLike = 1) -> "Poly2":
        if i < 0 or j < 0:
            raise ValueError("Poly2 exponents must be nonnegative")
        q = _plain(coeff)
        if q.__class__ is complex:
            return cls._make(None, {(i, j): q} if q else {})
        return cls._make(q.denominator, {(i, j): q.numerator} if q else {})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self) -> Monomial:
        """Lexicographically largest monomial (T1 first)."""
        return max(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        if self.den is None or other.den is None:
            raise ValueError("numeric polynomials compare only at a point")
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """Sorted ``(den, ((i, j), n), ...)``, or ``(((i, j), z), ...)`` if complex."""
        if self.den is not None:
            return (self.den, *sorted(self.terms.items()))
        return tuple(sorted(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        da, db = self.den, other.den
        if da is None or db is None:
            return _complex_sum(self, other)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        out = dict(self.terms) if fa == 1 else {m: n * fa for m, n in self.terms.items()}
        return _reduced(den, _accumulate(out, ((m, n * fb) for m, n in other.terms.items())))

    def __neg__(self) -> "Poly2":
        return Poly2._make(self.den, {m: -v for m, v in self.terms.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        if self.den is None or other.den is None:
            return Poly2._make(None, _mul_terms(self._complex(), other._complex(), -0j))
        return _int_mul(self.den, self.terms, other.den, other.terms)

    def scale(self, factor: ScalarLike) -> "Poly2":
        f = _plain(factor)
        if not f:
            return Poly2._make(1, {})
        if self.den is not None and f.__class__ is not complex:
            return self._times(f)
        return Poly2._make(None, {m: v * complex(f) for m, v in self._complex().items()})

    def _times(self, q: Fraction | int) -> "Poly2":
        """The integer form times the nonzero rational q."""
        n = q.numerator
        return _reduced(self.den * q.denominator, {m: v * n for m, v in self.terms.items()})

    def shift(self, di: int, dj: int) -> "Poly2":
        """Multiply by the monomial T1**di * T2**dj (exponents must stay >= 0)."""
        out = {}
        for (i, j), v in self.terms.items():
            if i + di < 0 or j + dj < 0:
                raise ValueError("negative exponent after shift")
            out[(i + di, j + dj)] = v
        return Poly2._make(self.den, out)

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("use RationalFunction2 for negative powers")
        return self if n == 1 else _binary_power(self, n, _ONE)

    def eval(self, t1: Scalar, t2: Scalar) -> Scalar:
        """Sum of ``v * t1**i * t2**j`` in key order, each power computed once:
        on integers at exact points of one field, else on the points' rings."""
        if not self.terms:
            return SC_ZERO
        den = self.den
        if den is not None and _one_field(t1, t2):
            return _scalar(*_eval_exact(den, self.terms, t1, t2), _root(t1, t2))
        x, y = _ring(t1), _ring(t2)
        total, pow1, pow2 = Fraction(0), {}, {}
        for (i, j), v in self.terms.items():
            x1 = pow1.get(i)
            if x1 is None:
                x1 = pow1[i] = _pow(x, i)
            x2 = pow2.get(j)
            if x2 is None:
                x2 = pow2[j] = _pow(y, j)
            total = total + (v if den is None else Fraction(v, den)) * x1 * x2
        return Scalar.wrap(total)

    def magnitude(self, t1: Scalar, t2: Scalar) -> float:
        """Sum of ``|v * t1**i * t2**j|``: the size a numeric value is zero against."""
        a1, a2 = abs(t1.to_complex()), abs(t2.to_complex())
        return sum(abs(v) * a1 ** i * a2 ** j for (i, j), v in self._complex().items())

    def to_numeric(self) -> "Poly2":
        return Poly2._make(None, self._complex())

    def __repr__(self):
        return " + ".join(f"({v})" + "".join(f"*T{k}^{e}" if e > 1 else f"*T{k}"
                                             for k, e in ((1, i), (2, j)) if e)
                          for (i, j), v in sorted(self.c.items(), reverse=True)) or "0"


_ONE = Poly2._make(1, {(0, 0): 1})


# -- the two rings ---------------------------------------------------------------

def _reduced(den: int, terms: dict[Monomial, int]) -> Poly2:
    """The integer form of terms over den, both divided by their gcd."""
    g = math.gcd(den, *terms.values())
    if g == 1:
        return Poly2._make(den, terms)
    return Poly2._make(den // g, {m: n // g for m, n in terms.items()})


def _accumulate(out: dict, items, zero=0) -> dict:
    """Add (monomial, value) items into out in order, dropping a monomial whose
    sum reaches zero.  ``zero`` is 0, or -0j: unlike 0j, -0j + v is v bit for bit."""
    get, pop = out.get, out.pop
    for m, v in items:
        s = get(m, zero) + v
        if s:
            out[m] = s
        else:
            pop(m, None)
    return out


def _mul_terms(ta: dict, tb: dict, zero=0) -> dict:
    """The term products summed, ta's terms outer, as :func:`_accumulate` adds."""
    xb = [(i, j, v) for (i, j), v in tb.items()]
    acc = {}
    get, pop = acc.get, acc.pop
    for (i1, j1), v1 in ta.items():
        for i2, j2, v2 in xb:
            m = (i1 + i2, j1 + j2)
            s = get(m, zero) + v1 * v2
            if s:
                acc[m] = s
            else:
                pop(m, None)
    return acc


def _int_mul(da: int, ta: dict, db: int, tb: dict) -> Poly2:
    """The integer product; a one-term operand shifts and scales the other,
    in the other's key order."""
    if len(tb) == 1:
        da, ta, db, tb = db, tb, da, ta
    if len(ta) != 1:
        return _reduced(da * db, _mul_terms(ta, tb))
    ((i1, j1), v1), = ta.items()
    return _reduced(da * db, {(i1 + i2, j1 + j2): v1 * v2 for (i2, j2), v2 in tb.items()})


def _complex_sum(a: Poly2, b: Poly2) -> Poly2:
    """a + b, one of them complex (integer if the numeric values cancel)."""
    out = _accumulate(dict(a._complex()), b._complex().items(), -0j)
    for numeric, exact in ((a, b), (b, a)):
        if exact.den is not None and not any(m in out for m in numeric.terms):
            return _reduced(exact.den, {m: exact.terms[m] for m in out})
    return Poly2._make(None, out)


def _powers(t: Scalar, top: int, base: int) -> tuple[list[tuple[int, int]], int]:
    """For t = (x + y*sqrt(base)) / e: the pairs (u_k, v_k) with
    t**k = (u_k + v_k*sqrt(base)) / e**top for k = 0..top, and e**top."""
    a, b = t.a, t.b
    e = math.lcm(a.denominator, b.denominator)
    x, y = a.numerator * (e // a.denominator), b.numerator * (e // b.denominator)
    out = []
    u, v = 1, 0
    for _ in range(top):
        out.append((u, v))
        u, v = u * x + v * y * base, u * y + v * x
    out.append((u, v))
    f = 1
    for k in range(top - 1, -1, -1):
        f *= e
        u, v = out[k]
        out[k] = (u * f, v * f)
    return out, f


def _tables(t1: Scalar, t2: Scalar, forms, base: int) -> tuple:
    """The :func:`_powers` of t1 and t2 up to the largest exponents in forms."""
    return (_powers(t1, max((i for terms in forms for i, _ in terms), default=0), base),
            _powers(t2, max((j for terms in forms for _, j in terms), default=0), base))


def _one_field(t1: Scalar, t2: Scalar) -> bool:
    """Both points exact, in one quadratic field."""
    return t1.z is None and t2.z is None and not (t1.b and t2.b and t1.base != t2.base)


def _root(t1: Scalar, t2: Scalar) -> Fraction | None:
    return t1.base if t1.b else t2.base if t2.b else None


def _eval_exact(den: int, terms: dict[Monomial, int], t1: Scalar, t2: Scalar,
                tables: tuple | None = None) -> tuple[int, int, int]:
    """The integer form at points of one field Q(sqrt(root)), summed on
    integers: (re, im, d) for the value (re + im*sqrt(root)) / d, read from
    ``tables`` if given (:func:`_tables` over terms and more)."""
    root = _root(t1, t2)
    base = int(root) if root is not None else 0
    (p1, e1), (p2, e2) = tables or _tables(t1, t2, (terms,), base)
    re = im = 0
    if root is None:
        for (i, j), n in terms.items():
            re += n * p1[i][0] * p2[j][0]
    else:
        for (i, j), n in terms.items():
            u1, v1 = p1[i]
            u2, v2 = p2[j]
            re += n * (u1 * u2 + base * v1 * v2)
            im += n * (u1 * v2 + v1 * u2)
    return re, im, den * e1 * e2


def _scalar(re: int, im: int, d: int, root: Fraction | None) -> Scalar:
    b = Fraction(im, d)
    return Scalar(Fraction(re, d), b, root if b else None, None)


# -- exact division ---------------------------------------------------------

def poly_div_exact(f: Poly2, g: Poly2) -> Poly2 | None:
    """Return q with f == q*g, or None when g does not divide f exactly."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return Poly2()
    if f.den is not None and g.den is not None:
        return _int_div(f, g)
    return _complex_div(f, g)


def _int_div(f: Poly2, g: Poly2) -> Poly2 | None:
    """poly_div_exact of integer forms: s*F = Q*G + R on the numerators, R and
    Q scaled when a lead quotient is not an integer; one gcd at the end."""
    gi, gj = glead = max(g.terms)
    c = g.terms[glead]
    gt = [(i, j, n) for (i, j), n in g.terms.items()]
    rem = dict(f.terms)
    get, pop = rem.get, rem.pop
    q: dict[Monomial, int] = {}
    s = 1
    while rem:
        ri, rj = rlead = max(rem)
        di, dj = ri - gi, rj - gj
        if di < 0 or dj < 0:
            return None
        n = rem[rlead]
        k = math.gcd(n, c) if c > 0 else -math.gcd(n, c)
        a, b = c // k, n // k  # a > 0 and a*n == b*c
        if a != 1:
            for m in rem:
                rem[m] *= a
            for m in q:
                q[m] *= a
            s *= a
        q[(di, dj)] = b
        for i, j, v in gt:
            m = (di + i, dj + j)
            t = get(m, 0) - b * v
            if t:
                rem[m] = t
            else:
                pop(m, None)
    return _reduced(s * f.den, {m: v * g.den for m, v in q.items()})


def _complex_div(f: Poly2, g: Poly2) -> Poly2 | None:
    """poly_div_exact on complex values, each step dropping the remainder's lead."""
    gi, gj = glead = max(g.terms)
    ginv = 1.0 / g.terms[glead] if g.den is None else complex(g.den / g.terms[glead])
    gt = [(i, j, v) for (i, j), v in g._complex().items() if (i, j) != glead]
    rem = dict(f._complex())
    q = {}
    while rem:
        ri, rj = rlead = max(rem)
        di, dj = ri - gi, rj - gj
        if di < 0 or dj < 0:
            return None
        coeff = q[(di, dj)] = rem.pop(rlead) * ginv
        _accumulate(rem, (((di + i, dj + j), -(v * coeff)) for i, j, v in gt), -0j)
    return Poly2._make(None, {m: v for m, v in q.items() if v})


# -- rational functions ------------------------------------------------------


class RationalFunction2:
    """num / prod(factor**exp), each factor monic, with the residue cardinality p attached."""

    __slots__ = ("num", "fac", "p")
    scale = SC_ONE  # always 1; certbench's tracer reads it

    def __init__(self, num: Poly2, fac: dict[tuple, tuple[Poly2, int]], p: int):
        self.num = num
        self.fac = fac
        self.p = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike, p: int) -> "RationalFunction2":
        return cls(Poly2.const(value), {}, p)

    @classmethod
    def from_poly(cls, poly: Poly2, p: int) -> "RationalFunction2":
        return cls(poly, {}, p)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: ScalarLike, p: int) -> "RationalFunction2":
        """coeff * T1**i * T2**j, negative exponents making one monic monomial factor."""
        num = Poly2.monomial(max(i, 0), max(j, 0), coeff)
        if i >= 0 and j >= 0:
            return cls(num, {}, p)
        den = Poly2.monomial(max(-i, 0), max(-j, 0))
        return cls(num, {den.key(): (den, 1)}, p)

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "RationalFunction2"):
        if self.p != other.p:
            raise ValueError(f"mixed residue cardinalities {self.p} and {other.p}")

    def _exponents(self, other: "RationalFunction2"):
        """(key, factor, exponent here, exponent in other) over both sides' factors."""
        for key in dict.fromkeys([*self.fac, *other.fac]):
            p1, p2 = self.fac.get(key), other.fac.get(key)
            yield key, (p1 or p2)[0], p1[1] if p1 else 0, p2[1] if p2 else 0

    def den_expanded(self) -> Poly2:
        den = _ONE
        for poly, exp in self.fac.values():
            den = den * poly ** exp
        return den

    def with_factor(self, poly: Poly2, exp: int = 1) -> "RationalFunction2":
        """Divide by poly**exp, keeping the denominator factored: poly made
        monic, its lead's power divided into the numerator."""
        if poly.is_zero():
            raise ZeroDivisionError("zero denominator factor")
        num = self.num
        lm = poly.lead_monomial()
        if poly.den is None:
            lead = poly.terms[lm]
            power = _pow(lead, exp)
            if not power:
                raise PoleError(f"factor lead {lead!r} to the power {exp} underflows to zero")
            poly = poly.scale(_inv(lead))
            num = num.scale(_inv(power))
        elif poly.terms[lm] != poly.den:
            lead = Fraction(poly.terms[lm], poly.den)
            poly = poly._times(_inv(lead))
            num = num.scale(_inv(_pow(lead, exp)))
        if len(poly.terms) == 1 and lm == (0, 0):
            return RationalFunction2(num, dict(self.fac), self.p)
        key = poly.key()
        fac = dict(self.fac)
        cur = fac.get(key)
        fac[key] = (poly, exp if cur is None else cur[1] + exp)
        return RationalFunction2(num, fac, self.p)

    # -- field operations ----------------------------------------------------

    def __mul__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            return RationalFunction2(self.num.scale(other), dict(self.fac), self.p)
        self._check(other)
        fac = dict(self.fac)
        for key, (poly, exp) in other.fac.items():
            cur = fac.get(key)
            fac[key] = (poly, exp if cur is None else cur[1] + exp)
        return RationalFunction2(self.num * other.num, fac, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction2":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        return RationalFunction2(self.den_expanded(), {}, self.p).with_factor(self.num)

    def __truediv__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            num = self.num.scale(_inv(_plain(other)))
            return RationalFunction2(num, dict(self.fac), self.p)
        self._check(other)
        res = RationalFunction2(self.num * other.den_expanded(), dict(self.fac), self.p)
        return res.with_factor(other.num)

    def __neg__(self) -> "RationalFunction2":
        return RationalFunction2(-self.num, dict(self.fac), self.p)

    def __add__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            other = RationalFunction2.const(other, self.p)
        self._check(other)
        n1, n2 = self.num, other.num
        fac: dict[tuple, tuple[Poly2, int]] = {}
        for key, poly, e1, e2 in self._exponents(other):
            e = max(e1, e2)
            fac[key] = (poly, e)
            if e > e1:
                n1 = n1 * poly ** (e - e1)
            if e > e2:
                n2 = n2 * poly ** (e - e2)
        return RationalFunction2(n1 + n2, fac, self.p)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction2":
        return self + (-other)

    def __pow__(self, n: int) -> "RationalFunction2":
        if n < 0:
            return self.inverse() ** (-n)
        return _binary_power(self, n, RationalFunction2.const(1, self.p))

    # -- equality and canonical form ----------------------------------------

    def equals(self, other: "RationalFunction2") -> bool:
        """Exact equality: cross-multiplication after cancelling shared factors."""
        self._check(other)
        extra1 = extra2 = _ONE
        for _, poly, e1, e2 in self._exponents(other):
            if e1 > e2:
                extra2 = extra2 * poly ** (e1 - e2)
            elif e2 > e1:
                extra1 = extra1 * poly ** (e2 - e1)
        return self.num * extra1 == other.num * extra2

    def canonical(self) -> tuple[Poly2, Poly2]:
        """(num, den): each whole factor cancelled as often as it divides num,
        den the product of the rest, monic in lex order as every factor is."""
        num, den = self.num, _ONE
        if not num.is_zero() and (num.den is None or any(
                poly.den is None for poly, _ in self.fac.values())):
            raise ValueError("canonical form is defined only for exact rational functions")
        for poly, exp in self.fac.values():
            while exp and (q := poly_div_exact(num, poly)) is not None:
                num, exp = q, exp - 1
            den = den * poly ** exp
        return num, den

    # -- evaluation ----------------------------------------------------------

    def eval_t(self, t1: ScalarLike, t2: ScalarLike) -> Scalar:
        """Evaluate at given T-values (on integers as the ring rule says).  An
        exact factor zero is cancelled against the numerator, or raises
        :class:`PoleError`; so does a numeric factor value at most
        ``POLE_TOL`` times its :meth:`Poly2.magnitude`."""
        t1, t2 = Scalar.wrap(t1), Scalar.wrap(t2)
        num = self.num
        if (_one_field(t1, t2) and num.den is not None
                and all(poly.den is not None for poly, _ in self.fac.values())):
            root = _root(t1, t2)
            base = int(root) if root is not None else 0
            tables = _tables(t1, t2, [num.terms, *(poly.terms for poly, _ in self.fac.values())],
                             base)
            x, y, e = 1, 0, 1
            for poly, exp in self.fac.values():
                fx, fy, fe = _eval_exact(poly.den, poly.terms, t1, t2, tables)
                if not (fx or fy):
                    num = _cancel(num, poly, exp)
                    continue
                for _ in range(exp):
                    x, y, e = x * fx + base * y * fy, x * fy + y * fx, e * fe
            nx, ny, ne = _eval_exact(num.den, num.terms, t1, t2, tables)
            # divided by (x + y*r)/e: times e*(x - y*r) over the norm
            return _scalar(e * (nx * x - base * ny * y), e * (ny * x - nx * y),
                           ne * (x * x - base * y * y), root)
        den_val = Fraction(1)
        for poly, exp in self.fac.values():
            val = _ring(poly.eval(t1, t2))
            if val.__class__ is not complex and not val:  # a root value is never 0
                num = _cancel(num, poly, exp)
                continue
            if val.__class__ is complex and abs(val) <= POLE_TOL * poly.magnitude(t1, t2):
                raise PoleError("denominator factor vanishes within tolerance")
            den_val = den_val * _pow(val, exp)
        return Scalar.wrap(_ring(num.eval(t1, t2)) * _inv(den_val))

    def eval_zw(self, z: ScalarLike, w: ScalarLike) -> Scalar:
        """Evaluate after substituting T1 = p**(-z), T2 = p**(-w)."""
        return self.eval_t(power_of_p(self.p, z, -1), power_of_p(self.p, w, -1))

    def to_numeric(self) -> "RationalFunction2":
        out = RationalFunction2(self.num.to_numeric(), {}, self.p)
        for poly, exp in self.fac.values():
            out = out.with_factor(poly.to_numeric(), exp)
        return out

    def __repr__(self):
        den = self.den_expanded()
        return f"({self.num!r}) / ({den!r})"


def _cancel(num: Poly2, poly: Poly2, exp: int) -> Poly2:
    """num / poly**exp for a factor vanishing at the point, or PoleError."""
    for _ in range(exp):
        num = poly_div_exact(num, poly)
        if num is None:
            raise PoleError("evaluation at a non-removable pole")
    return num


def power_of_p(p: int, exponent: ScalarLike, sign: int = 1):
    """p**(sign*exponent) on the ring of its value (``scalars._ring``): a
    ``Fraction`` for an integer exponent, a ``Q(sqrt p)`` value for a half-integer
    one, built on integers from one square split of p as ``Scalar.root`` builds
    it, else a ``complex``."""
    e = exponent if exponent.__class__ in (int, Fraction, complex) else _ring(exponent)
    if e.__class__ is Scalar or (e.__class__ is not complex and e.denominator > 2):
        e = _complex(e)
    if e.__class__ is complex:
        return complex(p) ** (sign * e)
    d = e.denominator
    k = e.numerator * sign // d
    if d == 1:
        return Fraction(p ** k) if k >= 0 else Fraction(1, p ** -k)
    square, free = _square_split(p)  # p**k sqrt(p) = p**k square sqrt(free)
    coeff = Fraction(p ** k * square) if k >= 0 else Fraction(square, p ** -k)
    return coeff if free == 1 else Scalar(_ZERO, coeff, Fraction(free), None)


def nonzero_factor(factor, what: str):
    """``factor``, a Scalar or a plain ``Fraction`` or ``complex``, or
    :class:`PoleError` naming ``what`` at an exact zero or a numeric modulus
    below 1e-13."""
    if factor.__class__ is Scalar:
        tiny = factor.is_zero() if factor.is_exact else abs(factor.to_complex()) < 1e-13
    else:
        tiny = abs(factor) < 1e-13 if factor.__class__ is complex else not factor
    if tiny:
        raise PoleError(f"{what} pole")
    return factor


def rf_equal(a: RationalFunction2, b: RationalFunction2) -> bool:
    return a.equals(b)

