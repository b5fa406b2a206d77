"""Exact arithmetic for bivariate rational functions in T1 = p**(-z), T2 = p**(-w).

Polynomials are sparse dictionaries mapping exponent pairs to :class:`Scalar`
coefficients.  A :class:`RationalFunction2` keeps its denominator as a
multiset of normalised factors; arithmetic therefore never needs polynomial
gcds, while equality uses cross-multiplication after cancelling shared
factors.  A fully reduced ``num/den`` pair (common factors removed by exact
bivariate gcd, content-normalised) is available through
:meth:`RationalFunction2.canonical`.

Polynomial products run in one coefficient ring chosen per product, as
:mod:`rankinlab.laurent` series products do (which add a kernel for mixed
exact and numeric data):

* every coefficient of both operands a plain rational: Python integers over
  each operand's common denominator (FLINT's ``fmpq_poly`` layout), reduced
  once per output term;
* otherwise (root-extension, numeric or mixed data) :class:`Scalar`.

Both loops visit the term pairs in the same order and drop a monomial whose
running sum reaches zero, so it re-enters at the end; the key order of a
product, and with it the float summation order of a later numeric
:meth:`Poly2.eval`, does not depend on the ring.  Sums and scalings of plain
rationals build their :class:`Scalar` results straight from ``Fraction``
arithmetic.  Coefficient dictionaries stay ``dict[Monomial, Scalar]`` between
operations.

Everything is immutable in practice: operations return new objects and no
function mutates its arguments, so values can be shared freely across
threads.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (SC_ONE, SC_ZERO, Scalar, ScalarLike, all_rational, common_denominator,
                      rational)

Monomial = tuple[int, int]


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a pole."""


class Poly2:
    """Sparse bivariate polynomial with Scalar coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[Monomial, Scalar] | None = None):
        self.c: dict[Monomial, Scalar] = coeffs if coeffs is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike) -> "Poly2":
        v = Scalar.wrap(value)
        return cls({} if v.is_zero() else {(0, 0): v})

    @classmethod
    def monomial(cls, i: int, j: int, coeff: ScalarLike = 1) -> "Poly2":
        v = Scalar.wrap(coeff)
        if i < 0 or j < 0:
            raise ValueError("Poly2 exponents must be nonnegative")
        return cls({} if v.is_zero() else {(i, j): v})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def is_exact(self) -> bool:
        return all(v.is_exact for v in self.c.values())

    def deg1(self) -> int:
        return max((i for i, _ in self.c), default=-1)

    def deg2(self) -> int:
        return max((j for _, j in self.c), default=-1)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.c), default=-1)

    def lead_monomial(self) -> Monomial:
        """Lexicographically largest monomial (T1 first)."""
        return max(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        if set(self.c) != set(other.c):
            return False
        return all(self.c[m] == other.c[m] for m in self.c)

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """Hashable canonical form for factor bookkeeping: per monomial, in
        sorted order, ``(m, a.num, a.den, b.num, b.den, base or 0)`` for an
        exact coefficient ``a + b*sqrt(base)`` (squarefree integer base) and
        ``(m, z)`` for a numeric one.  Integers only, so hashing is cheap and
        does not depend on object addresses."""
        items = []
        for m in sorted(self.c):
            s = self.c[m]
            if s.z is None:
                a, b = s.a, s.b
                items.append((m, a.numerator, a.denominator, b.numerator, b.denominator,
                              s.base.numerator if b else 0))
            else:
                items.append((m, s.z))
        return tuple(items)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.c)
        for m, v in other.c.items():
            cur = out.get(m)
            if cur is None:
                s = v
            elif cur.z is None and v.z is None and not cur.b and not v.b:
                s = rational(cur.a + v.a)
            else:
                s = cur + v
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2({m: -v for m, v in self.c.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        """Product in the coefficient ring the module docstring describes."""
        if not self.c or not other.c:
            return Poly2()
        if all_rational(self.c.values()) and all_rational(other.c.values()):
            return self._rational_mul(other)
        out: dict[Monomial, Scalar] = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                m = (i1 + i2, j1 + j2)
                prod = v1 * v2
                cur = out.get(m)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly2(out)

    def _rational_mul(self, other: "Poly2") -> "Poly2":
        """Product of two plain-rational polynomials: integer numerators over
        each operand's common denominator, the pair order and pop-on-zero of
        the Scalar loop, one Fraction per output term."""
        da, db = common_denominator(self.c.values()), common_denominator(other.c.values())
        xb = [(i, j, v.a.numerator * (db // v.a.denominator)) for (i, j), v in other.c.items()]
        acc: dict[Monomial, int] = {}
        get, pop = acc.get, acc.pop
        for (i1, j1), v1 in self.c.items():
            n1 = v1.a.numerator * (da // v1.a.denominator)
            for i2, j2, n2 in xb:
                m = (i1 + i2, j1 + j2)
                s = get(m, 0) + n1 * n2
                if s:
                    acc[m] = s
                else:
                    pop(m, None)
        den = da * db
        return Poly2({m: rational(Fraction(n, den)) for m, n in acc.items()})

    def scale(self, factor: ScalarLike) -> "Poly2":
        f = Scalar.wrap(factor)
        if f.is_zero():
            return Poly2()
        if f.is_rational():
            fa = f.a
            return Poly2({m: rational(v.a * fa) if v.z is None and not v.b else v * f
                          for m, v in self.c.items()})
        return Poly2({m: v * f for m, v in self.c.items()})

    def shift(self, di: int, dj: int) -> "Poly2":
        """Multiply by the monomial T1**di * T2**dj (exponents must stay >= 0)."""
        out = {}
        for (i, j), v in self.c.items():
            if i + di < 0 or j + dj < 0:
                raise ValueError("negative exponent after shift")
            out[(i + di, j + dj)] = v
        return Poly2(out)

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("use RationalFunction2 for negative powers")
        result = Poly2.const(1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def eval(self, t1: Scalar, t2: Scalar) -> Scalar:
        """Sum of ``v * t1**i * t2**j`` in key order, each power computed once."""
        pow1: dict[int, Scalar] = {}
        pow2: dict[int, Scalar] = {}
        total = SC_ZERO
        for (i, j), v in self.c.items():
            x1 = pow1.get(i)
            if x1 is None:
                x1 = pow1[i] = t1 ** i
            x2 = pow2.get(j)
            if x2 is None:
                x2 = pow2[j] = t2 ** j
            total = total + v * x1 * x2
        return total

    def magnitude(self, t1: Scalar, t2: Scalar) -> float:
        """Sum of ``|v * t1**i * t2**j|`` over the terms: the size against which
        a numeric value of the polynomial counts as zero."""
        a1, a2 = abs(t1.to_complex()), abs(t2.to_complex())
        return sum(abs(v.to_complex()) * a1 ** i * a2 ** j for (i, j), v in self.c.items())

    def to_numeric(self) -> "Poly2":
        return Poly2({m: Scalar.numeric(v.to_complex()) for m, v in self.c.items()})

    def __repr__(self):
        if not self.c:
            return "0"
        terms = []
        for (i, j) in sorted(self.c, reverse=True):
            coeff = self.c[(i, j)]
            mono = "".join(
                (f"*T1^{e}" if e > 1 else "*T1") if k == 0 else (f"*T2^{e}" if e > 1 else "*T2")
                for k, e in enumerate((i, j)) if e
            )
            terms.append(f"({coeff}){mono}")
        return " + ".join(terms)


# -- exact division and gcd -------------------------------------------------

def poly_div_exact(f: Poly2, g: Poly2) -> Poly2 | None:
    """Return q with f == q*g, or None when g does not divide f exactly."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return Poly2()
    rem = Poly2(dict(f.c))
    glead = g.lead_monomial()
    ginv = g.c[glead].inverse()
    q: dict[Monomial, Scalar] = {}
    while not rem.is_zero():
        rlead = rem.lead_monomial()
        di, dj = rlead[0] - glead[0], rlead[1] - glead[1]
        if di < 0 or dj < 0:
            return None
        coeff = rem.c[rlead] * ginv
        q[(di, dj)] = coeff
        rem = rem - g.shift(di, dj).scale(coeff)
    return Poly2(q)


def _as_uni_in_t1(f: Poly2) -> dict[int, dict[int, Scalar]]:
    """View f as a polynomial in T1 whose coefficients are T2-polynomials."""
    out: dict[int, dict[int, Scalar]] = {}
    for (i, j), v in f.c.items():
        out.setdefault(i, {})[j] = v
    return out


def _uni_gcd(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    """Monic gcd of univariate polynomials over the exact scalar field."""

    def degree(p):
        return max(p, default=-1)

    def rem(p, q):
        p = dict(p)
        dq = degree(q)
        inv = q[dq].inverse()
        while p and degree(p) >= dq:
            dp = degree(p)
            coeff = p[dp] * inv
            for e, v in q.items():
                m = dp - dq + e
                cur = p.get(m, SC_ZERO)
                s = cur - coeff * v
                if s.is_zero():
                    p.pop(m, None)
                else:
                    p[m] = s
        return p

    while b:
        a, b = b, rem(a, b)
    if not a:
        return {}
    lead = a[degree(a)].inverse()
    return {e: v * lead for e, v in a.items()}


def _t2_poly_mul(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    out: dict[int, Scalar] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            m = e1 + e2
            prod = v1 * v2
            cur = out.get(m)
            s = prod if cur is None else cur + prod
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _content_primitive(f: Poly2) -> tuple[dict[int, Scalar], Poly2]:
    """Split f = content(T2) * primitive, content monic in T2."""
    uni = _as_uni_in_t1(f)
    content: dict[int, Scalar] = {}
    for coeff in uni.values():
        content = _uni_gcd(content, coeff)
        if max(content, default=-1) == 0:
            break
    if not content:
        return {}, Poly2()
    prim: dict[Monomial, Scalar] = {}
    for i, coeff in uni.items():
        q = _uni_div_exact(coeff, content)
        for j, v in q.items():
            prim[(i, j)] = v
    return content, Poly2(prim)


def _uni_div_exact(a: dict[int, Scalar], b: dict[int, Scalar]) -> dict[int, Scalar]:
    a = dict(a)
    db = max(b)
    inv = b[db].inverse()
    q: dict[int, Scalar] = {}
    while a:
        da = max(a)
        if da < db:
            raise ArithmeticError("inexact univariate division")
        coeff = a[da] * inv
        q[da - db] = coeff
        for e, v in b.items():
            m = da - db + e
            cur = a.get(m, SC_ZERO)
            s = cur - coeff * v
            if s.is_zero():
                a.pop(m, None)
            else:
                a[m] = s
    return q


def poly_gcd(f: Poly2, g: Poly2) -> Poly2:
    """Exact bivariate gcd via content/primitive-part recursion.

    Result is normalised so its lex-leading coefficient is 1.  Exact
    coefficients only.
    """
    if f.is_zero():
        return monic_lex(g)
    if g.is_zero():
        return monic_lex(f)
    if not (f.is_exact() and g.is_exact()):
        raise ValueError("gcd is defined only for exact polynomials")
    cf, pf = _content_primitive(f)
    cg, pg = _content_primitive(g)
    c = _uni_gcd(cf, cg)
    # Euclid on primitive parts, viewed in T1 over the rational functions of T2.
    while not pg.is_zero():
        r = _pseudo_rem_t1(pf, pg)
        pf, pg = pg, _content_primitive(r)[1] if not r.is_zero() else Poly2()
    result = Poly2({(0, j): v for j, v in c.items()}) * pf
    return monic_lex(result)


def _pseudo_rem_t1(f: Poly2, g: Poly2) -> Poly2:
    fu = _as_uni_in_t1(f)
    gu = _as_uni_in_t1(g)
    dg = max(gu)
    glead = gu[dg]
    fu = {i: dict(cs) for i, cs in fu.items()}
    while fu and max(fu) >= dg:
        df = max(fu)
        flead = fu[df]
        # multiply remainder through by glead, then cancel the top term
        new: dict[int, dict[int, Scalar]] = {}
        for i, cs in fu.items():
            if i == df:
                continue
            new[i] = _t2_poly_mul(cs, glead)
        for e, cs in gu.items():
            m = df - dg + e
            if e == dg:
                continue
            prod = _t2_poly_mul(cs, flead)
            cur = new.get(m, {})
            for j, v in prod.items():
                s = cur.get(j, SC_ZERO) - v
                if s.is_zero():
                    cur.pop(j, None)
                else:
                    cur[j] = s
            if cur:
                new[m] = cur
            else:
                new.pop(m, None)
        fu = {i: cs for i, cs in new.items() if cs}
    out: dict[Monomial, Scalar] = {}
    for i, cs in fu.items():
        for j, v in cs.items():
            out[(i, j)] = v
    return Poly2(out)


def monic_lex(f: Poly2) -> Poly2:
    """Scale f so its lex-leading coefficient is one."""
    if f.is_zero():
        return f
    lead = f.c[f.lead_monomial()]
    return f.scale(lead.inverse())


# -- rational functions ------------------------------------------------------


class RationalFunction2:
    """num / (scale * prod(factor**exp)) with the residue cardinality p attached."""

    __slots__ = ("num", "scale", "fac", "p")

    def __init__(self, num: Poly2, scale: Scalar, fac: dict[tuple, tuple[Poly2, int]], p: int):
        if scale.is_zero():
            raise ZeroDivisionError("zero denominator scale")
        self.num = num
        self.scale = scale
        self.fac = fac
        self.p = p

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike, p: int) -> "RationalFunction2":
        return cls(Poly2.const(value), SC_ONE, {}, p)

    @classmethod
    def from_poly(cls, poly: Poly2, p: int) -> "RationalFunction2":
        return cls(poly, SC_ONE, {}, p)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: ScalarLike, p: int) -> "RationalFunction2":
        """coeff * T1**i * T2**j, with negative exponents going to the denominator."""
        num = Poly2.monomial(max(i, 0), max(j, 0), coeff)
        rf = cls(num, SC_ONE, {}, p)
        if i < 0 or j < 0:
            den = Poly2.monomial(max(-i, 0), max(-j, 0))
            rf = rf / cls.from_poly(den, p)
        return rf

    # -- helpers -----------------------------------------------------------

    def _check(self, other: "RationalFunction2"):
        if self.p != other.p:
            raise ValueError(f"mixed residue cardinalities {self.p} and {other.p}")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def den_expanded(self) -> Poly2:
        den = Poly2.const(self.scale)
        for poly, exp in self.fac.values():
            den = den * poly ** exp
        return den

    def with_factor(self, poly: Poly2, exp: int = 1) -> "RationalFunction2":
        """Divide by poly**exp, keeping the denominator factored."""
        if poly.is_zero():
            raise ZeroDivisionError("zero denominator factor")
        scale = self.scale
        lead = poly.c[poly.lead_monomial()]
        if not (lead.is_exact and lead == SC_ONE):
            poly = poly.scale(lead.inverse())
            scale = scale * lead ** exp
        if len(poly.c) == 1 and poly.lead_monomial() == (0, 0):
            return RationalFunction2(self.num, scale * poly.c[(0, 0)] ** exp, dict(self.fac), self.p)
        key = poly.key()
        fac = dict(self.fac)
        cur = fac.get(key)
        fac[key] = (poly, exp if cur is None else cur[1] + exp)
        return RationalFunction2(self.num, scale, fac, self.p)

    # -- field operations ----------------------------------------------------

    def __mul__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            return RationalFunction2(self.num.scale(Scalar.wrap(other)), self.scale,
                                     dict(self.fac), self.p)
        self._check(other)
        fac = dict(self.fac)
        for key, (poly, exp) in other.fac.items():
            cur = fac.get(key)
            fac[key] = (poly, exp if cur is None else cur[1] + exp)
        return RationalFunction2(self.num * other.num, self.scale * other.scale, fac, self.p)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction2":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        num = Poly2.const(self.scale)
        for poly, exp in self.fac.values():
            num = num * poly ** exp
        out = RationalFunction2(num, SC_ONE, {}, self.p)
        return out.with_factor(self.num)

    def __truediv__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            return RationalFunction2(self.num, self.scale * Scalar.wrap(other),
                                     dict(self.fac), self.p)
        self._check(other)
        res = RationalFunction2(self.num * other.den_expanded(), self.scale,
                                dict(self.fac), self.p)
        return res.with_factor(other.num)

    def __neg__(self) -> "RationalFunction2":
        return RationalFunction2(-self.num, self.scale, dict(self.fac), self.p)

    def __add__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            other = RationalFunction2.const(other, self.p)
        self._check(other)
        keys = dict.fromkeys([*self.fac, *other.fac])
        n1, n2 = self.num.scale(other.scale), other.num.scale(self.scale)
        fac: dict[tuple, tuple[Poly2, int]] = {}
        for key in keys:
            p1 = self.fac.get(key)
            p2 = other.fac.get(key)
            poly = (p1 or p2)[0]
            e1 = p1[1] if p1 else 0
            e2 = p2[1] if p2 else 0
            e = max(e1, e2)
            fac[key] = (poly, e)
            if e > e1:
                n1 = n1 * poly ** (e - e1)
            if e > e2:
                n2 = n2 * poly ** (e - e2)
        return RationalFunction2(n1 + n2, self.scale * other.scale, fac, self.p)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction2":
        if isinstance(other, (int, Fraction, Scalar)):
            other = RationalFunction2.const(other, self.p)
        return self + (-other)

    def __pow__(self, n: int) -> "RationalFunction2":
        if n < 0:
            return self.inverse() ** (-n)
        result = RationalFunction2.const(1, self.p)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # -- equality and canonical form ----------------------------------------

    def equals(self, other: "RationalFunction2") -> bool:
        """Exact equality as rational functions (cross-multiplication after
        cancelling shared denominator factors)."""
        self._check(other)
        extra1 = Poly2.const(other.scale)
        extra2 = Poly2.const(self.scale)
        keys = dict.fromkeys([*self.fac, *other.fac])
        for key in keys:
            p1 = self.fac.get(key)
            p2 = other.fac.get(key)
            poly = (p1 or p2)[0]
            e1 = p1[1] if p1 else 0
            e2 = p2[1] if p2 else 0
            if e1 > e2:
                extra2 = extra2 * poly ** (e1 - e2)
            elif e2 > e1:
                extra1 = extra1 * poly ** (e2 - e1)
        return self.num * extra1 == other.num * extra2

    def canonical(self) -> tuple[Poly2, Poly2]:
        """Reduced (num, den): common gcd removed, den monic in lex order."""
        den = self.den_expanded()
        num = self.num
        if num.is_zero():
            return Poly2(), Poly2.const(1)
        g = poly_gcd(num, den)
        if g.total_degree() > 0:
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
        lead = den.c[den.lead_monomial()].inverse()
        return num.scale(lead), den.scale(lead)

    # -- evaluation ----------------------------------------------------------

    def eval_t(self, t1: ScalarLike, t2: ScalarLike, tol: float = 1e-12) -> Scalar:
        """Evaluate at given T-values.  Exact factor zeros are cancelled against
        the numerator when removable; otherwise :class:`PoleError`.  A numeric
        factor value is a pole when it is at most ``tol`` times the factor's
        own :meth:`Poly2.magnitude` there; the scale never is."""
        t1, t2 = Scalar.wrap(t1), Scalar.wrap(t2)
        num = self.num
        den_val = self.scale
        for poly, exp in self.fac.values():
            val = poly.eval(t1, t2)
            if val.is_exact and val.is_zero():
                for _ in range(exp):
                    q = poly_div_exact(num, poly)
                    if q is None:
                        raise PoleError("evaluation at a non-removable pole")
                    num = q
                continue
            if not val.is_exact and abs(val.to_complex()) <= tol * poly.magnitude(t1, t2):
                raise PoleError("denominator factor vanishes within tolerance")
            den_val = den_val * val ** exp
        return num.eval(t1, t2) / den_val

    def eval_zw(self, z: ScalarLike, w: ScalarLike, tol: float = 1e-12) -> Scalar:
        """Evaluate after substituting T1 = p**(-z), T2 = p**(-w)."""
        return self.eval_t(power_of_p(self.p, z, -1), power_of_p(self.p, w, -1), tol)

    def to_numeric(self) -> "RationalFunction2":
        out = RationalFunction2(self.num.to_numeric(),
                                Scalar.numeric(self.scale.to_complex()), {}, self.p)
        for poly, exp in self.fac.values():
            out = out.with_factor(poly.to_numeric(), exp)
        return out

    def __repr__(self):
        den = self.den_expanded()
        return f"({self.num!r}) / ({den!r})"


def power_of_p(p: int, exponent: ScalarLike, sign: int = 1) -> Scalar:
    """p**(sign*exponent); exact for integer and half-integer exponents."""
    e = Scalar.wrap(exponent)
    if e.is_rational():
        q = e.as_fraction() * sign
        if q.denominator == 1:
            return Scalar.exact(Fraction(p) ** q.numerator)
        if q.denominator == 2:
            whole = Scalar.exact(Fraction(p) ** (q.numerator // 2))
            if q.numerator % 2:
                return whole * Scalar.root(Fraction(p))
            return whole
    return Scalar.numeric(complex(p) ** (sign * e.to_complex()))


def nonzero_factor(factor: Scalar, what: str) -> Scalar:
    """``factor`` itself, or :class:`PoleError` naming ``what`` when it is an
    exact zero or a numeric value of modulus below 1e-13."""
    if factor.is_zero() if factor.is_exact else abs(factor.to_complex()) < 1e-13:
        raise PoleError(f"{what} pole")
    return factor


def rf_equal(a: RationalFunction2, b: RationalFunction2) -> bool:
    return a.equals(b)

