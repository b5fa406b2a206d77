"""Numerators of bivariate Laurent series in kernel form, and their arithmetic.

A numerator is a total-degree-truncated power series in z, w whose
coefficients are polynomials in a formal symbol ``lam``.  Between and during
operations it is kept as ``(den, terms)``: one denominator ``den`` and a
nested dict ``terms: (i, j) -> {k: value}``, ``k`` being the power of
``lam``.  A value is

* an ``int``, an exact rational: the numerator over ``den``;
* a ``complex``, a numeric coefficient.

Those are the two rings a series (and a ``Poly2``) lives in.  A square-root
value of :class:`Scalar` has no kernel form: :func:`plain`, where every
coefficient of either enters, refuses it with ``ValueError`` (:data:`ROOT_REFUSAL`).

The dict is nested rather than keyed by ``(i, j, k)``: a monomial keeps its
place while one of its ``lam`` powers cancels and comes back, so later float
sums run in the same order.  No dict of the form is ever empty, and none is
mutated once built.

**Ring rule.**  Every operation computes what :class:`Scalar` arithmetic on
the coefficients computes.  Exact values add as integers over the lcm of the
two denominators, and multiply as integers over the product of the two,
reduced by one gcd per result.  An exact value meeting a numeric one enters
as ``complex(n / den)``, which is :meth:`Scalar.to_complex` of the reduced
fraction: Python's integer true division rounds correctly.  A product sum
turns complex at its first numeric product.  A ``lam`` coefficient whose sum
reaches zero leaves its dict, and a monomial whose dict empties leaves the
numerator, as :class:`LambdaPoly` sums drop them.  Products run in one of
two loops, both in the product-sum kernel :func:`mul_sum` (of which
:func:`mul` is the one-pair case): integers only, every pair rescaled to
one common denominator and summed into one accumulator, or int or complex
per term, pair by pair.  The inverse of an all-exact unit is an exact
inverse on integers, each output's recursion scaled by a power of the
constant term.  Other inverses and the ``lam`` polynomials of ``exp``
expansions (bar a one-power exact rate, in closed form) run on
``Fraction``/``complex`` values.  A ``Fraction`` q meeting a ``complex``
enters as ``complex(q)``, on either side: that is what ``Fraction``'s
fallback computes, and a complex product commutes bit for bit, so the
inverse multiplies complex coefficients by its outputs kept as
``complex(q)``.  So exact values, exactness, key order and every float bit
are the ones :class:`Scalar` arithmetic gives.

**Flat keys.**  The int-or-complex product loop keys a term (i, j, k) by the
one int ``(i*(D+1) + j)*L + k``, where D is the largest total degree and
L - 1 the largest ``lam`` power the product reaches, both read off the
operands: never off the depth, which is ``EXACT_DEPTH`` for an untruncated
series.  A product's key is the sum of its factors' keys, its sum lives in
one dense list of (D+1)**2 * L slots, and the keys go back to the nested
form in the order they first appeared.

**View rule.**  :func:`view` builds the ``dict[(i, j)] -> LambdaPoly`` of
:class:`Scalar` values a caller reads, in the kernel's key order; nothing in
the arithmetic reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable

from .scalars import SC_ZERO, Scalar, ScalarLike


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return set(self.c) == set(other.c) and all(self.c[k] == other.c[k] for k in self.c)

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            f"({v})" + ("" if k == 0 else f"*lam^{k}" if k > 1 else "*lam")
            for k, v in sorted(self.c.items())
        )


LP_ZERO = LambdaPoly()

SeriesNum = dict[tuple[int, int], LambdaPoly]
Value = int | complex                              # a kernel-form coefficient
Terms = dict[tuple[int, int], dict[int, Value]]    # (i, j) -> {k: value}
Flat = tuple[int, Terms]                           # (den, terms)
Plain = Fraction | int | complex                   # a coefficient as a Python number

ROOT_REFUSAL = ("polynomials and series hold rational or numeric coefficients only: "
                "square roots enter only as evaluation points")

_C_MINUS_ONE = complex(-1.0)
_EMPTY: dict = {}


# -- between Scalar values and the kernel form ---------------------------------

def plain(v: ScalarLike) -> Plain:
    """A coefficient as a plain Python number: an int, Fraction or complex as
    it is, else a ``Fraction`` for a rational, a ``complex`` for a numeric
    value; a root-extension value is refused."""
    if v.__class__ in (int, Fraction, complex):
        return v
    v = Scalar.wrap(v)
    if v.z is not None:
        return v.z
    if v.b:
        raise ValueError(ROOT_REFUSAL)
    return v.a


def plain_coeffs(x) -> dict[int, Plain]:
    """The lam coefficients of a LambdaPoly, or of a constant given as a
    Scalar or a Python number, as plain numbers; zero constants give {}."""
    if isinstance(x, LambdaPoly):
        return {k: plain(v) for k, v in x.c.items()}
    if isinstance(x, (int, Fraction, complex)):
        return {0: x} if x else {}
    v = Scalar.wrap(x)
    return {} if v.is_zero() else {0: plain(v)}


def plain_values(c: dict[int, Value], den: int) -> dict[int, Plain]:
    """One monomial's kernel values as plain numbers."""
    return {k: Fraction(v, den) if v.__class__ is int else v for k, v in c.items()}


def lower(terms: dict) -> Flat:
    """Kernel form of ``{key: {k: x}}`` with every x a plain number."""
    den = math.lcm(*{x.denominator for c in terms.values() for x in c.values()
                     if x.__class__ is not complex})
    return den, {m: {k: x if x.__class__ is complex else x.numerator * (den // x.denominator)
                     for k, x in c.items()} for m, c in terms.items()}


def lifted(c: dict[int, Value], den: int) -> dict[int, Scalar]:
    """One monomial's kernel values as Scalars."""
    return {k: Scalar.exact(Fraction(v, den)) if v.__class__ is int else Scalar.numeric(v)
            for k, v in c.items()}


def view(den: int, terms: Terms) -> SeriesNum:
    return {m: LambdaPoly(lifted(c, den)) for m, c in terms.items()}


def max_abs(c: dict[int, Value], den: int) -> float:
    """Largest modulus among one monomial's coefficients (0.0 for none)."""
    return max((abs(v / den) if v.__class__ is int else abs(v) for v in c.values()),
               default=0.0)


def _negligible(c: dict[int, Value], den: int, tol: float) -> bool:
    return not c if tol == 0.0 else max_abs(c, den) <= tol


def negated(terms: Terms) -> Terms:
    return {m: {k: -v for k, v in c.items()} for m, c in terms.items()}


# -- sums ---------------------------------------------------------------------

def lam_add(x: dict[int, Value], y: dict[int, Value], den: int) -> dict[int, Value]:
    """x + y for the lam coefficients of one monomial over one denominator:
    x's powers first, a power dropped when its sum is zero."""
    out = dict(x)
    for k, v in y.items():
        cur = out.get(k)
        if cur is not None:
            if cur.__class__ is int:
                v = cur + v if v.__class__ is int else complex(cur / den) + v
            elif v.__class__ is int:
                v = cur + complex(v / den)
            else:
                v = cur + v
        if not v:
            out.pop(k, None)
        else:
            out[k] = v
    return out


def _rescaled(terms: Terms, f: int) -> Terms:
    if f == 1:
        return terms
    return {m: {k: v * f if v.__class__ is int else v for k, v in c.items()}
            for m, c in terms.items()}


def num_add(a: Flat, b: Flat) -> Flat:
    """a + b: a's monomials first, then b's new ones; exact values over the
    lcm of the two denominators."""
    (da, ta), (db, tb) = a, b
    if not tb:
        return a
    if not ta:
        return b
    den = math.lcm(da, db)
    ta, tb = _rescaled(ta, den // da), _rescaled(tb, den // db)
    out = dict(ta)
    for m, cb in tb.items():
        ca = out.get(m)
        if ca is None:
            out[m] = cb
            continue
        c = lam_add(ca, cb, den)
        if c:
            out[m] = c
        else:
            del out[m]
    return den, out


# -- products -----------------------------------------------------------------

def _by_degree(terms: Terms) -> list:
    """(i + j, i, j, k, value) for every term, sorted, so the truncation can
    end each inner product loop early."""
    return sorted((i + j, i, j, k, v) for (i, j), c in terms.items() for k, v in c.items())


def mul(a: Flat, b: Flat, depth: int) -> Flat:
    """Product of two numerators up to total degree depth: the one-pair case
    of :func:`mul_sum`."""
    return mul_sum(((a, b),), depth)


def mul_sum(pairs: Iterable[tuple[Flat, Flat]], depth: int) -> Flat:
    """Sum of the products a * b over the (a, b) pairs, up to total degree
    depth.  Each output term receives its products pair by pair, in the order
    of a's terms, and the keys keep the order in which they first appear.

    Exact pairs run one integer loop: each pair's products are rescaled to
    the lcm of the ``da * db``, summed into one accumulator and reduced by
    one gcd.  If any value is numeric, each pair runs :func:`_per_term_mul`
    over its own ``da * db`` and the products are joined by :func:`num_add`
    in pair order."""
    ops = [(da, [(i, j, k, v) for (i, j), c in ta.items() for k, v in c.items()],
            db, _by_degree(tb)) for (da, ta), (db, tb) in pairs if ta and tb]
    if any(t[3].__class__ is not int for _, xa, _, _ in ops for t in xa) or \
            any(t[4].__class__ is not int for _, _, _, xb in ops for t in xb):
        out: Flat = (1, {})
        for da, xa, db, xb in ops:
            out = num_add(out, _per_term_mul(xa, da, xb, db, depth))
        return out
    den = math.lcm(*[da * db for da, _, db, _ in ops])
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for da, xa, db, xb in ops:
        f = den // (da * db)
        for i1, j1, k1, v1 in xa:
            room = depth - i1 - j1
            v1 *= f
            for d2, i2, j2, k2, v2 in xb:
                if d2 > room:
                    break
                key = (i1 + i2, j1 + j2, k1 + k2)
                acc[key] = get(key, 0) + v1 * v2
    return _collect(acc, den)


def _per_term_mul(xa: list, da: int, xb: list, db: int, depth: int) -> Flat:
    """a * b over ``da * db`` for int/complex terms, with the sums
    :class:`Scalar` forms: an exact factor of a numeric product enters as
    ``complex(n / den)``, a sum turns complex at its first numeric product
    (``complex(acc / den) + p``), later exact products add as
    ``complex(p / den)``, and a sum that starts numeric starts as ``0j + p``.
    Sums are kept by flat key (see the module docstring), and b's terms come
    cut per total degree of the a term, so the loop tests no degree.  A key
    not yet seen holds None; at its first product it enters the order and
    starts from 0j, or beside an exact a term from the exact 0, whose
    ``complex(0 / den)`` is that same 0j."""
    den = da * db
    top_a, top_b = max(i + j for i, j, _, _ in xa), xb[-1][0]
    # the D + 1 and L of the flat key
    radix = min(depth, top_a + top_b) + 1
    nlam = max(t[2] for t in xa) + max(t[3] for t in xb) + 1
    # b's terms as (key, integer numerator or None, complex value), and the
    # ones that fit beside an a term of each total degree
    yb = [((i * radix + j) * nlam + k, x, complex(x / db)) if x.__class__ is int
          else ((i * radix + j) * nlam + k, None, x) for _, i, j, k, x in xb]
    degrees = [t[0] for t in xb]
    rooms = [yb[:bisect_right(degrees, depth - d)] for d in range(top_a + 1)]
    acc: list = [None] * (radix * radix * nlam)
    order = []
    for i1, j1, k1, x1 in xa:
        ka = (i1 * radix + j1) * nlam + k1
        if x1.__class__ is complex:
            for kb, _, c2 in rooms[i1 + j1]:
                key = ka + kb
                s = acc[key]
                if s is None:
                    order.append(key)
                    s = 0j
                acc[key] = (s if s.__class__ is complex else complex(s / den)) + x1 * c2
            continue
        c1 = complex(x1 / da)
        for kb, n2, c2 in rooms[i1 + j1]:
            key = ka + kb
            s = acc[key]
            if s is None:
                order.append(key)
                s = 0
            if n2 is None:
                acc[key] = (s if s.__class__ is complex else complex(s / den)) + c1 * c2
            elif s.__class__ is int:
                acc[key] = s + x1 * n2
            else:
                acc[key] = s + complex(x1 * n2 / den)
    g = math.gcd(den, *[v for key in order if (v := acc[key]).__class__ is int])
    out: Terms = {}
    for key in order:
        v = acc[key]
        if v:
            m = divmod(key // nlam, radix)
            c = out.get(m)
            if c is None:
                c = out[m] = {}
            c[key % nlam] = v // g if g != 1 and v.__class__ is int else v
    return den // g, out


def _collect(acc: dict[tuple[int, int, int], int | complex], den: int) -> Flat:
    """Kernel form of (i, j, k) sums over den, in the order the keys first
    appeared, dropping sums that vanished; den is reduced by one gcd."""
    g = math.gcd(den, *[v for v in acc.values() if v.__class__ is int])
    out: Terms = {}
    for (i, j, k), v in acc.items():
        if v:
            c = out.get((i, j))
            if c is None:
                c = out[(i, j)] = {}
            c[k] = v // g if g != 1 and v.__class__ is int else v
    return den // g, out


def _reduced(den: int, terms: Terms) -> Flat:
    g = math.gcd(den, *[v for c in terms.values() for v in c.values() if v.__class__ is int])
    if g == 1:
        return den, terms
    return den // g, {m: {k: v // g if v.__class__ is int else v for k, v in c.items()}
                      for m, c in terms.items()}


def scaled(a: Flat, f: Plain) -> Flat:
    """Every value times the nonzero constant f, as ``value * f`` in Scalar
    arithmetic; nothing is dropped."""
    den, terms = a
    if f.__class__ is complex:
        return den, {m: {k: (complex(v / den) if v.__class__ is int else v) * f
                         for k, v in c.items()} for m, c in terms.items()}
    n, fc = f.numerator, complex(f.numerator / f.denominator)
    return _reduced(den * f.denominator,
                    {m: {k: v * n if v.__class__ is int else v * fc for k, v in c.items()}
                     for m, c in terms.items()})


def _add_term(coeffs: dict[int, Plain], k: int, v: Plain) -> None:
    """coeffs[k] += v, dropping k when the sum is zero, as LambdaPoly sums do."""
    cur = coeffs.get(k)
    s = v if cur is None else cur + v
    if not s:
        coeffs.pop(k, None)
    else:
        coeffs[k] = s


def lam_mul(x: dict[int, Plain], y: dict[int, Plain]) -> dict[int, Plain]:
    """The LambdaPoly product of two plain-valued lam coefficient dicts: Python
    promotes a ``Fraction`` meeting a ``complex`` through ``complex(float(q))``,
    as :class:`Scalar` does."""
    out: dict[int, Plain] = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            _add_term(out, k1 + k2, v1 * v2)
    return out


# -- the divisor directions ---------------------------------------------------

def _power_terms(direction: str, k: int) -> list[tuple[tuple[int, int], int]]:
    """The monomials of (z, w, z+w or z-w)**k with their integer coefficients."""
    if direction == "z":
        return [((k, 0), 1)]
    if direction == "w":
        return [((0, k), 1)]
    sign = 1 if direction == "zw_plus" else -1
    return [((m, k - m), math.comb(k, m) * sign ** (k - m)) for m in range(k + 1)]


def direction_power(direction: str, k: int) -> Flat:
    return 1, {m: {0: b} for m, b in _power_terms(direction, k)}


def along(direction: str, coeffs: list[dict[int, Plain]], depth: int) -> Flat:
    """sum_k coeffs[k] * dir**k for the k <= depth with nonzero coefficients.
    Each power of dir brings its own monomials, so nothing is summed: a value
    is the binomial times the coefficient, as a Scalar product."""
    den, lowered = lower({k: c for k, c in enumerate(coeffs) if c and k <= depth})
    terms: Terms = {}
    for k, c in lowered.items():
        for m, b in _power_terms(direction, k):
            prod = {}
            for kk, v in c.items():
                p = v * b if v.__class__ is int else v * complex(b)
                if p:
                    prod[kk] = p
            if prod:
                terms[m] = prod
    return den, terms


def exp_coeffs(rate: dict[int, Plain], depth: int) -> list[dict[int, Plain]]:
    """rate**k / k! for k = 0..depth as lam coefficient dicts, each from the
    last by one LambdaPoly product with rate / k (a complex rate's float order
    is pinned); a one-power exact rate runs :func:`_one_power_exp`."""
    if len(rate) == 1:
        (e, v), = rate.items()
        if v and v.__class__ in (int, Fraction):
            return _one_power_exp(e, v, depth)
    coeffs = []
    term: dict[int, Plain] = {0: Fraction(1)}
    for k in range(depth + 1):
        if k:
            term = lam_mul(term, {kk: v * Fraction(1, k) for kk, v in rate.items()})
        coeffs.append(term)
    return coeffs


def _one_power_exp(e: int, v: Fraction | int, depth: int) -> list[dict[int, Plain]]:
    """Term k of the exact nonzero rate ``{e: v}`` is ``{k*e: v**k / k!}``:
    one ``Fraction`` per k from a running integer numerator and denominator."""
    coeffs, num, den = [], 1, 1
    for k in range(depth + 1):
        if k:
            num, den = num * v.numerator, den * v.denominator * k
        coeffs.append({k * e: Fraction(num, den)})
    return coeffs


def _carried(c: dict[int, Value], sign: int) -> dict[int, Value]:
    """What synthetic division subtracts from the next coefficient, negated:
    ``-carry`` for z+w and ``-(carry * -1)`` for z-w (numeric values are
    multiplied by ``-1+0j``, as LambdaPoly.scale does)."""
    if sign == 1:
        return {k: -v for k, v in c.items()}
    return {k: v if v.__class__ is int else -(v * _C_MINUS_ONE) for k, v in c.items()}


def div_linear(den: int, terms: Terms, direction: str,
               tol: float) -> tuple[Terms, Terms, float]:
    """Divide a numerator by z, w, z+w or z-w.

    Returns (quotient valid to one degree less, remainder, max remainder
    magnitude), both over den.  The remainder per homogeneous degree d is
    canonically supported on w**d for directions z, z+w, z-w and on z**d for
    direction w.
    """
    quot: Terms = {}
    rem: Terms = {}
    max_rem = 0.0
    if direction in ("z", "w"):
        along_z = direction == "z"
        for (i, j), c in terms.items():
            if (i if along_z else j) == 0:
                if not _negligible(c, den, tol):
                    rem[(i, j)] = c
                    max_rem = max(max_rem, max_abs(c, den))
            else:
                quot[(i - 1, j) if along_z else (i, j - 1)] = c
        return quot, rem, max_rem
    sign = 1 if direction == "zw_plus" else -1
    by_degree: dict[int, dict[int, dict[int, Value]]] = {}
    for (i, j), c in terms.items():
        by_degree.setdefault(i + j, {})[i] = c
    for d, comp in by_degree.items():
        if d == 0:
            c = comp.get(0, _EMPTY)
            if not _negligible(c, den, tol):
                rem[(0, 0)] = c
                max_rem = max(max_rem, max_abs(c, den))
            continue
        # synthetic division of the homogeneous component by z + sign*w
        q: dict[int, dict[int, Value]] = {}
        carry = comp.get(d, _EMPTY)
        q[d - 1] = carry
        for k in range(d - 1, 0, -1):
            carry = lam_add(comp.get(k, _EMPTY), _carried(carry, sign), den)
            q[k - 1] = carry
        rho = lam_add(comp.get(0, _EMPTY), _carried(q[0], sign), den)
        if not _negligible(rho, den, tol):
            rem[(0, d)] = rho
            max_rem = max(max_rem, max_abs(rho, den))
        for k, c in q.items():
            if c:
                quot[(k, d - 1 - k)] = c
    return quot, rem, max_rem


# -- the series inverse ---------------------------------------------------------

def inverse(a: Flat, depth: int) -> Flat:
    """Inverse of a unit numerator up to total degree depth.

    An all-exact unit runs :func:`_exact_inverse`.  Otherwise the loop runs
    on plain numbers (see :func:`plain`) with the pair order and pop-on-zero
    of :class:`LambdaPoly` products and sums, so every value is the one
    :class:`Scalar` arithmetic gives.  A lam-free unit (every coefficient at
    lam power 0 only) runs :func:`_lam_free_inverse`, one value per monomial
    in the same order: a zero product adds nothing, a sum reaching zero is
    dropped and the next product restarts it, and each nonzero sum is
    multiplied by ``-inv0`` last."""
    den, terms = a
    u0 = terms.get((0, 0))
    if not u0:
        raise ZeroDivisionError("series inverse of a non-unit")
    if max(u0) > 0:
        raise ValueError("cannot invert a unit whose constant term involves lam")
    monomials = sorted((m for m in terms if m != (0, 0)), key=lambda m: m[0] + m[1])
    if all(v.__class__ is int for c in terms.values() for v in c.values()):
        return _exact_inverse(den, terms, monomials, depth)
    coeffs = {m: plain_values(c, den) for m, c in terms.items()}
    u = coeffs[(0, 0)][0]
    inv0 = 1 / u if u.__class__ is Fraction else 1.0 / u
    if not any(max(c) for c in terms.values()):
        values = _lam_free_inverse({m: c[0] for m, c in coeffs.items()}, monomials, inv0, depth)
        return lower({m: {0: v} for m, v in values.items()})
    return lower(_lam_loop([(i1, j1, coeffs[(i1, j1)]) for i1, j1 in monomials],
                           inv0, -inv0, depth))


def _lam_loop(scaled: list, first: Plain, last: Plain,
              depth: int) -> dict[tuple[int, int], dict[int, Plain]]:
    """The series inverse recursion on lam coefficient dicts: output (0, 0)
    is ``{0: first}``, and output (i, j) is the sum of the :func:`lam_mul`
    products ``c * out[(i - i1, j - j1)]`` over the ``(i1, j1, c)`` of
    ``scaled`` (in their order, led by total degree), times ``last``."""
    out: dict[tuple[int, int], dict[int, Plain]] = {(0, 0): {0: first}}
    for d in range(1, depth + 1):
        for i in range(d + 1):
            acc: dict[int, Plain] = {}
            for i1, j1, c in scaled:
                if i1 + j1 > d:
                    break
                if i1 > i or j1 > d - i:
                    continue
                prev = out.get((i - i1, d - i - j1))
                if prev is not None:
                    for k, v in lam_mul(c, prev).items():
                        _add_term(acc, k, v)
            if acc:
                out[(i, d - i)] = {k: v * last for k, v in acc.items()}
    return out


def _exact_inverse(den: int, terms: Terms, monomials: list, depth: int) -> Flat:
    """The inverse of an all-exact unit on integers.  With the constant term
    U0/den and C(m) the integer numerators, O(0, 0) = 1 and O(m) =
    -sum C(m1) * U0**(deg m1 - 1) * O(m - m1) (:func:`_lam_loop`), and output
    m is O(m) * den / U0**(deg m + 1).  Each partial sum of O(m) is the
    ``Fraction`` loop's times U0**(deg m): the same zero tests, dropped lam
    powers and key order.  One gcd (:func:`_reduced`) gives :func:`lower`'s
    denominator.  The U0 powers reach the unit's largest monomial degree,
    which may exceed the depth."""
    u0 = terms[(0, 0)][0]
    power = [1]
    for _ in range(max(max(i + j for i, j in terms), depth + 1)):
        power.append(power[-1] * u0)
    out = _lam_loop([(i1, j1, {k: v * power[i1 + j1 - 1] for k, v in terms[(i1, j1)].items()})
                     for i1, j1 in monomials], 1, -1, depth)
    top = max(i + j for i, j in out)
    sign = -1 if power[top + 1] < 0 else 1
    f = sign * den
    return _reduced(sign * power[top + 1],
                    {(i, j): {k: v * f * power[top - i - j] for k, v in c.items()}
                     for (i, j), c in out.items()})


def _lam_free_inverse(coeffs: dict[tuple[int, int], Plain], monomials: list,
                      inv0: Plain, depth: int) -> dict[tuple[int, int], Plain]:
    """The loop of :func:`inverse` for a lam-free unit, on one plain value per
    monomial instead of a ``{0: value}`` dict.

    Each output (i, j) visits only the monomials (i1, j1) with i1 <= i and
    j1 <= j, in the order of ``monomials``: it reads row i, the list of the
    monomials with i1 <= i that is built once per call, up to total degree
    i + j, and skips those with j1 > j.  The outputs are kept in two
    tables by flat index ``i*(depth+1) + j``: as computed, and with every
    ``Fraction`` q as ``complex(q)``, the value ``Fraction``'s fallback gives
    q against a ``complex``.  A complex coefficient reads the second table, a
    ``Fraction`` one the first, so an exact product stays exact."""
    neg_inv0 = -inv0
    neg_c = complex(neg_inv0)
    n = depth + 1
    exact: list = [None] * (n * n)
    promoted: list = [None] * (n * n)
    exact[0], promoted[0] = inv0, complex(inv0)
    terms = []
    for i1, j1 in monomials:
        c = coeffs[(i1, j1)]
        terms.append((i1, i1 + j1, j1, i1 * n + j1, c,
                      promoted if c.__class__ is complex else exact))
    rows = [[t[1:] for t in terms if t[0] <= i] for i in range(n)]
    out: dict[tuple[int, int], Plain] = {(0, 0): inv0}
    for d in range(1, n):
        for i in range(d + 1):
            j, at = d - i, i * n + d - i
            acc = None
            for d1, j1, off, c, table in rows[i]:
                if d1 > d:
                    break
                if j1 > j:
                    continue
                prev = table[at - off]
                if prev is None:
                    continue
                v = c * prev
                if v:
                    acc = v if acc is None else acc + v
                    if not acc:
                        acc = None
            if acc is not None:
                v = acc * (neg_c if acc.__class__ is complex else neg_inv0)
                out[(i, j)] = exact[at] = v
                promoted[at] = complex(v) if v.__class__ is Fraction else v
    return out
