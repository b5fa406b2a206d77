"""Places, ideal factorizations, congruence-subgroup volumes, and local zeta factors.

The local zeta factor at a place with residue cardinality ``p`` is
``zeta_v(s) = (1 - p**(-s))**(-1)``, with no factor from the different: the
level ideal is coprime to it.  Arguments of the form ``m + a*z + b*w`` are
represented by :class:`Shift` and produce rational functions in
``T1 = p**(-z)``, ``T2 = p**(-w)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import Poly2, RationalFunction2
from .numerator import plain
from .scalars import Scalar, ScalarLike


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                n //= d
            return n == 1
        d += 1
    return True  # n itself prime


@dataclass(frozen=True)
class Shift:
    """Argument m + a*z + b*w; m is half-integral only as a section parameter (|y|**s)."""

    m: Fraction
    a: int = 0
    b: int = 0

    @classmethod
    def of(cls, m, a: int = 0, b: int = 0) -> "Shift":
        return cls(Fraction(m), a, b)

    def times(self, k: int) -> "Shift":
        return Shift(self.m * k, self.a * k, self.b * k)

    def plus(self, c) -> "Shift":
        return Shift(self.m + Fraction(c), self.a, self.b)


@dataclass(frozen=True)
class PlaceData:
    """One non-archimedean place: residue cardinality p and exponent r of the
    ideal at this place."""

    p: int
    r: int = 0

    def __post_init__(self):
        if not is_prime_power(self.p):
            raise ValueError(f"residue cardinality {self.p} is not a prime power >= 2")
        if self.r < 0:
            raise ValueError("exponents must be nonnegative")


@dataclass(frozen=True)
class IdealFactorization:
    """The ideal prod p_v**r_v, one entry per place with r_v > 0."""

    places: tuple[PlaceData, ...]

    def __post_init__(self):
        seen = set()
        for pl in self.places:
            if pl.r <= 0:
                raise ValueError("ideal factorization entries need r >= 1")
            if pl.p in seen:
                raise ValueError(f"duplicate residue cardinality {pl.p}")
            seen.add(pl.p)

    @classmethod
    def parse(cls, text: str) -> "IdealFactorization":
        """Parse strings like ``2^3*5^1*49^2`` (cardinality^exponent)."""
        text = text.strip()
        if text in ("", "1"):
            return cls(())
        places = []
        for chunk in text.split("*"):
            chunk = chunk.strip()
            if "^" in chunk:
                base, _, exp = chunk.partition("^")
                places.append(PlaceData(int(base), int(exp)))
            else:
                places.append(PlaceData(int(chunk), 1))
        return cls(tuple(places))

    def __str__(self) -> str:
        if not self.places:
            return "1"
        return "*".join(f"{pl.p}^{pl.r}" for pl in self.places)


def omega(q: IdealFactorization) -> int:
    """Number of distinct prime ideals dividing q."""
    return len(q.places)


def norm(q: IdealFactorization) -> int:
    """N(q) = prod p**r."""
    n = 1
    for pl in q.places:
        n *= pl.p ** pl.r
    return n


def zeta_value(place: PlaceData, s: int) -> Fraction:
    """zeta_v(s) = p**s / (p**s - 1), for an ``int`` s >= 1 only."""
    if s.__class__ is not int or s < 1:
        raise ValueError(f"zeta_v(s) takes an int s >= 1, got {s!r}")
    q = place.p ** s
    return Fraction(q, q - 1)


def zeta_scalar(place: PlaceData, s: int) -> Scalar:
    """:func:`zeta_value` as an exact Scalar."""
    return Scalar.exact(zeta_value(place, s))


def zeta_local(place: PlaceData, shift: Shift, alpha: ScalarLike = 1) -> RationalFunction2:
    """(1 - alpha * p**(-m) T1**a T2**b)**(-1), so zeta_v(m + a*z + b*w) for
    alpha = 1, as lift / (lift - c*mono) with the lift monomial
    T1**max(0,-a) T2**max(0,-b) making every exponent nonnegative.  m is an
    integer (else a ValueError), so c = alpha p**(-m) stays on alpha's ring.

    For a nonzero rational c and (a, b) != (0, 0) the factor is built in the
    form :meth:`RationalFunction2.with_factor` gives it: monic in its
    lex-leading monomial, the lift monomial first, the lift numerator times
    -1/c when mono leads; otherwise the generic ``with_factor`` builds it.
    """
    p, a, b, m = place.p, shift.a, shift.b, shift.m
    if m.denominator != 1:
        raise ValueError(f"zeta_local takes an integer constant m, got m = {m}")
    k = m.numerator
    c = Fraction(1, p ** k) if k >= 0 else Fraction(p ** -k)
    if not (alpha.__class__ is int and alpha == 1):  # zeta_v takes p**(-m) as it is
        c = plain(alpha) * c
    lift, mono = (max(0, -a), max(0, -b)), (max(0, a), max(0, b))
    num = Poly2._make(1, {lift: 1})
    if c.__class__ is complex or not c or lift == mono:
        return RationalFunction2.from_poly(num, p).with_factor(num - Poly2.monomial(*mono, c))
    n, d = c.numerator, c.denominator
    if lift > mono:
        factor = Poly2._make(d, {lift: d, mono: -n})
    else:
        coeff = -d if n > 0 else d  # the factor over -c is lift * (-1/c) + mono
        num = Poly2._make(abs(n), {lift: coeff})
        factor = Poly2._make(abs(n), {lift: coeff, mono: abs(n)})
    return RationalFunction2(num, {factor.key(): (factor, 1)}, p)


def zeta_q_scalar(q: IdealFactorization, s) -> Scalar:
    value = Scalar.exact(1)
    for pl in q.places:
        value = value * zeta_scalar(pl, s)
    return value


def volume_K(place: PlaceData) -> Scalar:
    """vol(K_{p**r}) = p**(-r) * zeta_v(2)/zeta_v(1) for r >= 1."""
    if place.r < 1:
        raise ValueError("congruence subgroup needs r >= 1")
    p = place.p
    return Scalar.exact(Fraction(p, p + 1) / Fraction(p) ** place.r)


def inv_volume_Kq(q: IdealFactorization) -> Scalar:
    """vol**(-1)(K_q) = N(q) * zeta_q(1)/zeta_q(2)."""
    value = Scalar.exact(norm(q))
    for pl in q.places:
        value = value * zeta_scalar(pl, 1) / zeta_scalar(pl, 2)
    return value
