"""Field scalars: exact rationals (optionally extended by a square root) or complex floats.

A :class:`Scalar` is either

* **exact** -- ``a + b*sqrt(base)`` with ``a``, ``b``, ``base`` rational, used
  for lossless arithmetic.  The square-root part exists so that half-integer
  powers of a residue cardinality ``p`` (e.g. ``p**(-1/2)`` from Whittaker
  normalisation) stay exact: they live in the quadratic extension
  ``Q(sqrt(1/p))``.  If ``base`` is a perfect square the root is folded back
  into the rational part, so e.g. ``sqrt(1/4)`` is just ``1/2``.
* **numeric** -- a complex double.

Mixed operations promote exact to numeric.  Equality of numeric scalars is
deliberately not defined through ``==``; use :meth:`Scalar.close` with an
explicit tolerance.

**Ring rule.**  Below the reports, values are plain numbers: a ``Fraction``
(or ``int`` numerators over one denominator) where exact, a ``complex`` where
numeric.  Every computation on them gives the values, exactness and float
bits of :class:`Scalar` arithmetic on the same inputs:

* an exact value is formed exactly, and meets a numeric one as its
  :meth:`Scalar.to_complex` (``complex(n / den)`` of the reduced fraction,
  since integer true division rounds correctly);
* ``a - b`` is ``a + (-b)``;
* ``a / b`` is ``a * (1/b)``, the inverse by :func:`_inv`;
* powers come from :func:`_binary_power`, starting at ``1+0j`` (:func:`_pow`).

The boundary is here too: :func:`_ring` and :func:`_plain` (which refuses a
square root) take a value to its ring, :func:`_lifted` and :func:`_view` back
to Scalars.  They are private, so the benchmark's tracer, which wraps this
module's public functions, opens no span for them.

:class:`LambdaPoly` is the read-only view of a series coefficient that
:mod:`rankinlab.laurent` hands out: a polynomial in the formal symbol ``lam``
as ``c``, with ``coeff``, ``degree`` and the constructor ``lam``.  It has no
arithmetic; :mod:`rankinlab.numerator` is the one lam arithmetic, on plain
numbers.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction, float, complex]
Plain = Fraction | int | complex  # a coefficient as a Python number

_ZERO = Fraction(0)


class Scalar:
    """Immutable field element, exact (``a + b*sqrt(base)``) or numeric (complex)."""

    __slots__ = ("a", "b", "base", "z")

    def __init__(self, a: Fraction, b: Fraction, base: Fraction | None, z: complex | None):
        # Use the classmethod constructors; this raw form performs no checks.
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "z", z)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, value: RatLike) -> "Scalar":
        """The exact rational value; a Fraction is taken as it is."""
        return cls(value if value.__class__ is Fraction else Fraction(value), _ZERO, None, None)

    @classmethod
    def root(cls, base: RatLike, coeff: RatLike = 1) -> "Scalar":
        """coeff * sqrt(base), exact.  base must be positive.

        The base is canonicalised to a squarefree integer (sqrt(a/b) =
        sqrt(ab)/b, square factors extracted), so equal values always share a
        representation and mix freely in arithmetic.
        """
        base = Fraction(base)
        coeff = Fraction(coeff)
        if base <= 0:
            raise ValueError("square-root base must be positive")
        if coeff == 0:
            return cls(_ZERO, _ZERO, None, None)
        # sqrt(num/den) = sqrt(num*den)/den
        coeff = coeff / base.denominator
        square, free = _square_split(base.numerator * base.denominator)
        coeff = coeff * square
        if free == 1:
            return cls(coeff, _ZERO, None, None)
        return cls(_ZERO, coeff, Fraction(free), None)

    @classmethod
    def numeric(cls, value: complex) -> "Scalar":
        return cls(_ZERO, _ZERO, None, complex(value))

    @classmethod
    def wrap(cls, value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        # float/complex first: isinstance(z, Fraction) runs ABCMeta's Python hook
        if isinstance(value, (float, complex)):
            return cls.numeric(value)
        if isinstance(value, (int, Fraction)):
            return cls.exact(value)
        raise TypeError(f"cannot build Scalar from {type(value).__name__}")

    # -- predicates --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.z is None

    def is_zero(self) -> bool:
        """True for exact zero, or for a numeric value that is bitwise zero."""
        if self.z is None:
            return self.a == 0 and self.b == 0
        return self.z == 0

    # -- conversions -------------------------------------------------------

    def to_complex(self) -> complex:
        if self.z is not None:
            return self.z
        val = float(self.a)
        if self.b:
            val += float(self.b) * math.sqrt(float(self.base))
        return complex(val)

    # -- arithmetic --------------------------------------------------------

    def _check_base(self, other: "Scalar") -> Fraction | None:
        if self.base is not None and other.base is not None and self.base != other.base:
            raise ValueError(f"incompatible root bases {self.base} and {other.base}")
        return self.base if self.base is not None else other.base

    def __add__(self, other: ScalarLike) -> "Scalar":
        other = Scalar.wrap(other)
        if self.z is not None or other.z is not None:
            return Scalar.numeric(self.to_complex() + other.to_complex())
        base = self._check_base(other)
        b = self.b + other.b
        return Scalar(self.a + other.a, b, base if b else None, None)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        if self.z is not None:
            return Scalar.numeric(-self.z)
        return Scalar(-self.a, -self.b, self.base, None)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-Scalar.wrap(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.wrap(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        other = Scalar.wrap(other)
        if self.z is not None or other.z is not None:
            return Scalar.numeric(self.to_complex() * other.to_complex())
        if self.b == 0 and other.b == 0:
            return Scalar(self.a * other.a, _ZERO, None, None)
        base = self._check_base(other)
        a = self.a * other.a
        if self.b and other.b:
            a += self.b * other.b * base
        b = self.a * other.b + self.b * other.a
        return Scalar(a, b, base if b else None, None)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.z is not None:
            return Scalar.numeric(1.0 / self.z)
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError("inverse of exact zero")
            return Scalar.exact(1 / self.a)
        # (a + b sqrt(m))^-1 = (a - b sqrt(m)) / (a^2 - b^2 m)
        norm = self.a * self.a - self.b * self.b * self.base
        if norm == 0:
            raise ZeroDivisionError("inverse of exact zero in quadratic extension")
        b = -self.b / norm
        return Scalar(self.a / norm, b, self.base if b else None, None)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.wrap(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.wrap(other) * self.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int):
            raise TypeError("Scalar powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        return _binary_power(self, n, SC_ONE)

    def conjugate(self) -> "Scalar":
        """Complex conjugate; the identity on exact (real) scalars."""
        if self.z is not None:
            return Scalar.numeric(self.z.conjugate())
        return self

    def abs2(self) -> "Scalar":
        """|x|^2 = x * conj(x)."""
        return self * self.conjugate()

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.wrap(other)
        if self.z is not None or other.z is not None:
            raise ValueError("numeric Scalars compare only via close(); pass a tolerance")
        return self.a == other.a and self.b == other.b and (
            self.b == 0 or self.base == other.base
        )

    def __hash__(self):
        if self.z is not None:
            raise TypeError("numeric Scalars are unhashable")
        return hash((self.a, self.b, self.base))

    def close(self, other: ScalarLike, rel_tol: float = 1e-12, abs_tol: float = 1e-15) -> bool:
        """Tolerance comparison, the only equality defined for numeric scalars."""
        other = Scalar.wrap(other)
        if self.z is None and other.z is None:
            return self == other
        return cmath.isclose(self.to_complex(), other.to_complex(),
                             rel_tol=rel_tol, abs_tol=abs_tol)

    # -- formatting --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        return format_scalar(self)


def _binary_power(square, n: int, result):
    """result * square**n for n >= 0 by binary powering, the one power loop of
    Scalar, Poly2, RationalFunction2 and complex values."""
    while n:
        if n & 1:
            result = result * square
        n >>= 1
        if n:
            square = square * square
    return result


def _square_split(n: int) -> tuple[int, int]:
    """(square, free) with n = square**2 * free, free squarefree, for n >= 1:
    the one square split of :meth:`Scalar.root` and :func:`_root`."""
    square, free, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            square *= d
            n //= d * d
        if n % d == 0:
            free *= d
            n //= d
        d += 1
    return square, free * n


def format_scalar(s: Scalar) -> str:
    """Serialise a scalar: exact values as ``num/den`` (with an explicit
    ``num/den*sqrt(m)`` part in the root extension), numeric values as
    complex literals."""
    if s.z is not None:
        return repr(s.z)
    if s.b == 0:
        return str(s.a)
    parts = []
    if s.a:
        parts.append(str(s.a))
    root = f"sqrt({s.base})"
    parts.append(root if s.b == 1 else f"{s.b}*{root}")
    return "+".join(parts).replace("+-", "-")


def parse_exact(text: str) -> Scalar:
    """Parse ``num/den`` or a decimal string into a Scalar.

    Rational strings give exact scalars, anything with a decimal point or
    exponent gives a numeric scalar.
    """
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Scalar.exact(Fraction(int(num), int(den)))
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        return Scalar.numeric(complex(float(text)))
    return Scalar.exact(Fraction(int(text)))


SC_ZERO = Scalar.exact(0)
SC_ONE = Scalar.exact(1)


# -- between Scalar values and plain numbers ----------------------------------------

ROOT_REFUSAL = ("polynomials and series hold rational or numeric coefficients only: "
                "square roots enter only as evaluation points")


def _ring(v):
    """v as a value of its ring: a ``complex`` if numeric, a ``Fraction`` if
    rational, else its ``Q(sqrt p)`` :class:`Scalar`."""
    if v.__class__ is not Scalar:
        if v.__class__ is complex or v.__class__ is Fraction:
            return v
        v = Scalar.wrap(v)
    if v.z is not None:
        return v.z
    return v if v.b else v.a


def _plain(v: ScalarLike) -> Plain:
    """v as a plain Python number: an int, Fraction or complex as it is, else
    its :func:`_ring` value; a root-extension value is refused with
    ``ValueError`` (:data:`ROOT_REFUSAL`)."""
    if v.__class__ in (int, Fraction, complex):
        return v
    v = _ring(v)
    if v.__class__ is Scalar:
        raise ValueError(ROOT_REFUSAL)
    return v


def _lifted(c: dict, den: int | None) -> dict:
    """The values of a dict in kernel form as Scalars: an int, a numerator
    over den, exact; a complex numeric (every value when den is None)."""
    return {k: Scalar.exact(Fraction(v, den)) if v.__class__ is int else Scalar.numeric(v)
            for k, v in c.items()}


def _complex(v) -> complex:
    return v if v.__class__ is complex else v.to_complex() if v.__class__ is Scalar else complex(v)


def _inv(v):
    """1/v on the ring of v: 1.0/v for a complex, exact otherwise."""
    if v.__class__ is Scalar:
        return v.inverse()
    return 1 / v if v.__class__ is complex or v.__class__ is Fraction else Fraction(1) / v


def _pow(x, n: int):
    """x**n on the ring of x, as Scalar raises it: a complex x by
    :func:`_binary_power` from 1+0j, of 1/x for n < 0, and x**0 the exact 1."""
    if x.__class__ is not complex:
        return x ** n
    if not n:
        return Fraction(1)
    return _binary_power(1 / x if n < 0 else x, abs(n), 1 + 0j)


def _root(p: int, coeff: Fraction, lift: bool):
    """coeff * sqrt(p) as ``Scalar.root`` gives it; where ``lift``, that Scalar's
    ``to_complex()``, built without it."""
    if not lift:
        return _ring(Scalar.root(p, coeff))
    square, free = _square_split(p)
    coeff = coeff * square
    return complex(0.0 + float(coeff) * math.sqrt(free) if free > 1 else float(coeff))


class LambdaPoly:
    """Read-only view of a series coefficient: ``c`` maps each power of lam to
    its Scalar coefficient."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, Scalar] | None = None):
        self.c = coeffs if coeffs is not None else {}

    @classmethod
    def lam(cls, coeff: ScalarLike = 1, power: int = 1) -> "LambdaPoly":
        v = Scalar.wrap(coeff)
        return cls({} if v.is_zero() else {power: v})

    def degree(self) -> int:
        return max(self.c, default=-1)

    def coeff(self, k: int) -> Scalar:
        return self.c.get(k, SC_ZERO)

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            f"({v})" + ("" if k == 0 else f"*lam^{k}" if k > 1 else "*lam")
            for k, v in sorted(self.c.items())
        )


LP_ZERO = LambdaPoly()

SeriesNum = dict[tuple[int, int], LambdaPoly]


def _view(den: int, terms: dict) -> SeriesNum:
    """A kernel-form numerator as ``dict[(i, j)] -> LambdaPoly``, in its key order."""
    return {m: LambdaPoly(_lifted(c, den)) for m, c in terms.items()}


def _plain_coeffs(x) -> dict[int, Plain]:
    """The lam coefficients of a LambdaPoly, or of a constant given as a
    Scalar or a Python number, as plain numbers; zero constants give {}."""
    if isinstance(x, LambdaPoly):
        return {k: _plain(v) for k, v in x.c.items()}
    v = _plain(x)
    return {0: v} if v else {}
