"""Non-archimedean Whittaker newvector values, norms, and weighted integrals.

Values on the diagonal are ``W(diag(pi_v**n)) = p**(-n/2) * S(n+1)`` with
``S(n) = (alpha1**n - alpha2**n)/(alpha1 - alpha2)``; the ``alpha1 == alpha2``
degeneracy is resolved by the limit ``S(n) = n*alpha**(n-1)``.

The closed forms and Satake sums here and in :mod:`zetaint` run on the ring
of their inputs and return one :class:`Scalar`.  :class:`SatakeParams` stores
its parameters, and a point enters, through ``scalars._ring``: a ``complex``
where numeric, a ``Fraction`` where rational and a :class:`Scalar` only where
a square root is live (``Q(sqrt p)`` holds the half-integer powers of p of
all-exact inputs), as :func:`rankinlab.exactalg.power_of_p` returns p**x.
Every operation follows the ring rule of :mod:`rankinlab.scalars`, bit for bit.

The weighted integral ``integral of |W|**2(y) |y|**s  d*y`` has the closed
form ``(1 - |alpha1*alpha2|**2 x**2) / prod_{i,j}(1 - alpha_i*conj(alpha_j)*x)``
with ``x = p**(-1-s)`` (the two-variable Cauchy identity for complete
homogeneous sums); a truncated-sum oracle provides the independent check.
Every truncated-sum oracle, here and in :mod:`zetaint`, reads the complex
Hecke recursion through :func:`hecke_stream` and adds its terms through one
stop rule, :func:`decayed_sum`.  Their ``terms`` is a cap: a sum ends earlier
where each term it has left is an exact zero (the stream has reached two
exact zeros, or the weight ``x**n`` has underflowed to 0), or where an a-priori
decay bound C (n+k+1)**2 q**n, q < 1, shows that no term left can move it.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat, takewhile

from .exactalg import nonzero_factor, power_of_p
from .localdata import PlaceData, zeta_value
from .scalars import SC_ZERO, Scalar, ScalarLike, _complex, _inv, _pow, _ring

DEGENERACY_TOL = 1e-12

_CHUNK = 32  # addends summed between two checks of the decay bound


@dataclass(frozen=True)
class SatakeParams:
    """Local Satake data (alpha1, alpha2), ramified flag, temperedness bound;
    alpha1 and alpha2 are stored on their ring (``scalars._ring``)."""

    alpha1: Fraction | complex | Scalar
    alpha2: Fraction | complex | Scalar
    ramified: bool = False
    theta: Fraction = Fraction(7, 64)

    @classmethod
    def unramified_unitary(cls, alpha1: ScalarLike, alpha2: ScalarLike | None = None,
                           theta: Fraction = Fraction(7, 64)) -> "SatakeParams":
        """Unramified with trivial central character: alpha1*alpha2 = 1 enforced."""
        a1 = _ring(alpha1)
        a2 = _inv(a1) if alpha2 is None else _ring(alpha2)
        prod = _ring(a1 * a2)  # a numeric Scalar where a root meets a complex
        if not (cmath.isclose(prod, 1, rel_tol=1e-9, abs_tol=1e-15)
                if prod.__class__ is complex else prod == 1):
            raise ValueError(f"alpha1*alpha2 = {prod}, expected 1")
        return cls(a1, a2, False, theta)

    @classmethod
    def make_ramified(cls, alpha1: ScalarLike) -> "SatakeParams":
        """Ramified convention: the second parameter is 0."""
        return cls(alpha1, Fraction(0), True)

    def __post_init__(self):
        object.__setattr__(self, "alpha1", _ring(self.alpha1))
        object.__setattr__(self, "alpha2", _ring(self.alpha2))
        if self.ramified and self.alpha2:
            raise ValueError("ramified parameters require alpha2 = 0")

    def confluent(self) -> bool:
        """alpha1 == alpha2: exactly, or within DEGENERACY_TOL relative to alpha1."""
        a1, a2 = self.alpha1, self.alpha2
        if complex not in (a1.__class__, a2.__class__):
            return a1 == a2
        c1 = _complex(a1)
        return abs(c1 - _complex(a2)) <= DEGENERACY_TOL * max(1.0, abs(c1))


def satake_sum(params: SatakeParams, n: int) -> Scalar:
    """S(n) = (alpha1**n - alpha2**n)/(alpha1 - alpha2), and n alpha**(n-1)
    when alpha1 == alpha2, on the ring of the parameters.

    Both formulas hold for every integer n: for n < 0 they give the algebraic
    continuation S(-n) = -S(n)/(alpha1*alpha2)**n, and a zero parameter
    (alpha2 = 0, the ramified case) raises ZeroDivisionError there.
    """
    a1, a2 = params.alpha1, params.alpha2
    if n == 0:
        return SC_ZERO
    if params.confluent():
        return Scalar.wrap(n * _pow(a1, n - 1))
    return Scalar.wrap((_pow(a1, n) + -_pow(a2, n)) * _inv(a1 + -a2))


def whittaker_value(params: SatakeParams, place: PlaceData, n: int) -> Scalar:
    """W(diag(pi**n)): 0 for n < 0, else p**(-n/2) * S(n+1)."""
    if n < 0:
        return SC_ZERO
    return power_of_p(place.p, Fraction(n, 2), -1) * satake_sum(params, n + 1)


def _hecke_recursion(t, delta) -> Iterator:
    """u(1), u(2), ... of the Hecke recursion u(n+1) = t u(n) - delta u(n-1), u(0) = 0,
    u(1) = 1, on integers or complex doubles.  It ends after two consecutive
    exact zeros: the recursion makes every later value zero."""
    u_prev, u = 0, 1
    while True:
        yield u
        if not (u or u_prev):
            return
        u_prev, u = u, t * u - delta * u_prev


def hecke_stream(params: SatakeParams, step: complex = 1.0) -> Iterator[complex]:
    """step**n * S(n+1) for n = 0, 1, 2, ..., complex after S(1) = 1: the Hecke
    recursion at t = step (a1+a2), delta = step**2 a1 a2, which ends after two
    consecutive exact zeros.  The decay is folded into the recursion, so a step
    below one keeps the terms of non-tempered parameters from overflowing;
    with step = p**(-1/2) the stream is W(diag(pi**n)).
    """
    a1, a2 = _complex(params.alpha1), _complex(params.alpha2)
    return _hecke_recursion(step * (a1 + a2), step * step * (a1 * a2))


def _largest(params: SatakeParams) -> float:
    """max |alpha_i|, which bounds |S(n+1)| by (n+1) max|alpha|**n."""
    return max(abs(_complex(params.alpha1)), abs(_complex(params.alpha2)))


def _absorbs(c: float, addend: float, stays_zero: bool) -> bool:
    """Whether adding any float of magnitude at most ``addend`` (or, where
    ``stays_zero``, only signed zeros) returns the total component c unchanged."""
    if c == 0:
        return stays_zero and math.copysign(1.0, c) > 0
    # round to nearest, strictly inside half the narrower neighbouring gap
    return addend < math.ulp(c) / 4


def decayed_sum(addends: Iterable[complex], terms: int, q: float, a: float, k: int,
                stays_zero: bool, total: complex = 0j) -> complex:
    """``total`` plus the first ``terms`` addends, added in order by plain
    complex addition, bit for bit; it ends where the addends end, or earlier
    where the caller's bound |addend n| <= a (n+k+1)**2 q**n shows that no
    addend left can change the total:

    - Tempered bound.  S(n+1) sums alpha1**i alpha2**j over i + j = n, so
      |step**n S(n+1)| <= (n+1) rho**n, rho = step max|alpha|.
    - Factor 2.  First-order rounding in the recursion grows as n**2 eps
      relative to that bound, so for n <= 10**6 the computed stream stays
      within twice it (a = 4 for a product of two streams); the rounding of
      the weights x**n and p**(-nz), taken by repeated products, and of the
      bound stays inside that slack.
    - Subnormal floor.  Below the normal range a rounding is off by up to
      half a subnormal: a recursion step leaves at most two per component,
      carried on with gain |u(i)| <= i + 1 (rho <= 1), so with the other
      factor of an addend (at most 2 (terms+k+1)) and its own rounding, every
      addend is within the bound plus 16 (terms+k+1)**3 subnormals.  A growing
      factor (|p**(-z)| > 1, or max|alpha| > 1 against a decaying weight)
      lifts its partner's remnants past this floor: the full-length loop then
      adds rounding noise to a converged series, and NaN once the factor
      overflows, where this sum returns the series.
    - Absorption.  Round-to-nearest addition leaves a component c != 0
      unchanged when the addend is strictly below ulp(c)/4, half the narrower
      gap next to c; ``sum`` does not compensate complex sums.  A +0.0 part
      stays +0.0 where ``stays_zero``: every addend's imaginary part is a zero.

    After each chunk, ending at n, it stops once (n+k+1)**2 q**n decreases
    from n on and both components absorb the bound at n plus the floor.
    Where q >= 1 or terms > 10**6 it runs to ``terms``.
    """
    bounded = q < 1 and terms <= 10 ** 6
    floor = 16 * (terms + k + 1) ** 3 * math.ulp(0.0)
    addends, n = islice(addends, terms), 0
    while part := list(islice(addends, _CHUNK)):
        total, n = sum(part, total), n + len(part)
        if bounded and (n + k + 2) ** 2 * q <= (n + k + 1) ** 2:
            bound = a * (n + k + 1) ** 2 * q ** n + floor
            if _absorbs(total.real, bound, False) and _absorbs(total.imag, bound, stays_zero):
                break
    return total


# -- closed forms ------------------------------------------------------------------

def l_factor_product(a: tuple, b: tuple, x):
    """prod_{i,j} (1 - a_i * b_j * x)**(-1) on the ring of the inputs, skipping
    factors with a zero parameter."""
    value = 1
    for ai in a:
        if not ai:
            continue
        for bj in b:
            if bj:
                value = value * _inv(nonzero_factor(1 + -(ai * bj * x), "local L-factor"))
    return value


def rankin_selberg_self_l(params: SatakeParams, x: ScalarLike):
    """L-factor of pi tensor its conjugate at x = p**(-s), on the ring of the inputs."""
    a = params.alpha1, params.alpha2
    return l_factor_product(a, [v.conjugate() for v in a], _ring(x))


def _weighted(params: SatakeParams, x):
    delta = params.alpha1 * params.alpha2
    numerator = 1 + -(delta * delta.conjugate() * _pow(x, 2))
    return numerator * rankin_selberg_self_l(params, x)


def weighted_integral_closed(params: SatakeParams, place: PlaceData,
                             s: ScalarLike) -> Scalar:
    """Closed form of the weighted square integral:
    (1 - |alpha1*alpha2|**2 x**2) * L-product at x = p**(-1-s), on the ring of
    the inputs (see the module docstring)."""
    return Scalar.wrap(_weighted(params, power_of_p(place.p, 1 + _ring(s), -1)))


def weighted_integral_oracle(params: SatakeParams, place: PlaceData,
                             s: ScalarLike, terms: int = 10_000) -> Scalar:
    """Truncated sum over n of |S(n+1)|**2 * p**(-n(1+s)); numeric, independent
    of the closed form (Hecke recursion, no geometric resummation).  The sum
    ends once x**n underflows to 0 (every later term is a zero, or NaN where
    |S(n+1)|**2 has overflowed), or at the decay bound
    4 (n+1)**2 (max|alpha|**2 |x|)**n of :func:`decayed_sum`."""
    x = complex(place.p) ** (-(1 + _complex(s)))
    weights = takewhile(bool, accumulate(repeat(x), operator.mul, initial=1 + 0j))
    addends = ((u * u.conjugate()) * xn for xn, u in zip(weights, hecke_stream(params)))
    # u conj(u) is real, so a real x gives every addend a zero imaginary part
    total = decayed_sum(addends, terms, _largest(params) ** 2 * abs(x), 4.0, 0, x.imag == 0)
    return Scalar.numeric(total)


def whittaker_norm_sq(params: SatakeParams, place: PlaceData) -> Scalar:
    """Normalised norm ||W||**2 = zeta_v(2)/L_v(1, pi x conj(pi)) * <W, W>, on
    the ring of the inputs (see the module docstring).

    Evaluates to 1 for unramified unitary parameters; in the ramified case the
    inner product is the single geometric series (1 - |alpha1|**2/p)**(-1).
    """
    p = place.p
    pinv = Fraction(1, p)
    a1, a2 = params.alpha1, params.alpha2
    growth = a1 * a1.conjugate() * pinv
    if abs(_complex(growth)) >= 1:
        raise ValueError("norm series diverges: |alpha1|**2 >= p")
    l_value = rankin_selberg_self_l(params, pinv)
    if params.ramified:
        inner = _inv(1 + -growth)
    else:
        if abs(_complex(a2 * a2.conjugate() * pinv)) >= 1:
            raise ValueError("norm series diverges: |alpha2|**2 >= p")
        inner = _weighted(params, pinv)  # x = p**(-1-s) at s = 0
    return Scalar.wrap(zeta_value(place, 2) * _inv(l_value) * inner)


def whittaker_norm_sq_oracle(params: SatakeParams, place: PlaceData,
                             terms: int = 10_000) -> Scalar:
    """Truncated-sum version of the normalised norm: sum of |W(diag(pi**n))|**2,
    up to the decay bound 4 (n+1)**2 (max|alpha|**2/p)**n of :func:`decayed_sum`
    (each w conj(w) has a +0.0 imaginary part)."""
    stream = hecke_stream(params, place.p ** -0.5)
    total = decayed_sum((w * w.conjugate() for w in stream), terms,
                        _largest(params) ** 2 / place.p, 4.0, 0, True)
    l_value = rankin_selberg_self_l(params, Fraction(1, place.p))
    return Scalar.wrap(zeta_value(place, 2) * _inv(l_value) * total)
