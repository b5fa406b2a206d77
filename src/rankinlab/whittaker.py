"""Non-archimedean Whittaker newvector values, norms, and weighted integrals.

Values on the diagonal are ``W(diag(pi_v**n)) = p**(-n/2) * S(n+1)`` with
``S(n) = (alpha1**n - alpha2**n)/(alpha1 - alpha2)``; the ``alpha1 == alpha2``
degeneracy is resolved by the limit ``S(n) = n*alpha**(n-1)``.  Half-integer
powers of p stay exact through the quadratic extension in :class:`Scalar`.

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

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat, takewhile

from .exactalg import nonzero_factor, power_of_p
from .localdata import PlaceData, zeta_scalar
from .scalars import SC_ONE, SC_ZERO, Scalar, ScalarLike

DEGENERACY_TOL = 1e-12

_CHUNK = 32  # addends summed between two checks of the decay bound


@dataclass(frozen=True)
class SatakeParams:
    """Local Satake data (alpha1, alpha2), ramified flag, temperedness bound."""

    alpha1: Scalar
    alpha2: Scalar
    ramified: bool = False
    theta: Fraction = Fraction(7, 64)

    @classmethod
    def unramified_unitary(cls, alpha1: ScalarLike, alpha2: ScalarLike | None = None,
                           theta: Fraction = Fraction(7, 64)) -> "SatakeParams":
        """Unramified with trivial central character: alpha1*alpha2 = 1 enforced."""
        a1 = Scalar.wrap(alpha1)
        a2 = a1.inverse() if alpha2 is None else Scalar.wrap(alpha2)
        prod = a1 * a2
        if not prod.close(SC_ONE, rel_tol=1e-9):
            raise ValueError(f"alpha1*alpha2 = {prod}, expected 1")
        return cls(a1, a2, False, theta)

    @classmethod
    def make_ramified(cls, alpha1: ScalarLike) -> "SatakeParams":
        """Ramified convention: the second parameter is 0."""
        return cls(Scalar.wrap(alpha1), SC_ZERO, True)

    def __post_init__(self):
        if self.ramified and not self.alpha2.is_zero():
            raise ValueError("ramified parameters require alpha2 = 0")

    def conjugate(self) -> "SatakeParams":
        return SatakeParams(self.alpha1.conjugate(), self.alpha2.conjugate(),
                            self.ramified, self.theta)

    def confluent(self) -> bool:
        """alpha1 == alpha2: exactly, or within DEGENERACY_TOL relative to alpha1."""
        diff = self.alpha1 - self.alpha2
        if diff.is_exact:
            return diff.is_zero()
        return abs(diff.to_complex()) <= DEGENERACY_TOL * max(1.0, abs(self.alpha1.to_complex()))


def satake_sum(params: SatakeParams, n: int) -> Scalar:
    """S(n) = (alpha1**n - alpha2**n)/(alpha1 - alpha2), and n alpha**(n-1)
    when alpha1 == alpha2.

    Both formulas hold for every integer n: for n < 0 they give the algebraic
    continuation S(-n) = -S(n)/(alpha1*alpha2)**n, and a zero parameter
    (alpha2 = 0, the ramified case) raises ZeroDivisionError there.
    """
    a1, a2 = params.alpha1, params.alpha2
    if n == 0:
        return SC_ZERO
    if params.confluent():
        return Scalar.wrap(n) * a1 ** (n - 1)
    return (a1 ** n - a2 ** n) / (a1 - a2)


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
    a1, a2 = params.alpha1.to_complex(), params.alpha2.to_complex()
    return _hecke_recursion(step * (a1 + a2), step * step * (a1 * a2))


def _largest(params: SatakeParams) -> float:
    """max |alpha_i|, which bounds |S(n+1)| by (n+1) max|alpha|**n."""
    return max(abs(params.alpha1.to_complex()), abs(params.alpha2.to_complex()))


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


def l_factor_product(a: SatakeParams, b: SatakeParams, x: Scalar) -> Scalar:
    """prod_{i,j} (1 - a_i * b_j * x)**(-1), skipping factors with a zero parameter."""
    value = SC_ONE
    for ai in (a.alpha1, a.alpha2):
        if ai.is_zero():
            continue
        for bj in (b.alpha1, b.alpha2):
            if bj.is_zero():
                continue
            value = value / nonzero_factor(SC_ONE - ai * bj * x, "local L-factor")
    return value


def rankin_selberg_self_l(params: SatakeParams, x: Scalar) -> Scalar:
    """L-factor of pi tensor its conjugate at x = p**(-s)."""
    return l_factor_product(params, params.conjugate(), x)


def weighted_integral_closed(params: SatakeParams, place: PlaceData,
                             s: ScalarLike) -> Scalar:
    """Closed form of the weighted square integral:
    (1 - |alpha1*alpha2|**2 x**2) * L-product at x = p**(-1-s)."""
    s = Scalar.wrap(s)
    x = power_of_p(place.p, SC_ONE + s, -1)
    delta2 = (params.alpha1 * params.alpha2).abs2()
    numerator = SC_ONE - delta2 * x ** 2
    return numerator * rankin_selberg_self_l(params, x)


def weighted_integral_oracle(params: SatakeParams, place: PlaceData,
                             s: ScalarLike, terms: int = 10_000) -> Scalar:
    """Truncated sum over n of |S(n+1)|**2 * p**(-n(1+s)); numeric, independent
    of the closed form (Hecke recursion, no geometric resummation).  The sum
    ends once x**n underflows to 0 (every later term is a zero, or NaN where
    |S(n+1)|**2 has overflowed), or at the decay bound
    4 (n+1)**2 (max|alpha|**2 |x|)**n of :func:`decayed_sum`."""
    x = complex(place.p) ** (-(1 + Scalar.wrap(s).to_complex()))
    weights = takewhile(bool, accumulate(repeat(x), operator.mul, initial=1 + 0j))
    addends = ((u * u.conjugate()) * xn for xn, u in zip(weights, hecke_stream(params)))
    # u conj(u) is real, so a real x gives every addend a zero imaginary part
    total = decayed_sum(addends, terms, _largest(params) ** 2 * abs(x), 4.0, 0, x.imag == 0)
    return Scalar.numeric(total)


def whittaker_norm_sq(params: SatakeParams, place: PlaceData) -> Scalar:
    """Normalised norm ||W||**2 = zeta_v(2)/L_v(1, pi x conj(pi)) * <W, W>.

    Evaluates to 1 for unramified unitary parameters; in the ramified case the
    inner product is the single geometric series (1 - |alpha1|**2/p)**(-1).
    """
    p = place.p
    pinv = Scalar.exact(Fraction(1, p))
    a1_sq = params.alpha1.abs2()
    growth = a1_sq * pinv
    growth_c = growth.to_complex()
    if abs(growth_c) >= 1:
        raise ValueError("norm series diverges: |alpha1|**2 >= p")
    l_value = rankin_selberg_self_l(params, pinv)
    if params.ramified:
        inner = (SC_ONE - growth).inverse()
    else:
        a2_sq = params.alpha2.abs2()
        if abs((a2_sq * pinv).to_complex()) >= 1:
            raise ValueError("norm series diverges: |alpha2|**2 >= p")
        inner = weighted_integral_closed(params, place, 0)
    return zeta_scalar(place, 2) / l_value * inner


def whittaker_norm_sq_oracle(params: SatakeParams, place: PlaceData,
                             terms: int = 10_000) -> Scalar:
    """Truncated-sum version of the normalised norm: sum of |W(diag(pi**n))|**2,
    up to the decay bound 4 (n+1)**2 (max|alpha|**2/p)**n of :func:`decayed_sum`
    (each w conj(w) has a +0.0 imaginary part)."""
    stream = hecke_stream(params, place.p ** -0.5)
    total = decayed_sum((w * w.conjugate() for w in stream), terms,
                        _largest(params) ** 2 / place.p, 4.0, 0, True)
    l_value = rankin_selberg_self_l(params, Scalar.exact(Fraction(1, place.p)))
    return zeta_scalar(place, 2) / l_value * Scalar.numeric(total)
