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
Hecke recursion through :func:`hecke_stream`.  Their ``terms`` is a cap: a sum
ends earlier where no term it has left can change it, so the result is the
full ``terms``-term sum bit for bit.  Every oracle ends where each term left
is an exact zero (the stream has reached two exact zeros, or the weight
``x**n`` has underflowed to 0); the Rankin-Selberg oracle also ends where its
decayed stream cycles and a bound shows every later addition rounds away
(:func:`rankinlab.zetaint.rs_local_oracle`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .exactalg import nonzero_factor, power_of_p
from .localdata import PlaceData, zeta_scalar
from .scalars import SC_ONE, SC_ZERO, Scalar, ScalarLike

DEGENERACY_TOL = 1e-12


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
    ends once x**n underflows to 0: every later term is a zero, or NaN where
    |S(n+1)|**2 has overflowed."""
    x = complex(place.p) ** (-(1 + Scalar.wrap(s).to_complex()))
    total, xn = 0j, 1 + 0j
    for u in islice(hecke_stream(params), terms):
        total += (u * u.conjugate()) * xn
        xn *= x
        if not xn:
            break
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
    """Truncated-sum version of the normalised norm: sum of |W(diag(pi**n))|**2."""
    stream = islice(hecke_stream(params, place.p ** -0.5), terms)
    total = sum((w * w.conjugate() for w in stream), 0j)
    l_value = rankin_selberg_self_l(params, Scalar.exact(Fraction(1, place.p)))
    return zeta_scalar(place, 2) / l_value * Scalar.numeric(total)
