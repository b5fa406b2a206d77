"""Local zeta integrals on Bruhat coordinates at places dividing the ideal.

Everything here is a rational function in T1 = p**(-z), T2 = p**(-w) (z and w
are the two spectral parameters).  ``psi_closed`` returns the closed forms
G_v(sign_z z, sign_w w) h_v, from the factors that survive their cancellation,
of the four integrals pairing the principal-series vector ``f`` (sign +1) or
its intertwined partner ``ftilde`` (sign -1) at each parameter against the
square of the unramified Whittaker vector; the table :data:`KIND_SIGNS` maps
each kind to its (sign_z, sign_w).  Every local factor in them, the
Rankin-Selberg ones included, is a :func:`rankinlab.localdata.zeta_local`.
``psi_oracle`` recomputes them by exact summation over valuation strata of
the Bruhat coordinates (the c-integrand is constant on each shell
``val(c) = -j`` of measure ``p**j (1-1/p)``, and the y-sum is a Whittaker
power series in one variable X = p**(-1) T1**a T2**b, summed in closed form
through the three-term recursion of S(n)**2 from its first three terms: on
integers over powers of D = d1*d2 for rational Satake parameters n_i/d_i, on
complex values otherwise).  The two must agree exactly as rational functions.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, islice, repeat

from .exactalg import Poly2, RationalFunction2, _p_power, _reduced, nonzero_factor, power_of_p
from .localdata import PlaceData, Shift, zeta_local, zeta_value
from .scalars import SC_ONE, Scalar, ScalarLike, _complex, _inv, _plain, _pow, _ring, _root
from .whittaker import (SatakeParams, _alphas, _hecke_recursion, _largest, decayed_sum,
                        hecke_stream, l_factor_product, satake_sum)

KIND_SIGNS = {"i": (1, 1), "ii": (-1, 1), "iii": (1, -1), "iv": (-1, -1)}
KINDS = tuple(KIND_SIGNS)

HALF_Z = Shift.of(Fraction(1, 2), 1, 0)  # the section parameters 1/2 + z
HALF_W = Shift.of(Fraction(1, 2), 0, 1)  # and 1/2 + w
_MINUS_HALF = Fraction(-1, 2)


@dataclass(frozen=True)
class BruhatPoint:
    """Valuations of the Bruhat coordinates (y, c); val_c None means c = 0."""

    val_y: int
    val_c: int | None


@dataclass(frozen=True)
class LocalZetaResult:
    value: RationalFunction2
    provenance: str  # "closed-form" | "oracle"


def _abs_power(place: PlaceData, val: int, shift: Shift) -> RationalFunction2:
    """|pi**val| ** (m + a z + b w) = p**(-val*m) T1**(val*a) T2**(val*b)."""
    coeff = power_of_p(place.p, shift.m * val, -1)
    return RationalFunction2.monomial(val * shift.a, val * shift.b, coeff, place.p)


# -- principal-series vectors on lower-triangular Bruhat coordinates ---------

def f_eval(place: PlaceData, pt: BruhatPoint, s: Shift) -> RationalFunction2:
    """f_s(y; c) = |y|**s * [c integral], for the section attached to
    the indicator pair (integers, units) at a place dividing the ideal."""
    if place.r < 1:
        raise ValueError("f_eval is defined at places dividing the ideal (r >= 1)")
    if pt.val_c is not None and pt.val_c < 0:
        return RationalFunction2.const(0, place.p)
    return _abs_power(place, pt.val_y, s)


def ftilde_eval(place: PlaceData, pt: BruhatPoint, s: Shift) -> RationalFunction2:
    """Intertwined partner on Bruhat coordinates:

    |y|**(1-s) * zeta_v(2(1-s))/zeta_v(1)                      for c integral,
    |y|**(1-s) * zeta_v(2(1-s))/zeta_v(2s-1) * |c|**(-2(1-s))  otherwise.
    """
    if place.r < 1:
        raise ValueError("ftilde_eval is defined at places dividing the ideal (r >= 1)")
    one_minus = s.times(-1).plus(1)
    out = zeta_local(place, one_minus.times(2))
    if pt.val_y:  # |y|**(1-s) is 1 at val_y = 0
        out = _abs_power(place, pt.val_y, one_minus) * out
    if pt.val_c is None or pt.val_c >= 0:
        return out / zeta_value(place, 1)
    out = out / zeta_local(place, s.times(2).plus(-1))
    return out * _abs_power(place, pt.val_c, one_minus.times(-2))


# -- closed forms -------------------------------------------------------------

def rs_l_rf(pi0: SatakeParams, place: PlaceData, shift: Shift) -> RationalFunction2:
    """Rankin-Selberg factor of pi0 x contragredient(pi0) at the shifted
    argument, from the products alpha_i * alpha_j of plain ``Fraction`` or
    ``complex`` parameters; ``_plain`` refuses a square-root part."""
    alphas = (_plain(pi0.alpha1), _plain(pi0.alpha2))
    return reduce(operator.mul, (zeta_local(place, shift, ai * aj)
                                 for ai in alphas for aj in alphas))


def correction_factor_rf(place: PlaceData) -> RationalFunction2:
    """The excess factor in the fourth integral:

    N(p)**(-(r+1)(1-2z-2w)) * zeta(1-2z) zeta(1-2w) zeta(1)
                            / (zeta(2z) zeta(2w) zeta(2z+2w)).

    Its expansion at the origin starts 8 z w (z+w) zeta(1)**3 log**3(p) / p**(r+1).
    """
    r1 = place.r + 1
    lead = RationalFunction2.monomial(-2 * r1, -2 * r1, Fraction(1, place.p ** r1), place.p)
    out = lead * zeta_local(place, Shift.of(1, -2, 0)) * zeta_local(place, Shift.of(1, 0, -2))
    out = out * zeta_value(place, 1)
    out = out / zeta_local(place, Shift.of(0, 2, 0)) / zeta_local(place, Shift.of(0, 0, 2))
    return out / zeta_local(place, Shift.of(0, 2, 2))


def correction_leading(place: PlaceData) -> Fraction:
    """The lam**3 coefficient of z**2 w and of z w**2 in the expansion of
    :func:`correction_factor_rf` (lam = log p): 8 zeta(1)**3 / p**(r+1), with
    zeta(1) = p/(p-1)."""
    return 8 * Fraction(place.p, place.p - 1) ** 3 / place.p ** (place.r + 1)


def _psi_signs(kind: str, place: PlaceData, pi0: SatakeParams) -> tuple[int, int]:
    """The (sign_z, sign_w) of a psi kind, once the inputs of both psi forms are
    checked: rational or numeric Satake parameters, never one with a square root."""
    if place.r < 1:
        raise ValueError("psi is computed at places dividing the ideal (r >= 1)")
    if pi0.ramified:
        raise ValueError("the fixed representation must be unramified")
    for alpha in (pi0.alpha1, pi0.alpha2):
        if alpha.z is None and alpha.b:
            raise ValueError(f"Satake parameter {alpha} has a square-root part")
    if kind not in KIND_SIGNS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return KIND_SIGNS[kind]


def psi_closed(kind: str, place: PlaceData, pi0: SatakeParams) -> LocalZetaResult:
    """Closed form of the four local zeta integrals at a place dividing the ideal.

    The paper's Psi_v is G_v(sz z, sw w) h_v, (sz, sw) = KIND_SIGNS[kind], times
    1 - :func:`correction_factor_rf` for kind iv, with G_v(z, w) = N(p)**(r(z+w))
    zeta(1+2z) zeta(1+2w) L(1+z+w, pi0 x pi0~) / zeta(2+2z+2w) and h_v, for kinds
    i..iv, 1/(zeta(1+2z) zeta(1+2w)), 1/(zeta(1) zeta(1+2w)), 1/(zeta(1+2z) zeta(1))
    and zeta(1-2z-2w)/(zeta(1-2z) zeta(1-2w) zeta(1)).  h_v cancels both zeta factors
    of G_v in kinds i and iv and the one of sign +1 in kinds ii and iii, so this
    builds only T1**(-sz r) T2**(-sw r) L(1+sz z+sw w) / zeta(2+2sz z+2sw w), times
    zeta(1 - 2z[sz<0] - 2w[sw<0])/zeta(1) where a sign is -1.
    """
    sz, sw = _psi_signs(kind, place, pi0)
    p, r = place.p, place.r
    value = rs_l_rf(pi0, place, Shift.of(1, sz, sw)) * RationalFunction2.monomial(
        -sz * r, -sw * r, 1, p)
    value = value / zeta_local(place, Shift.of(2, 2 * sz, 2 * sw))
    if sz < 0 or sw < 0:
        value = value * zeta_local(place, Shift.of(1, min(0, 2 * sz), min(0, 2 * sw)))
        value = value / zeta_value(place, 1)
    if kind == "iv":
        value = value * (RationalFunction2.const(1, p) - correction_factor_rf(place))
    return LocalZetaResult(value, "closed-form")


# -- stratum-sum oracle --------------------------------------------------------

def whittaker_square_sum(pi0: SatakeParams, place: PlaceData, a: int, b: int) -> RationalFunction2:
    """sum_{n>=0} |W|**2(pi**n) * |pi**n|**(a z + b w) as an exact rational function.

    In the one variable X = p**(-1) T1**a T2**b the sum is sum A_n X**n with
    A_n = S(n+1)**2, S from the Hecke recursion S(n+1) = t S(n) - delta S(n-1).
    The A_n follow a three-term recursion (characteristic roots alpha1**2,
    alpha1*alpha2, alpha2**2), so the sum is num/den with
    den = 1 - e1 X + e2 X**2 - e3 X**3 and num the terms of den times the
    series below X**3, which A_0, A_1 and A_2 fix; the X**2 one is 0, so num
    is A_0 + (A_1 - e1 A_0) X.  For rational
    alpha_i = n_i/d_i the S(n) are integers over D**(n-1), D = d1*d2:
    s_n = S(n) D**(n-1) runs on integers, s_(n+1) = T s_n - Delta s_(n-1)
    with T = n1 d2 + n2 d1 and Delta = n1 n2 d1 d2, and so do the numerator
    and denominator lists of the sum in Y = X / D**2 and their recursion
    constants.  Complex parameters run the same lines with D = 1; ``_plain``
    refuses a square root.  Y = T1**a T2**b / (p D**2) is substituted last.
    """
    p = place.p
    a1, a2 = _plain(pi0.alpha1), _plain(pi0.alpha2)
    exact = complex not in (a1.__class__, a2.__class__)
    if exact:
        n1, d1, n2, d2 = a1.numerator, a1.denominator, a2.numerator, a2.denominator
    else:
        n1, d1, n2, d2 = a1, 1, a2, 1
    d = d1 * d2
    # T and Delta; at D = 1 the unit factors stay out (a complex times 1 can
    # flip the sign of a zero part)
    t, delta = (n1 * d2 + n2 * d1, n1 * n2 * d) if d > 1 else (n1 + n2, n1 * n2)
    # B_n = s_(n+1)**2 = A_n D**(2n): B_n = e1 B_{n-1} - e2 B_{n-2} + e3 B_{n-3}
    b0, b1, b2 = (s * s for s in islice(_hecke_recursion(t, delta), 3))
    e1 = t * t - delta
    e2 = delta * t * t - delta * delta
    e3 = delta ** 3
    den = [1, -e1, e2, -e3]
    # the X**0 and X**1 terms of den * sum B_n X**n, summed from n = 0 up (an
    # int 0 start would flip a -0.0).  The X**2 term b0 e2 - b1 e1 + b2 is 0 as
    # a polynomial in T and Delta: checked on integers, left out in doubles,
    # where its rounding remnant grows past any tolerance as T1 = p**(-z) grows
    if exact and b0 * e2 - b1 * e1 + b2:
        raise AssertionError("square sum: nonzero X**2 term")
    num = [b0, b1 - b0 * e1]
    for coeffs in (num, den):
        while not coeffs[-1]:
            coeffs.pop()
    y_den = p * d * d
    value = RationalFunction2.from_poly(_at_y(num, a, b, y_den), p).with_factor(
        _at_y(den, a, b, y_den))
    # _at_y lifted N and D by different powers of T where a or b is negative
    shift = len(den) - len(num)
    i, j = max(0, -a) * shift, max(0, -b) * shift
    return value * RationalFunction2.monomial(i, j, 1, p) if i or j else value


def _at_y(coeffs: list, a: int, b: int, y_den: int) -> Poly2:
    """sum c_k Y**k at Y = T1**a T2**b / y_den, times the power of T1 and T2
    that makes every exponent nonnegative.  Integer c_k give the integer form
    directly: c_k y_den**(top-k) over y_den**top, divided by their gcd."""
    top = len(coeffs) - 1
    i0, j0 = max(0, -a) * top, max(0, -b) * top
    if all(c.__class__ is int for c in coeffs):
        return _reduced(y_den ** top, {(i0 + a * k, j0 + b * k): c * y_den ** (top - k)
                                       for k, c in enumerate(coeffs) if c})
    return Poly2({(i0 + a * k, j0 + b * k): c * Fraction(1, y_den ** k)
                  for k, c in enumerate(coeffs) if c})


def _ftilde_pair(place: PlaceData, val_c: int | None) -> RationalFunction2:
    """conj(ftilde_{1/2+s1}) * ftilde_{1/2+s2} at y = 1 and the given c-valuation
    (z stands for conj(s1), w for s2)."""
    pt = BruhatPoint(0, val_c)
    return ftilde_eval(place, pt, HALF_Z) * ftilde_eval(place, pt, HALF_W)


def psi_oracle(kind: str, place: PlaceData, pi0: SatakeParams) -> LocalZetaResult:
    """Bruhat-strata evaluation of the four local zeta integrals.

    The c-integral is piecewise constant on valuation shells (measure of
    {val(c) = -j} is p**j (1 - 1/p) for j >= 1, measure of the integers is 1);
    shells beyond -r pick up the substituted Whittaker factor
    |c/X|**(2(z+w)) and their geometric sum is closed exactly.
    """
    sz, sw = _psi_signs(kind, place, pi0)
    p, r = place.p, place.r
    pref = RationalFunction2.monomial(-sz * r, -sw * r, 1, p)  # |X|**(sz z + sw w)
    y_inner = whittaker_square_sum(pi0, place, sz, sw)
    if kind != "iv":
        # c integral: f at a sign +1, ftilde at a sign -1, over the integers
        origin = BruhatPoint(0, 0)
        c_val = ((f_eval if sz > 0 else ftilde_eval)(place, origin, HALF_Z)
                 * (f_eval if sw > 0 else ftilde_eval)(place, origin, HALF_W))
        return LocalZetaResult(pref * c_val * y_inner, "oracle")
    # shells val(c) = -j: the ftilde pair carries |c|**(2z+2w-2), so it is
    # the pair at j = 1 times p**(-2(j-1)) (T1 T2)**(-2(j-1)); shells
    # -1 >= val(c) >= -r (the K-invariance range) sum to that pair times
    # sum_j (1-1/p) p**j p**(-2(j-1)) (T1 T2)**(-2(j-1)), put over (T1 T2)**(2r-2)
    pair = _ftilde_pair(place, -1)
    shells = Poly2({(2 * (r - j), 2 * (r - j)): Fraction((p - 1) * p ** j, p ** (2 * j - 1))
                    for j in range(1, r + 1)})
    shells_rf = RationalFunction2.from_poly(shells, p).with_factor(
        Poly2.monomial(2 * r - 2, 2 * r - 2))
    # c integral over the integers, then the shells
    total_c = _ftilde_pair(place, 0) + pair * shells_rf
    # shells val(c) = -j for j > r: the Whittaker argument is rescaled by
    # (c/X)**(-2), contributing |c/X|**(-2(z+w)).  Against the ftilde pair
    # |c|**(2z+2w-2) and the shell measure p**j (1-1/p) the j-dependence
    # cancels to p**(-j), so the geometric tail is the exact scalar
    # p**(-(r+1)).
    # divide out |c|**(2z+2w-2) at j=1 -> the j-free ftilde prefactor
    pair_shape = pair * RationalFunction2.monomial(2, 2, p * p, p)
    xr = RationalFunction2.monomial(-2 * r, -2 * r, 1, p)  # j-free |c/X| part
    outer = pair_shape * Fraction(1, p ** (r + 1)) * xr * y_inner
    return LocalZetaResult(pref * total_c * y_inner + pref * outer, "oracle")


# -- Rankin-Selberg value at the centre ---------------------------------------

def rs_local_value(pi: SatakeParams, pi0: SatakeParams, place: PlaceData) -> Scalar:
    """(1 - p**(-1) a1 a2 b1 b2) / prod_{i,j}(1 - p**(-1/2) a_i b_j)
    for parameter families a (of the varying contragredient) and b (fixed), on
    the ring of the inputs (see :mod:`rankinlab.whittaker`).  p**(-1/2) enters
    numeric where no product a_i b_j of nonzero parameters is exact."""
    p = place.p
    (a1, a2), (b1, b2) = a, b = _alphas(pi), _alphas(pi0)
    num = 1 + -(a1 * a2 * b1 * b2 * Fraction(1, p))
    lift = any(all(v.__class__ is complex for v in side if v) for side in (a, b))
    return Scalar.wrap(num * l_factor_product(a, b, _root(p, Fraction(1, p), lift)))


def _real_constants(params: SatakeParams) -> bool:
    """Whether alpha1 + alpha2 and alpha1 alpha2 are real: every value of the
    Hecke stream then has a signed-zero imaginary part."""
    a1, a2 = params.alpha1.to_complex(), params.alpha2.to_complex()
    return (a1 + a2).imag == 0 and (a1 * a2).imag == 0


def rs_local_oracle(pi: SatakeParams, pi0: SatakeParams, place: PlaceData,
                    terms: int = 10_000) -> Scalar:
    """Truncated sum over n of p**(-n/2) S_pi(n+1) S_pi0(n+1), the
    ``terms``-term sum bit for bit.  Term n is (lift p**(-1/2))**n S_pi(n+1)
    times lift**(-n) S_pi0(n+1), with lift = max|alpha_pi0| for pi0 beyond
    tempered (above 1 + 1e-12) and 1 otherwise, so the pi0 stream has
    rho <= 1 + 1e-12 and the pi stream rho = q, q = max|alpha_pi| p**(-1/2)
    max(1, max|alpha_pi0|).  The sum ends with the first stream that ends, or
    at the bound 4 (n+1)**2 q**n of :func:`rankinlab.whittaker.decayed_sum`;
    a +0.0 imaginary part stays where both recursions have real constants.

    A sum that is not finite is a ValueError; only where q >= 1, which no
    decay bound covers, can the terms overflow a double."""
    step = place.p ** -0.5
    top0 = _largest(pi0)
    lift = top0 if top0 > 1 + 1e-12 else 1.0
    products = map(operator.mul, hecke_stream(pi, step * lift), hecke_stream(pi0, 1 / lift))
    q = _largest(pi) * step * max(1.0, top0)
    total = decayed_sum(products, terms, q, 4.0, 0,
                        _real_constants(pi) and _real_constants(pi0))
    if not cmath.isfinite(total):
        raise ValueError(f"Rankin-Selberg oracle sum is {total}: its terms overflow a double "
                         f"at q = {q:.6g} >= 1, where no decay bound holds (pi {pi.alpha1}, "
                         f"{pi.alpha2}; pi0 {pi0.alpha1}, {pi0.alpha2})")
    return Scalar.numeric(total)


# -- the regularised-term local integral ---------------------------------------

def _delta_weighted_s(pi: SatakeParams, k: int, m: int) -> Scalar:
    """delta**k * S(m) where delta = alpha1*alpha2, valid for m possibly negative.

    For m < 0 uses delta**k S(m) = -delta**(k+m) S(-m), a polynomial identity
    whenever k + m >= 0 (so it also covers the ramified delta = 0 case).
    """
    delta = pi.alpha1 * pi.alpha2
    if m >= 0:
        return delta ** k * satake_sum(pi, m)
    if k + m < 0:
        raise ValueError("negative-index Satake sum with insufficient delta weight")
    return -(delta ** (k + m)) * satake_sum(pi, -m)


def reg_local_closed(pi: SatakeParams, place: PlaceData, z: ScalarLike) -> Scalar:
    """Closed form of the weighted newvector sum in the regularised term:

    -p**(-r/2)/(a1-a2) * [ (p**(-1/2+z)-a1) a1**r / (1-a1 p**(-1/2-z))**2
                           - (same with a2) ],

    on the ring of the inputs (see :mod:`rankinlab.whittaker`); -p**(-r/2)
    enters numeric where the bracket is numeric.
    """
    z = _ring(z)
    p, r = place.p, place.r
    beta, gamma = _p_power(p, z + _MINUS_HALF), _p_power(p, -z + _MINUS_HALF)
    a1, a2 = _alphas(pi)
    for ai in (a1, a2):
        nonzero_factor(1 + -(ai * gamma), "regularised local integral")
    confluent = pi.confluent()
    if not confluent:
        f1, f2 = ((beta + -a) * _pow(a, r) * _inv(_pow(1 + -(gamma * a), 2)) for a in (a1, a2))
        bracket = f1 + -f2
    else:
        # confluent case: derivative of f(a) = (beta-a) a**r (1-gamma*a)**(-2)
        a = a1
        inv2, inv3 = (_pow(1 + -(gamma * a), -k) for k in (2, 3))
        bracket = -_pow(a, r) * inv2 + gamma * 2 * (beta + -a) * _pow(a, r) * inv3
        if r > 0:
            bracket = bracket + r * (beta + -a) * _pow(a, r - 1) * inv2
    # -p**(-r/2) = -p**(-(r+1)//2), times sqrt(p) for odd r
    lead = Fraction(-1, p ** ((r + 1) // 2))
    if r % 2:
        lead = _root(p, lead, bracket.__class__ is complex)
    value = lead * bracket
    return Scalar.wrap(value if confluent else value * _inv(a1 + -a2))


def reg_local_closed_s_form(pi: SatakeParams, place: PlaceData, z: ScalarLike) -> Scalar:
    """Same value through the Satake-sum bracket:

    p**(-r/2) L**2(1/2+z) [ S(r+1) - (beta+2 gamma delta) S(r)
        + (2 beta gamma delta + gamma**2 delta**2) S(r-1)
        - beta gamma**2 delta**2 S(r-2) ]
    with beta = p**(-1/2+z), gamma = p**(-1/2-z), delta = alpha1*alpha2.
    """
    z = Scalar.wrap(z)
    p, r = place.p, place.r
    beta, gamma = power_of_p(p, z - Fraction(1, 2)), power_of_p(p, -z - Fraction(1, 2))
    l_sq = SC_ONE
    for ai in (pi.alpha1, pi.alpha2):
        factor = nonzero_factor(SC_ONE - ai * gamma, "regularised local integral")
        l_sq = l_sq / (factor * factor)
    bracket = (_delta_weighted_s(pi, 0, r + 1)
               - beta * _delta_weighted_s(pi, 0, r)
               - gamma * 2 * _delta_weighted_s(pi, 1, r)
               + beta * gamma * 2 * _delta_weighted_s(pi, 1, r - 1)
               + gamma * gamma * _delta_weighted_s(pi, 2, r - 1)
               - beta * gamma * gamma * _delta_weighted_s(pi, 2, r - 2))
    return power_of_p(p, Fraction(r, 2), -1) * l_sq * bracket


def reg_local_oracle(pi: SatakeParams, place: PlaceData, z: ScalarLike,
                     terms: int = 2_000) -> Scalar:
    """Direct series: -p**(-1+z) W(pi**(r-1))
    + sum_n p**(-n z) (-1/p + (n+1)(1-1/p)) W(pi**(n+r)); plain complex sums,
    up to ``terms`` terms, the end of the W stream, or the decay bound of
    :func:`rankinlab.whittaker.decayed_sum`: with rho = max|alpha| p**(-1/2),
    term n is at most 4 rho**r (n+r+1)**2 (rho |p**(-z)|)**n."""
    z = Scalar.wrap(z).to_complex()
    p, r = place.p, place.r
    # W(pi**m) = p**(-m/2) S(m+1), decay folded into the Hecke recursion
    stream = hecke_stream(pi, p ** -0.5)
    head = list(islice(stream, r))  # W(pi**m) for m < r, fewer where the stream ended
    total = -(1.0 / p) * complex(p) ** z * (head[-1] if r >= 1 and len(head) == r else 0j)
    lead, unit = -1.0 / p, 1.0 - 1.0 / p
    pz_step = complex(p) ** (-z)
    weights = accumulate(repeat(pz_step), operator.mul, initial=1 + 0j)
    addends = (pzn * (lead + n * unit) * w for n, (pzn, w) in enumerate(zip(weights, stream), 1))
    # where the stream ends, every term left is a signed zero, and one 0j gives
    # the total the zero signs of the full-length sum (tested bit for bit)
    rho = _largest(pi) * p ** -0.5
    total = decayed_sum(chain(addends, (0j,)), terms, rho * abs(pz_step), 4.0 * rho ** r, r,
                        pz_step.imag == 0 and _real_constants(pi), total)
    return Scalar.numeric(total)


def reg_local_bound(pi: SatakeParams, place: PlaceData, z: ScalarLike) -> float:
    """|p**(-r/2) L**2(1/2+z)| (r+1) max(|alpha_i|**r), the comparison envelope."""
    p, r = place.p, place.r
    gamma = _complex(_p_power(p, -_ring(z) + _MINUS_HALF))
    a1, a2 = pi.alpha1.to_complex(), pi.alpha2.to_complex()
    l_sq = 1.0 / abs((1 - a1 * gamma) * (1 - a2 * gamma)) ** 2
    return p ** (-r / 2) * l_sq * (r + 1) * max(abs(a1), abs(a2)) ** r
