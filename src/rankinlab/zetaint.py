"""Local zeta integrals on Bruhat coordinates at places dividing the ideal.

Everything here is a rational function in T1 = p**(-z), T2 = p**(-w) (z and w
are the two spectral parameters).  ``psi_closed`` returns the closed forms
G_v(sign_z z, sign_w w) h_v of the four integrals pairing the principal-series
vector ``f`` (sign +1) or its intertwined partner ``ftilde`` (sign -1) at
each parameter against the square of the unramified Whittaker vector; the
table :data:`KIND_SIGNS` maps each kind to its (sign_z, sign_w).  Every local
factor in them, the Rankin-Selberg ones included, is a
:func:`rankinlab.localdata.zeta_local`.  ``psi_oracle`` recomputes them by
exact summation over valuation strata of the Bruhat coordinates (the
c-integrand is constant on each shell ``val(c) = -j`` of measure
``p**j (1-1/p)``, and the y-sum is a Whittaker power series in one variable
X = p**(-1) T1**a T2**b, summed in closed form through the three-term
recursion of S(n)**2 from its first three terms: on integers over powers of
D = d1*d2 for rational Satake parameters n_i/d_i, on complex values
otherwise).  The two must agree exactly as rational functions.
"""

from __future__ import annotations

import cmath
import math
import operator
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .exactalg import Poly2, RationalFunction2, nonzero_factor, power_of_p
from .localdata import PlaceData, Shift, zeta_local, zeta_scalar
from .numerator import plain
from .scalars import SC_ONE, Scalar, ScalarLike
from .whittaker import SatakeParams, _hecke_recursion, hecke_stream, l_factor_product, satake_sum

KIND_SIGNS = {"i": (1, 1), "ii": (-1, 1), "iii": (1, -1), "iv": (-1, -1)}
KINDS = tuple(KIND_SIGNS)

HALF_Z = Shift.of(Fraction(1, 2), 1, 0)  # the section parameters 1/2 + z
HALF_W = Shift.of(Fraction(1, 2), 0, 1)  # and 1/2 + w

# the Rankin-Selberg oracle reads its streams in blocks, short ones once subnormal
_BLOCK, _CHUNK = 256, 64
_TINY = sys.float_info.min
_STATE = struct.Struct("<4d")  # the bits of a recursion state (u_prev, u)
_SUBNORMAL = math.ulp(0.0)


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
    out = _abs_power(place, pt.val_y, one_minus) * zeta_local(place, one_minus.times(2))
    if pt.val_c is None or pt.val_c >= 0:
        return out / zeta_scalar(place, 1)
    out = out / zeta_local(place, s.times(2).plus(-1))
    return out * _abs_power(place, pt.val_c, one_minus.times(-2))


# -- closed forms -------------------------------------------------------------

def rs_l_rf(pi0: SatakeParams, place: PlaceData, shift: Shift) -> RationalFunction2:
    """Rankin-Selberg factor of pi0 x contragredient(pi0) at the shifted
    argument, from the Satake-parameter products alpha_i * alpha_j."""
    alphas = (pi0.alpha1, pi0.alpha2)
    out = RationalFunction2.const(1, place.p)
    for ai in alphas:
        for aj in alphas:
            out = out * zeta_local(place, shift, ai * aj)
    return out


def local_pole_factor(place: PlaceData, pi0: SatakeParams,
                      sign_z: int, sign_w: int) -> RationalFunction2:
    """G_v(sign_z * z, sign_w * w) for a place dividing the ideal:

    N(p)**(r(sz*z+sw*w)) * zeta(1+2sz*z) zeta(1+2sw*w) / zeta(2+2sz*z+2sw*w)
    times the Rankin-Selberg factor at 1 + sz*z + sw*w.
    """
    sz, sw = sign_z, sign_w
    g = zeta_local(place, Shift.of(1, 2 * sz, 0)) * zeta_local(place, Shift.of(1, 0, 2 * sw))
    g = g / zeta_local(place, Shift.of(2, 2 * sz, 2 * sw))
    g = g * rs_l_rf(pi0, place, Shift.of(1, sz, sw))
    return g * RationalFunction2.monomial(-sz * place.r, -sw * place.r, 1, place.p)


def h_local(which: int, place: PlaceData) -> RationalFunction2:
    """Local factor of the four inverse-zeta products multiplying the pole factor."""
    one = RationalFunction2.const(1, place.p)
    if which == 1:
        return one / zeta_local(place, Shift.of(1, 2, 0)) / zeta_local(place, Shift.of(1, 0, 2))
    if which == 2:
        return (one / zeta_local(place, Shift.of(1, 0, 2))) / zeta_scalar(place, 1)
    if which == 3:
        return (one / zeta_local(place, Shift.of(1, 2, 0))) / zeta_scalar(place, 1)
    if which == 4:
        zm = zeta_local(place, Shift.of(1, -2, 0))
        wm = zeta_local(place, Shift.of(1, 0, -2))
        mix = zeta_local(place, Shift.of(1, -2, -2))
        return (one / zm / wm) * mix / zeta_scalar(place, 1)
    raise ValueError(f"which must be 1..4, got {which}")


def correction_factor_rf(place: PlaceData) -> RationalFunction2:
    """The excess factor in the fourth integral:

    N(p)**(-(r+1)(1-2z-2w)) * zeta(1-2z) zeta(1-2w) zeta(1)
                            / (zeta(2z) zeta(2w) zeta(2z+2w)).

    Its expansion at the origin starts 8 z w (z+w) zeta(1)**3 log**3(p) / p**(r+1).
    """
    r1 = place.r + 1
    lead = RationalFunction2.monomial(-2 * r1, -2 * r1, Fraction(1, place.p ** r1), place.p)
    out = lead * zeta_local(place, Shift.of(1, -2, 0)) * zeta_local(place, Shift.of(1, 0, -2))
    out = out * zeta_scalar(place, 1)
    out = out / zeta_local(place, Shift.of(0, 2, 0)) / zeta_local(place, Shift.of(0, 0, 2))
    return out / zeta_local(place, Shift.of(0, 2, 2))


def correction_leading(place: PlaceData) -> Fraction:
    """The lam**3 coefficient of z**2 w and of z w**2 in the expansion of
    :func:`correction_factor_rf` (lam = log p): 8 zeta(1)**3 / p**(r+1), with
    zeta(1) = p/(p-1)."""
    return 8 * Fraction(place.p, place.p - 1) ** 3 / place.p ** (place.r + 1)


def _psi_signs(kind: str, place: PlaceData, pi0: SatakeParams) -> tuple[int, int]:
    """The (sign_z, sign_w) of a psi kind, once the inputs of both psi forms are checked."""
    if place.r < 1:
        raise ValueError("psi is computed at places dividing the ideal (r >= 1)")
    if pi0.ramified:
        raise ValueError("the fixed representation must be unramified")
    if kind not in KIND_SIGNS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return KIND_SIGNS[kind]


def psi_closed(kind: str, place: PlaceData, pi0: SatakeParams) -> LocalZetaResult:
    """Closed form of the four local zeta integrals at a place dividing the ideal."""
    sz, sw = _psi_signs(kind, place, pi0)
    value = local_pole_factor(place, pi0, sz, sw) * h_local(KINDS.index(kind) + 1, place)
    if kind == "iv":
        value = value * (RationalFunction2.const(1, place.p) - correction_factor_rf(place))
    return LocalZetaResult(value, "closed-form")


# -- stratum-sum oracle --------------------------------------------------------

def whittaker_square_sum(pi0: SatakeParams, place: PlaceData, a: int, b: int) -> RationalFunction2:
    """sum_{n>=0} |W|**2(pi**n) * |pi**n|**(a z + b w) as an exact rational function.

    In the one variable X = p**(-1) T1**a T2**b the sum is sum A_n X**n with
    A_n = S(n+1)**2, S from the Hecke recursion S(n+1) = t S(n) - delta S(n-1).
    The A_n follow a three-term recursion (characteristic roots alpha1**2,
    alpha1*alpha2, alpha2**2), so the sum is num/den with
    den = 1 - e1 X + e2 X**2 - e3 X**3 and num the terms of den times the
    series below X**3, which A_0, A_1 and A_2 fix.  For rational
    alpha_i = n_i/d_i the S(n) are integers over D**(n-1), D = d1*d2:
    s_n = S(n) D**(n-1) runs on integers, s_(n+1) = T s_n - Delta s_(n-1)
    with T = n1 d2 + n2 d1 and Delta = n1 n2 d1 d2, and so do the numerator
    and denominator lists of the sum in Y = X / D**2 and their recursion
    constants.  Complex parameters run the same lines with D = 1.
    Y = T1**a T2**b / (p D**2) is substituted once, at the end.
    """
    p = place.p
    for alpha in (pi0.alpha1, pi0.alpha2):
        if alpha.z is None and alpha.b:
            raise ValueError(f"Satake parameter {alpha} has a square-root part: the Whittaker "
                             "square sum takes rational or numeric parameters only")
    a1, a2 = plain(pi0.alpha1), plain(pi0.alpha2)
    if complex in (a1.__class__, a2.__class__):
        n1, d1, n2, d2 = a1, 1, a2, 1
    else:
        n1, d1, n2, d2 = a1.numerator, a1.denominator, a2.numerator, a2.denominator
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
    # the X**0..X**2 terms of den * sum B_n X**n, summed from n = 0 up (from the
    # top, alpha = -909.0 leaves 1.2e-6 at X**2); an int 0 start would flip a -0.0
    num = [b0, b1 - b0 * e1, b0 * e2 - b1 * e1 + b2]
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
    that makes every exponent nonnegative."""
    top = len(coeffs) - 1
    i0, j0 = max(0, -a) * top, max(0, -b) * top
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
    outer = pair_shape * Scalar.exact(Fraction(1, p ** (r + 1))) * xr * y_inner
    return LocalZetaResult(pref * total_c * y_inner + pref * outer, "oracle")


# -- Rankin-Selberg value at the centre ---------------------------------------

def rs_local_value(pi: SatakeParams, pi0: SatakeParams, place: PlaceData) -> Scalar:
    """(1 - p**(-1) a1 a2 b1 b2) / prod_{i,j}(1 - p**(-1/2) a_i b_j)
    for parameter families a (of the varying contragredient) and b (fixed)."""
    p = place.p
    num = SC_ONE - (pi.alpha1 * pi.alpha2 * pi0.alpha1 * pi0.alpha2) * Fraction(1, p)
    return num * l_factor_product(pi, pi0, power_of_p(p, Fraction(1, 2), -1))


def _absorbs(c: float, addend: float, stays_zero: bool) -> bool:
    """Whether adding any float of magnitude at most ``addend`` (or, where
    ``stays_zero``, only signed zeros) returns the total component c unchanged."""
    if c == 0:
        return stays_zero and math.copysign(1.0, c) > 0
    # round to nearest, strictly inside half the narrower neighbouring gap
    return addend < math.ulp(c) / 4


def rs_local_oracle(pi: SatakeParams, pi0: SatakeParams, place: PlaceData,
                    terms: int = 10_000) -> Scalar:
    """Truncated sum over n of p**(-n/2) S_pi(n+1) S_pi0(n+1), the
    ``terms``-term sum bit for bit.  It ends with the first stream that ends,
    or earlier where no later term can move the total:

    - The decayed pi stream is a deterministic float recursion, so once its
      state (the last two values, compared on their bits) repeats, the values
      read since it was last seen come round again and again.  One more such
      period is read into a list, and its largest component M bounds every
      later pi value.  States are recorded at block ends only: 256 values, 64
      once the stream is subnormal, where its cycles start.
    - For pi0 tempered up to rounding (max |alpha_i| <= 1 + 1e-12) and
      terms <= 10**6, |S_pi0(n+1)| <= (n+1) max(1, |alpha|)**n, and the
      computed stream stays within twice that (first-order rounding grows as
      n**2 eps relative to it): B = 2 (terms+1) max(1, |alpha|)**terms.  So
      every later product component is at most 2 M B, plus one subnormal of
      rounding.
    - Plain round-to-nearest addition (the blocks are summed by ``sum``, which
      does not compensate complex sums) returns a component c != 0 unchanged
      when the addend is strictly below ulp(c)/4 (half the narrower gap next
      to c).  A +0.0 imaginary part stays +0.0 when alpha1 + alpha2 and
      alpha1 alpha2 are real for both parameter pairs: both recursions then
      have real constants, and every later product a signed-zero imaginary
      part.
    - Otherwise (a non-tempered pi0, terms > 10**6, a bound that does not
      clear, fewer terms left than a period) the sum runs on.

    A sum that is not finite is a ValueError: the pi0 stream is summed
    undecayed, and a non-tempered pi0 overflows its terms."""
    pi_stream, pi0_stream = hecke_stream(pi, place.p ** -0.5), hecke_stream(pi0)
    products = map(operator.mul, pi_stream, pi0_stream)
    a0 = (pi0.alpha1.to_complex(), pi0.alpha2.to_complex())
    top = max(map(abs, a0))
    real_constants = all((a1 + a2).imag == 0 and (a1 * a2).imag == 0
                         for a1, a2 in ((pi.alpha1.to_complex(), pi.alpha2.to_complex()), a0))
    # recursion state -> how many values had been read where it was last seen
    seen = {} if top <= 1 + 1e-12 and terms <= 10 ** 6 else None
    addend = None  # the bound on every later product component, once a state repeats
    total, done = 0j, 0  # the sum of the first `done` products
    span, listed = _BLOCK, 2  # a block, and the values at its end read into lists
    while terms - done >= span:
        total = sum(islice(products, span - listed), total)
        us = list(islice(pi_stream, listed))
        vs = list(islice(pi0_stream, len(us)))
        total = sum(map(operator.mul, us, vs), total)
        if len(vs) < listed:
            break  # a stream has ended
        done += span
        if seen is None:
            continue
        if listed > 2:
            # one whole period of the cycle: its largest component bounds the rest
            m = max(max(abs(u.real), abs(u.imag)) for u in us)
            stream_bound = 2 * (terms + 1) * max(1.0, top) ** terms
            addend = 2 * m * stream_bound + _SUBNORMAL
            listed = 2
        elif addend is None:
            state = _STATE.pack(us[0].real, us[0].imag, us[1].real, us[1].imag)
            if state in seen:
                # the next values repeat those read since the state was last seen
                listed = done - seen[state]
            seen[state] = done
        if addend is not None and (_absorbs(total.real, addend, False)
                                   and _absorbs(total.imag, addend, real_constants)):
            break
        # shorter blocks once the stream is subnormal, where cycles start
        u = us[-1]
        span = max(listed, _CHUNK if max(abs(u.real), abs(u.imag)) < _TINY else _BLOCK)
    else:
        total = sum(islice(products, terms - done), total)
    if not cmath.isfinite(total):
        raise ValueError(f"Rankin-Selberg oracle sum is {total}: its terms overflow a double "
                         f"on the undecayed Hecke stream of pi0 (alpha1 = {pi0.alpha1}, "
                         f"alpha2 = {pi0.alpha2})")
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
                           - (same with a2) ].
    """
    z = Scalar.wrap(z)
    p, r = place.p, place.r
    beta, gamma = power_of_p(p, z - Fraction(1, 2)), power_of_p(p, -z - Fraction(1, 2))
    a1, a2 = pi.alpha1, pi.alpha2
    for ai in (a1, a2):
        nonzero_factor(SC_ONE - ai * gamma, "regularised local integral")
    pref = power_of_p(p, Fraction(r, 2), -1)
    if not pi.confluent():
        f1 = (beta - a1) * a1 ** r / (SC_ONE - gamma * a1) ** 2
        f2 = (beta - a2) * a2 ** r / (SC_ONE - gamma * a2) ** 2
        return -pref * (f1 - f2) / (a1 - a2)
    # confluent case: derivative of f(a) = (beta-a) a**r (1-gamma*a)**(-2)
    a = a1
    inv2 = (SC_ONE - gamma * a) ** (-2)
    inv3 = (SC_ONE - gamma * a) ** (-3)
    fprime = -(a ** r) * inv2 + (gamma * 2) * (beta - a) * a ** r * inv3
    if r > 0:
        fprime = fprime + Scalar.exact(r) * (beta - a) * a ** (r - 1) * inv2
    return -pref * fprime


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
    up to ``terms`` terms or the end of the W stream."""
    z = Scalar.wrap(z).to_complex()
    p, r = place.p, place.r
    # W(pi**m) = p**(-m/2) S(m+1), decay folded into the Hecke recursion
    stream = hecke_stream(pi, p ** -0.5)
    head = list(islice(stream, r))  # W(pi**m) for m < r, fewer where the stream ended
    total = -(1.0 / p) * complex(p) ** z * (head[-1] if r >= 1 and len(head) == r else 0j)
    unit = 1.0 - 1.0 / p
    pz_step = complex(p) ** (-z)
    pzn = 1 + 0j
    n = 0
    for n, w in enumerate(islice(stream, terms), 1):
        total += pzn * (-1.0 / p + n * unit) * w
        pzn *= pz_step
    if n < terms:
        # the stream ended: every term left is a signed zero, and one 0j gives
        # the total the zero signs of the full-length sum (tested bit for bit)
        total += 0j
    return Scalar.numeric(total)


def reg_local_bound(pi: SatakeParams, place: PlaceData, z: ScalarLike) -> float:
    """|p**(-r/2) L**2(1/2+z)| (r+1) max(|alpha_i|**r), the comparison envelope."""
    p, r = place.p, place.r
    gamma = power_of_p(p, -Scalar.wrap(z) - Fraction(1, 2)).to_complex()
    a1, a2 = pi.alpha1.to_complex(), pi.alpha2.to_complex()
    l_sq = 1.0 / abs((1 - a1 * gamma) * (1 - a2 * gamma)) ** 2
    return p ** (-r / 2) * l_sq * (r + 1) * max(abs(a1), abs(a2)) ** r
