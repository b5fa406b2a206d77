"""Assembly of the degenerate-term limit: pole factor from ingested completed-zeta
data, the four inverse-zeta products, residue cancellation, and the cubic
polynomial in lam = log N(q).

The pole factor is

    G(z,w) = N(q)**(z+w) N(d)**(1+2z+2w) / xi(2+2z+2w)
             * xi(1+2z) * xi(1+2w) * Lambda(1+z+w)

with xi the completed Dedekind zeta function and Lambda the completed
Rankin-Selberg L-function of the fixed representation with its contragredient.
Their Laurent data at the relevant points is *ingested*, never computed here.
``N(q)**(z+w)`` is expanded as ``exp(lam*(z+w))`` with lam kept formal, so the
final limit is extracted coefficient-by-coefficient as a polynomial in lam.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .laurent import DEFAULT_DEPTH, CubicPolynomial, LambdaPoly, LaurentSeries2, ls_inverse_regular
from .localdata import IdealFactorization, PlaceData, omega, zeta_q_scalar, zeta_scalar
from .numerator import plain
from .scalars import SC_ZERO, Scalar, _binary_power, format_scalar, parse_exact

SPLIT_TOL = 1e-9  # split remainders within SPLIT_TOL * max(1, max |coefficient|) are 0
MIN_DEPTH = 3  # G's three simple poles put the limit at numerator degree 3


class ZetaDataOverflow(ValueError):
    """Ingested zeta data whose products overflow a double: a usage error, not a
    failed cancellation."""


@dataclass(frozen=True)
class GlobalZetaData:
    """Ingested Laurent data of the completed zeta functions.

    ``xi_regular[k]`` is the coefficient of (s-1)**k in xi(s) - xi_residue/(s-1);
    ``lambda_regular`` plays the same role for Lambda(s) at s = 1.
    ``xi_at_2_regular[k]`` is the coefficient of u**(k+1) in xi(2+u) (optional;
    without it the denominator factor is treated as the constant xi(2), which
    leaves the leading cubic coefficient untouched).
    """

    xi_residue: Scalar
    xi_regular: tuple[Scalar, ...]
    xi_at_2: Scalar
    lambda_residue: Scalar
    lambda_regular: tuple[Scalar, ...]
    adjoint_l_value: Scalar
    norm_different: int
    xi_at_2_regular: tuple[Scalar, ...] = ()

    def depth(self) -> int:
        return min(len(self.xi_regular), len(self.lambda_regular))

    def validate(self, rel_tol: float = 1e-9) -> None:
        expected = self.xi_residue * self.adjoint_l_value
        if not self.lambda_residue.close(expected, rel_tol=rel_tol):
            raise ValueError(
                f"residue factorization failed: {self.lambda_residue} != "
                f"xi_residue*adjoint = {expected} (relative tolerance {rel_tol} "
                "for numeric values)"
            )
        for name, value in (("xi_at_2", self.xi_at_2), ("xi_residue", self.xi_residue)):
            v = value.to_complex()
            if v.imag == 0 and v.real <= 0:
                raise ValueError(f"{name} must be positive, got {v}")

    @classmethod
    def from_document(cls, source) -> "GlobalZetaData":
        """Load from a JSON object (path or mapping).  Numbers are JSON numbers,
        decimal strings or exact "num/den" strings; a malformed field is a
        ValueError that names its key."""
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = dict(source)
        required = ("xi_residue", "xi_regular", "xi_at_2", "lambda_pi0_residue",
                    "lambda_pi0_regular", "adjoint_L_value", "norm_different")
        missing = [key for key in required if not isinstance(doc, dict) or key not in doc]
        if missing:
            raise ValueError(f"zeta data document is missing keys: {missing}")

        def scal(key: str, v) -> Scalar:
            try:
                if type(v) not in (str, int, float):  # a bool is no number
                    raise ValueError(f"must be a number or a number string, got {v!r}")
                value = parse_exact(v) if isinstance(v, str) else Scalar.wrap(v)
                if value.is_exact or math.isfinite(abs(value.z)):
                    return value
                raise ValueError(f"must be finite, got {v!r}")
            except ValueError as exc:
                raise ValueError(f"zeta data key {key!r}: {exc}") from None

        def scals(key: str) -> tuple[Scalar, ...]:
            if not isinstance(values := doc.get(key, []), list):
                raise ValueError(f"zeta data key {key!r} must be a list, got {values!r}")
            return tuple(scal(f"{key}[{k}]", v) for k, v in enumerate(values))

        if not str(nd := doc["norm_different"]).strip().isdecimal() or int(nd) < 1:
            raise ValueError(f"zeta data key 'norm_different' must be an integer >= 1, got {nd!r}")
        data = cls(
            xi_residue=scal("xi_residue", doc["xi_residue"]),
            xi_regular=scals("xi_regular"),
            xi_at_2=scal("xi_at_2", doc["xi_at_2"]),
            lambda_residue=scal("lambda_pi0_residue", doc["lambda_pi0_residue"]),
            lambda_regular=scals("lambda_pi0_regular"),
            adjoint_l_value=scal("adjoint_L_value", doc["adjoint_L_value"]),
            norm_different=int(nd),
            xi_at_2_regular=scals("xi_at_2_regular"),
        )
        tol = scal("residue_check_tolerance", doc.get("residue_check_tolerance", 1e-9))
        if (rel_tol := tol.to_complex().real) < 0:
            raise ValueError(f"zeta data key 'residue_check_tolerance' is negative: {rel_tol}")
        data.validate(rel_tol=rel_tol)
        return data


# -- the four inverse-zeta products -------------------------------------------

LogMap = dict[int, Scalar] | None


def _log_scalar(p: int, log_map: LogMap = None) -> Scalar:
    """log p as a Scalar; a log_map entry (an exact rational surrogate, under
    which every structural identity still holds, or a numeric value) takes
    precedence.  A square-root entry is refused where a series is built."""
    if log_map and p in log_map:
        return log_map[p]
    return Scalar.numeric(math.log(p))


def _local_zeta_inverse_series(place: PlaceData, direction: str, sign: int,
                               depth: int, log_map: LogMap = None) -> LaurentSeries2:
    """zeta_v**(-1)(1 + 2*sign*u) = 1 - p**(-1) exp(-2*sign*u*log p) along u
    (u is z, w or z+w for the directions "z", "w", "zw_plus").

    The k-th coefficient is what ``Scalar(-1/p) * (Scalar(-2*sign) * log p)**k
    / Scalar(k!)``, plus 1 at k = 0, gives, formed without :class:`Scalar`
    where it can be.  An exact log p (a rational surrogate, as a ``Fraction``)
    runs ``term * rate / k`` from ``-1/p``: exact arithmetic gives the same
    value in any order.  A numeric log p (a ``complex``) takes the
    order Scalar performs the operations in: the exact ``(p-1)/p`` at k = 0,
    then ``complex(-1/p) * x**k * complex(1/k!)`` with ``x = complex(-2*sign)
    * log p`` raised by :func:`_binary_power` from 1+0j, as Scalar raises it."""
    p = place.p
    logp = plain(_log_scalar(p, log_map))
    coeffs: list = [Fraction(p - 1, p)]
    if logp.__class__ is complex:
        rate = complex(-2 * sign) * logp
        coeffs += [complex(-1 / p) * _binary_power(rate, k, 1 + 0j) * complex(1 / math.factorial(k))
                   for k in range(1, depth + 1)]
    else:
        rate, term = logp * (-2 * sign), Fraction(-1, p)
        for k in range(1, depth + 1):
            term = term * rate / k
            coeffs.append(term)
    return LaurentSeries2.from_direction(coeffs, 0, direction, depth)


def build_h(q: IdealFactorization, depth: int = DEFAULT_DEPTH,
            log_map: LogMap = None) -> tuple[LaurentSeries2, ...]:
    """Exact Taylor expansions, free of lam, of h1..h4: the products over the
    places of q of

    h1: zeta**(-1)(1+2z) zeta**(-1)(1+2w)
    h2: zeta**(-1)(1)    zeta**(-1)(1+2w)
    h3: zeta**(-1)(1+2z) zeta**(-1)(1)
    h4: zeta**(-1)(1-2z) zeta**(-1)(1-2w) zeta(1-2z-2w)/zeta(1)

    One loop over the places builds each place's five distinct series once:
    zeta**(-1)(1 +- 2z), zeta**(-1)(1 +- 2w) and the inverted z+w ratio.
    """
    hs = [LaurentSeries2.one()] * 4
    for place in q.places:
        unit = Scalar.exact(Fraction(place.p - 1, place.p))  # zeta_v(1)**(-1)
        z_plus, w_plus, z_minus, w_minus = (
            _local_zeta_inverse_series(place, direction, sign, depth, log_map)
            for sign in (1, -1) for direction in ("z", "w"))
        # zeta_v(1-2z-2w)/zeta_v(1): the inverse of the z+w factor, times unit
        ratio = ls_inverse_regular(
            _local_zeta_inverse_series(place, "zw_plus", -1, depth, log_map)).scale(unit)
        local = (z_plus * w_plus, w_plus.scale(unit), z_plus.scale(unit),
                 z_minus * w_minus * ratio)
        hs = [h * loc for h, loc in zip(hs, local)]
    return tuple(h.truncated(depth) if h.depth > depth else h for h in hs)


def symmetry_residuals(s1: LaurentSeries2, s2: LaurentSeries2, s3: LaurentSeries2,
                       s4: LaurentSeries2) -> dict[str, float]:
    """Max |difference| for each of the six cancellation constraints on h1..h4."""
    depth = min(s.depth for s in (s1, s2, s3, s4))

    def residual(a: LaurentSeries2, b: LaurentSeries2, sz: int, sw: int) -> float:
        """Max |coefficient| of a(sz*t, sw*t) - b(sz*t, sw*t) up to t**depth."""
        return (a.along_line(sz, sw, depth) - b.along_line(sz, sw, depth)).max_abs()

    return {
        "h1(z,0)=h3(z,0)": residual(s1, s3, 1, 0),
        "h2(z,0)=h4(z,0)": residual(s2, s4, 1, 0),
        "h1(0,w)=h2(0,w)": residual(s1, s2, 0, 1),
        "h3(0,w)=h4(0,w)": residual(s3, s4, 0, 1),
        "h1(-z,z)=h4(-z,z)": residual(s1, s4, -1, 1),
        "h2(z,z)=h3(z,z)": residual(s2, s3, 1, 1),
    }


@dataclass(frozen=True)
class TaylorBoundReport:
    m: int
    n: int
    magnitude: float
    omega_power: float
    ratio: float


def taylor_bound_report(h: LaurentSeries2, q: IdealFactorization, m: int,
                        n: int) -> TaylorBoundReport:
    """|a_{m,n}| of an h-function of q against omega_F(q)**(m+n)."""
    mag = abs(h.coeff(m, n).coeff(0).to_complex())
    om = float(max(omega(q), 1)) ** (m + n) if (m + n) else 1.0
    return TaylorBoundReport(m, n, mag, om, mag / om)


# -- the pole factor -----------------------------------------------------------

def build_G(data: GlobalZetaData, depth: int = DEFAULT_DEPTH) -> LaurentSeries2:
    """Laurent object for the pole factor G(z, w); flips give G(-z, w) and the rest.

    Pole exponents are (1,1,1,0): simple poles along z, w and z+w coming
    from xi(1+2z), xi(1+2w) and Lambda(1+z+w).
    """
    if data.depth() < depth:
        raise ValueError(f"ingested data depth {data.depth()} < requested {depth}")
    # N(q)**(z+w) = exp(lam*(z+w)) with lam the formal symbol
    g = LaurentSeries2.exp_direction(LambdaPoly.lam(), "zw_plus", depth)
    # N(d)**(1+2z+2w)
    nd = data.norm_different
    if nd != 1:
        g = g * LaurentSeries2.exp_direction(
            LambdaPoly.const(Scalar.numeric(2 * math.log(nd))), "zw_plus", depth)
    # xi(1+2z), xi(1+2w)
    for direction in ("z", "w"):
        coeffs: list = [data.xi_residue / 2]
        coeffs += [data.xi_regular[k] * Scalar.exact(2 ** k) for k in range(depth)]
        g = g * LaurentSeries2.from_direction(coeffs, 1, direction, depth)
    # Lambda(1 + z + w)
    lam_coeffs: list = [data.lambda_residue]
    lam_coeffs += [data.lambda_regular[k] for k in range(depth)]
    g = g * LaurentSeries2.from_direction(lam_coeffs, 1, "zw_plus", depth)
    # 1 / xi(2 + 2z + 2w)
    xi2_coeffs: list = [data.xi_at_2]
    xi2_coeffs += [data.xi_at_2_regular[k] * Scalar.exact(2 ** (k + 1))
                   for k in range(min(depth, len(data.xi_at_2_regular)))]
    xi2 = LaurentSeries2.from_direction(xi2_coeffs, 0, "zw_plus", depth)
    g = g * ls_inverse_regular(xi2)
    return g.scale(Scalar.exact(nd))


# -- the correction term and the limit ------------------------------------------

def correction_sum_factor(q: IdealFactorization, log_map: LogMap = None) -> Scalar:
    """sum over places of zeta_v(1)**3 log**3 N(p_v) / N(p_v)**(r_v+1)."""
    total = SC_ZERO
    for pl in q.places:
        total = total + (zeta_scalar(pl, 1) ** 3
                         * _log_scalar(pl.p, log_map) ** 3
                         / Scalar.exact(pl.p ** (pl.r + 1)))
    return total


@dataclass(frozen=True)
class CorrectionReport:
    value: Scalar
    sum_factor: Scalar
    implied_c_cubed: Scalar | None


def correction_report(data: GlobalZetaData, q: IdealFactorization,
                      depth: int = DEFAULT_DEPTH, log_map: LogMap = None) -> CorrectionReport:
    """``value`` is the limit at the origin of G(-z,-w) h4(z,w) * 8zw(z+w) *
    sum-factor: 8zw(z+w) clears the triple pole of the flipped pole factor, so
    the limit is finite (and lam-free), and the proportionality constant comes
    out of the series arithmetic rather than a hard-coded formula."""
    return _correction(data, q, build_G(data, depth).flip(True, True)
                       * build_h(q, depth, log_map)[3], log_map)


def _correction(data: GlobalZetaData, q: IdealFactorization, g_mm_h4: LaurentSeries2,
                log_map: LogMap) -> CorrectionReport:
    """The correction limit from a given product G(-z,-w) h4(z,w)."""
    sum_factor = correction_sum_factor(q, log_map)
    if not q.places:
        return CorrectionReport(SC_ZERO, SC_ZERO, None)
    clearing = LaurentSeries2({(2, 1): Scalar.exact(8), (1, 2): Scalar.exact(8)})
    product = g_mm_h4 * clearing
    abs_tol = SPLIT_TOL * max(1.0, product.max_abs())
    const = product.constant_term(abs_tol)
    if const.degree() > 0:
        raise AssertionError("correction limit should be lam-free")
    value = const.coeff(0) * sum_factor
    # comparison target: the same limit written as
    # -2 c**3 Lambda_Ad N(d) / (xi(2) zeta_q(1)) * sum-factor with c unidentified
    denom = Scalar.exact(-2) * data.adjoint_l_value * Scalar.exact(data.norm_different) \
        / data.xi_at_2 / zeta_q_scalar(q, 1)
    implied = (const.coeff(0) / denom) if not denom.is_zero() else None
    return CorrectionReport(value, sum_factor, implied)


def _refuse_overflow(values, what: str) -> None:
    """:class:`ZetaDataOverflow` where one of ``values`` (Scalars, or the
    coefficients of a series) is not finite; its magnitude shows a NaN."""
    if isinstance(values, LaurentSeries2):
        values = [v for c in values.terms.values() for v in c.values()]
    mags = [abs(v) for v in (v.z if isinstance(v, Scalar) else v for v in values)
            if v.__class__ is complex]  # exact values are finite
    bad = sum(not math.isfinite(m) for m in mags)
    if bad:
        peak = math.nan if any(map(math.isnan, mags)) else max(mags)
        raise ZetaDataOverflow(f"the zeta data overflow a double: {bad} of {len(mags)} numeric "
                               f"{what} are not finite (largest magnitude {peak}); smaller or "
                               "exact values avoid it")


@dataclass(frozen=True)
class DegenerateReport:
    """The limit and the pieces it was built from.  ``correction_detail`` and
    ``h_origin`` (h1..h4 at the origin) stay out of :meth:`as_dict`; the CLI
    reads them instead of rebuilding G and h."""

    q: IdealFactorization
    coefficients: CubicPolynomial
    formula_c3: Scalar
    c3_residual: float
    singular_residual: float
    lambda_excess: float
    correction: Scalar
    correction_detail: CorrectionReport
    h_origin: tuple[Scalar, Scalar, Scalar, Scalar]

    def as_dict(self) -> dict:
        return {
            "q": str(self.q),
            "c3": format_scalar(self.coefficients.c3),
            "c2": format_scalar(self.coefficients.c2),
            "c1": format_scalar(self.coefficients.c1),
            "c0": format_scalar(self.coefficients.c0),
            "formula_c3": format_scalar(self.formula_c3),
            "c3_residual": self.c3_residual,
            "singular_residual": self.singular_residual,
            "lambda_excess": self.lambda_excess,
            "correction": format_scalar(self.correction),
        }


def degenerate_limit(data: GlobalZetaData, q: IdealFactorization,
                     depth: int = DEFAULT_DEPTH, log_map: LogMap = None) -> DegenerateReport:
    """The normalised limit of the degenerate term as a cubic in lam = log N(q).

    Forms the four sign-flipped products against h1..h4, subtracts the
    correction term, certifies that the combined singular part vanishes,
    extracts the lam-polynomial constant term, and applies the normalisation
    (multiply by N(q) zeta_q(1)**3/zeta_q(2), divide by the inverse volume
    N(q) zeta_q(1)/zeta_q(2), i.e. net zeta_q(1)**2) so the reported cubic
    matches the headline expansion.

    ``depth`` sets how many degrees of the numerators the singular split
    certifies.  The constant term sits at numerator degree 3, G's three
    simple poles, so depth 3 is the least that works (a smaller one is a
    ``ValueError`` naming ``--depth``); on both shipped documents depths 3,
    8 and 10 give the same cubic and correction.
    """
    if depth < MIN_DEPTH:
        raise ValueError(f"--depth {depth} is too shallow: the constant term of the "
                         f"four-term combination needs depth {MIN_DEPTH} or more")
    g = build_G(data, depth)
    hs = build_h(q, depth, log_map)
    g_mm_h4 = g.flip(True, True) * hs[3]  # also the correction's input
    combo = (g * hs[0]
             + g.flip(True, False) * hs[1]
             + g.flip(False, True) * hs[2]
             + g_mm_h4)
    abs_tol = SPLIT_TOL * max(1.0, combo.max_abs())
    regular, singular, singular_mag = combo.split_singular(abs_tol)
    if not singular.is_zero():
        for series in (combo, singular):
            _refuse_overflow(series, "coefficients of the four-term combination")
        raise AssertionError(
            f"four-term combination has a nonzero singular part "
            f"(max coefficient {singular_mag:.3e}); this signals an implementation bug"
        )
    const = regular.coeff(0, 0)
    corr = _correction(data, q, g_mm_h4, log_map)
    const = const - LambdaPoly.const(corr.value)
    # degree > 3 must die by itself; record how close to zero it is
    lambda_excess = max((v.to_complex().__abs__() for k, v in const.c.items() if k > 3),
                        default=0.0)
    normalization = zeta_q_scalar(q, 1) ** 2
    cubic = CubicPolynomial(
        const.coeff(3) * normalization,
        const.coeff(2) * normalization,
        const.coeff(1) * normalization,
        const.coeff(0) * normalization,
    )
    _refuse_overflow((cubic.c3, cubic.c2, cubic.c1, cubic.c0, corr.value),
                     "values of c3, c2, c1, c0 and the correction")
    formula_c3 = (data.xi_residue ** 3 * Scalar.exact(data.norm_different)
                  * data.adjoint_l_value / (Scalar.exact(3) * data.xi_at_2))
    c3_res = abs(cubic.c3.to_complex() - formula_c3.to_complex())
    return DegenerateReport(q, cubic, formula_c3, c3_res, singular_mag,
                            lambda_excess, corr.value, corr,
                            tuple(h.coeff(0, 0).coeff(0) for h in hs))
