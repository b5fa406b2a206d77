"""Local spectral-weight lower bounds and the Plancherel-mass identity.

Only the newvector contribution to the weight is computed: it already gives
the positive lower bound, and vanishes when the conductor exponent exceeds
the ideal exponent at the place.  Two normalised floors are reported, with
exponents -1+2*theta (from the local bound's derivation) and -1/2+2*theta
(as used for the product lower bound); both are computed, neither is guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import power_of_p
from .localdata import IdealFactorization, PlaceData, inv_volume_Kq, volume_K, zeta_scalar
from .scalars import SC_ONE, SC_ZERO, Scalar
from .whittaker import SatakeParams, rankin_selberg_self_l
from .zetaint import psi_closed


@dataclass(frozen=True)
class WeightReport:
    place: PlaceData
    case: str  # "unramified" | "ramified" | "conductor-exceeds"
    lower_bound: Scalar
    normalized_lower_bound: Scalar
    floor_body: Scalar       # (1 - p**(-1+2*theta)) / (1 - p**(-1))
    floor_half: Scalar       # (1 - p**(-1/2+2*theta)) / (1 - p**(-1))
    trivial_l_bound: Scalar  # ramified bound with the L-value replaced by 1


def _floor(p: int, exponent: Fraction) -> Scalar:
    """(1 - p**exponent) / (1 - p**(-1)), exact where :func:`power_of_p` is."""
    return (SC_ONE - power_of_p(p, exponent)) / (SC_ONE - Scalar.exact(Fraction(1, p)))


def local_weight_lower(pi: SatakeParams, cond_exp: int, place: PlaceData) -> WeightReport:
    """Newvector lower bound for the local spectral weight.

    Zero when the conductor exponent exceeds r; otherwise
    vol(K) zeta(2)/zeta(1)**3 in the unramified case and
    vol(K) L(1, pi x conj pi)/zeta(1) (1 - |alpha1|**2/p) in the ramified case.

    Neither bound depends on pi.  The ramified one has alpha2 = 0, so
    L(1, pi x conj pi) = (1 - |alpha1|**2/p)**(-1) cancels the damping, and
    it is computed as vol(K)/zeta(1) for every alpha1.  No check compares these
    bounds with an independent computation: the unramified check of
    ``verify --suite spectral-weight`` compares this formula with itself.
    """
    if cond_exp < 0:
        raise ValueError("conductor exponent must be nonnegative")
    p = place.p
    theta = pi.theta
    floor_body = _floor(p, -1 + 2 * theta)
    floor_half = _floor(p, Fraction(-1, 2) + 2 * theta)
    if cond_exp > place.r:
        return WeightReport(place, "conductor-exceeds", SC_ZERO, SC_ZERO,
                            floor_body, floor_half, SC_ZERO)
    vol = volume_K(place)
    z1 = zeta_scalar(place, 1)
    if not pi.ramified:
        bound = vol * zeta_scalar(place, 2) / z1 ** 3
        trivial = bound
    else:
        bound = vol / z1
        damping = SC_ONE - pi.alpha1.abs2() * Scalar.exact(Fraction(1, p))
        trivial = bound * damping  # L-value replaced by its trivial bound 1
    normalized = bound / vol * z1 ** 2
    return WeightReport(place, "unramified" if not pi.ramified else "ramified",
                        bound, normalized, floor_body, floor_half, trivial)


@dataclass(frozen=True)
class JqLowerReport:
    product: Scalar
    comparison_base: float  # (1-eps)**omega for the requested eps
    epsilon: float


def jq_lower(pi_places: list[tuple[SatakeParams, int]], q: IdealFactorization,
             epsilon: float = 0.1) -> JqLowerReport:
    """Product over places of the normalised floor (1-p**(-1+2 theta))/(1-1/p),
    reported next to (1-eps)**omega(q)."""
    if len(pi_places) != len(q.places):
        raise ValueError(
            f"need one (params, cond_exp) entry per place of q: "
            f"got {len(pi_places)} for {len(q.places)} places"
        )
    product = SC_ONE
    for (params, cond_exp), place in zip(pi_places, q.places):
        if cond_exp > place.r:
            product = SC_ZERO
            break
        product = product * _floor(place.p, -1 + 2 * params.theta)
    return JqLowerReport(product, (1.0 - epsilon) ** len(q.places), epsilon)


def plancherel_mass(pi0: SatakeParams, q: IdealFactorization) -> Scalar:
    """The Plancherel-mass chain: per place, the weight integral collapses to
    the first zeta integral at the origin, whose value L(1, pi0 x conj pi0)/zeta(2)
    cancels the normalising prefactor exactly, leaving vol**(-1)(K_q)."""
    total = inv_volume_Kq(q)
    for place in q.places:
        psi_at_origin = psi_closed("i", place, pi0).value.eval_zw(0, 0)
        prefactor = zeta_scalar(place, 2) / rankin_selberg_self_l(pi0, Fraction(1, place.p))
        total = total * prefactor * psi_at_origin
    return total
