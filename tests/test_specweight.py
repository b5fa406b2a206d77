from fractions import Fraction

import pytest

from rankinlab.localdata import IdealFactorization, PlaceData, inv_volume_Kq, volume_K, zeta_value
from rankinlab.scalars import Scalar
from rankinlab.specweight import jq_lower, local_weight_lower, plancherel_mass
from rankinlab.whittaker import SatakeParams

THETA0 = Fraction(0)
THETA_BEST = Fraction(7, 64)


def tempered(theta=THETA0):
    return SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1), theta=theta)


def test_unramified_weight_exact():
    rep = local_weight_lower(tempered(), 0, PlaceData(2, 1))
    assert rep.case == "unramified"
    assert rep.lower_bound == Scalar.exact(Fraction(1, 18))
    # normalised bound equals zeta(2)/zeta(1)
    assert (rep.normalized_lower_bound
            == Scalar.exact(zeta_value(PlaceData(2, 1), 2)) / Scalar.exact(2))


def test_unramified_matches_volume_formula():
    for p in (2, 3, 5, 9):
        for r in (1, 2, 3):
            place = PlaceData(p, r)
            rep = local_weight_lower(tempered(), r, place)
            expected = (volume_K(place) * Scalar.exact(zeta_value(place, 2))
                        / Scalar.exact(zeta_value(place, 1)) ** 3)
            assert rep.lower_bound == expected


def test_conductor_exceeds_gives_zero():
    rep = local_weight_lower(tempered(), 2, PlaceData(2, 1))
    assert rep.case == "conductor-exceeds"
    assert rep.lower_bound.is_zero() and rep.normalized_lower_bound.is_zero()


def test_tempered_floor_is_one():
    rep = local_weight_lower(tempered(), 0, PlaceData(7, 2))
    assert rep.floor_body == Scalar.exact(1)


def test_both_floor_variants_reported():
    rep = local_weight_lower(tempered(THETA_BEST), 0, PlaceData(2, 1))
    body = rep.floor_body.to_complex().real
    half = rep.floor_half.to_complex().real
    assert body == pytest.approx((1 - 2 ** (-1 + 7 / 32)) / 0.5)
    assert half == pytest.approx((1 - 2 ** (-0.5 + 7 / 32)) / 0.5)
    assert half < body


def test_ramified_trivial_l_ordering():
    pi = SatakeParams.make_ramified(Scalar.exact(Fraction(5, 4)))
    rep = local_weight_lower(pi, 1, PlaceData(3, 2))
    assert rep.case == "ramified"
    # the trivial estimate L >= 1 can only weaken the bound
    assert rep.trivial_l_bound.to_complex().real <= rep.lower_bound.to_complex().real


@pytest.mark.parametrize("alpha1", [Fraction(5, 4), Fraction(-1, 2), Fraction(1, 3), Fraction(0),
                                    Fraction(2), 0.6 + 0.8j])
@pytest.mark.parametrize("p, r", [(2, 1), (3, 2), (5, 3), (7, 1), (4, 1)])
def test_ramified_bound_is_the_volume_over_zeta_one(p, r, alpha1):
    # L(1, pi x conj pi) = (1 - |alpha1|**2/p)**(-1) for alpha2 = 0 cancels the
    # damping factor exactly, so the ramified bound does not depend on pi: a
    # numeric alpha1 gives the exact bound, and so does |alpha1|**2 = p (alpha1
    # = 2 at p = 4), where the L-value has a pole
    place = PlaceData(p, r)
    rep = local_weight_lower(SatakeParams.make_ramified(Scalar.wrap(alpha1)), 1, place)
    assert rep.case == "ramified"
    assert rep.lower_bound.is_exact
    assert rep.lower_bound == volume_K(place) / Scalar.exact(zeta_value(place, 1))


def test_floor_monotone_in_p_and_eventually_near_one():
    theta = THETA_BEST
    prev = 0.0
    for p in (2, 3, 5, 7, 11, 13, 101, 1009):
        rep = local_weight_lower(tempered(theta), 0, PlaceData(p, 1))
        cur = rep.floor_body.to_complex().real
        assert cur > prev
        prev = cur
    assert prev >= 0.99  # p = 1009 is already within 1% of the tempered floor


def test_jq_lower_tempered_and_best_bound():
    q3 = IdealFactorization.parse("2^1*3^1*5^1")
    entries = [(tempered(), 0)] * 3
    assert jq_lower(entries, q3).product == Scalar.exact(1)
    # theta = 7/64 in the single-place case reproduces the stated floor
    q1 = IdealFactorization.parse("2^1")
    rep = jq_lower([(tempered(THETA_BEST), 0)], q1)
    assert rep.product.to_complex().real == pytest.approx((1 - 2 ** (-1 + 7 / 32)) / 0.5)
    # at large primes the product dominates the (1-eps)**omega comparison
    qbig = IdealFactorization.parse("101^1*103^1*107^1")
    rep = jq_lower([(tempered(THETA_BEST), 0)] * 3, qbig, epsilon=0.1)
    assert rep.product.to_complex().real >= rep.comparison_base


def test_jq_lower_validates_entries():
    with pytest.raises(ValueError):
        jq_lower([(tempered(), 0)], IdealFactorization.parse("2^1*3^1"))


def test_plancherel_mass_is_inverse_volume():
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
    for spec in ("2^1", "2^1*3^1", "2^2*3^1*5^1"):
        q = IdealFactorization.parse(spec)
        assert plancherel_mass(pi0, q) == inv_volume_Kq(q)
    # multiplicativity over places
    pa = plancherel_mass(pi0, IdealFactorization.parse("2^1"))
    pb = plancherel_mass(pi0, IdealFactorization.parse("3^1"))
    pab = plancherel_mass(pi0, IdealFactorization.parse("2^1*3^1"))
    assert pa * pb == pab
