"""The series oracles stop where no term they have left can move the sum.

Every oracle stops where each term it has left is an exact zero, or where
the a-priori decay bound of ``whittaker.decayed_sum`` shows that every later
addition returns the total unchanged; all four rely on plain addition for
that.  Each oracle is checked against a copy of its full-length loop
(``terms`` terms, read from a Hecke stream that never ends): wherever that
loop gives a finite value, the oracle gives the same value with the same
``repr``.  A counting stream shows that each oracle stops at its bound, with
neither its stream nor its weight ended, on many points of the grid, so the
comparison covers the early exits.
"""

import cmath
import math
import operator
import random
from fractions import Fraction
from itertools import islice

import pytest

from rankinlab import whittaker, zetaint
from rankinlab.localdata import PlaceData, zeta_value
from rankinlab.scalars import Scalar
from rankinlab.whittaker import (SatakeParams, hecke_stream, rankin_selberg_self_l,
                                 weighted_integral_closed, weighted_integral_oracle,
                                 whittaker_norm_sq_oracle, whittaker_value)
from rankinlab.zetaint import reg_local_closed, reg_local_oracle, rs_local_oracle

PRIMES = (2, 3, 5, 9, 11)
PARAMS = {
    "unitary": SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(0.9j))),
    "exact-real": SatakeParams.unramified_unitary(Scalar.exact(Fraction(3, 2))),
    "confluent": SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1)),
    "ramified-half": SatakeParams.make_ramified(Scalar.exact(Fraction(1, 2))),
    "ramified-minus-half": SatakeParams.make_ramified(Scalar.exact(Fraction(-1, 2))),
    "ramified-zero": SatakeParams.make_ramified(Scalar.exact(0)),
    "non-tempered": SatakeParams.unramified_unitary(Scalar.numeric(2 ** (7 / 64))),
    "non-tempered-complex": SatakeParams.unramified_unitary(
        Scalar.numeric(1.05 * cmath.exp(0.4j))),
    # theta near 0: |S(n)| reaches 1/sin(theta), and alpha1 + alpha2 is real
    "near-real": SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(1e-3j))),
    # the pi of the non-tempered pi0 repro in test_zetaint
    "unitary-0.7": SatakeParams.unramified_unitary(Scalar.numeric(cmath.exp(0.7j))),
}
# "unitary" has |alpha2| = 1 + 2.2e-16 after rounding; "exact-real" and
# "non-tempered" are non-tempered
PI0S = ("unitary", "exact-real", "confluent", "non-tempered", "near-real")


# -- the full-length loops the oracles replace -----------------------------------

def _endless_stream(params, step=1.0):
    a1, a2 = (Scalar.wrap(a).to_complex() for a in (params.alpha1, params.alpha2))
    t, delta = step * (a1 + a2), step * step * (a1 * a2)
    u_prev, u = 0j, 1 + 0j
    while True:
        yield u
        u_prev, u = u, t * u - delta * u_prev


def _full_weighted(params, place, s, terms=10_000):
    x = complex(place.p) ** (-(1 + Scalar.wrap(s).to_complex()))
    total, xn = 0j, 1 + 0j
    for u in islice(_endless_stream(params), terms):
        total += (u * u.conjugate()) * xn
        xn *= x
    return total


def _lift(pi0) -> float:
    """max|alpha_pi0| where pi0 is beyond tempered, else 1: the Rankin-Selberg
    oracle lifts pi's stream, and decays pi0's, by it."""
    return _top(pi0) if _top(pi0) > 1 + 1e-12 else 1.0


def _full_rs(pi, pi0, place, terms=10_000):
    lift = _lift(pi0)
    stream = islice(zip(_endless_stream(pi, place.p ** -0.5 * lift),
                        _endless_stream(pi0, 1 / lift)), terms)
    return sum((ua * ub for ua, ub in stream), 0j)


def _full_reg(pi, place, z, terms=2_000):
    z = Scalar.wrap(z).to_complex()
    p, r = place.p, place.r
    w_vals = list(islice(_endless_stream(pi, p ** -0.5), terms + r + 1))
    total = -(1.0 / p) * complex(p) ** z * (w_vals[r - 1] if r >= 1 else 0j)
    unit = 1.0 - 1.0 / p
    pz_step = complex(p) ** (-z)
    pzn = 1 + 0j
    for n in range(terms):
        total += pzn * (-1.0 / p + (n + 1) * unit) * w_vals[n + r]
        pzn *= pz_step
    return total


def _full_norm(params, place, terms=10_000):
    stream = islice(_endless_stream(params, place.p ** -0.5), terms)
    total = sum((w * w.conjugate() for w in stream), 0j)
    l_value = rankin_selberg_self_l(params, Scalar.exact(Fraction(1, place.p)))
    return (Scalar.exact(zeta_value(place, 2)) / l_value * Scalar.numeric(total)).to_complex()


# -- helpers ---------------------------------------------------------------------

class CountingStream:
    """Stands in for ``hecke_stream`` and records how many values each stream yields."""

    def __init__(self):
        self.counts = []

    def __call__(self, params, step=1.0):
        self.counts.append(0)
        k = len(self.counts) - 1
        for u in hecke_stream(params, step):
            self.counts[k] += 1
            yield u


@pytest.fixture
def counting(monkeypatch):
    stream = CountingStream()
    monkeypatch.setattr(whittaker, "hecke_stream", stream)
    monkeypatch.setattr(zetaint, "hecke_stream", stream)
    return stream


def _stream_length(params, step=1.0, cap=10_000):
    """How many values a stream that ends after two exact zeros yields, up to cap."""
    previous = 1
    for n, u in enumerate(islice(_endless_stream(params, step), cap), 1):
        if not (u or previous):
            return n
        previous = u
    return cap


def _weight_length(p, s, cap=10_000):
    """The number of weights x**n, n >= 0, before x**n underflows to 0, up to cap."""
    x = complex(p) ** (-(1 + Scalar.wrap(s).to_complex()))
    xn = x
    for n in range(1, cap):
        if not xn:
            return n
        xn *= x
    return cap


def _finite(value: complex) -> bool:
    return math.isfinite(value.real) and math.isfinite(value.imag)


def _assert_same(new: complex, full: complex, case) -> bool:
    """new is the full-length value, bit for bit, wherever that is finite."""
    if not _finite(full):
        return False
    assert new == full, case
    assert repr(new) == repr(full), case
    return True


def _terms_kwargs(terms):
    return {} if terms is None else {"terms": terms}


# -- bitwise agreement with the full-length loops ----------------------------------

# grid points where each oracle stops at its decay bound, by ``terms``; none
# stops there at terms = 5, fewer than the addends summed between two checks
WEIGHTED_BOUND_STOPS = {100: 170, None: 170}
REG_BOUND_STOPS = {100: 1_100, None: 1_500}
NORM_BOUND_STOPS = {100: 40, None: 40}
RS_BOUND_STOPS = 125
RS_LIFTED_STOPS = 80  # of them with pi0 beyond tempered


@pytest.mark.parametrize("terms", [5, 100, None], ids=["5", "100", "default"])
def test_weighted_oracle_is_the_full_sum(counting, terms):
    compared = early = bound_stops = 0
    for name, params in PARAMS.items():
        for p in PRIMES:
            for s in (0, Fraction(1, 2), 1, 0.2 + 0.5j):
                place = PlaceData(p, 1)
                kwargs = _terms_kwargs(terms)
                new = weighted_integral_oracle(params, place, s, **kwargs).to_complex()
                compared += _assert_same(new, _full_weighted(params, place, s, **kwargs),
                                         (name, p, s, terms))
                cap = kwargs.get("terms", 10_000)
                ends = min(_stream_length(params, cap=cap), _weight_length(p, s, cap))
                assert counting.counts[-1] <= ends
                early += counting.counts[-1] < cap
                # neither the stream nor the weight ended: the sum stopped at its bound
                bound_stops += counting.counts[-1] < ends
    assert compared >= 130
    assert early or terms is not None
    assert bound_stops >= WEIGHTED_BOUND_STOPS.get(terms, 0)


def _top(params) -> float:
    return max(abs(Scalar.wrap(a).to_complex()) for a in (params.alpha1, params.alpha2))


@pytest.mark.parametrize("terms", [5, 100, None], ids=["5", "100", "default"])
def test_rs_oracle_is_the_full_sum(counting, terms):
    compared = early = refused = bound_stops = bound_stops_real = lifted_stops = 0
    for name, pi in PARAMS.items():
        for name0 in PI0S:
            pi0 = PARAMS[name0]
            for p in PRIMES:
                place = PlaceData(p, 1)
                kwargs = _terms_kwargs(terms)
                full = _full_rs(pi, pi0, place, **kwargs)
                case = (name, name0, p, terms)
                try:
                    new = rs_local_oracle(pi, pi0, place, **kwargs).to_complex()
                except ValueError as exc:
                    # a refused sum is a prefix of the full one, so that is not finite either
                    assert "no decay bound holds" in str(exc) and not _finite(full), case
                    refused += 1
                    continue
                compared += _assert_same(new, full, case)
                cap = kwargs.get("terms", 10_000)
                early += sum(counting.counts[-2:]) < 2 * cap
                # neither stream ended: the sum stopped at its bound
                read_pi, read_pi0 = counting.counts[-2:]
                lift = _lift(pi0)
                if (read_pi < _stream_length(pi, p ** -0.5 * lift, cap)
                        and read_pi0 < _stream_length(pi0, 1 / lift, cap)):
                    assert read_pi == read_pi0, case
                    bound_stops += 1
                    bound_stops_real += new.imag == 0
                    lifted_stops += lift > 1
    assert compared >= 100
    assert early or terms is not None
    assert refused or terms is not None
    # the stop fires on the default grid, with a +0.0 imaginary part too, and
    # for a lifted stream of a non-tempered pi0
    assert (bound_stops >= RS_BOUND_STOPS and bound_stops_real >= 10
            and lifted_stops >= RS_LIFTED_STOPS) or terms is not None
    assert 1 < _top(PARAMS["unitary"]) <= 1 + 1e-12 < _top(PARAMS["non-tempered"])


@pytest.mark.parametrize("p", [4, 9])
def test_rs_oracle_reads_every_term_where_the_bound_does_not_clear(counting, p):
    # step * alpha = 1: the decayed stream is 1, 1, 1, ... and q = 1, so no
    # decay bound holds and a later product can still move the total
    pi = SatakeParams.make_ramified(Scalar.exact(math.isqrt(p)))
    pi0 = PARAMS["unitary"]
    new = rs_local_oracle(pi, pi0, PlaceData(p, 1)).to_complex()
    assert counting.counts[-2:] == [10_000, 10_000]
    _assert_same(new, _full_rs(pi, pi0, PlaceData(p, 1)), p)


def test_complex_sums_add_plainly():
    """All four series oracles stop where every later addend is below a
    quarter ulp of the total, which holds only for plain round-to-nearest
    addition: a ``sum`` that compensated complex values (as 3.12 does for
    floats) would collect the tiny addends this test feeds it, and the early
    stop would change the total."""
    assert sum([1 + 0j, 2 ** -53 + 0j, 2 ** -53 + 0j], 0j) == 1 + 0j
    # summing in chunks, each chunk starting from the last total, is one sum
    us = [complex(math.sin(k), math.cos(3 * k)) * 10.0 ** (k % 7 - 3) for k in range(300)]
    vs = [complex(math.cos(k), -math.sin(5 * k)) for k in range(300)]
    one = sum(map(operator.mul, us, vs), 0j)
    chunked = 0j
    for start in range(0, 300, 64):
        chunked = sum(map(operator.mul, us[start:start + 64], vs[start:start + 64]), chunked)
    assert repr(chunked) == repr(one)


@pytest.mark.parametrize("terms", [5, 100, None], ids=["5", "100", "default"])
def test_reg_oracle_is_the_full_sum(counting, terms):
    compared = early = bound_stops = 0
    for name, pi in PARAMS.items():
        for p in PRIMES:
            for z in (0, 0.15, 0.3, -0.2, 0.1 + 0.2j):
                for r in range(7):
                    place = PlaceData(p, r)
                    kwargs = _terms_kwargs(terms)
                    new = reg_local_oracle(pi, place, z, **kwargs).to_complex()
                    compared += _assert_same(new, _full_reg(pi, place, z, **kwargs),
                                             (name, p, z, r, terms))
                    cap = kwargs.get("terms", 2_000) + r
                    ends = _stream_length(pi, p ** -0.5, cap)
                    assert counting.counts[-1] <= ends
                    early += counting.counts[-1] < cap
                    bound_stops += counting.counts[-1] < ends
    assert compared >= 1_500
    assert early or terms is not None
    assert bound_stops >= REG_BOUND_STOPS.get(terms, 0)


@pytest.mark.parametrize("terms", [5, 100, None], ids=["5", "100", "default"])
def test_norm_oracle_is_the_full_sum(counting, terms):
    compared = early = bound_stops = 0
    for name, params in PARAMS.items():
        for p in PRIMES:
            place = PlaceData(p, 1)
            kwargs = _terms_kwargs(terms)
            new = whittaker_norm_sq_oracle(params, place, **kwargs).to_complex()
            compared += _assert_same(new, _full_norm(params, place, **kwargs),
                                     (name, p, terms))
            cap = kwargs.get("terms", 10_000)
            ends = _stream_length(params, p ** -0.5, cap)
            assert counting.counts[-1] <= ends
            early += counting.counts[-1] < cap
            bound_stops += counting.counts[-1] < ends
    assert compared >= 35
    assert early or terms is not None
    assert bound_stops >= NORM_BOUND_STOPS.get(terms, 0)


# -- the non-finite sums the early stop mends -----------------------------------------

@pytest.mark.parametrize("alpha", [2 ** (7 / 64), 1.1, 1.2])
def test_weighted_oracle_of_non_tempered_parameters_is_finite(alpha):
    # |S(n+1)|**2 overflows after x**n has underflowed to 0: the full-length
    # loop multiplies the two and returns NaN on a convergent series
    params = SatakeParams.unramified_unitary(Scalar.numeric(alpha))
    place = PlaceData(2, 1)
    assert not _finite(_full_weighted(params, place, 0))
    closed = weighted_integral_closed(params, place, 0).to_complex()
    oracle = weighted_integral_oracle(params, place, 0).to_complex()
    assert abs(closed - oracle) <= 1e-10 * abs(closed)


@pytest.mark.parametrize("p, r, z", [(5, 0, -0.19007328159803955),
                                     (5, 3, -0.17733400579665357),
                                     (3, 6, -0.22677920786754663)])
def test_reg_oracle_with_a_growing_weight_is_finite(p, r, z):
    # |p**(-z)| > 1: the weight p**(-nz) overflows after W(pi**n) has decayed
    # to rounding remnants, and the full-length loop of 3,000 terms returns
    # NaN on a convergent series; at 2,000 terms it is still finite
    pi = SatakeParams.unramified_unitary(
        Scalar.numeric(0.6839922365948121 - 0.7294892872949037j))
    place = PlaceData(p, r)
    assert not _finite(_full_reg(pi, place, z, terms=3_000))
    closed = reg_local_closed(pi, place, z).to_complex()
    oracle = reg_local_oracle(pi, place, z, terms=3_000).to_complex()
    assert abs(closed - oracle) <= 1e-10 * abs(closed)
    assert _assert_same(oracle, _full_reg(pi, place, z, terms=2_000), (p, r, z))


# -- where the stop comes ---------------------------------------------------------

# the most stream values each oracle reads on unitary draws at the places of
# certbench's oracle-series workload, whose caps are 10,000 terms (3,000 for reg)
READ_CAPS = {"weighted": 128, "rs": 320, "reg": 320, "norm": 96}


def _unitary(rng):
    return SatakeParams.unramified_unitary(
        Scalar.numeric(cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))))


@pytest.mark.parametrize("seed", [20260809, 1017])
def test_oracles_stop_at_their_bound_on_unitary_draws(counting, seed):
    rng = random.Random(seed)
    reads = {kind: 0 for kind in READ_CAPS}
    for k in range(300):
        pi, pi0 = _unitary(rng), _unitary(rng)
        weighted_integral_oracle(pi, PlaceData((2, 3, 5, 9, 11)[k % 5], 1), rng.uniform(0, 1))
        reads["weighted"] = max(reads["weighted"], counting.counts[-1])
        rs_local_oracle(pi, pi0, PlaceData((2, 3, 5)[k % 3], 1))
        reads["rs"] = max(reads["rs"], *counting.counts[-2:])
        reg_local_oracle(pi, PlaceData((2, 3, 5)[k % 3], k % 7), rng.uniform(0, 0.3),
                         terms=3_000)
        reads["reg"] = max(reads["reg"], counting.counts[-1])
        whittaker_norm_sq_oracle(_unitary(rng), PlaceData(3, 1))
        reads["norm"] = max(reads["norm"], counting.counts[-1])
    for kind, cap in READ_CAPS.items():
        assert reads[kind] <= cap, (kind, reads[kind])


# -- streams that end ------------------------------------------------------------

@pytest.mark.parametrize("step", [1.0, 2 ** -0.5])
def test_hecke_stream_of_zero_parameters_ends(step):
    zero = SatakeParams.make_ramified(Scalar.exact(0))
    values = list(islice(hecke_stream(zero, step), 50))
    assert values == [1, 0, 0]
    place = PlaceData(2, 1)
    for n in range(10):
        assert whittaker_value(zero, place, n).to_complex() == (1 if n == 0 else 0)


def test_hecke_stream_passes_a_single_zero():
    # alpha = (i, -i): S(n) = 1, 0, -1, 0, 1, ... never two zeros in a row
    params = SatakeParams.unramified_unitary(Scalar.numeric(1j))
    values = list(islice(hecke_stream(params), 50))
    assert len(values) == 50
    assert values[:5] == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("r", [2, 5])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_reg_oracle_with_a_stream_shorter_than_r(p, r, counting):
    # alpha1 = 0: the stream is 1, 0, 0 and ends before index r (r = 5) or
    # before the first term past it (r = 2); the sum is the full loop's 0j
    zero = SatakeParams.make_ramified(Scalar.exact(0))
    place = PlaceData(p, r)
    for z in (0, 0.15, 0.3):
        for terms in (5, 2_000):
            new = reg_local_oracle(zero, place, z, terms=terms).to_complex()
            assert counting.counts[-1] == 3
            assert repr(new) == repr(_full_reg(zero, place, z, terms=terms)) == "0j"


@pytest.mark.parametrize("c", [1.0, -1.0, 1.5, math.nextafter(2.0, 0), 2.0 ** -1000, 1e300])
def test_an_absorbed_addend_rounds_away(c):
    # the quarter ulp is half the narrower gap next to c, which at a power of
    # two is the gap below it
    limit = math.ulp(c) / 4
    below = math.nextafter(limit, 0)
    assert whittaker._absorbs(c, below, False)
    assert c + below == c and c - below == c
    assert not whittaker._absorbs(c, limit, False)


def test_only_a_positive_zero_with_real_constants_absorbs():
    assert whittaker._absorbs(0.0, 0.0, True)
    assert not whittaker._absorbs(0.0, 0.0, False)
    assert not whittaker._absorbs(-0.0, 0.0, True)
