"""Acceptance suites: every criterion as a deterministic, seeded check.

Each suite returns a :class:`SuiteResult` with a correctness verdict, a
runtime-budget verdict, diagnostics, and its runtime; the CLI prints one line
per suite and exits nonzero on failure.
Frozen constants (determined on the first run and committed):

* ``TAYLOR_C = 6.5``       -- |a_{m,n}| <= C * omega(q)**(m+n) over the fixed ideal list
* ``REG_BOUND_C = 4.0``    -- closed-form modulus against the decay envelope
* ``DEGEN_ENVELOPES``      -- |c2|, |c1|, |c0| against omega powers 3, 4, 5
"""

from __future__ import annotations

import cmath
import importlib.resources
import random
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .degenerate import (GlobalZetaData, build_h, degenerate_limit,
                         taylor_bound_report)
from .exactalg import PoleError, rf_equal
from .laurent import (break_one_symmetry, four_term_combination, ls_from_rational,
                      pole_factor_series, random_simple_pole_coeffs,
                      random_symmetric_quadruple, SYMMETRY_BREAKERS)
from .localdata import IdealFactorization, PlaceData, inv_volume_Kq, omega, volume_K, zeta_scalar
from .scalars import Scalar
from .specweight import jq_lower, local_weight_lower, plancherel_mass
from .whittaker import SatakeParams, weighted_integral_closed, weighted_integral_oracle
from .zetaint import (KINDS, correction_factor_rf, correction_leading, psi_closed, psi_oracle,
                      reg_local_bound, reg_local_closed, reg_local_closed_s_form,
                      reg_local_oracle)

DEFAULT_SEED = 20260809

WHITTAKER_DRAWS = 100  # unitary draws of the weighted-integral suite
TAYLOR_C = 6.5
REG_BOUND_C = 4.0
DEGEN_ENVELOPES = (1.0, 9.0, 14.0)  # multipliers of omega**3, omega**4, omega**5

TAYLOR_IDEALS = (
    "2^1", "3^1", "5^2", "2^1*3^1", "2^2*3^1", "2^1*3^1*5^1", "7^1", "2^3",
    "11^1", "2^1*3^2*5^1*7^1", "13^1", "2^1*3^1*5^1*7^1*11^1",
    "2^1*3^1*5^1*7^1*11^1*13^1", "4^1*9^1", "25^1", "2^4*3^3", "17^2",
    "2^1*7^2", "3^1*5^1*49^1", "8^1*27^1",
)

PSI_GRID_PAIRS = ((Fraction(1), Fraction(1)),
                  (Fraction(2), Fraction(1, 2)),
                  (Fraction(3, 2), Fraction(2, 3)))


@dataclass
class SuiteResult:
    """A suite's two verdicts: ``correct`` (every check held) and
    ``within_budget`` (its runtime stayed inside the pinned budget, if any).
    It passes when both hold."""

    name: str
    correct: bool
    seconds: float
    details: dict = field(default_factory=dict)
    within_budget: bool = True

    @property
    def passed(self) -> bool:
        return self.correct and self.within_budget

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        over = ("" if self.within_budget else
                f", over its {self.details['runtime_budget_seconds']}s runtime budget")
        return f"[{status}] {self.name} ({self.seconds:.2f}s{over})"


def _timed(fn):
    def wrapper(*args, **kwargs) -> SuiteResult:
        t0 = time.perf_counter()
        name, correct, details = fn(*args, **kwargs)
        return SuiteResult(name, correct, time.perf_counter() - t0, details)
    return wrapper


def _shipped(name: str) -> GlobalZetaData:
    ref = importlib.resources.files("rankinlab.data").joinpath(name)
    with importlib.resources.as_file(ref) as path:
        return GlobalZetaData.from_document(path)


def default_data() -> GlobalZetaData:
    return _shipped("q_rationalfield.json")


def model_data() -> GlobalZetaData:
    return _shipped("model_exact.json")


def _unitary(rng: random.Random) -> SatakeParams:
    """Unramified unitary parameters (e**(i phi), e**(-i phi)), phi uniform in [0, 2 pi)."""
    return SatakeParams.unramified_unitary(
        Scalar.numeric(cmath.exp(1j * rng.uniform(0.0, 2 * cmath.pi))))


@_timed
def suite_whittaker_integral(seed: int = DEFAULT_SEED):
    """Weighted square-integral identity: closed form vs 10^4-term sums."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(WHITTAKER_DRAWS):
        p = rng.choice((2, 3, 5, 9, 11))
        place = PlaceData(p, 1)
        pi = _unitary(rng)
        s = Scalar.numeric(rng.uniform(0.0, 1.0))
        closed = weighted_integral_closed(pi, place, s).to_complex()
        oracle = weighted_integral_oracle(pi, place, s, terms=10_000).to_complex()
        worst = max(worst, abs(closed - oracle) / abs(closed))
    spot = weighted_integral_closed(
        SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1)),
        PlaceData(2, 1), Scalar.exact(0))
    spot_ok = spot == Scalar.exact(12)
    passed = worst <= 1e-10 and spot_ok
    return "whittaker-integral", passed, {
        "draws": WHITTAKER_DRAWS, "worst_rel_error": worst, "tolerance": 1e-10,
        "exact_spot_value": str(spot), "exact_spot_ok": spot_ok, "seed": seed,
    }


@_timed
def suite_psi_grid():
    """All four local zeta integrals: closed form == stratum oracle, exactly."""
    mismatches = []
    points = 0
    for p in (2, 3, 5, 9):
        for r in (1, 2, 3):
            place = PlaceData(p, r)
            for a1, a2 in PSI_GRID_PAIRS:
                pi0 = SatakeParams.unramified_unitary(Scalar.exact(a1), Scalar.exact(a2))
                for kind in KINDS:
                    points += 1
                    if not rf_equal(psi_closed(kind, place, pi0).value,
                                    psi_oracle(kind, place, pi0).value):
                        mismatches.append((kind, p, r, str(a1)))
    return "psi-grid", not mismatches, {
        "points": points, "mismatches": mismatches, "comparison": "exact rational-function equality",
    }


def correction_expansion_holds(series, place: PlaceData) -> bool:
    """Whether ``series``, the lam-symbolic expansion of the fourth integral's
    excess factor at ``place``, is 8 z w (z+w) zeta(1)**3 lam**3 / p**(r+1)
    plus higher order, exactly: no pole, no monomial below total degree 3,
    and z**2 w and z w**2 (8 z w (z+w) = 8 z^2 w + 8 z w^2) each carry
    exactly :func:`correction_leading` lam**3."""
    expect = Scalar.exact(correction_leading(place))
    lead_ok = all(lp.coeff(3) == expect and lp.degree() == 3
                  for lp in (series.coeff(2, 1), series.coeff(1, 2)))
    return lead_ok and all(i + j >= 3 for i, j in series.num) and not any(series.poles)


@_timed
def suite_psi_correction():
    """Leading behaviour of the fourth integral's excess factor, lam-symbolic."""
    failures = []
    for p, r in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 3), (9, 2)):
        place = PlaceData(p, r)
        series = ls_from_rational(correction_factor_rf(place), 8, log_p="lambda")
        if not correction_expansion_holds(series, place):
            failures.append((p, r))
    return "psi-correction", not failures, {
        "cases": 6, "failures": failures,
        "statement": "expansion = 8 z w (z+w) zeta(1)^3 lam^3 / p^(r+1) + higher order, exactly",
    }


@_timed
def suite_residue_cancellation(fuzz: int = 500, broken: int = 50, seed: int = DEFAULT_SEED):
    """Four-term combinations of constrained quadruples have removable origin."""
    rng = random.Random(seed)
    depth = 8
    cancel_failures = 0
    for _ in range(fuzz):
        g = pole_factor_series(random_simple_pole_coeffs(rng, depth),
                               random_simple_pole_coeffs(rng, depth), depth)
        quadruple = random_symmetric_quadruple(rng)
        if not four_term_combination(g, quadruple, depth).singular_part().is_zero():
            cancel_failures += 1
    missed_breaks = 0
    names = list(SYMMETRY_BREAKERS)
    for k in range(broken):
        g = pole_factor_series(random_simple_pole_coeffs(rng, depth),
                               random_simple_pole_coeffs(rng, depth), depth)
        quadruple = break_one_symmetry(random_symmetric_quadruple(rng), names[k % 6], rng)
        if four_term_combination(g, quadruple, depth).singular_part().is_zero():
            missed_breaks += 1
    passed = cancel_failures == 0 and missed_breaks == 0
    return "residue-cancellation", passed, {
        "fuzz": fuzz, "cancel_failures": cancel_failures,
        "broken": broken, "missed_breaks": missed_breaks, "depth": depth, "seed": seed,
    }


@_timed
def suite_degenerate(data: GlobalZetaData | None = None):
    """Cubic limit: leading coefficient formula, q-independence, lam^4 vanishing."""
    data = data or default_data()
    qs = ("2^1", "2^3", "2^1*3^1", "2^1*3^1*5^2")
    tol = 1e-10
    c3s = []
    worst_residual = 0.0
    worst_lambda = 0.0
    envelope_ok = True
    envelope_margin = 0.0  # largest |coefficient| / envelope
    for spec in qs:
        q = IdealFactorization.parse(spec)
        rep = degenerate_limit(data, q)
        c3s.append(rep.coefficients.c3.to_complex())
        worst_residual = max(worst_residual, rep.c3_residual)
        worst_lambda = max(worst_lambda, rep.lambda_excess)
        om = max(omega(q), 1)
        cubic = rep.coefficients
        for coeff, mult, power in zip((cubic.c2, cubic.c1, cubic.c0), DEGEN_ENVELOPES, (3, 4, 5)):
            size, envelope = abs(coeff.to_complex()), mult * om ** power
            envelope_ok &= size <= envelope
            envelope_margin = max(envelope_margin, size / envelope)
    spread = max(abs(a - b) for a in c3s for b in c3s)
    passed = worst_residual <= tol and spread <= tol and worst_lambda <= tol and envelope_ok
    return "degenerate-limit", passed, {
        "q_values": list(qs), "c3": c3s[0].real, "c3_formula_residual": worst_residual,
        "c3_spread": spread, "lambda4_excess": worst_lambda, "tolerance": tol,
        "coefficient_envelopes_ok": envelope_ok,
        "coefficient_envelope_margin": envelope_margin,
    }


@_timed
def suite_taylor_bounds():
    """Taylor coefficients of the inverse-zeta products against omega powers."""
    worst = 0.0
    worst_at = None
    count = 0
    origin_ok = True
    for spec in TAYLOR_IDEALS:
        q = IdealFactorization.parse(spec)
        for which, h in enumerate(build_h(q), 1):
            if which == 1:
                origin_ok &= abs(h.coeff(0, 0).coeff(0).to_complex()) < 1
            for m in range(4):
                for n in range(4 - m):
                    rep = taylor_bound_report(h, q, m, n)
                    count += 1
                    if rep.ratio > worst:
                        worst, worst_at = rep.ratio, (spec, which, m, n)
    passed = worst <= TAYLOR_C and origin_ok
    return "taylor-bounds", passed, {
        "ideals": len(TAYLOR_IDEALS), "coefficients_checked": count,
        "max_ratio": worst, "frozen_constant": TAYLOR_C, "worst_at": worst_at,
        "origin_below_one": origin_ok,
    }


@_timed
def suite_regularized(seed: int = DEFAULT_SEED):
    """Regularised-term local sum: internal forms, series oracle, decay bound."""
    rng = random.Random(seed)
    form_fails = 0
    trials = 0
    while trials < 50:
        a = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        p = rng.choice((2, 3, 5, 9))
        r = rng.randrange(0, 5)
        zf = Fraction(rng.choice((0, 1, 2)), 2)
        if max(a, 1 / a) ** 2 >= Fraction(p) ** (1 + 2 * zf):
            continue
        trials += 1
        pi = SatakeParams.unramified_unitary(Scalar.exact(a))
        place = PlaceData(p, r)
        if reg_local_closed(pi, place, Scalar.exact(zf)) != \
                reg_local_closed_s_form(pi, place, Scalar.exact(zf)):
            form_fails += 1
    worst_rel = 0.0
    for _ in range(100):
        pi = _unitary(rng)
        place = PlaceData(rng.choice((2, 3, 5)), rng.randrange(0, 7))
        z = Scalar.numeric(rng.uniform(0.0, 0.3))
        closed = reg_local_closed(pi, place, z).to_complex()
        oracle = reg_local_oracle(pi, place, z, terms=3000).to_complex()
        worst_rel = max(worst_rel, abs(closed - oracle) / max(1.0, abs(closed)))
    worst_ratio = 0.0
    for p in (2, 3, 5):
        for r in range(1, 7):
            for _ in range(40):
                pi = _unitary(rng)
                z = Scalar.numeric(rng.uniform(0.0, 0.3))
                place = PlaceData(p, r)
                value = abs(reg_local_closed(pi, place, z).to_complex())
                worst_ratio = max(worst_ratio, value / reg_local_bound(pi, place, z))
    passed = form_fails == 0 and worst_rel <= 1e-10 and worst_ratio <= REG_BOUND_C
    return "regularized-local", passed, {
        "exact_form_draws": trials, "form_mismatches": form_fails,
        "oracle_draws": 100, "worst_rel_error": worst_rel, "oracle_tolerance": 1e-10,
        "bound_ratio_max": worst_ratio, "frozen_constant": REG_BOUND_C, "seed": seed,
    }


@_timed
def suite_spectral_weight():
    """Weight lower bounds and the Plancherel-mass identity, exactly.

    Only ``plancherel_mass`` certifies something: it ties ``psi_closed`` at
    the origin and the Rankin-Selberg L-value, computed apart, to
    vol(K_q)**(-1).  ``unramified_bound`` pins one hand-computed value.  The
    other four restate what they check: ``unramified_closed_form`` compares
    ``local_weight_lower`` with the expression it computes, and
    ``tempered_floor_is_one``, ``conductor_exceeds_vanishes`` and
    ``jq_tempered_product_one`` read a formula or a branch at the point
    where it is 1 or 0 by definition.  The ramified bound, vol(K)/zeta(1)
    for every alpha1, is not checked here."""
    checks: dict[str, bool] = {}
    place = PlaceData(2, 1)
    pi_t = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1),
                                           theta=Fraction(0))
    rep = local_weight_lower(pi_t, 0, place)
    checks["unramified_bound"] = rep.lower_bound == Scalar.exact(Fraction(1, 18))
    checks["unramified_closed_form"] = all(
        local_weight_lower(pi_t, 0, PlaceData(p, r)).lower_bound
        == volume_K(PlaceData(p, r)) * zeta_scalar(PlaceData(p, r), 2)
        / zeta_scalar(PlaceData(p, r), 1) ** 3
        for p in (2, 3, 5) for r in (1, 2, 3)
    )
    checks["tempered_floor_is_one"] = rep.floor_body == Scalar.exact(1)
    checks["conductor_exceeds_vanishes"] = \
        local_weight_lower(pi_t, 2, place).lower_bound == Scalar.exact(0)
    pi0 = SatakeParams.unramified_unitary(Scalar.exact(1), Scalar.exact(1))
    checks["plancherel_mass"] = all(
        plancherel_mass(pi0, IdealFactorization.parse(spec))
        == inv_volume_Kq(IdealFactorization.parse(spec))
        for spec in ("2^1", "2^1*3^1", "2^2*3^1*5^1")
    )
    entries = [(SatakeParams.unramified_unitary(Scalar.exact(1), theta=Fraction(0)), 0)] * 3
    checks["jq_tempered_product_one"] = jq_lower(
        entries, IdealFactorization.parse("2^1*3^1*5^1")).product == Scalar.exact(1)
    return "spectral-weight", all(checks.values()), checks


@_timed
def suite_cross_backend(seed: int = DEFAULT_SEED):
    """Numeric backend agrees with exact mode to 1e-12 relative."""
    rng = random.Random(seed)
    worst = 0.0

    def track(exact: Scalar, numeric: Scalar):
        nonlocal worst
        e, n = exact.to_complex(), numeric.to_complex()
        worst = max(worst, abs(e - n) / max(1.0, abs(e)))

    for _ in range(20):
        a = Fraction(rng.randrange(1, 5), rng.randrange(1, 5))
        p = rng.choice((2, 3, 5))
        r = rng.randrange(1, 4)
        place = PlaceData(p, r)
        pi_e = SatakeParams.unramified_unitary(Scalar.exact(a))
        pi_n = SatakeParams.unramified_unitary(Scalar.numeric(complex(float(a))))
        kind = rng.choice(KINDS)
        rf_e = psi_closed(kind, place, pi_e).value
        rf_n = psi_closed(kind, place, pi_n).value
        track(rf_e.eval_zw(Scalar.exact(0), Scalar.exact(0)),
              rf_n.eval_zw(Scalar.numeric(0.0), Scalar.numeric(0.0)))
        try:
            ve = rf_e.eval_zw(Scalar.exact(Fraction(1, 2)), Scalar.exact(1))
            track(ve, rf_n.eval_zw(Scalar.numeric(0.5), Scalar.numeric(1.0)))
        except PoleError:
            pass  # a genuine pole of this parameter choice; the origin was checked
        if max(a, 1 / a) ** 2 < p:
            track(reg_local_closed(pi_e, place, Scalar.exact(0)),
                  reg_local_closed(pi_n, place, Scalar.numeric(0.0)))
        try:
            ve = weighted_integral_closed(pi_e, place, Scalar.exact(1))
            track(ve, weighted_integral_closed(pi_n, place, Scalar.numeric(1.0)))
        except PoleError:
            pass
    # degenerate pipeline: exact model document vs the same values as doubles
    exact_doc = model_data()
    float_doc = GlobalZetaData(*(
        tuple(Scalar.numeric(v.to_complex()) for v in value) if isinstance(value, tuple)
        else Scalar.numeric(value.to_complex()) if isinstance(value, Scalar) else value
        for value in (getattr(exact_doc, f.name) for f in fields(exact_doc))))
    q = IdealFactorization.parse("2^1*3^1")
    track(degenerate_limit(exact_doc, q).coefficients.c3,
          degenerate_limit(float_doc, q).coefficients.c3)
    passed = worst <= 1e-12
    return "cross-backend", passed, {"worst_rel_error": worst, "tolerance": 1e-12, "seed": seed}


SUITES = {
    "whittaker": suite_whittaker_integral,
    "psi": suite_psi_grid,
    "correction": suite_psi_correction,
    "lemma44": suite_residue_cancellation,
    "degenerate": suite_degenerate,
    "taylor": suite_taylor_bounds,
    "regularized": suite_regularized,
    "specweight": suite_spectral_weight,
    "backend": suite_cross_backend,
}

RUNTIME_BUDGETS = {
    "whittaker": 5.0,
    "psi": 30.0,
    "lemma44": 20.0,
}


def run_suites(names: list[str] | None = None, fuzz: int = 500,
               seed: int = DEFAULT_SEED) -> list[tuple[str, SuiteResult]]:
    """Run the requested suites (all by default); where a runtime budget is
    pinned, ``within_budget`` says whether the suite kept to it."""
    unknown = set(names or ()) - set(SUITES)
    if unknown:
        raise KeyError(f"unknown suites: {sorted(unknown)}; choose from {sorted(SUITES)}")
    results = []
    for key, fn in SUITES.items():
        if names and key not in names:
            continue
        if key == "lemma44":
            res = fn(fuzz=fuzz, seed=seed)
        elif key in ("whittaker", "regularized", "backend"):
            res = fn(seed=seed)
        else:
            res = fn()
        budget = RUNTIME_BUDGETS.get(key)
        if budget is not None:
            res.details["runtime_budget_seconds"] = budget
            res.within_budget = res.seconds <= budget
        results.append((key, res))
    return results
