"""Acceptance gate: every contract criterion at its stated tolerance.

Each test runs one criterion through the library's verification suites and
prints a single PASS/FAIL line (visible with ``pytest -s`` or in the captured
output summary).  Tolerances and runtime budgets are pinned here; nothing is
deferred to later calibration.
"""

from rankinlab.verify import (DEFAULT_SEED, REG_BOUND_C, TAYLOR_C, suite_cross_backend,
                              suite_degenerate, suite_psi_correction, suite_psi_grid,
                              suite_regularized, suite_residue_cancellation,
                              suite_spectral_weight, suite_taylor_bounds,
                              suite_whittaker_integral)


def _report(res, budget=None):
    line = res.line()
    if budget is not None:
        line += f" [budget {budget}s]"
    print(line)
    assert res.passed, res.details
    if budget is not None:
        assert res.seconds < budget, f"runtime {res.seconds:.2f}s exceeds {budget}s"


def test_criterion_1_whittaker_integral_identity():
    """Closed weighted integral vs 10^4-term sums: 100 draws, 1e-10, < 5 s."""
    res = suite_whittaker_integral(seed=DEFAULT_SEED)
    assert res.details["draws"] == 100
    assert res.details["worst_rel_error"] <= 1e-10
    assert res.details["exact_spot_ok"]  # p=2, alpha=(1,1), s=0 gives exactly 12
    _report(res, budget=5.0)


def test_criterion_2_psi_closed_equals_oracle_grid():
    """p in {2,3,5,9} x r in {1,2,3} x three Satake pairs x four kinds:
    exact rational-function equality, < 30 s."""
    res = suite_psi_grid()
    assert res.details["points"] == 144
    assert res.details["mismatches"] == []
    _report(res, budget=30.0)


def test_criterion_3_correction_factor_leading_term():
    """Fourth-integral excess factor: leading term 8 z w (z+w) zeta(1)^3
    lam^3 / p^(r+1), exact in the lam-symbolic pipeline."""
    res = suite_psi_correction()
    _report(res)


def test_criterion_4_residue_cancellation_fuzz():
    """500 constrained quadruples cancel; 50 broken ones are all detected; < 20 s."""
    res = suite_residue_cancellation(fuzz=500, broken=50, seed=DEFAULT_SEED)
    assert res.details["cancel_failures"] == 0
    assert res.details["missed_breaks"] == 0
    _report(res, budget=20.0)


def test_criterion_5_degenerate_leading_coefficient():
    """Ingested data: |c3 - xi*^3 N(d) L_Ad/(3 xi(2))| <= 1e-10, identical
    across q in {2, 8, 6, 2*3*25}; lam^4-and-higher vanish."""
    res = suite_degenerate()
    assert res.details["c3_formula_residual"] <= 1e-10
    assert res.details["c3_spread"] <= 1e-10
    assert res.details["lambda4_excess"] <= 1e-10
    _report(res)


def test_criterion_6_taylor_coefficient_bounds():
    """|a_{m,n}| <= C omega(q)^(m+n) for m+n <= 3 over 20 ideals (<= 6 places),
    with the committed constant C."""
    res = suite_taylor_bounds()
    assert res.details["ideals"] == 20
    assert res.details["max_ratio"] <= TAYLOR_C == 6.5
    _report(res)


def test_criterion_7_regularized_local_sum():
    """Both internal closed forms agree exactly (50 draws); oracle agreement
    1e-10 (100 unitary draws, Re z in [0, 0.3]); decay envelope with the
    committed constant over p in {2,3,5}, r in 1..6."""
    res = suite_regularized(seed=DEFAULT_SEED)
    assert res.details["form_mismatches"] == 0
    assert res.details["worst_rel_error"] <= 1e-10
    assert res.details["bound_ratio_max"] <= REG_BOUND_C == 4.0
    _report(res)


def test_criterion_8_spectral_weight_identities():
    """Unramified weight = vol * zeta(2)/zeta(1)^3 exactly; tempered floor = 1;
    Plancherel mass = inverse volume for up to 3 places; conductor beyond the
    ideal exponent kills the weight."""
    res = suite_spectral_weight()
    assert res.details["unramified_closed_form"]
    assert res.details["plancherel_mass"]
    _report(res)


def test_criterion_9_cross_backend_agreement():
    """Numeric backend within 1e-12 relative of exact mode on rational inputs."""
    res = suite_cross_backend(seed=DEFAULT_SEED)
    assert res.details["worst_rel_error"] <= 1e-12
    _report(res)
