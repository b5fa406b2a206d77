import contextlib
import dataclasses
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankinlab import cli, degenerate, verify
from rankinlab.cli import canonical_json, main
from rankinlab.exactalg import RationalFunction2
from rankinlab.scalars import Scalar

GOLDEN_PSI = Path(__file__).parent / "data" / "psi_golden.jsonl"
GOLDEN_DEGENERATE = Path(__file__).parent / "data" / "degenerate_golden.jsonl"
GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_golden.json"


@pytest.fixture()
def model_doc(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "xi_residue": "1", "xi_regular": ["0"] * 10, "xi_at_2": "1",
        "xi_at_2_regular": [str((-1) ** (k + 1)) for k in range(10)],
        "lambda_pi0_residue": "1", "lambda_pi0_regular": ["0"] * 10,
        "adjoint_L_value": "1", "norm_different": 1,
    }))
    return str(path)


def test_psi_match(capsys):
    code = main(["psi", "--kind", "i", "--p", "2", "--r", "1", "--pi0", "1,1",
                 "--at", "0,0"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["kind_i"]["verdict"] == "MATCH"
    assert report["kind_i"]["closed_at"] == "12"
    assert report["seed"] == 20260809


def test_psi_expand(capsys):
    code = main(["psi", "--kind", "iv", "--p", "3", "--r", "2", "--expand"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["correction_expansion"]["leading_matches"] is True
    assert report["correction_expansion"]["vanishing_order"] == 3


def test_psi_expand_exit_code_judges_the_expansion(capsys, monkeypatch):
    # a factor off by 1 + T1 T2 / 2 changes the lam**3 coefficient of z**2 w
    # and z w**2 and leaves the closed form and the oracle matching
    perturbed = cli.correction_factor_rf
    monkeypatch.setattr(cli, "correction_factor_rf", lambda place: perturbed(place) * (
        RationalFunction2.const(1, place.p) + RationalFunction2.monomial(1, 1, Fraction(1, 2),
                                                                        place.p)))
    assert main(["psi", "--kind", "iv", "--p", "3", "--r", "2", "--expand"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["kind_iv"]["verdict"] == "MATCH"
    assert report["correction_expansion"]["leading_matches"] is False


def test_psi_invalid_kind_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["psi", "--kind", "v", "--p", "2", "--r", "1"])
    assert err.value.code == 2


def test_psi_bad_satake_is_usage_error():
    assert main(["psi", "--kind", "i", "--p", "2", "--r", "1", "--pi0", "2,3"]) == 2


def test_pi0_with_a_zero_denominator_is_a_usage_error_naming_pi0(capsys):
    assert main(["psi", "--p", "2", "--r", "1", "--pi0", "1/0,1"]) == 2
    assert capsys.readouterr().err == "error: --pi0 '1/0,1': zero denominator in '1/0'\n"


@pytest.mark.parametrize("alpha", ["0", "0.0", "-0j"])
def test_a_zero_pi0_without_its_partner_is_a_usage_error_naming_pi0(capsys, alpha):
    # 'a' stands for 'a,1/a': a zero alpha raised ZeroDivisionError
    assert main(["psi", "--p", "2", "--r", "1", f"--pi0={alpha}"]) == 2
    assert capsys.readouterr().err == (f"error: --pi0 {alpha!r}: alpha = 0 has no inverse "
                                       "to pair it with\n")


@pytest.mark.parametrize("at, message", [
    ("abc,0", "invalid literal for int() with base 10: 'abc'"),
    ("nan,0", "invalid literal for int() with base 10: 'nan'"),
    (",", "invalid literal for int() with base 10: ''"),
    ("1,2,3", "expected 'z,w', got '1,2,3'"),
])
def test_a_malformed_point_is_a_usage_error_naming_at(capsys, at, message):
    assert main(["psi", "--p", "2", "--r", "1", f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --at {at!r}: {message}\n"


@pytest.mark.parametrize("q, message", [
    ("abc", "invalid literal for int() with base 10: 'abc'"),
    ("2^x", "invalid literal for int() with base 10: 'x'"),
    ("6", "residue cardinality 6 is not a prime power >= 2"),
])
def test_a_malformed_ideal_is_a_usage_error_naming_q(capsys, model_doc, q, message):
    assert main(["degenerate", "--q", q, "--data", model_doc]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --q {q!r}: {message}\n"


def test_pi0_overflowing_a_double_is_a_usage_error_naming_pi0(capsys):
    assert main(["psi", "--p", "2", "--r", "1", "--pi0", "1e308,1e-308"]) == 2
    err = capsys.readouterr().err
    assert "Satake magnitudes of --pi0 '1e308,1e-308' overflow a double" in err


def test_psi_zero_denominator_is_usage_error(capsys):
    assert main(["psi", "--kind", "i", "--p", "2", "--r", "1", "--at", "1/0,0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("pi0", ["3/5,5/3", "0.6+0.8j,0.6-0.8j"])    # exact, numeric mode
@pytest.mark.parametrize("at", ["1e400,0", "0,-1e400"])
def test_psi_non_finite_point_is_usage_error(pi0, at, capsys):
    assert main(["psi", "--kind", "iv", "--p", "2", "--r", "1", "--pi0", pi0,
                 f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite coordinate" in captured.err


@pytest.mark.parametrize("at", [
    "100000,0", "3000000,0", "0,-14285", "14284,0",
    pytest.param("1" + "0" * 4400 + ",0", id="4401-digit-integer"),
    pytest.param("0,1/1" + "0" * 4400, id="4401-digit-denominator")])
def test_psi_huge_exact_point_is_usage_error(at, capsys):
    # p**(-z) alone would print past sys.get_int_max_str_digits() (4300 digits
    # by default), or the value at the point would, or int() would refuse to
    # read a coordinate of more digits than that with Python's own text
    assert main(["psi", "--kind", "iv", "--p", "2", "--r", "1", f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sys.get_int_max_str_digits()" in captured.err
    assert f"point {at!r}" in captured.err
    assert "Exceeds the limit" not in captured.err


@pytest.mark.parametrize("at", ["-5000.5,0", "0,-1000000/3"])
def test_psi_point_overflowing_a_double_is_usage_error(at, capsys):
    assert main(["psi", "--kind", "i", "--p", "2", "--r", "1", f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows a double" in captured.err


@pytest.mark.parametrize("at", ["-2000,0", "-20000,0"])
def test_psi_numeric_mode_checks_exact_points_against_the_double_range(at, capsys):
    # numeric mode turns p**(-z) into a double, so the digit limit of exact
    # mode does not apply there: an exact coordinate is refused only when the
    # double power overflows
    assert main(["psi", "--kind", "iv", "--p", "2", "--r", "1",
                 "--pi0", "0.6+0.8j,0.6-0.8j", f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows a double" in captured.err
    assert "sys.get_int_max_str_digits()" not in captured.err


@pytest.mark.parametrize("kind, at", [("iv", "500,0"), ("all", "1000,0")])
def test_psi_numeric_denominator_underflow_is_usage_error(kind, at, capsys):
    # p**(-z) is still a double here, but the denominator of psi underflows
    # to 0.0 before the division
    assert main(["psi", "--kind", kind, "--p", "2", "--r", "1",
                 "--pi0", "0.6+0.8j,0.6-0.8j", f"--at={at}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"point '{at}'" in captured.err and "underflows a double" in captured.err


@pytest.mark.parametrize("p, r, pi0, at, kind, message", [
    # the value of psi overflows a double at the point
    ("2", "1", "0.6+0.8j,0.6-0.8j", "-100,0", "all", "psi there overflows a double"),
    ("2", "1", "0.6+0.8j,0.6-0.8j", "-300,0", "all", "psi there overflows a double"),
    # |alpha| = 1: the point overflows, not --pi0, whose coefficients are finite
    ("2", "1", "0.6+0.8j,0.6-0.8j", "-100,-77", "all", "psi there overflows a double"),
    ("5", "3", "1e-3,1e3", "-30,0", "all", "psi there overflows a double"),
    # the magnitude of a denominator factor, which the pole test reads
    ("2", "3", "1e150,1e-150", "-1e3,0", "iii", "psi there overflows a double"),
    # the value is inf, and the numerator's magnitude in the rounding floor overflows
    ("2", "1", "0.6+0.8j,0.6-0.8j", "-76.7,0", "all", "rounding floor of psi there overflows"),
    # both forms underflow to 0.0, where the relative margin has no scale
    ("2", "4", "0.6+0.8j,0.6-0.8j", "-77,-77", "all", "underflows a double to 0.0 in both forms"),
])
def test_psi_numeric_overflow_at_the_point_is_usage_error(p, r, pi0, at, kind, message, capsys):
    assert main(["psi", "--p", p, "--r", r, "--pi0", pi0, f"--at={at}", "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"point '{at}'" in captured.err and message in captured.err


def test_psi_exact_point_where_doubles_underflow_still_matches(capsys):
    assert main(["psi", "--p", "2", "--r", "1", "--pi0", "1,1", "--at=500,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(report[f"kind_{kind}"]["verdict"] == "MATCH" for kind in ("i", "ii", "iii", "iv"))


def test_psi_point_below_the_digit_limit_still_evaluates(capsys):
    assert main(["psi", "--kind", "iv", "--p", "2", "--r", "1", "--at", "2000,0"]) == 0
    entry = json.loads(capsys.readouterr().out)["kind_iv"]
    assert entry["verdict"] == "MATCH" and entry["closed_at"] == entry["oracle_at"]
    assert len(entry["closed_at"]) > 2000


@pytest.mark.parametrize("pi0, mode", [("0.6+0.8j,0.6-0.8j", "numeric"),
                                        ("3/5,5/3", "exact")])
def test_psi_pole_on_both_sides_matches(capsys, pi0, mode):
    code = main(["psi", "--p", "2", "--r", "1", "--at", "1/2,1/2", "--pi0", pi0])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["mode"] == mode
    for kind in ("ii", "iii", "iv"):
        assert report[f"kind_{kind}"] == {"closed_at": "pole", "oracle_at": "pole",
                                          "verdict": "MATCH"}


def test_psi_pole_on_one_side_mismatches(capsys, monkeypatch):
    # an oracle without the pole of the closed form at (1/2, 1/2)
    monkeypatch.setattr(cli, "psi_oracle",
                        lambda kind, place, pi0: cli.psi_closed("i", place, pi0))
    code = main(["psi", "--kind", "ii", "--p", "2", "--r", "1", "--at", "1/2,1/2",
                 "--pi0", "0.6+0.8j,0.6-0.8j"])
    entry = json.loads(capsys.readouterr().out)["kind_ii"]
    assert code == 1
    assert entry["closed_at"] == "pole" and entry["oracle_at"] != "pole"
    assert entry["verdict"] == "MISMATCH"


def test_psi_numeric_verdict_below_the_rounding_floor_is_usage_error(capsys):
    # both values lie below 1e-15 and dozens of orders of magnitude apart, but
    # the oracle's numerator cancels terms near 1 far below their rounding
    # error in doubles: no numeric verdict certifies anything there, while
    # exact parameters give MATCH at the same point
    code = main(["psi", "--kind", "iv", "--p", "2", "--r", "1",
                 "--pi0", "0.6+0.8j,0.6-0.8j", "--at=60,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "point '60,0'" in captured.err and "rounding floor" in captured.err
    assert main(["psi", "--kind", "iv", "--p", "2", "--r", "1", "--pi0", "3/5,5/3",
                 "--at=60,0"]) == 0
    assert json.loads(capsys.readouterr().out)["kind_iv"]["verdict"] == "MATCH"


@pytest.mark.parametrize("p, pi0, at, kind", [
    ("2", "0.6+0.8j,0.6-0.8j", "-10,0", "all"),
    ("2", "0.6+0.8j,0.6-0.8j", "-20,0", "all"),
    # |alpha| far from 1: the oracle read -2.0e-5 against -7.26e-6 when its
    # square sum carried explicit terms and a tail correction
    ("3", "-909.0", "0,0", "i"),
])
def test_psi_numeric_oracle_without_residue_past_y_squared_matches(p, pi0, at, kind, capsys):
    code = main(["psi", "--p", p, "--r", "1", "--kind", kind, f"--pi0={pi0}", f"--at={at}"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(report[f"kind_{k}"]["verdict"] == "MATCH" for k in report["kinds"])


def test_psi_numeric_oracle_matches_far_left_of_the_origin(capsys):
    # the square sum's Y**2 coefficient is identically 0; kept in doubles, its
    # rounding remnant (about 1e-17), lifted by T1 = 2**40, gave kinds i and
    # iii a MISMATCH here
    code = main(["psi", "--p", "2", "--r", "1", "--pi0", "0.6+0.8j,0.6-0.8j", "--at=-40,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(report[f"kind_{k}"]["verdict"] == "MATCH" for k in report["kinds"])


@pytest.mark.xfail(strict=True, reason="the rounding floor does not count the rounding of "
                   "the square sum's Y coefficient b1 - b0*e1, which cancels T**2 ~ 2e31 "
                   "down to Delta = 1 at |alpha| ~ 4.5e15")
def test_psi_numeric_tiny_alpha_is_no_false_mismatch(capsys):
    # today every kind reads MISMATCH with margin ~3.5e9 against a floor of
    # ~3.5e-14; a MATCH or a usage error naming the precision limit both pass
    code = main(["psi", "--p", "2", "--r", "1", "--pi0=2.220446049250313e-16", "--at=0.1,-0.2"])
    capsys.readouterr()
    assert code in (0, 2)


def test_psi_report_grid_keeps_verdicts_and_reports_the_floor(capsys):
    # p 2, 3, 5, 9; r 1..3; two exact and two numeric pairs; three points:
    # every report exits 0 with four MATCH verdicts (as before the floor), and
    # only numeric reports carry precision_floor and margin, both below limits
    reports = 0
    for p in (2, 3, 5, 9):
        for r in (1, 2, 3):
            for pi0 in ("1,1", "3/5,5/3", "0.6+0.8j,0.6-0.8j", "0.28+0.96j,0.28-0.96j"):
                for at in ("0,0", "1,1", "1/2,1/2"):
                    code = main(["psi", "--p", str(p), "--r", str(r), "--pi0", pi0,
                                 "--at", at])
                    report = json.loads(capsys.readouterr().out)
                    assert code == 0, (p, r, pi0, at)
                    for kind in ("i", "ii", "iii", "iv"):
                        entry = report[f"kind_{kind}"]
                        assert entry["verdict"] == "MATCH"
                        measured = report["mode"] == "numeric" and entry["closed_at"] != "pole"
                        assert ("precision_floor" in entry) == measured
                        if measured:
                            assert entry["precision_floor"] < 1e-11
                            assert entry["margin"] <= 1
                    reports += 1
    assert reports == 144


def test_json_reports_round_trip(capsys):
    main(["psi", "--kind", "ii", "--p", "2", "--r", "1"])
    raw = capsys.readouterr().out
    assert canonical_json(json.loads(raw)) == raw


def test_reports_deterministic(capsys):
    main(["verify", "--suite", "specweight"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "specweight"])
    second = capsys.readouterr().out
    assert first == second


def test_degenerate_command(capsys, model_doc):
    code = main(["degenerate", "--q", "2^1*3^1", "--data", model_doc])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert float(report["c3_residual"]) <= 1e-10
    assert report["q"] == "2^1*3^1"


def test_degenerate_q_independence(capsys, model_doc):
    values = []
    for q in ("2^1", "5^2"):
        main(["degenerate", "--q", q, "--data", model_doc])
        report = json.loads(capsys.readouterr().out)
        values.append(report["c3"])
    assert values[0] == values[1]


def test_degenerate_missing_data_is_usage_error(capsys):
    assert main(["degenerate", "--q", "2^1", "--data", "/nonexistent.json"]) == 2


def test_degenerate_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"xi_residue": "1"}')
    assert main(["degenerate", "--q", "2^1", "--data", str(bad)]) == 2
    assert "missing keys" in capsys.readouterr().err


RATIONAL_FIELD = Path(degenerate.__file__).parent / "data" / "q_rationalfield.json"
MODEL_EXACT = RATIONAL_FIELD.with_name("model_exact.json")


@pytest.mark.parametrize("key, value", [
    ("xi_residue", [1]), ("xi_residue", {"a": 1}), ("xi_residue", True), ("xi_at_2", None),
    ("xi_regular", 5), ("xi_regular", ["1", True]), ("lambda_pi0_regular", ["1", "abc"]),
    ("xi_at_2_regular", "1"), ("norm_different", None), ("norm_different", 1.5),
    ("norm_different", "1.5"), ("norm_different", "0"), ("norm_different", 0),
    ("norm_different", -3), ("norm_different", True), ("residue_check_tolerance", [1e-9]),
    ("xi_at_2", "1e999"), ("lambda_pi0_regular", ["-1e999"]),
    ("lambda_pi0_residue", float("nan")), ("residue_check_tolerance", "nan"),
    ("residue_check_tolerance", -1e-9), ("residue_check_tolerance", "-1")])
def test_malformed_zeta_data_is_a_usage_error_naming_its_key(tmp_path, capsys, key, value):
    doc = json.loads(RATIONAL_FIELD.read_text())
    doc[key] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["degenerate", "--q", "2", "--data", str(path)]) == 2
    assert f"zeta data key '{key}" in capsys.readouterr().err


def test_a_negative_residue_tolerance_is_a_usage_error_on_the_exact_document(tmp_path, capsys):
    # exact residues compare without a tolerance, so nothing else would catch it
    doc = json.loads(MODEL_EXACT.read_text())
    doc["residue_check_tolerance"] = "-1"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["degenerate", "--q", "2", "--data", str(path)]) == 2
    assert "zeta data key 'residue_check_tolerance'" in capsys.readouterr().err


def test_zeta_data_takes_numbers_and_number_strings(tmp_path, capsys):
    doc = json.loads(RATIONAL_FIELD.read_text())
    doc["xi_residue"], doc["xi_regular"][0] = 1, float(doc["xi_regular"][0])
    doc["norm_different"] = " 1"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["degenerate", "--q", "2", "--data", str(path)]) == 0
    with_numbers = json.loads(capsys.readouterr().out)
    assert main(["degenerate", "--q", "2", "--data", str(RATIONAL_FIELD)]) == 0
    assert json.loads(capsys.readouterr().out)["c3"] == with_numbers["c3"]


@pytest.mark.parametrize("command", [
    ["degenerate", "--q", "2", "--data", str(RATIONAL_FIELD)],
    ["psi", "--p", "2", "--r", "1", "--pi0", "0.6+0.8j,0.6-0.8j"]], ids=["degenerate", "psi"])
@pytest.mark.parametrize("tolerance", ["inf", "-inf", "1e400", "nan", "-1", "-1e-300", "x"])
def test_tolerance_must_be_finite_and_nonnegative(command, tolerance, capsys):
    # inf passed every comparison (exit 0 whatever c3 is), -1 and nan failed
    # every one (exit 1): neither tested anything
    with pytest.raises(SystemExit) as err:
        main([*command, "--tolerance", tolerance])
    assert err.value.code == 2
    assert "--tolerance" in capsys.readouterr().err


def test_degenerate_names_a_residual_over_the_tolerance(capsys, monkeypatch):
    # stdout stays the report of a passing run
    argv = ["degenerate", "--q", "2^1*3^1", "--data", str(RATIONAL_FIELD)]
    assert main(argv) == 0
    passing = capsys.readouterr()
    assert passing.err == ""
    limit = cli.degenerate_limit
    monkeypatch.setattr(cli, "degenerate_limit", lambda *args, **kwargs: dataclasses.replace(
        limit(*args, **kwargs), c3_residual=1e-9))
    assert main(argv) == 1
    failing = capsys.readouterr()
    assert json.loads(failing.out) == {**json.loads(passing.out), "c3_residual": 1e-9}
    assert failing.err == "[FAIL] c3_residual = 1e-09 exceeds the tolerance 1e-10\n"


@pytest.mark.parametrize("tolerance", ["0", "1e-16"])
def test_degenerate_refuses_a_tolerance_under_the_rounding_floor(capsys, tolerance):
    # c3_residual is 2.2e-16 here, two ulps of c3 = 0.7958: no tolerance under
    # the floor of 4 ulps can tell a wrong c3 from rounding
    argv = ["degenerate", "--q", "2^1*3^1", "--data", str(RATIONAL_FIELD)]
    assert main([*argv, "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c3_residual" in captured.err and "rounding floor 4.44e-16" in captured.err
    assert main([*argv, "--tolerance", "1e-15"]) == 0


def test_degenerate_judges_lambda_excess(capsys, monkeypatch):
    limit = cli.degenerate_limit
    monkeypatch.setattr(cli, "degenerate_limit", lambda *args, **kwargs: dataclasses.replace(
        limit(*args, **kwargs), lambda_excess=1.0))
    assert main(["degenerate", "--q", "2^1*3^1", "--data", str(RATIONAL_FIELD)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["lambda_excess"] == 1.0
    assert captured.err == "[FAIL] lambda_excess = 1 exceeds the tolerance 1e-10\n"


def test_degenerate_takes_no_seed(capsys):
    # the limit draws nothing at random, and its report has no seed to echo
    with pytest.raises(SystemExit) as err:
        main(["degenerate", "--q", "2", "--data", str(RATIONAL_FIELD), "--seed", "1"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


def _with_every_entry(key: str, value: str) -> dict:
    """model_exact.json with every entry of the list ``key`` set to ``value``."""
    doc = json.loads(MODEL_EXACT.read_text())
    return {**doc, key: [value] * len(doc[key])}


@pytest.mark.parametrize("key, value", [("xi_regular", "1e200"), ("xi_regular", "1e308"),
                                        ("xi_at_2_regular", "1e300")])
def test_degenerate_names_a_document_that_overflows_a_double(tmp_path, capsys, key, value):
    # the four-term combination holds inf and NaN there: a usage error naming the
    # document, with the NaN shown, not a failed cancellation
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_with_every_entry(key, value)))
    assert main(["degenerate", "--q", "2", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --data {path}: the zeta data overflow a double: ")
    assert "coefficients of the four-term combination are not finite (largest magnitude nan)" \
        in captured.err


@pytest.mark.parametrize("depth", ["0", "2", "-1"])
def test_degenerate_names_the_least_depth(capsys, depth):
    # G's three simple poles put the limit at numerator degree 3
    assert main(["degenerate", "--q", "2^1*3^1", "--data", str(MODEL_EXACT),
                 "--depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--depth {depth} " in captured.err and "depth 3 or more" in captured.err
    assert main(["degenerate", "--q", "2^1*3^1", "--data", str(MODEL_EXACT), "--depth", "3"]) == 0


@pytest.mark.parametrize("q", ["2^1*3^1", "2^1*3^1*5^1*7^1*11^1*13^2"])
@pytest.mark.parametrize("doc", [RATIONAL_FIELD, MODEL_EXACT], ids=["rational", "model"])
def test_depth_does_not_move_the_degenerate_report(capsys, doc, q):
    # depth sets how many degrees the singular split certifies, not the cubic
    reports = []
    for depth in ("3", "8", "10"):
        assert main(["degenerate", "--q", q, "--data", str(doc), "--depth", depth]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("depth") == int(depth)
        reports.append(canonical_json(report))
    assert reports[0] == reports[1] == reports[2]


def test_zero_tolerance_is_a_tolerance(capsys):
    # exact zeta data give an exact c3 and a rounding floor of 0
    exact = Path(degenerate.__file__).parent / "data" / "model_exact.json"
    assert main(["degenerate", "--q", "2", "--data", str(exact), "--tolerance", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["c3_residual"] == 0.0


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "specweight"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["suites"]["specweight"]["passed"] is True
    assert "[PASS] spectral-weight" in captured.err


def test_verify_separates_correctness_from_runtime_budget(capsys, monkeypatch):
    monkeypatch.setitem(verify.RUNTIME_BUDGETS, "whittaker", 0.0)
    outs = []
    for _ in range(2):
        assert main(["verify", "--suite", "whittaker"]) == 1
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert "[FAIL] whittaker-integral" in captured.err
        assert "over its 0.0s runtime budget" in captured.err
    assert outs[0] == outs[1]          # the seconds go to stderr only
    suite = json.loads(outs[0])["suites"]["whittaker"]
    assert suite["correct"] is True and suite["within_budget"] is False
    assert suite["passed"] is False and suite["runtime_budget_seconds"] == 0.0
    assert "runtime_exceeded" not in suite


def test_verify_lemma44_fuzz_and_break(capsys):
    assert main(["verify", "--suite", "lemma44", "--fuzz", "30"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "lemma44", "--fuzz", "12", "--break-symmetry"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_detected"] is True
    assert report["breaks_injected"] == 12


@pytest.mark.parametrize("extra", [[], ["--break-symmetry"]])
@pytest.mark.parametrize("fuzz", ["0", "-1"])
def test_verify_fuzz_below_one_is_usage_error(fuzz, extra):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "lemma44", "--fuzz", fuzz, *extra])
    assert err.value.code == 2


@pytest.mark.parametrize("at", ["0,0", "1/3,1/5", "1/2,1/2"])
def test_single_entry_pi0_is_the_pair_with_its_inverse(at, capsys):
    reports = []
    for pi0 in ("2", "2,1/2"):
        assert main(["psi", "--p", "3", "--r", "2", "--pi0", pi0, "--at", at, "--expand"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    single, pair = reports
    assert (single.pop("pi0"), pair.pop("pi0")) == ("2", "2,1/2")
    assert single == pair


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


def test_csv_format(capsys):
    import csv as csv_mod
    import io
    code = main(["psi", "--kind", "i", "--p", "2", "--r", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    header, values = rows
    assert values[header.index("kind_i.verdict")] == "MATCH"


def test_complex_satake_input(capsys):
    code = main(["psi", "--kind", "i", "--p", "2", "--r", "1",
                 "--pi0", "0.6+0.8j,0.6-0.8j", "--at", "0,0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind_i"]["verdict"] == "MATCH"


def test_psi_reports_match_golden(capsys):
    # exact-mode reports recorded before the integer product kernel; each line
    # holds the arguments that produced it
    lines = GOLDEN_PSI.read_text().splitlines(keepends=True)
    assert len(lines) == 48
    differ = []
    for line in lines:
        report = json.loads(line)
        argv = ["psi", "--p", str(report["p"]), "--r", str(report["r"]),
                "--pi0", report["pi0"], "--at", report["at"]]
        code = main(argv)
        if code != 0 or capsys.readouterr().out != line:
            differ.append(" ".join(argv))
    assert differ == []


def test_degenerate_reports_match_golden(capsys, monkeypatch):
    # reports recorded before the per-term Laurent kernel and the plain-number
    # series inverse: every digit of c2, c1, c0 and the correction is pinned.
    # The shipped documents are named relative to the package's data directory,
    # as the "data" field of each line records them.
    lines = GOLDEN_DEGENERATE.read_text().splitlines(keepends=True)
    assert len(lines) == 16
    monkeypatch.chdir(Path(degenerate.__file__).parent / "data")
    differ = []
    for line in lines:
        report = json.loads(line)
        argv = ["degenerate", "--q", report["q"], "--data", report["data"],
                "--depth", str(report["depth"])]
        code = main(argv)
        if code != 0 or capsys.readouterr().out != line:
            differ.append(" ".join(argv))
    assert differ == []


def test_verify_report_matches_golden(capsys):
    # the default verify report, byte for byte (sha256 prefix a8e35d41d0b4d1c5):
    # runtimes go to stderr, so stdout is the same on every run of the seed
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY.read_text()


def test_verify_degenerate_reports_envelope_margin(capsys):
    assert main(["verify", "--suite", "degenerate"]) == 0
    suite = json.loads(capsys.readouterr().out)["suites"]["degenerate"]
    # c0 at q = 2^1 is the closest coefficient to its envelope
    assert 0.8 < suite["coefficient_envelope_margin"] <= 1
    assert suite["coefficient_envelopes_ok"] is True


@pytest.mark.parametrize("p, r", [(5, 3), (9, 1)])
def test_psi_small_denominator_product_is_not_a_pole(capsys, p, r):
    # at this point every denominator factor is at least 3% of the sum of its
    # terms' moduli, but on one side the product of the factors with their
    # multiplicities is below 1e-12 (9.6e-15 for p=5, 7.4e-13 for p=9)
    code = main(["psi", "--kind", "iv", "--p", str(p), "--r", str(r), "--pi0", "1,1",
                 "--at", "1/3,1/4"])
    entry = json.loads(capsys.readouterr().out)["kind_iv"]
    assert code == 0
    closed, oracle = complex(entry["closed_at"]), complex(entry["oracle_at"])
    assert abs(closed - oracle) <= 1e-9 * abs(oracle)


def test_canonical_json_is_standard_json():
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = {"worst": float("nan"), "bounds": [float("inf"), -float("inf"), 0.5],
              "nested": {"ratio": (1, float("nan"))}}
    text = canonical_json(report)
    assert json.loads(text, parse_constant=reject) == {
        "worst": "nan", "bounds": ["inf", "-inf", 0.5], "nested": {"ratio": [1, "nan"]}}


@pytest.mark.parametrize("leaked", [Scalar.exact(1), 1j, {1: 2, "1": 3}],
                         ids=["Scalar", "complex", "clashing keys"])
def test_canonical_json_refuses_what_a_report_must_not_hold(leaked):
    # an unserialised value in a psi or degenerate report is a bug, not a string
    with pytest.raises(TypeError):
        canonical_json({"nested": [{"value": leaked}]})


def test_degenerate_builds_G_once_and_each_h_once(capsys, model_doc, monkeypatch):
    calls = {"G": 0, "h": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(degenerate, "build_G", counted("G", degenerate.build_G))
    monkeypatch.setattr(degenerate, "build_h", counted("h", degenerate.build_h))
    assert main(["degenerate", "--q", "2^1*3^1", "--data", model_doc]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls == {"G": 1, "h": 1}  # one build_h call builds all four
    assert set(report["h_origin_values"]) == {"h1", "h2", "h3", "h4"}
    assert "correction_sum_factor" in report


# -- every argv ends in a verdict or a usage error --------------------------------

NUMBER = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2/3", "1/0", "0.6+0.8j", "0.6-0.8j",
                     "1j", "1e308", "1e-308", "1e999", "nan", "inf", "-inf", "", "x", " 1"]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.fractions(max_denominator=50).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False).map(repr))
TOLERANCE = st.sampled_from(["0", "1e-16", "1e-15", "1e-10", "1e-3", "1", "nan", "-1", "x"])
PSI_VALID = {"--p": ["2", "3", "5", "9"], "--r": ["1", "2", "3"],
             "--pi0": ["1,1", "1/2,2", "0.6+0.8j,0.6-0.8j", "2", "1.07"],
             "--at": ["0,0", "1/2,1/3", "0.1,-0.2", "-1,2"],
             "--kind": ["i", "iv", "all"], "--tolerance": ["1e-10", "1e-3"]}
PSI_FUZZ = {"--p": st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["x", "99999989"])),
            "--r": st.integers(-1, 6).map(str),
            "--pi0": st.one_of(NUMBER, st.tuples(NUMBER, NUMBER).map(",".join)),
            "--at": st.one_of(NUMBER, st.tuples(NUMBER, NUMBER).map(",".join)),
            "--kind": st.sampled_from(["ii", "iii", "v", ""]), "--tolerance": TOLERANCE}
DEGENERATE_VALID = {"--q": ["2", "2^1*3^1", "5^2", "7^3"],
                    "--data": [str(RATIONAL_FIELD), str(RATIONAL_FIELD.parent / "model_exact.json")],
                    "--depth": ["3", "8"], "--tolerance": ["1e-10", "1e-15"]}
MAGNITUDE = st.builds("{}1e{}".format, st.sampled_from("+-"), st.integers(0, 308))
# model_exact.json with lists of magnitudes 1e0..1e308 of both signs, short of the
# depth or not, as a JSON text that _written puts in a temporary file
ZETA_DOCUMENT = st.dictionaries(
    st.sampled_from(["xi_regular", "lambda_pi0_regular", "xi_at_2_regular"]),
    st.one_of(st.lists(MAGNITUDE, max_size=3), st.lists(MAGNITUDE, min_size=8, max_size=12)),
    min_size=1).map(lambda lists: json.dumps({**json.loads(MODEL_EXACT.read_text()), **lists}))
DEGENERATE_FUZZ = {
    "--q": st.one_of(
        st.sampled_from(["1", "2^0", "2^1*2^1", "4", "6", "x", "", "2^-1", "2^99999"]),
        st.lists(st.tuples(st.sampled_from([2, 3, 4, 5, 7, 9]), st.integers(-1, 4)),
                 min_size=1, max_size=3).map(lambda fs: "*".join(f"{b}^{e}" for b, e in fs))),
    "--data": st.one_of(st.sampled_from(["/nonexistent.json", str(Path(__file__))]),
                        ZETA_DOCUMENT),
    "--depth": st.integers(-2, 10).map(str), "--tolerance": TOLERANCE}


@st.composite
def _argv(draw, command, valid, fuzz):
    """A valid ``command`` argv with up to two of its values fuzzed."""
    values = {flag: draw(st.sampled_from(choices)) for flag, choices in valid.items()}
    for flag in draw(st.lists(st.sampled_from(sorted(fuzz)), max_size=2, unique=True)):
        values[flag] = draw(fuzz[flag])
    return [command] + [f"{flag}={value}" for flag, value in values.items()]


def _exit_code(argv: list) -> int:
    """The exit code of ``argv``; an exception other than SystemExit propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=100, deadline=None)
@given(argv=_argv("psi", PSI_VALID, PSI_FUZZ), expand=st.booleans())
def test_psi_argv_ends_in_an_exit_code(argv, expand):
    assert _exit_code(argv + ["--expand"] * expand) in (0, 1, 2)


def _written(argv: list, tmp: str) -> list:
    """argv with a drawn ``--data`` document written to a file under ``tmp``."""
    document = Path(tmp) / "zeta.json"
    for k, arg in enumerate(argv):
        if arg.startswith("--data={"):
            document.write_text(arg.removeprefix("--data="))
            argv[k] = f"--data={document}"
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=_argv("degenerate", DEGENERATE_VALID, DEGENERATE_FUZZ))
def test_degenerate_argv_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        assert _exit_code(_written(argv, tmp)) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(document=ZETA_DOCUMENT, q=st.sampled_from(DEGENERATE_VALID["--q"]),
       depth=st.sampled_from(DEGENERATE_VALID["--depth"]))
def test_degenerate_document_ends_in_an_exit_code(document, q, depth):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _written(["degenerate", f"--q={q}", f"--data={document}", f"--depth={depth}"], tmp)
        assert _exit_code(argv) in (0, 1, 2)
