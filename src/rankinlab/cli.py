"""Command-line surface: zeta-integral checks, the degenerate-term limit, and
the verification suites.

Exit codes: 0 success, 1 verification/mismatch failure, 2 usage or data errors.
Exact values are printed as ``num/den`` strings (with explicit ``sqrt(m)``
parts in the root extension); JSON reports are emitted in a canonical form
(sorted keys, compact separators) so that parse + re-emit is byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys

from .degenerate import GlobalZetaData, ZetaDataOverflow, degenerate_limit
from .exactalg import PoleError, power_of_p, rf_equal
from .laurent import ls_from_rational
from .localdata import IdealFactorization, PlaceData
from .scalars import Scalar, format_scalar, parse_exact
from .verify import (DEFAULT_SEED, SUITES, correction_expansion_holds, run_suites,
                     suite_residue_cancellation)
from .whittaker import SatakeParams
from .zetaint import KINDS, correction_factor_rf, correction_leading, psi_closed, psi_oracle

USAGE_ERROR = 2
VERIFY_ERROR = 1


def canonical_json(obj) -> str:
    """Standard JSON: non-finite floats are written as "nan", "inf", "-inf"."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def emit(report: dict, fmt: str) -> None:
    out = sys.stdout
    if fmt == "json":
        out.write(canonical_json(report))
    elif fmt == "csv":
        flat = _flatten(report)
        writer = csv.writer(out)
        writer.writerow(flat.keys())
        writer.writerow(flat.values())
    else:
        for key, value in sorted(_flatten(report).items()):
            out.write(f"{key:<44} {value}\n")


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            flat.update(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(obj, (list, tuple)):
        flat[prefix.rstrip(".")] = ";".join(str(v) for v in obj)
    else:
        flat[prefix.rstrip(".")] = obj
    return flat


def _parse_satake_entry(text: str) -> Scalar:
    """Exact rational, decimal, or complex literal like ``0.6+0.8j``; an entry
    with a ``/`` is a fraction or an error."""
    try:
        return parse_exact(text)
    except ValueError:
        if "/" in text:
            raise
        return Scalar.numeric(complex(text.replace(" ", "")))


def parse_satake(text: str) -> SatakeParams:
    """``a,b`` (with a*b = 1; rational means exact mode) or ``a`` for ``a,1/a``."""
    parts = text.strip().split(",")
    if len(parts) == 1:
        alpha = _parse_satake_entry(parts[0])
        if alpha.is_zero():
            raise ValueError("alpha = 0 has no inverse to pair it with")
        return SatakeParams.unramified_unitary(alpha)
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b' or 'a', got {text!r}")
    return SatakeParams.unramified_unitary(_parse_satake_entry(parts[0]),
                                           _parse_satake_entry(parts[1]))


def parse_point(text: str) -> tuple[Scalar, Scalar]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'z,w', got {text!r}")
    # parse_exact reads a fraction, or a coordinate without a decimal point or
    # exponent, with int(), which refuses more digits than this limit
    limit = sys.get_int_max_str_digits()
    if limit and any(sum(ch.isdigit() for ch in piece) > limit
                     for part in parts if "/" in part or not any(ch in part for ch in ".eE")
                     for piece in part.split("/")):
        raise ValueError(f"point {text!r} has a coordinate of more than {limit} digits, "
                         "the limit of sys.get_int_max_str_digits()")
    point = parse_exact(parts[0]), parse_exact(parts[1])
    if not all(v.is_exact or cmath.isfinite(v.z) for v in point):
        raise ValueError(f"non-finite coordinate in point {text!r}")
    return point


def _parse_option(option: str, text: str, parse):
    """parse(text), where a ValueError becomes one that names the option and its text."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{option} {text!r}: {exc}") from None


def _check_point_size(p: int, z: Scalar, w: Scalar, text: str, exact_mode: bool) -> None:
    """Refuse a point where p**(-z) or p**(-w) cannot be formed: in exact mode,
    exact (2z an integer) with more digits than Python converts to a string
    (``sys.get_int_max_str_digits()``, 0 for no limit), where evaluating
    would take long and print nothing; otherwise beyond the double range."""
    limit = sys.get_int_max_str_digits()
    for t in (z, w):
        x = t.a if t.is_exact else t.z.real
        if exact_mode and t.is_exact and (2 * x).denominator == 1:
            if limit and abs(x) > limit / math.log10(p):
                raise ValueError(f"point {text!r} is too large: {p}**{-x} alone has more "
                                 f"than {limit} digits, the limit of "
                                 "sys.get_int_max_str_digits()")
        elif x < -math.log(sys.float_info.max) / math.log(p):
            raise ValueError(f"point {text!r} is too large: {p}**{-t} overflows a double")


def _format_at(value: Scalar | None, text: str) -> str:
    """A value at the point as printed, or "pole"."""
    if value is None:
        return "pole"
    try:
        return format_scalar(value)
    except ValueError:
        raise ValueError(f"the exact value at point {text!r} has more than "
                         f"{sys.get_int_max_str_digits()} digits, the limit of "
                         "sys.get_int_max_str_digits()") from None


def _eval_or_pole(value, t1: Scalar, t2: Scalar, text: str) -> Scalar | None:
    """The rational function at T1 = t1, T2 = t2 (the point ``text``), or None
    at a pole.  A numeric denominator that underflows to 0.0 there, or a value
    that overflows a double, is a usage error."""
    try:
        return value.eval_t(t1, t2)
    except PoleError:
        return None
    except ZeroDivisionError:
        raise ValueError(f"point {text!r} is too large: the denominator of psi "
                         "there underflows a double to 0.0") from None
    except OverflowError:
        raise ValueError(f"point {text!r} is too large: psi there overflows a double") from None


def _rounding_floor(value, t1: Scalar, t2: Scalar, text: str) -> float:
    """Relative rounding error bound of the rational function ``value``
    evaluated in doubles at T1 = t1, T2 = t2: n * eps * kappa for the
    numerator and for each denominator factor (counted with its exponent),
    where n is the polynomial's number of terms and kappa its
    :meth:`Poly2.magnitude` over the modulus of its value there.  A magnitude
    that overflows a double at the point ``text`` is a usage error."""
    floor = 0.0
    for poly, exp in ((value.num, 1), *value.fac.values()):
        if poly.terms:
            size = abs(poly.eval(t1, t2).to_complex())
            try:
                kappa = poly.magnitude(t1, t2) / size if size else math.inf
            except OverflowError:
                raise ValueError(f"point {text!r} is too large: the rounding floor of psi "
                                 "there overflows a double") from None
            floor += exp * len(poly.terms) * sys.float_info.epsilon * kappa
    return floor


def _coefficients_overflow(value) -> bool:
    """Whether a coefficient of the numerator or of a denominator factor is not finite."""
    polys = (value.num, *(poly for poly, _ in value.fac.values()))
    return not all(cmath.isfinite(c) for poly in polys for c in poly.terms.values())


def cmd_psi(args) -> int:
    place = PlaceData(args.p, args.r)
    pi0 = _parse_option("--pi0", args.pi0, parse_satake)
    exact_mode = pi0.alpha1.is_exact and pi0.alpha2.is_exact
    kinds = KINDS if args.kind == "all" else (args.kind,)
    report = {
        "command": "psi", "p": args.p, "r": args.r, "pi0": args.pi0,
        "kinds": list(kinds), "at": args.at, "seed": args.seed,
        "mode": "exact" if exact_mode else "numeric",
    }
    z, w = _parse_option("--at", args.at, parse_point)
    _check_point_size(args.p, z, w, args.at, exact_mode)
    t1, t2 = power_of_p(args.p, z, -1), power_of_p(args.p, w, -1)
    all_match = True
    for kind in kinds:
        closed = psi_closed(kind, place, pi0)
        oracle = psi_oracle(kind, place, pi0)
        cv = _eval_or_pole(closed.value, t1, t2, args.at)
        ov = _eval_or_pole(oracle.value, t1, t2, args.at)
        entry = {"closed_at": _format_at(cv, args.at), "oracle_at": _format_at(ov, args.at)}
        if exact_mode:
            # tolerance is ignored: the two rational functions must coincide
            match = rf_equal(closed.value, oracle.value)
        elif cv is None or ov is None:
            # a pole matches only a pole
            match = cv is None and ov is None
        else:
            # relative only: an absolute floor would pass any two tiny values
            match = cv.close(ov, rel_tol=args.tolerance, abs_tol=0.0)
            # a verdict within rounding error of the doubles tested nothing
            floor = (_rounding_floor(closed.value, t1, t2, args.at)
                     + _rounding_floor(oracle.value, t1, t2, args.at))
            a, b = cv.to_complex(), ov.to_complex()
            if not (cmath.isfinite(a) and cmath.isfinite(b) and math.isfinite(floor)):
                if _coefficients_overflow(closed.value) or _coefficients_overflow(oracle.value):
                    raise ValueError(
                        f"point {args.at!r}: kind {kind} is {a} (closed form) and {b} "
                        f"(oracle) in doubles, with rounding floor {floor:.3g}: the Satake "
                        f"magnitudes of --pi0 {args.pi0!r} overflow a double there; exact "
                        "Satake parameters certify it")
                raise ValueError(f"point {args.at!r} is too large: psi there overflows a double")
            if not (a or b):
                raise ValueError(f"point {args.at!r} is too large: kind {kind} of psi there "
                                 "underflows a double to 0.0 in both forms")
            if not floor < args.tolerance:
                raise ValueError(
                    f"point {args.at!r}: the rounding floor {floor:.3g} of kind {kind} in "
                    f"doubles reaches the tolerance {args.tolerance:g}, so the numeric "
                    "verdict certifies nothing there; exact Satake parameters certify it")
            entry["precision_floor"] = floor
            entry["margin"] = abs(a - b) / (args.tolerance * max(abs(a), abs(b)))
        all_match &= match
        entry["verdict"] = "MATCH" if match else "MISMATCH"
        report[f"kind_{kind}"] = entry
    if args.expand:
        series = ls_from_rational(correction_factor_rf(place), log_p="lambda")
        leads = correction_expansion_holds(series, place)
        report["correction_expansion"] = {
            "lam3_coefficient_z2w": format_scalar(series.coeff(2, 1).coeff(3)),
            "lam3_coefficient_zw2": format_scalar(series.coeff(1, 2).coeff(3)),
            "expected": format_scalar(Scalar.exact(correction_leading(place))),
            "leading_matches": leads,
            "vanishing_order": min((i + j for i, j in series.num), default=-1),
        }
        all_match &= leads
    emit(report, args.format)
    return 0 if all_match else VERIFY_ERROR


def cmd_degenerate(args) -> int:
    data = GlobalZetaData.from_document(args.data)
    q = _parse_option("--q", args.q, IdealFactorization.parse)
    try:
        rep = degenerate_limit(data, q, depth=args.depth)
    except ZetaDataOverflow as exc:
        raise ValueError(f"--data {args.data}: {exc}") from None
    # a residual of exact values is exact; a numeric one carries a few ulps
    exact = rep.formula_c3.is_exact and rep.coefficients.c3.is_exact
    floor = 0.0 if exact else 4 * math.ulp(abs(rep.formula_c3.to_complex()))
    if args.tolerance < floor:
        raise ValueError(f"--tolerance {args.tolerance:g} is under the rounding floor "
                         f"{floor:.3g} of c3_residual (4 ulps of the formula value), so "
                         "the verdict would certify nothing; exact zeta data certify it")
    corr = rep.correction_detail
    report = {
        "command": "degenerate", "data": str(args.data), "depth": args.depth,
        **rep.as_dict(),
        "correction_sum_factor": format_scalar(corr.sum_factor),
        "correction_implied_c_cubed": (format_scalar(corr.implied_c_cubed)
                                       if corr.implied_c_cubed is not None else None),
        "h_origin_values": {f"h{which}": format_scalar(value)
                            for which, value in enumerate(rep.h_origin, 1)},
    }
    emit(report, args.format)
    failed = [(name, value) for name, value in (("c3_residual", rep.c3_residual),
                                                ("lambda_excess", rep.lambda_excess))
              if not value <= args.tolerance]
    for name, value in failed:
        print(f"[FAIL] {name} = {value:.3g} exceeds the tolerance {args.tolerance:g}",
              file=sys.stderr)
    return VERIFY_ERROR if failed else 0


def cmd_verify(args) -> int:
    if args.break_symmetry:
        # expected-failure control: run only the sharpness half of the fuzz
        broken = 50 if args.fuzz is None else args.fuzz
        res = suite_residue_cancellation(fuzz=0, broken=broken, seed=args.seed)
        detected = res.details["missed_breaks"] == 0
        report = {"command": "verify", "suite": "lemma44-break-symmetry",
                  "breaks_injected": res.details["broken"],
                  "all_detected": detected, "seed": args.seed}
        emit(report, args.format)
        print(f"[{'PASS' if detected else 'FAIL'}] lemma44 sharpness controls",
              file=sys.stderr)
        return 0 if detected else VERIFY_ERROR
    names = [args.suite] if args.suite else None
    results = run_suites(names, fuzz=500 if args.fuzz is None else args.fuzz, seed=args.seed)
    # runtimes go to stderr only; the JSON report stays deterministic per seed
    report = {"command": "verify", "seed": args.seed,
              "suites": {key: {"passed": res.passed, "correct": res.correct,
                               "within_budget": res.within_budget, **_jsonable(res.details)}
                         for key, res in results}}
    for _, res in results:
        print(res.line(), file=sys.stderr)
    emit(report, args.format)
    return 0 if all(res.passed for _, res in results) else VERIFY_ERROR


def _jsonable(obj):
    """obj with tuples as lists and non-finite floats as "nan", "inf" or "-inf";
    any other value is left to json.dumps, which refuses what JSON cannot hold."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def tolerance(text: str) -> float:
    """A finite tolerance >= 0: inf would pass every comparison, nan none."""
    if not 0 <= (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the randomized suites (embedded in reports)")
    parser = argparse.ArgumentParser(
        prog="rankin-local-lab",
        description="Exact local computations: zeta integrals, Whittaker sums, "
                    "residue cancellation, spectral weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", parents=[seeded],
                           help="local zeta integrals: closed form vs oracle")
    p_psi.add_argument("--kind", choices=KINDS + ("all",), default="all")
    p_psi.add_argument("--p", type=int, required=True, help="residue cardinality")
    p_psi.add_argument("--r", type=int, required=True, help="ideal exponent at the place")
    p_psi.add_argument("--pi0", default="1,1",
                       help="Satake pair 'a,b' (a*b = 1), or 'a' for 'a,1/a'")
    p_psi.add_argument("--at", default="0,0", help="evaluation point 'z,w'")
    p_psi.add_argument("--tolerance", type=tolerance, default=1e-10,
                       help="numeric-mode comparison tolerance (ignored in exact mode)")
    p_psi.add_argument("--expand", action="store_true",
                       help="also expand the fourth integral's correction factor")
    p_psi.set_defaults(func=cmd_psi)

    p_deg = sub.add_parser("degenerate", parents=[common], help="cubic limit of the degenerate term")
    p_deg.add_argument("--q", required=True, help="ideal like 2^3*5^1")
    p_deg.add_argument("--data", required=True, help="path to the zeta data document")
    p_deg.add_argument("--depth", type=int, default=8)
    p_deg.add_argument("--tolerance", type=tolerance, default=1e-10)
    p_deg.set_defaults(func=cmd_degenerate)

    p_ver = sub.add_parser("verify", parents=[seeded], help="run the acceptance suites")
    p_ver.add_argument("--suite", choices=sorted(SUITES), default=None)
    p_ver.add_argument("--fuzz", type=positive_int, default=None,
                       help="random draws to certify (default 500; 50 with --break-symmetry)")
    p_ver.add_argument("--break-symmetry", action="store_true",
                       help="run only the expected-failure sharpness controls")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
