"""The benchmark's tracer still wraps what it lists and reads what it scans."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from rankinlab import exactalg, laurent, zetaint
from rankinlab.localdata import PlaceData
from rankinlab.scalars import Scalar
from rankinlab.whittaker import SatakeParams

TRACER = Path(__file__).resolve().parent.parent / "certbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("tracing", TRACER)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_runs_exact_and_numeric_psi_and_a_series_expansion():
    place = PlaceData(3, 1)
    unitary = SatakeParams.unramified_unitary
    exact = unitary(Scalar.exact(Fraction(3, 5)), Scalar.exact(Fraction(5, 3)))
    numeric = unitary(Scalar.numeric(0.6 + 0.8j), Scalar.numeric(0.6 - 0.8j))
    at = (Scalar.exact(1), Scalar.exact(1))
    mul = exactalg.Poly2.__dict__["__mul__"]
    with tracing.Tracer() as tracer:
        closed = zetaint.psi_closed("iv", place, exact).value
        assert exactalg.rf_equal(closed, zetaint.psi_oracle("iv", place, exact).value)
        cv = zetaint.psi_closed("iv", place, numeric).value.eval_zw(*at)
        ov = zetaint.psi_oracle("iv", place, numeric).value.eval_zw(*at)
        assert cv.close(ov, rel_tol=1e-9, abs_tol=0.0)
        series = laurent.ls_from_rational(zetaint.correction_factor_rf(place), 8, log_p="lambda")
        assert not series.is_zero()
    metrics = tracer.metrics()
    assert metrics["exactalg.calls"] > 0 and metrics["exactalg.equals.calls"] == 1
    assert metrics["laurent.from_rational.calls"] == 1 and metrics["scalars.max_bits"] > 0
    # the wrappers are gone again
    assert exactalg.Poly2.__dict__["__mul__"] is mul
