"""tools/psi_grid.py on a small slice of the numeric psi grid."""

import importlib.util
import io
from collections import Counter
from pathlib import Path

from rankinlab import cli

GRID = Path(__file__).resolve().parent.parent / "tools" / "psi_grid.py"
_spec = importlib.util.spec_from_file_location("psi_grid", GRID)
psi_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(psi_grid)


def test_a_grid_slice_counts_verdicts_and_usage_errors():
    log = io.StringIO()
    counts = psi_grid.run_grid((3,), (1,), ("0.6+0.8j,0.6-0.8j", "-909.0"), ("-30", "0", "3"),
                               ("-10", "0"), log=log)
    # every run gives four kind verdicts: none is a usage error
    assert counts == Counter(runs=12, verdicts=48)
    assert log.getvalue() == ""


def test_a_usage_error_blaming_pi0_is_counted():
    counts = psi_grid.run_grid((2,), (1,), ("1e308,1e-308",), ("0",), ("0",))
    assert counts == Counter(runs=1, usage_errors=1, pi0_blamed=1)


def test_a_traceback_is_counted_and_its_command_logged(monkeypatch):
    def broken(*args):
        raise RuntimeError("broken oracle")

    monkeypatch.setattr(cli, "psi_oracle", broken)
    log = io.StringIO()
    counts = psi_grid.run_grid((2,), (1,), ("1.5",), ("0",), ("0",), log=log)
    assert counts == Counter(runs=1, tracebacks=1)
    assert log.getvalue().startswith("psi --p 2 --r 1 --pi0=1.5 --at=0,0\n")
    assert "RuntimeError: broken oracle" in log.getvalue()
