"""tools/reach.py on a tiny run list: what a run calls is not listed, the rest is."""

import importlib.util
import sys
from pathlib import Path

REACH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", REACH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_reach_lists_only_what_the_runs_never_call():
    profiler = sys.getprofile()
    missed = reach.unreached(["psi --p 2 --r 1 --kind i"], ["cancel-fuzz"], rounds=1)
    assert sys.getprofile() is profiler
    names = {line.split(" ", 1)[1] for line in missed}
    assert all(line.split(" ", 1)[0].split(":")[1].isdigit() for line in missed)
    # reached: the command, and the workload with its judge
    assert not names & {"cmd_psi", "psi_closed", "psi_oracle", "four_term_combination"}
    # reached by neither: another command, a test-only certificate, a nested helper
    assert {"cmd_verify", "symmetry_residuals", "symmetry_residuals.<locals>.residual"} <= names
    # class bodies run at import and are no candidates
    assert "Poly2" not in names and len(missed) < len(reach.candidates())
