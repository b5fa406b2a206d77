"""tools/reach.py on a tiny run list: what a run calls or executes is not listed,
the rest is."""

import ast
import importlib.util
import inspect
import textwrap
import sys
from pathlib import Path

from rankinlab import localdata, numerator, zetaint

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


def test_lines_lists_the_branches_a_run_never_takes():
    tracer = sys.gettrace()
    _, executed = reach.reached(["psi --p 2 --r 1 --kind i"], [], 1, lines=True)
    assert sys.gettrace() is tracer
    missed = set(reach.missed_lines(executed)["zetaint.py"])

    def lines(fn, text):
        source, first = inspect.getsourcelines(fn)
        return [first + k for k, line in enumerate(source) if text in line]

    # f_eval runs, but no Bruhat point of the oracle has a negative val_c
    (test,) = lines(zetaint.f_eval, "val_c < 0")
    assert test not in missed and test + 1 in missed
    # psi_closed runs straight through for kind i; kind iv's factor is skipped
    first, second, *_ = lines(zetaint.psi_closed, "value = ")
    (end,) = lines(zetaint.psi_closed, "return ")
    assert not missed & {first, second, end}
    assert set(lines(zetaint.psi_closed, "correction_factor_rf(place))")) <= missed
    assert reach._ranges([1, 2, 3, 7, 9, 10]) == "1-3, 7, 9-10"


def _assert_only_refusals_unexecuted(commands, functions):
    """Every line of each function that the commands leave unexecuted is inside a raise."""
    _, executed = reach.reached(commands, [], 1, lines=True)
    missed = reach.missed_lines(executed)
    for fn in functions:
        source, first = inspect.getsourcelines(fn)
        refusals = {first + k for node in ast.walk(ast.parse(textwrap.dedent("".join(source))))
                    if isinstance(node, ast.Raise)
                    for k in range(node.lineno - 1, node.end_lineno)}
        name = Path(inspect.getsourcefile(fn)).name
        unexecuted = {n for n in missed.get(name, []) if first <= n < first + len(source)}
        assert unexecuted <= refusals, (fn.__name__, sorted(unexecuted - refusals))


def test_psi_leaves_only_refusals_of_the_local_factors_unexecuted():
    # an exact and a numeric pi0: complex constants take zeta_local's with_factor line
    _assert_only_refusals_unexecuted(["psi --p 9 --r 1 --pi0 1,1",
                                      "psi --p 9 --r 1 --pi0 0.6+0.8j,0.6-0.8j"],
                                     (localdata.zeta_local, localdata.zeta_scalar, zetaint.rs_l_rf))


def test_psi_expand_runs_every_line_of_the_integer_inverse_and_exact_exp_routes():
    # the lam-mode expansion inverts an all-exact unit and raises one-power
    # exact rates: the new routes are what the command runs, not a fork beside it
    _assert_only_refusals_unexecuted(["psi --p 3 --r 2 --expand"],
                                     (numerator._exact_inverse, numerator._lam_loop,
                                      numerator._one_power_exp))
