"""Run the numeric ``psi`` verdict grid in one process and count how its runs end.

    python3 tools/psi_grid.py

Each run is ``psi --p P --r R --pi0=PI0 --at=Z,W`` over all four kinds.  The
full grid takes p in 2, 3, 5, 9; r in 1, 2, 3; the five numeric Satake pairs
of :data:`PI0` (two unitary pairs, one near 1, and the real -909.0 and 1.5);
z in -30, -20, -12, -10, -6, -3, -1, 0, 0.5, 1, 3; and w in -10, -3, 0, 1, 2.
A run ends in a report (exit 0 or 1) holding one verdict per kind, a usage
error (exit 2) or a traceback.  The counts go to stdout: MISMATCH kind
verdicts of all kind verdicts, usage errors, those of them that blame the
Satake magnitudes of ``--pi0`` (none of the grid's pairs overflows a double
itself), and tracebacks.  The command line of each run with a MISMATCH or a
traceback goes to stderr.  :func:`run_grid` runs any slice of the grid.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shlex
import sys
import traceback
from collections import Counter
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src"

P = (2, 3, 5, 9)
R = (1, 2, 3)
PI0 = ("0.6+0.8j,0.6-0.8j", "0.28+0.96j,0.28-0.96j",
       "0.999+0.0447101778j,0.999-0.0447101778j", "-909.0", "1.5")
Z = ("-30", "-20", "-12", "-10", "-6", "-3", "-1", "0", "0.5", "1", "3")
W = ("-10", "-3", "0", "1", "2")


def run_grid(ps=P, rs=R, pi0s=PI0, zs=Z, ws=W, log=None) -> Counter:
    """Counts ``runs``, ``verdicts``, ``mismatch``, ``usage_errors``,
    ``pi0_blamed`` (usage errors naming the Satake magnitudes of --pi0) and
    ``tracebacks`` over the product grid; ``log`` (a text stream) gets the
    command line of each run with a MISMATCH or a traceback."""
    if str(PACKAGE_ROOT) not in sys.path:
        sys.path.insert(0, str(PACKAGE_ROOT))
    from rankinlab.cli import USAGE_ERROR, main

    counts = Counter()
    for p, r, pi0, z, w in itertools.product(ps, rs, pi0s, zs, ws):
        argv = ["psi", "--p", str(p), "--r", str(r), f"--pi0={pi0}", f"--at={z},{w}"]
        counts["runs"] += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        except Exception:
            counts["tracebacks"] += 1
            if log:
                print(shlex.join(argv), traceback.format_exc(), sep="\n", file=log)
            continue
        if code == USAGE_ERROR:
            counts["usage_errors"] += 1
            counts["pi0_blamed"] += "Satake magnitudes of --pi0" in err.getvalue()
            continue
        report = json.loads(out.getvalue())
        verdicts = [report[f"kind_{kind}"]["verdict"] for kind in report["kinds"]]
        counts["verdicts"] += len(verdicts)
        counts["mismatch"] += verdicts.count("MISMATCH")
        if log and "MISMATCH" in verdicts:
            print(shlex.join(argv), file=log)
    return counts


def main() -> int:
    counts = run_grid(log=sys.stderr)
    print(f"{counts['runs']} runs: {counts['mismatch']} MISMATCH of {counts['verdicts']} "
          f"kind verdicts, {counts['usage_errors']} usage errors ({counts['pi0_blamed']} "
          f"blaming --pi0), {counts['tracebacks']} tracebacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
