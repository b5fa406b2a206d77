"""List the functions of ``src/rankinlab`` that a set of runs never calls.

    python3 tools/reach.py                      # the default runs below
    python3 tools/reach.py --workloads "" "psi --p 2 --r 1 --kind i"

Each positional argument is one command line of ``rankin-local-lab``; without
any, the runs are the ``psi`` grid (p 2, 3, 5, 9; r 1..3; exact and numeric
Satake pairs; three points), ``psi --expand``, ``degenerate`` on both shipped
documents, ``verify`` and ``verify --break-symmetry``.  Then two rounds of
each certbench workload in ``--workloads`` run at the benchmark's reference
seed 20260809, with their judges, and one more round of each under the
benchmark's tracer, which reads views (``Poly2.c``, ``LaurentSeries2.num``)
that no command needs.

Every run goes under ``sys.setprofile``.  A function counts as reached when
the profiler sees a call of its code object; the candidates are every named
function, method and nested function compiled from ``src/rankinlab/*.py``
(lambdas and comprehensions are left out).  Each unreached one is printed as
``file:line qualname``; a count goes to stderr.  What only the tests reach is
in this list, and so is what nothing reaches at all; so is a decorator, whose
own body runs only at import.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import os
import random
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankinlab"
CERTBENCH = ROOT / "certbench"
DATA = PACKAGE / "data"
SEED = 20260809
ROUNDS = 2


def default_commands() -> list[str]:
    pairs = ("1,1", "3/5,5/3", "0.6+0.8j,0.6-0.8j", "0.28+0.96j,0.28-0.96j")
    commands = [f"psi --p {p} --r {r} --pi0 {pi0} --at={at}"
                for p in (2, 3, 5, 9) for r in (1, 2, 3) for pi0 in pairs
                for at in ("0,0", "1,1", "1/2,1/2")]
    commands += ["psi --p 3 --r 2 --kind iv --expand --format pretty",
                 "psi --p 2 --r 1 --pi0 0.6+0.8j,0.6-0.8j --tolerance 1e-9 --format csv"]
    commands += [f"degenerate --q {q} --data {DATA / doc}"
                 for doc in ("q_rationalfield.json", "model_exact.json")
                 for q in ("1", "2^1*3^1", "2^3*5^1")]
    return commands + ["verify", "verify --break-symmetry --fuzz 50"]


def candidates() -> dict[tuple[str, int, str], str]:
    """(file, first line, qualname) -> printed name for every named function
    compiled from the package's modules."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # functions only: a module or class body runs at import
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found[_key(code)] = f"{path.name}:{code.co_firstlineno} {_key(code)[2]}"
    return found


def _key(code) -> tuple[str, int, str]:
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name))


def _load(name: str):
    """A certbench module by path, so nothing of certbench/ goes on sys.path."""
    spec = importlib.util.spec_from_file_location(f"certbench_{name}", CERTBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_workloads(names: list[str], rounds: int) -> None:
    workloads, tracing = _load("workloads"), _load("tracing")
    for name in names:
        generated = workloads.WORKLOADS[name].generate(random.Random(SEED))
        chosen = [next(generated) for _ in range(rounds)]
        for items in chosen:
            _certify_and_judge(workloads, items)
        with tracing.Tracer():
            _certify_and_judge(workloads, chosen[0])


def _certify_and_judge(workloads, items) -> None:
    for kind, args in items:
        workloads.JUDGE[kind](args, workloads.CERTIFY[kind](*args))


def reached_codes(commands: list[str], workloads: list[str],
                  rounds: int) -> set[tuple[str, int, str]]:
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    from rankinlab.cli import main

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    main(shlex.split(command))
                except SystemExit:
                    pass
        run_workloads(workloads, rounds)
    finally:
        sys.setprofile(previous)
    return {_key(code) for code in seen}


def unreached(commands: list[str], workloads: list[str], rounds: int = ROUNDS) -> list[str]:
    """Printed names of the package functions that the runs never call;
    ``rounds`` (at least 1) untraced rounds of each workload."""
    found = candidates()
    reached = reached_codes(commands, workloads, rounds)
    return [name for key, name in sorted(found.items()) if key not in reached]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", help="rankin-local-lab command lines")
    parser.add_argument("--workloads", default="cancel-fuzz,psi-exact,degenerate-limit,"
                        "oracle-series", help="comma-separated certbench workloads, or ''")
    args = parser.parse_args(argv)
    names = [name for name in args.workloads.split(",") if name]
    missed = unreached(args.commands or default_commands(), names)
    for name in missed:
        print(name)
    print(f"{len(missed)} of {len(candidates())} functions never called", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
