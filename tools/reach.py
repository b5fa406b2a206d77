"""List the functions of ``src/rankinlab`` that a set of runs never calls.

    python3 tools/reach.py                      # the default runs below
    python3 tools/reach.py --workloads "" "psi --p 2 --r 1 --kind i"
    python3 tools/reach.py --lines              # also the lines never executed

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

With ``--lines`` the runs also go under ``sys.settrace``, several times
slower, and then, per module, the lines inside those functions that no run
executes are printed as ``file: ranges``: the traffic of a branch, not only of
a function.  A function's first line (its ``def`` or first decorator) and its
docstring are not counted.
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


def _functions():
    """(file name, code object) for every named function compiled from the
    package's modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            # functions only: a module or class body runs at import
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                yield path.name, code


def candidates() -> dict[tuple[str, int, str], str]:
    """(file, first line, qualname) -> printed name for every named function
    compiled from the package's modules."""
    return {_key(code): f"{name}:{code.co_firstlineno} {_key(code)[2]}"
            for name, code in _functions()}


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


def reached(commands: list[str], workloads: list[str], rounds: int,
            lines: bool = False) -> tuple[set[tuple[str, int, str]], set[tuple[str, int]]]:
    """The keys of the package functions the runs call and, with ``lines``,
    the (file, line) pairs they execute in the package (else an empty set)."""
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    from rankinlab.cli import main

    seen, executed, inside = set(), set(), {}

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        ours = inside.get(name)
        if ours is None:
            ours = inside[name] = Path(os.path.realpath(name)).parent == PACKAGE
        return line if ours else None

    previous, previous_trace = sys.getprofile(), sys.gettrace()
    sys.setprofile(profile)
    if lines:
        sys.settrace(trace)
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
        if lines:
            sys.settrace(previous_trace)
    return {_key(code) for code in seen}, {(os.path.realpath(f), n) for f, n in executed}


def unreached(commands: list[str], workloads: list[str], rounds: int = ROUNDS) -> list[str]:
    """Printed names of the package functions that the runs never call;
    ``rounds`` (at least 1) untraced rounds of each workload."""
    return missed_functions(reached(commands, workloads, rounds)[0])


def missed_functions(codes: set[tuple[str, int, str]]) -> list[str]:
    return [name for key, name in sorted(candidates().items()) if key not in codes]


def missed_lines(executed: set[tuple[str, int]]) -> dict[str, list[int]]:
    """File name -> the sorted lines inside package functions, past each
    function's first line, that are not in ``executed``."""
    missed: dict[str, set[int]] = {}
    for name, code in _functions():
        path = os.path.realpath(code.co_filename)
        missed.setdefault(name, set()).update(
            n for *_, n in code.co_lines()
            if n is not None and n != code.co_firstlineno and (path, n) not in executed)
    return {name: sorted(lines) for name, lines in missed.items() if lines}


def _ranges(lines: list[int]) -> str:
    """1, 2, 3, 7 as "1-3, 7"."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", help="rankin-local-lab command lines")
    parser.add_argument("--workloads", default="cancel-fuzz,psi-exact,degenerate-limit,"
                        "oracle-series", help="comma-separated certbench workloads, or ''")
    parser.add_argument("--lines", action="store_true",
                        help="also print, per module, the lines in functions never executed")
    args = parser.parse_args(argv)
    names = [name for name in args.workloads.split(",") if name]
    codes, executed = reached(args.commands or default_commands(), names, ROUNDS, args.lines)
    missed = missed_functions(codes)
    for name in missed:
        print(name)
    print(f"{len(missed)} of {len(candidates())} functions never called", file=sys.stderr)
    if args.lines:
        lines = missed_lines(executed)
        for name, numbers in lines.items():
            print(f"{name}: {_ranges(numbers)}")
        total = sum(map(len, lines.values()))
        print(f"{total} lines in functions never executed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
