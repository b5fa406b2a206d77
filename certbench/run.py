"""Certification benchmark: one closed-loop pass of one workload.

    python3 certbench/run.py --workload cancel-fuzz --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from the ``src/`` directory next
to this one.  Set-up is timed in several fresh interpreters and the pass runs
in another, so ``setup_s`` and ``peak_rss_mb`` belong to this run alone.  One
caller issues one certification at a time, with no threads.  The last line of
standard output is the JSON result; the lines before it give the run's
context and every metric by name with its unit (units and names come from
``BENCHMARK.json``).  See ``certbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ADDR_NO_RANDOMIZE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 5          # timed fresh interpreters; one more runs first to warm the disk cache
DEADLINE_S = 170.0


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fixed_layout() -> None:
    """Turn address-space randomisation off in a traced worker before it starts.

    Python 3.11 hashes None by its address, and the program keys sets with
    tuples that hold None (``Poly2.key``), so how much arithmetic ``psi-exact``
    does depends on the address layout.  A fixed layout makes the traced
    counts repeat exactly.  Timed passes keep the usual randomised layout, as
    users' processes do.  Where the call is refused, the traced worker runs
    with a randomised layout too, and its context line reads
    ``fixed_layout=False``."""
    try:
        libc = ctypes.CDLL(None)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_worker(args: list[str], deadline: float, fixed_layout: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                          env=env, text=True, timeout=max(1.0, deadline - time.monotonic()),
                          preexec_fn=_fixed_layout if fixed_layout else None)
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rankinlab" / "__init__.py").is_file():
        print(f"certbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup = []
        if not args.trace:
            for k in range(SETUP_REPEATS + 1):
                value = run_worker(["setup"], deadline)
                if k:
                    setup.append(value)
        result = run_worker(["pass", "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            deadline, fixed_layout=bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(v["setup_s"] for v in setup)
        result["info"]["raw_setup_s"] = round(statistics.median(v["raw_setup_s"] for v in setup), 5)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"certbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)), "git": git_revision(), **result["info"]}
    print("# " + " ".join(f"{k}={v}" for k, v in context.items()))
    for m in declared:
        print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
