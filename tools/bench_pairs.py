"""Paired certification benchmark: the parent revision against the working tree.

    python3 tools/bench_pairs.py --out BENCH_7.json \\
        --pairs psi-exact=1017,20260809,801-808 --pairs cancel-fuzz=1017,20260809,801 \\
        --traced 20260809 --verify-rounds 2

The parent is a ``git archive`` of ``--parent`` (default ``HEAD``) and the
change a copy of the working tree's ``src/``, ``certbench/`` and
``BENCHMARK.json``, both unpacked under one temporary directory, so edits made
while the campaign runs do not reach it.  Each pair runs the unmodified
``certbench/run.py`` of each side once, one run at a time, for the
``run_seconds`` that ``BENCHMARK.json`` sets; even pairs start with the parent
and odd ones with the change.  ``--traced SEED`` adds one
traced pair (``--trace 1``) per workload, and ``--verify-rounds N`` times ``N``
alternating fresh-process runs of ``verify`` and ``verify --suite lemma44``
per side.  The output file is rewritten after every run, in the layout of
``BENCH_6.json``: every run in run order, then per-workload quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
VERIFY_COMMANDS = (["verify"], ["verify", "--suite", "lemma44"])


def seed_list(text: str) -> list[int]:
    """``1017,801-803`` -> [1017, 801, 802, 803]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def pair_spec(text: str) -> tuple[str, list[int]]:
    workload, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return workload, seed_list(seeds)


def src_digest(tree: Path) -> str:
    """First 16 hex digits of a sha256 over the relative path and bytes of
    every ``src/**/*.py`` file, in sorted order."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def unpack_trees(parent_rev: str, base: Path) -> dict[str, Path]:
    trees = {side: base / side for side in SIDES}
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent_rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"])
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "certbench"):
        shutil.copytree(ROOT / name, trees["change"] / name, ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", trees["change"] / "BENCHMARK.json")
    return trees


def bench_run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, "certbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run.py {workload} {seed} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    context = next((line for line in lines if line.startswith("# ")), "")
    return {"context": context, "result": json.loads(lines[-1])}


def verify_run(tree: Path, argv: list[str]) -> dict:
    code = ("import sys; sys.path.insert(0, 'src'); from rankinlab.cli import main; "
            f"sys.exit(main({argv!r}))")
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True)
    return {"command": " ".join(argv), "wall_s": round(time.perf_counter() - t0, 3),
            "returncode": done.returncode,
            "stdout_sha256_16": hashlib.sha256(done.stdout).hexdigest()[:16]}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> tuple[dict, dict]:
    summary: dict = {}
    traced: dict = {}
    for run in runs:
        if run["trace"]:
            metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            traced.setdefault(run["workload"], {})[run["side"]] = metrics
    timed = [run for run in runs if not run["trace"]]
    for workload in dict.fromkeys(run["workload"] for run in timed):
        mine = [run for run in timed if run["workload"] == workload]
        entry: dict = {}
        for metric in mine[0]["result"]["metrics"]:
            values = {side: [r["result"]["metrics"][metric]["value"] for r in mine
                             if r["side"] == side] for side in SIDES}
            if not all(values.values()):
                continue
            entry[metric] = {side: quartiles(values[side]) for side in SIDES}
            entry[metric]["change_over_parent"] = (entry[metric]["change"]["median"]
                                                   / entry[metric]["parent"]["median"])
        pairs: dict = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = \
                run["result"]["metrics"]["certs_per_s"]["value"]
        complete = [p for p in pairs.values() if len(p) == 2]
        won = sum(p["change"] > p["parent"] for p in complete)
        entry["certs_per_s_pairs_won_by_change"] = f"{won}/{len(complete)}"
        for key in ("failed", "attempted"):
            entry[key] = {side: sum(r["result"][key] for r in mine if r["side"] == side)
                          for side in SIDES}
        summary[workload] = entry
    return summary, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--pairs", type=pair_spec, action="append", default=[],
                        metavar="WORKLOAD=SEEDS", help="e.g. psi-exact=1017,20260809,801-808")
    parser.add_argument("--traced", type=int, default=0, metavar="SEED",
                        help="one traced pair per workload at this seed (0: none)")
    parser.add_argument("--verify-rounds", type=int, default=0)
    args = parser.parse_args(argv)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    parent_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent], check=True,
                                capture_output=True, text=True).stdout.strip()
    plan = [(w, s, 0) for w, seeds in args.pairs for s in seeds]
    if args.traced:
        plan += [(w, args.traced, 1) for w in dict.fromkeys(w for w, _ in args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = unpack_trees(args.parent, Path(tmp))
        report = {
            "description": (f"Certification benchmark (certbench/run.py, unmodified, "
                            f"run_seconds {run_seconds} from BENCHMARK.json) run on the parent "
                            "commit and on this change in "
                            "alternating order by tools/bench_pairs.py; every run made is "
                            "listed in run order. Times are certbench's scaled times; medians "
                            "and quartiles are per side over the listed runs."),
            "host": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                     "note": "PYTHONDONTWRITEBYTECODE="
                             f"{os.environ.get('PYTHONDONTWRITEBYTECODE', '')!s} in the environment"},
            "revisions": {"parent": parent_sha,
                          "change": "the working tree on top of the parent (src_sha256_16 below)",
                          "src_sha256_16": {side: src_digest(trees[side]) for side in SIDES}},
            "runs": [],
        }
        runs = report["runs"]

        def record(entry: dict) -> None:
            runs.append({"order": len(runs), **entry})
            report["summary"], traced = summarize(runs)
            if traced:
                report[f"traced_seed_{args.traced}"] = traced
            args.out.write_text(json.dumps(report, indent=1) + "\n")

        for index, (workload, seed, trace) in enumerate(plan):
            for side in (SIDES if index % 2 == 0 else SIDES[::-1]):
                started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
                out = bench_run(trees[side], workload, seed, trace)
                record({"pair": f"{workload}/{seed}/{trace}/{index}", "side": side,
                        "workload": workload, "seed": seed, "trace": trace,
                        "started_utc": started, **out})
                print(f"{workload} {seed} trace={trace} {side}: {out['context'][:100]}",
                      file=sys.stderr)
        if args.verify_rounds:
            report["verify_wall_s"] = {
                "how": "python -c 'from rankinlab.cli import main; main(argv)' in a fresh "
                       "interpreter per run, src/ of each side on sys.path; wall time of the "
                       "whole process; stdout hashed",
                "runs": []}
        for k in range(args.verify_rounds):
            for command in VERIFY_COMMANDS:
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    verify_runs = report["verify_wall_s"]["runs"]
                    verify_runs.append({"order": len(verify_runs), "side": side,
                                        **verify_run(trees[side], command)})
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
