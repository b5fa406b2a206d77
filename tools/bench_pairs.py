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
per side, summarised per command by :func:`verify_summary`.  The output file
is rewritten after every run, in the layout of ``BENCH_6.json``: every run in
run order, then per-workload quartiles.  Each
workload's summary also holds ``claim_rule`` (``certs_per_s`` pairs won by the
change out of pairs run, at least 9/10 of at least 10, and the median gap
against the parent's quartile spread) and ``verdicts``: every end-to-end
metric of ``BENCHMARK.json`` read as better, unchanged, worse or unresolved
against its bound (:func:`metric_verdict`); beside them ``raw_certs_per_s``,
the unscaled throughput of each run's context line (:func:`raw_summary`).
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
VERIFY_BOUND = 0.1  # relative bound on a verify wall-time difference
MIN_RUNS = 4  # runs per side before any difference is read


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


def src_sizes(tree: Path) -> dict:
    """Total bytes of the ``src/**/*.py`` files, and the largest of them with
    its size: with ``PYTHONDONTWRITEBYTECODE=1`` every run compiles the
    source, so ``setup_s`` follows the total and ``peak_rss_mb`` the largest
    module."""
    sizes = {path.relative_to(tree / "src").as_posix(): path.stat().st_size
             for path in sorted((tree / "src").rglob("*.py"))}
    largest = max(sizes, key=sizes.get)
    return {"total_bytes": sum(sizes.values()), "largest_module": largest,
            "largest_bytes": sizes[largest]}


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


def metric_verdict(parent: list[float], change: list[float], better: str,
                   bound: float) -> str:
    """One end-to-end metric of one workload against its relative ``bound``.

    ``unresolved`` first where either side has fewer than ``MIN_RUNS`` runs:
    two rounds a side once showed a 0.4 s ``verify`` regression that four
    rounds did not.  Otherwise ``worse``: the change's median is worse than
    the parent's by more than the bound.  ``unresolved``: otherwise, either
    side's quartile spread exceeds the bound (relative to its median), unless
    every change run is better than every parent run.  ``better``: the median
    gain exceeds the bound, or every change run is better than every parent
    run and the median gain exceeds the parent's quartile spread.
    ``unchanged``: the rest.
    """
    if min(len(parent), len(change)) < MIN_RUNS:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    base = abs(p["median"]) or 1.0
    gain = sign * (c["median"] - p["median"])
    separated = min(sign * v for v in change) > max(sign * v for v in parent)
    spread = max((q["q3"] - q["q1"]) / (abs(q["median"]) or 1.0) for q in (p, c))
    if gain < -bound * base:
        return "worse"
    if spread > bound and not separated:
        return "unresolved"
    if gain > bound * base or (separated and gain > p["q3"] - p["q1"]):
        return "better"
    return "unchanged"


def claim_rule(pairs: list[dict], parent: list[float], change: list[float]) -> dict:
    """The rule for claiming a ``certs_per_s`` gain: the change wins at least
    9/10 of at least 10 pairs (ties win nothing), and its median exceeds the
    parent's by more than the parent's quartile spread."""
    won = sum(p["change"] > p["parent"] for p in pairs)
    p, c = quartiles(parent), quartiles(change)
    gap, spread = c["median"] - p["median"], p["q3"] - p["q1"]
    pairs_ok = len(pairs) >= 10 and 10 * won >= 9 * len(pairs)
    return {"pairs_won": f"{won}/{len(pairs)}", "pairs_rule_met": pairs_ok,
            "median_gap": gap, "parent_quartile_spread": spread,
            "gap_rule_met": gap > spread, "met": pairs_ok and gap > spread}


def context_value(context: str, key: str) -> float | None:
    """The number ``key=`` gives in a run's ``# ...`` context line, or None."""
    for field in context.split():
        name, sep, value = field.partition("=")
        if sep and name == key:
            return float(value)
    return None


def raw_summary(runs: list[dict], bound: float) -> dict | None:
    """``raw_certs_per_s`` of the context lines, unscaled by certbench's
    calibration: each side's quartiles, the ratio of the medians and the
    verdict of :func:`metric_verdict` against ``bound``.  Raw and scaled
    medians can disagree in sign when the host's speed moves between runs.
    None while a side has no run that reports it."""
    raw = [[v for r in runs if r["side"] == side
            and (v := context_value(r["context"], "raw_certs_per_s")) is not None]
           for side in SIDES]
    if not all(raw):
        return None
    entry: dict = {side: quartiles(v) for side, v in zip(SIDES, raw)}
    entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
    entry["verdict"] = metric_verdict(*raw, "higher", bound)
    return entry


def verify_summary(verify_runs: list[dict]) -> dict:
    """Per ``verify`` command: each side's wall-time quartiles and the
    difference read by :func:`metric_verdict` (lower is better, bound
    ``VERIFY_BOUND``)."""
    summary: dict = {}
    for command in dict.fromkeys(r["command"] for r in verify_runs):
        mine = [r for r in verify_runs if r["command"] == command]
        walls = [[r["wall_s"] for r in mine if r["side"] == side] for side in SIDES]
        entry: dict = {side: quartiles(w) for side, w in zip(SIDES, walls) if w}
        entry["verdict"] = metric_verdict(*walls, "lower", VERIFY_BOUND)
        summary[command] = entry
    return summary


def summarize(runs: list[dict], end_to_end: list[dict]) -> tuple[dict, dict]:
    summary: dict = {}
    traced: dict = {}
    bounds = {m["name"]: m["bound"] for m in end_to_end}  # the raw figure reads certs_per_s's
    for run in runs:
        if run["trace"]:
            metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            traced.setdefault(run["workload"], {})[run["side"]] = metrics
    timed = [run for run in runs if not run["trace"]]
    for workload in dict.fromkeys(run["workload"] for run in timed):
        mine = [run for run in timed if run["workload"] == workload]
        entry: dict = {}
        values: dict = {}
        for metric in mine[0]["result"]["metrics"]:
            by_side = [[r["result"]["metrics"][metric]["value"] for r in mine
                        if r["side"] == side] for side in SIDES]
            if not all(by_side):
                continue
            values[metric] = by_side
            entry[metric] = {side: quartiles(v) for side, v in zip(SIDES, by_side)}
            entry[metric]["change_over_parent"] = (entry[metric]["change"]["median"]
                                                   / entry[metric]["parent"]["median"])
        pairs: dict = {}
        for run in mine:
            pairs.setdefault(run["pair"], {})[run["side"]] = \
                run["result"]["metrics"]["certs_per_s"]["value"]
        complete = [p for p in pairs.values() if len(p) == 2]
        if complete:
            entry["claim_rule"] = claim_rule(complete, *values["certs_per_s"])
        entry["verdicts"] = {m["name"]: metric_verdict(*values[m["name"]], m["better"],
                                                       m["bound"])
                             for m in end_to_end if m["name"] in values}
        if raw := raw_summary(mine, bounds["certs_per_s"]):
            entry["raw_certs_per_s"] = raw
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
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_seconds = benchmark["run_seconds"]

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
                          "src_sha256_16": {side: src_digest(trees[side]) for side in SIDES},
                          "src_sizes": {side: src_sizes(trees[side]) for side in SIDES}},
            "runs": [],
        }
        runs = report["runs"]

        def record(entry: dict) -> None:
            runs.append({"order": len(runs), **entry})
            report["summary"], traced = summarize(runs, benchmark["end_to_end"])
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
                    report["verify_wall_s"]["summary"] = verify_summary(verify_runs)
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
