"""One benchmark process: set-up timing, a timed or traced pass, or recording
the stored references.  ``run.py`` starts each pass and each set-up timing in
a fresh interpreter running this file.

    python3 certbench/worker.py setup
    python3 certbench/worker.py pass --workload psi-exact --seed 1 --seconds 20 --trace 0
    python3 certbench/worker.py record --workload psi-exact --seed 20260809

``setup`` and ``pass`` print one JSON object as their last line.  ``record``
rewrites ``certbench/references/<workload>-<seed>.json``; every item must
pass its own oracle verdict before anything is written.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PACKAGE = SRC / "rankinlab"
WARMUP_ITEMS = 5
ADDR_NO_RANDOMIZE = 0x0040000   # linux/personality.h

# Times are reported at a reference machine speed.  On a shared host a core's
# speed can drift by ~70% for seconds at a time, and that drift, not the
# program, dominated run-to-run spread.  A fixed pure-Python loop that does not
# touch the program is timed at least every CALIBRATE_EVERY_S seconds; each
# certification's time is scaled by REFERENCE_S over the mean of the loop times
# just before and after it.  On a steady host a change to the program moves the
# scaled times in the same proportion as the raw ones.
REFERENCE_S = 0.010
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed Fraction-and-dict loop, about REFERENCE_S on a quiet core.

    The collector is off during the loop, so its time does not depend on how
    many objects the program keeps alive: it measures the host alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict[int, Fraction] = {}
        for i in range(1, 1400):
            term = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i)
            acc[i % 17] = acc.get(i % 17, 0) + term
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _use_checkout_source() -> None:
    """Import rankinlab from this checkout's src/, never from an installed copy."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"certbench: no program source at {PACKAGE}")
    sys.path.insert(0, str(SRC))


def _check_imported() -> None:
    import rankinlab
    if Path(rankinlab.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"certbench: rankinlab was imported from {rankinlab.__file__}")


def measure_setup() -> dict:
    """Import every rankinlab module and ingest both shipped data documents."""
    calibrate()
    before = calibrate()
    t0 = time.perf_counter()
    import rankinlab  # noqa: F401
    import rankinlab.cli  # noqa: F401
    from rankinlab import verify
    verify.default_data()
    verify.model_data()
    elapsed = time.perf_counter() - t0
    after = calibrate()
    _check_imported()
    return {"setup_s": elapsed * REFERENCE_S / ((before + after) / 2), "raw_setup_s": elapsed}


def _layout_is_fixed() -> bool:
    """Whether this process runs with address randomisation off (see run.py)."""
    try:
        return bool(ctypes.CDLL(None).personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        return False


def reference_path(workload: str, seed: int) -> Path:
    return BENCH / "references" / f"{workload}-{seed}.json"


class Tally:
    """Judges every output: its oracle verdict, then the stored reference."""

    def __init__(self, workloads, reference: list | None, keep_records: bool = False):
        self.judges = workloads.JUDGE
        self.matches = workloads.matches
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.margins: dict[str, float] = {}
        self.records: list[list] | None = [] if keep_records else None
        self.complaints: list[str] = []

    def judge(self, round_index: int, item_index: int, item, output) -> None:
        kind, args = item
        self.attempted += 1
        where = f"round {round_index} item {item_index} ({kind})"
        if isinstance(output, Exception):
            self._fail(f"{where}: raised {output!r}")
            return
        try:
            verdict = self.judges[kind](args, output)
        except Exception as exc:  # a malformed output is a failed certification
            self._fail(f"{where}: judging raised {exc!r}")
            return
        if self.records is not None:
            if round_index == len(self.records):
                self.records.append([])
            self.records[round_index].append(verdict.record)
        if verdict.margin_layer is not None:
            layer = verdict.margin_layer
            self.margins[layer] = max(self.margins.get(layer, 0.0), verdict.margin)
        if not verdict.ok:
            self._fail(f"{where}: the program's own check failed")
        elif self.reference is not None:
            try:
                expected = self.reference[round_index][item_index]
            except IndexError:
                self._fail(f"{where}: no stored reference")
                return
            if not self.matches(verdict.record, expected):
                self._fail(f"{where}: differs from the stored reference")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.complaints) < 5:
            self.complaints.append(message)


def _run_item(certify: dict, item):
    kind, args = item
    t0 = time.perf_counter()
    try:
        output = certify[kind](*args)
    except Exception as exc:  # counted as a failed certification
        output = exc
    return output, time.perf_counter() - t0


def _run_rounds(certify: dict, rounds: list[list], tally: Tally) -> float:
    """Run and judge every item; returns the time spent in the certify calls."""
    spent = 0.0
    for k, items in enumerate(rounds):
        for i, item in enumerate(items):
            output, elapsed = _run_item(certify, item)
            spent += elapsed
            tally.judge(k, i, item, output)
    return spent


def run_pass(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    workload = workloads.WORKLOADS[name]
    certify = workloads.CERTIFY
    reference = None
    if seed in workloads.PINNED_SEEDS:
        try:
            with open(reference_path(name, seed), encoding="utf-8") as fh:
                reference = json.load(fh)["rounds"]
        except OSError as exc:
            sys.exit(f"certbench: the pinned seed's reference is unreadable: {exc}")
    rounds = workload.generate(random.Random(seed))
    tally = Tally(workloads, reference)
    first = next(rounds)
    for i, item in enumerate(first[:WARMUP_ITEMS]):
        tally.judge(0, i, item, _run_item(certify, item)[0])
    # objects alive now (modules, references, inputs) leave the collector's
    # view, so a collection during a certification walks only what it made
    gc.collect()
    gc.freeze()

    if trace:
        from tracing import Tracer
        chosen = [first] + [next(rounds) for _ in range(workload.trace_rounds - 1)]
        plain_s = _run_rounds(certify, chosen, tally)
        gc.collect()
        # judged after the tracer is gone; only the certify calls are timed,
        # as in the untraced twin
        with Tracer() as tracer:
            outputs = [[_run_item(certify, item) for item in items] for items in chosen]
        traced_s = 0.0
        for k, (items, outs) in enumerate(zip(chosen, outputs)):
            for i, (item, (output, elapsed)) in enumerate(zip(items, outs)):
                traced_s += elapsed
                tally.judge(k, i, item, output)
        metrics = tracer.metrics()
        for layer in ("whittaker", "zetaint", "degenerate"):
            metrics[f"{layer}.margin"] = tally.margins.get(layer, 0.0)
        metrics["bench.trace_overhead"] = traced_s / plain_s
        info = {"rounds": len(chosen), "plain_s": round(plain_s, 3),
                "traced_s": round(traced_s, 3), "fixed_layout": _layout_is_fixed()}
    else:
        raw, scaled, wall, k = _timed_pass(certify, workload, first, rounds, seconds, tally)
        tail = statistics.quantiles(scaled, n=100, method="inclusive")[workload.tail_pct - 1]
        metrics = {
            "certs_per_s": len(scaled) / sum(scaled),
            "cert_p50_ms": statistics.median(scaled) * 1e3,
            "cert_tail_ms": tail * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info = {"rounds": k, "samples": len(scaled), "tail": f"p{workload.tail_pct}",
                "beyond_tail": sum(t > tail for t in scaled), "wall_s": round(wall, 3),
                "raw_certs_per_s": round(len(raw) / sum(raw), 4),
                "raw_p50_ms": round(statistics.median(raw) * 1e3, 4)}
    for message in tally.complaints:
        print(f"certbench: {name} seed {seed}: {message}", file=sys.stderr)
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
            "info": info}


def _timed_pass(certify: dict, workload, first, rounds, seconds: float, tally: Tally):
    """Closed loop over whole rounds until `seconds` have passed and at least
    `min_rounds` are done; returns raw and speed-scaled latencies, wall time
    and the number of rounds."""
    raw, marks = [], []
    loops = [calibrate()]
    start = last = time.perf_counter()
    items, k = first, 0
    while True:
        for i, item in enumerate(items):
            output, elapsed = _run_item(certify, item)
            raw.append(elapsed)
            marks.append(len(loops) - 1)
            tally.judge(k, i, item, output)
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                loops.append(calibrate())
                last = time.perf_counter()
        k += 1
        if k >= workload.max_rounds or (
                k >= workload.min_rounds and time.perf_counter() - start >= seconds):
            break
        items = next(rounds)
    wall = time.perf_counter() - start
    loops.append(calibrate())
    scaled = [t * REFERENCE_S * 2 / (loops[m] + loops[m + 1]) for t, m in zip(raw, marks)]
    return raw, scaled, wall, k


def record(name: str, seed: int) -> None:
    import workloads
    workload = workloads.WORKLOADS[name]
    rounds = workload.generate(random.Random(seed))
    tally = Tally(workloads, None, keep_records=True)
    _run_rounds(workloads.CERTIFY, [next(rounds) for _ in range(workload.max_rounds)], tally)
    if tally.failed:
        sys.exit(f"certbench: {tally.failed} items fail their own check; nothing recorded: "
                 + "; ".join(tally.complaints))
    path = reference_path(name, seed)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": tally.records}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path} ({tally.attempted} items)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "record"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    if args.mode == "setup":
        result = measure_setup()
    else:
        sys.path.insert(0, str(BENCH))
        _check_imported()
        if args.mode == "record":
            record(args.workload, args.seed)
            return 0
        result = run_pass(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
