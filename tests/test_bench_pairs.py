import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
metric_verdict, claim_rule = bench_pairs.metric_verdict, bench_pairs.claim_rule
verify_summary, summarize = bench_pairs.verify_summary, bench_pairs.summarize
src_sizes = bench_pairs.src_sizes


def test_metric_verdict_reads_each_metric_against_its_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    # within the bound and inside the parent's spread
    assert metric_verdict(parent, [100.2, 99.8, 100.1, 100.0], "higher", 0.25) == "unchanged"
    # every change run higher and the median gap beyond the parent's quartiles
    higher = [110.0, 111.0, 109.0, 110.5]
    assert metric_verdict(parent, higher, "higher", 0.25) == "better"
    # the same numbers for a lower-is-better metric
    assert metric_verdict(parent, higher, "lower", 0.25) == "unchanged"
    assert metric_verdict(parent, higher, "lower", 0.05) == "worse"
    # beyond the bound either way
    assert metric_verdict(parent, [140.0, 138.0, 135.0, 137.0], "higher", 0.25) == "better"
    assert metric_verdict(parent, [70.0, 72.0, 71.0, 71.5], "higher", 0.25) == "worse"
    # a change spread wider than the bound cannot tell
    assert metric_verdict(parent, [60.0, 100.0, 120.0, 150.0], "higher", 0.25) == "unresolved"
    # a wide spread still reads better when every change run beats every parent run
    assert metric_verdict([10.0, 20.0, 30.0, 25.0], [40.0, 60.0, 80.0, 70.0],
                          "higher", 0.25) == "better"


def test_metric_verdict_reads_nothing_under_four_runs_a_side():
    # the same clear gain: two runs a side are too few, four a side read it
    parent, change = [100.0, 101.0, 99.0, 100.5], [140.0, 138.0, 135.0, 137.0]
    assert metric_verdict(parent[:2], change[:2], "higher", 0.25) == "unresolved"
    assert metric_verdict(parent[:2], change, "higher", 0.25) == "unresolved"
    assert metric_verdict(parent, change[:3], "higher", 0.25) == "unresolved"
    assert metric_verdict(parent, change, "higher", 0.25) == "better"
    # and a clear loss the same way
    assert metric_verdict(change[:2], parent[:2], "higher", 0.25) == "unresolved"
    assert metric_verdict(change, parent, "higher", 0.25) == "worse"


def test_claim_rule_needs_nine_tenths_of_ten_pairs_and_a_gap_past_the_spread():
    parent = [100.0 + k for k in range(10)]
    change = [130.0 + k for k in range(10)]
    pairs = [{"parent": p, "change": c} for p, c in zip(parent, change)]
    rule = claim_rule(pairs, parent, change)
    assert rule["pairs_won"] == "10/10" and rule["met"]
    assert rule["parent_quartile_spread"] == 4.5 and rule["median_gap"] == 30.0
    # two lost pairs of ten break the pair rule; a tie wins nothing
    lost = pairs[:8] + [{"parent": 120.0, "change": 110.0}, {"parent": 5.0, "change": 5.0}]
    assert claim_rule(lost, parent, change)["pairs_won"] == "8/10"
    assert not claim_rule(lost, parent, change)["pairs_rule_met"]
    # three pairs are too few, however clear
    assert not claim_rule(pairs[:3], parent[:3], change[:3])["met"]
    # a gap inside the parent's spread fails the gap rule
    close = [p + 1.0 for p in parent]
    rule = claim_rule([{"parent": p, "change": c} for p, c in zip(parent, close)], parent, close)
    assert rule["pairs_rule_met"] and not rule["gap_rule_met"] and not rule["met"]


def _verify_runs(command, parent, change):
    """Alternating runs of one command with the given wall times per side."""
    runs = []
    for p, c in zip(parent, change):
        runs += [{"command": command, "side": "parent", "wall_s": p},
                 {"command": command, "side": "change", "wall_s": c}]
    return runs


def test_verify_commands_time_the_full_run_and_two_suites():
    from rankinlab.verify import SUITES
    assert [" ".join(argv) for argv in bench_pairs.VERIFY_COMMANDS] == [
        "verify", "verify --suite lemma44", "verify --suite psi"]
    assert all(argv[2] in SUITES for argv in bench_pairs.VERIFY_COMMANDS[1:])


def test_verify_summary_reads_each_command_per_side():
    parent = [0.95, 0.97, 0.99, 0.96]
    slower = [1.36, 1.38, 1.35, 1.40]
    faster = [0.61, 0.6, 0.62, 0.6]
    runs = _verify_runs("verify", parent, slower) + _verify_runs(
        "verify --suite lemma44", [0.7, 0.72, 0.71, 0.73], [0.71, 0.7, 0.72, 0.73]) \
        + _verify_runs("verify --suite psi", [0.74, 0.75, 0.73, 0.76], faster)
    summary = verify_summary(runs)
    assert list(summary) == ["verify", "verify --suite lemma44", "verify --suite psi"]
    full = summary["verify"]
    assert full["parent"]["n"] == full["change"]["n"] == 4
    assert full["parent"]["median"] == pytest.approx(0.965)
    assert full["change"]["median"] == pytest.approx(1.37)
    assert (full["parent"]["q1"], full["parent"]["q3"]) == pytest.approx((0.9575, 0.975))
    # a 0.4 s regression on four rounds a side reads worse; equal times unchanged
    assert full["verdict"] == "worse"
    assert summary["verify --suite lemma44"]["verdict"] == "unchanged"
    assert summary["verify --suite psi"]["verdict"] == "better"


def test_verify_summary_is_unresolved_under_four_rounds_a_side():
    # three rounds of the same 0.4 s regression are too few to read
    summary = verify_summary(_verify_runs("verify", [0.95, 0.97, 0.99], [1.36, 1.38, 1.35]))
    assert summary["verify"]["verdict"] == "unresolved"
    assert summary["verify"]["change"]["n"] == 3
    # a side with no runs yet is left out, and reads unresolved
    lone = [{"command": "verify", "side": "parent", "wall_s": 1.0}]
    assert verify_summary(lone)["verify"]["verdict"] == "unresolved"
    assert "change" not in verify_summary(lone)["verify"]


def _timed_run(side, pair, scaled, raw):
    context = (f"# workload=degenerate-limit seed={pair} seconds=20 trace=0 rounds=24 "
               f"wall_s=5.5 raw_certs_per_s={raw} raw_p50_ms=11.1")
    metrics = {"certs_per_s": {"value": scaled}, "cert_p50_ms": {"value": 1000 / scaled}}
    return {"pair": f"degenerate-limit/{pair}/0/{pair}", "side": side,
            "workload": "degenerate-limit", "trace": 0, "context": context,
            "result": {"metrics": metrics, "failed": 0, "attempted": 100}}


def test_summary_reads_raw_throughput_beside_the_scaled_verdicts():
    # scaled throughput up 10%, raw throughput down 20%: the summary shows both
    scaled = {"parent": [100.0, 102.0, 98.0, 101.0], "change": [110.0, 112.0, 108.0, 111.0]}
    raw = {"parent": [80.0, 82.0, 79.0, 81.0], "change": [64.0, 65.6, 63.2, 64.8]}
    runs = [_timed_run(side, k, scaled[side][k], raw[side][k])
            for k in range(4) for side in ("parent", "change")]
    end_to_end = [{"name": "certs_per_s", "better": "higher", "bound": 0.05}]
    summary, traced = summarize(runs, end_to_end)
    entry = summary["degenerate-limit"]
    assert traced == {} and entry["verdicts"] == {"certs_per_s": "better"}
    assert entry["raw_certs_per_s"]["parent"]["median"] == pytest.approx(80.5)
    assert entry["raw_certs_per_s"]["change"]["median"] == pytest.approx(64.4)
    assert entry["raw_certs_per_s"]["change_over_parent"] == pytest.approx(0.8)
    assert entry["raw_certs_per_s"]["verdict"] == "worse"
    assert bench_pairs.context_value(runs[0]["context"], "raw_p50_ms") == 11.1
    # a side whose context lines lack the field gives no raw entry
    for run in runs[::2]:
        run["context"] = "# workload=degenerate-limit seed=0"
    assert bench_pairs.context_value(runs[0]["context"], "raw_certs_per_s") is None
    assert "raw_certs_per_s" not in summarize(runs, end_to_end)[0]["degenerate-limit"]
    # the raw verdict reads the certs_per_s bound of BENCHMARK.json, with no default
    with pytest.raises(KeyError, match="certs_per_s"):
        summarize(runs, [{"name": "cert_p50_ms", "better": "lower", "bound": 0.05}])


def test_src_sizes_reads_the_total_and_the_largest_module(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "small.py").write_bytes(b"x" * 10)
    (package / "large.py").write_bytes(b"y" * 30)
    (package / "data.json").write_bytes(b"z" * 100)  # not a module: not counted
    assert src_sizes(tmp_path) == {"total_bytes": 40, "largest_module": "pkg/large.py",
                                   "largest_bytes": 30}
