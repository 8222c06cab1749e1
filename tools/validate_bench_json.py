#!/usr/bin/env python3
"""Validate the JSON artifacts the bench binaries emit.

Consolidates the CI's bench-JSON checks in one place (they used to live
as heredoc python snippets inside .github/workflows/ci.yml):

  core        BENCH_/TRACE_ files parse; micro_latency and boxcar_sweep
              carry bench+metrics; traces are non-empty; boxcar_sweep's
              metrics snapshot (a PM hot-stock run) holds every layer
              counter in LAYER_COUNTERS and an adp.<trail>.flush_latency_ns
              histogram, all nonzero — a refactor that drops one fails.
  scaleout    BENCH_scaleout.json schema + shard-speedup gate against the
              checked-in baseline (bench/scaleout_baseline.json), a floor
              on the 4-shard max-fleet cell's own txn/s, and a host
              memory gate: peak_rss_mb may not exceed the baseline's
              peak_rss_mb_ceiling.
  durability  BENCH_durability_modes.json schema: all four durability
              modes x boxcar sizes, persist-op accounting consistent with
              each mode (posted-write-only performs none), and a
              cheapest_correct verdict that names a correct mode.
  crash       BENCH_crash_sweep.json: the run passed, and any durability
              sweep it contains flagged the expected-violation mode
              (posted-write-only must NOT be silently green) while the
              correct modes swept clean. An offload sweep, if present,
              must have run sites and swept clean.
  scenarios   BENCH_scenarios.json schema (all four scenarios present
              with deep-tail quantiles) + contention gate: the Zipfian
              hot/uniform waits-per-txn ratio may not fall more than 30%
              below the checked-in baseline
              (bench/scenario_baseline.json) — the suite must keep
              actually contending on tp::LockManager.
  nearpm      BENCH_nearpm.json schema + near-data offload gates: the
              hard floors from the PR's acceptance criteria (recovery
              fabric bytes reduced >= 10x, offload MTTR strictly better
              than passive) and both ratios compared against the
              checked-in baseline (bench/nearpm_baseline.json) with a
              30% allowance.

Usage: validate_bench_json.py [--bench-dir DIR] [--baseline-dir DIR] CHECK...
"""

import argparse
import glob
import json
import os
import sys

# Per-layer counters a PM hot-stock run must report through the metrics
# registry: ADP group commit, ADP checkpoint coalescing, the piggybacked
# PM log commit and the DP2 lock layer.
LAYER_COUNTERS = ("adp.flushes", "adp.coalesced_checkpoints",
                  "pm.log.piggybacked", "tp.lock.grants")

MODES = ("posted-write-only", "native-flush", "write-raw", "write-ack")
CORRECT_MODES = tuple(m for m in MODES if m != "posted-write-only")


def load(path):
    with open(path) as f:
        return json.load(f)


def check_core(bench_dir, _baseline_dir):
    files = sorted(
        glob.glob(os.path.join(bench_dir, "BENCH_*.json"))
        + glob.glob(os.path.join(bench_dir, "TRACE_*.json"))
    )
    assert len(files) >= 4, f"expected bench+trace JSON in {bench_dir}, got {files}"
    docs = {}
    for path in files:
        docs[os.path.basename(path)] = load(path)
        print(f"{path} parses")
    for name in ("BENCH_micro_latency.json", "BENCH_boxcar_sweep.json"):
        doc = docs[name]
        assert "bench" in doc and "metrics" in doc, f"{name}: missing bench/metrics keys"
    for name in ("TRACE_micro_latency.json", "TRACE_boxcar_sweep.json"):
        assert docs[name]["traceEvents"], f"{name}: empty trace"
    check_metrics_plane(docs["BENCH_boxcar_sweep.json"]["metrics"])


def check_metrics_plane(metrics):
    counters = metrics.get("counters", {})
    for key in LAYER_COUNTERS:
        assert counters.get(key, 0) > 0, \
            f"BENCH_boxcar_sweep.json metrics: counter {key} missing or zero"
    flush = [name for name, h in metrics.get("histograms", {}).items()
             if name.startswith("adp.") and name.endswith(".flush_latency_ns")
             and h.get("count", 0) > 0]
    assert flush, ("BENCH_boxcar_sweep.json metrics: no "
                   "adp.<trail>.flush_latency_ns histogram with samples")
    print(f"metrics plane: {', '.join(LAYER_COUNTERS)} > 0; "
          f"{len(flush)} trail flush-latency histograms")


def check_scaleout(bench_dir, baseline_dir):
    # Simulated-time results are deterministic per build, so the gate
    # compares against a checked-in baseline of the same small matrix
    # (1/4 shards x 4/1000 drivers). The 4-shard/1-shard committed-
    # throughput ratio at the max fleet may not fall more than 30%
    # below the baseline's ratio; schema drift fails outright.
    cur = load(os.path.join(bench_dir, "BENCH_scaleout.json"))
    base = load(os.path.join(baseline_dir, "scaleout_baseline.json"))
    row_keys = (
        "shards", "drivers", "arrivals", "committed_txns", "aborted_txns",
        "txn_per_sec", "mean_ms", "p99_ms", "p999_ms",
    )
    for key in ("rows", "max_fleet_drivers", "speedup_4s_over_1s", "knee_shards",
                "peak_rss_mb"):
        assert key in cur, f"BENCH_scaleout.json: missing {key}"
    for row in cur["rows"]:
        missing = [k for k in row_keys if k not in row]
        assert not missing, f"scaleout row missing {missing}: {row}"

    def cell(doc, shards):
        fleet = doc["max_fleet_drivers"]
        [row] = [r for r in doc["rows"] if r["shards"] == shards and r["drivers"] == fleet]
        return row["txn_per_sec"]

    got = cell(cur, 4) / cell(cur, 1)
    want = cell(base, 4) / cell(base, 1)
    floor = want * 0.7
    print(
        f"4-shard/1-shard committed txn/s ratio: {got:.2f}x "
        f"(baseline {want:.2f}x, floor {floor:.2f}x)"
    )
    assert got >= floor, "4-shard/1-shard ratio fell vs baseline"
    # The ratio moves with the 1-shard cell too (a 1-shard gain lowers
    # it), so the 4-shard max-fleet cell is also gated on its own
    # throughput. The allowance covers the cell's bistable group-commit
    # batch size (~9% between arrival seeds).
    got_4s = cell(cur, 4)
    floor_4s = cell(base, 4) * 0.85
    print(f"4-shard committed txn/s: {got_4s:.0f} (floor {floor_4s:.0f})")
    assert got_4s >= floor_4s, "4-shard scale-out regressed vs baseline"
    # The unsharded configuration must not slow down either: the small
    # fleet (closed-load-level) cell is shard-independent.
    small_1s = [
        r for r in cur["rows"]
        if r["shards"] == 1 and r["drivers"] != cur["max_fleet_drivers"]
    ]
    for r in small_1s:
        assert r["committed_txns"] == r["arrivals"], f"1-shard small fleet shed load: {r}"
    # Host memory: device memory is lazily paged, so the whole matrix
    # (cells run in parallel) must stay under the pinned ceiling.
    ceiling = base["peak_rss_mb_ceiling"]
    print(f"peak RSS: {cur['peak_rss_mb']:.0f} MB (ceiling {ceiling:.0f} MB)")
    assert cur["peak_rss_mb"] <= ceiling, "scale-out peak RSS above the ceiling"


def check_durability(bench_dir, _baseline_dir):
    doc = load(os.path.join(bench_dir, "BENCH_durability_modes.json"))
    assert "rows" in doc, "BENCH_durability_modes.json: missing rows"
    row_keys = (
        "mode", "boxcar", "p50_us", "p99_us", "mean_us", "txn_per_sec",
        "committed", "fabric_bytes", "persist_ops", "persist_bytes",
        "fabric_bytes_per_record",
    )
    seen = set()
    for row in doc["rows"]:
        missing = [k for k in row_keys if k not in row]
        assert not missing, f"durability row missing {missing}: {row}"
        assert row["mode"] in MODES, f"unknown mode: {row['mode']}"
        seen.add((row["mode"], row["boxcar"]))
        if row["mode"] == "posted-write-only":
            assert row["persist_ops"] == 0, f"posted-write-only performed persists: {row}"
        else:
            assert row["persist_ops"] > 0, f"correct mode performed no persists: {row}"
            assert row["committed"] > 0, f"correct mode committed nothing: {row}"
    boxcars = sorted({k for _, k in seen})
    assert boxcars, "durability rows are empty"
    for mode in MODES:
        for k in boxcars:
            assert (mode, k) in seen, f"missing durability cell: {mode} boxcar {k}"
    assert "cheapest_correct" in doc, "missing cheapest_correct verdict"
    for k in boxcars:
        winner = doc["cheapest_correct"].get(str(k))
        assert winner in CORRECT_MODES, f"cheapest_correct[{k}] = {winner!r} is not a correct mode"
        print(f"boxcar {k}: cheapest correct mode {winner}")
    print(f"durability matrix complete: {len(MODES)} modes x boxcars {boxcars}")


def check_crash(bench_dir, _baseline_dir):
    doc = load(os.path.join(bench_dir, "BENCH_crash_sweep.json"))
    assert doc.get("ok") == 1, "crash sweep reported failure"
    swept = []
    for mode in MODES:
        runs = doc.get(f"durability_{mode}_runs")
        if runs is None:
            continue  # this leg did not sweep this mode
        violations = doc[f"durability_{mode}_violations"]
        expected = doc[f"durability_{mode}_expected_violation"]
        assert runs > 0, f"{mode}: durability sweep ran zero sites"
        if expected:
            # The broken mode has to be FLAGGED; a silently-green
            # posted-write-only sweep means the harness lost its teeth.
            assert violations > 0, f"{mode}: expected violations, swept green"
        else:
            assert violations == 0, f"{mode}: correct mode violated invariants"
        swept.append(mode)
        print(f"{mode}: {runs} runs, {violations} violations (expected_violation={expected})")
    offload_runs = doc.get("offload_runs")
    if offload_runs is not None:
        # The active-NPMU leg: every correct durability mode swept with
        # device commands in the fault path must hold I1-I4.
        assert offload_runs > 0, "offload sweep ran zero sites"
        assert doc["offload_violations"] == 0, \
            "offload sweep violated invariants"
        swept.append("offload")
        print(f"offload: {offload_runs} runs, "
              f"{doc['offload_violations']} violations")
    assert swept, "crash sweep JSON contains no durability-mode results"


def check_nearpm(bench_dir, baseline_dir):
    cur = load(os.path.join(bench_dir, "BENCH_nearpm.json"))
    base = load(os.path.join(baseline_dir, "nearpm_baseline.json"))
    keys = (
        "passive_recovery_bytes", "offload_recovery_bytes",
        "fabric_bytes_reduction", "passive_mttr_ms", "offload_mttr_ms",
        "mttr_improvement", "passive_adp_ms", "offload_adp_ms",
        "passive_dp2_ms", "offload_dp2_ms", "offload_cmd_ops",
    )
    for key in keys:
        assert key in cur, f"BENCH_nearpm.json: missing {key}"
    # Hard floors (the PR's acceptance criteria), independent of baseline.
    assert cur["fabric_bytes_reduction"] >= 10, (
        f"recovery fabric bytes reduced only "
        f"{cur['fabric_bytes_reduction']:.1f}x (need >= 10x)")
    assert cur["offload_mttr_ms"] < cur["passive_mttr_ms"], (
        f"offload MTTR {cur['offload_mttr_ms']:.1f}ms is not better than "
        f"passive {cur['passive_mttr_ms']:.1f}ms")
    assert cur["offload_cmd_ops"] > 0, "offload leg issued no device commands"
    # Regression gates vs the checked-in baseline (30% allowance, same
    # shape as the scaleout gate — simulated time is deterministic per
    # build, so a real regression moves these ratios, not host noise).
    for ratio in ("fabric_bytes_reduction", "mttr_improvement"):
        floor = base[ratio] * 0.7
        print(f"{ratio}: {cur[ratio]:.2f}x "
              f"(baseline {base[ratio]:.2f}x, floor {floor:.2f}x)")
        assert cur[ratio] >= floor, f"{ratio} regressed vs baseline"


def check_scenarios(bench_dir, baseline_dir):
    cur = load(os.path.join(bench_dir, "BENCH_scenarios.json"))
    base = load(os.path.join(baseline_dir, "scenario_baseline.json"))

    # ---- Zipfian OLTP rows: full tail + lock readout per skew cell ----
    oltp_keys = (
        "theta", "read_fraction", "committed_txns", "aborted_txns",
        "txn_per_sec", "p50_ms", "p99_ms", "p999_ms", "p9999_ms",
        "lock_grants", "lock_waits", "lock_timeouts", "waits_per_txn",
        "lock_wait_p99_ms",
    )
    assert cur.get("oltp"), "BENCH_scenarios.json: no oltp rows"
    thetas = set()
    for row in cur["oltp"]:
        missing = [k for k in oltp_keys if k not in row]
        assert not missing, f"oltp row missing {missing}: {row}"
        assert row["committed_txns"] > 0, f"oltp cell committed nothing: {row}"
        thetas.add(row["theta"])
    assert 0.0 in thetas, "oltp sweep lacks the uniform (theta=0) control"
    assert max(thetas) >= 0.9, "oltp sweep lacks a hot skew (theta >= 0.9)"
    # The hot cell must show non-trivial lock contention: queued waits
    # actually happened and the wait-time histogram is populated.
    hot = [r for r in cur["oltp"] if r["theta"] >= 0.9 and r["read_fraction"] == 0.5]
    assert any(r["lock_waits"] > 0 and r["lock_wait_p99_ms"] > 0 for r in hot), \
        f"hot-skew cells show no lock contention: {hot}"

    # ---- contention regression gate (same shape as the scaleout gate:
    # simulated time is deterministic per build, so a real behavior
    # change moves this ratio, not host noise) ----
    got = cur["contention_ratio"]
    floor = base["contention_ratio"] * 0.7
    print(f"contention_ratio: {got:.2f}x "
          f"(baseline {base['contention_ratio']:.2f}x, floor {floor:.2f}x)")
    assert got >= floor, "Zipfian lock contention regressed vs baseline"

    # ---- scan-vs-commit: both sides present, scans did real work ----
    scan = cur.get("scan")
    assert scan, "BENCH_scenarios.json: missing scan section"
    for side in ("baseline", "mixed"):
        s = scan.get(side)
        assert s, f"scan section missing {side}"
        assert s["writer_committed"] > 0, f"scan {side}: writers committed nothing"
    assert scan["mixed"]["scans_completed"] > 0, "mixed scan leg completed no scans"
    assert scan["mixed"]["records_scanned"] > 0, "scans touched no records"
    assert "writer_p99_interference_ratio" in scan, "missing interference ratio"

    # ---- flash crowd: windowed SLO readout is self-consistent ----
    flash = cur.get("flash")
    assert flash, "BENCH_scenarios.json: missing flash section"
    for key in ("arrivals", "committed_txns", "baseline_p99_ms",
                "spike_p99_ms", "violating_windows", "recovery_ms", "windows"):
        assert key in flash, f"flash section missing {key}"
    assert flash["arrivals"] > 0 and flash["committed_txns"] > 0, \
        "flash crowd processed no traffic"
    assert flash["spike_p99_ms"] >= flash["baseline_p99_ms"], \
        "spike p99 below baseline p99 — window classification is broken"
    assert flash["windows"], "flash crowd emitted no windows"
    violating = sum(1 for w in flash["windows"] if w["violates_slo"])
    assert violating == flash["violating_windows"], \
        "violating_windows disagrees with the window series"
    if flash["violating_windows"] > 0:
        assert flash["recovery_ms"] != 0, \
            "SLO broke but recovery_ms was not measured"
    print(f"flash: spike p99 {flash['spike_p99_ms']:.1f}ms over baseline "
          f"{flash['baseline_p99_ms']:.1f}ms, {violating} violating windows, "
          f"recovery {flash['recovery_ms']:.0f}ms")

    # ---- multi-tenant: per-tenant tails all populated ----
    tenants = cur.get("tenants")
    assert tenants and len(tenants) >= 3, "expected >= 3 tenant rows"
    for row in tenants:
        for key in ("tenant", "boxcar", "committed_txns", "p50_ms",
                    "p99_ms", "p999_ms", "p9999_ms"):
            assert key in row, f"tenant row missing {key}: {row}"
        assert row["committed_txns"] > 0, f"tenant committed nothing: {row}"
    print(f"scenarios complete: {len(cur['oltp'])} oltp cells, "
          f"{len(tenants)} tenants")


CHECKS = {
    "core": check_core,
    "scaleout": check_scaleout,
    "durability": check_durability,
    "crash": check_crash,
    "nearpm": check_nearpm,
    "scenarios": check_scenarios,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-dir", default="build/bench",
                    help="directory holding the emitted BENCH_/TRACE_ JSON")
    ap.add_argument("--baseline-dir", default="bench",
                    help="directory holding checked-in baselines")
    ap.add_argument("checks", nargs="+", choices=sorted(CHECKS))
    args = ap.parse_args()
    for name in args.checks:
        print(f"--- {name} ---")
        CHECKS[name](args.bench_dir, args.baseline_dir)
    print("all checks passed:", ", ".join(args.checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
