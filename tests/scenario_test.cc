// Scenario-suite tests (workload/scenario.h):
//
//   * golden determinism — every scenario, run twice with the same seed,
//     exports byte-identical Chrome traces and metrics snapshots (the
//     same regression net trace_test pins for hot-stock);
//   * fleet-growth purity — growing the OLTP fleet never perturbs the
//     draw sequences (FNV digests) of the drivers that were already
//     there;
//   * contention — hot Zipfian skew must actually queue on the lock
//     manager (waits and a populated wait-time histogram), uniform must
//     not;
//   * units — the Zipfian generator's shape and single-draw discipline,
//     and WindowedLatency's timestamp classification.
#include "workload/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "sim/simulation.h"
#include "workload/rig.h"

namespace ods::workload {
namespace {

RigConfig SmallScenarioRig() {
  RigConfig cfg;
  cfg.num_cpus = 4;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  return cfg;
}

// Runs `scenario(rig)` on a fresh traced sim and returns the exported
// Chrome trace plus the metrics snapshot.
template <typename Fn>
std::pair<std::string, std::string> RunTraced(std::uint64_t seed,
                                              Fn scenario) {
  sim::Simulation sim(seed);
  Tracer tracer;
  tracer.Enable(1u << 15);
  sim.set_tracer(&tracer);
  std::string metrics;
  {
    Rig rig(sim, SmallScenarioRig());
    sim.RunFor(sim::Seconds(1));
    scenario(rig);
    metrics = sim.metrics().Snapshot().Serialize();
  }
  sim.set_tracer(nullptr);
  return {tracer.ToChromeJson(), metrics};
}

OltpConfig SmallOltp() {
  OltpConfig cfg;
  cfg.drivers = 4;
  cfg.txns_per_driver = 20;
  cfg.keys_per_file = 100;
  cfg.theta = 0.9;
  return cfg;
}

// ---------------------------------------------------------------------------
// Golden determinism, scenario by scenario

TEST(ScenarioDeterminism, ZipfianOltpRunsExportIdenticalBytes) {
  auto run = [] {
    return RunTraced(5, [](Rig& rig) { (void)RunZipfianOltp(rig, SmallOltp()); });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ScenarioDeterminism, ScanMixRunsExportIdenticalBytes) {
  ScanMixConfig cfg;
  cfg.writers = 2;
  cfg.writer_txns = 10;
  cfg.scanners = 1;
  cfg.scans_per_scanner = 3;
  cfg.keys_per_file = 80;
  auto run = [&] {
    return RunTraced(6, [&](Rig& rig) { (void)RunScanMix(rig, cfg); });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(ScenarioDeterminism, FlashCrowdRunsExportIdenticalBytes) {
  FlashCrowdConfig cfg;
  cfg.fleet.drivers = 6;
  cfg.fleet.arrival_rate_hz = 8.0;
  cfg.fleet.open_loop_duration = sim::Seconds(2);
  cfg.fleet.spike_start = sim::Milliseconds(800);
  cfg.fleet.spike_duration = sim::Milliseconds(400);
  auto run = [&] {
    FlashCrowdResult result;
    auto traced =
        RunTraced(7, [&](Rig& rig) { result = RunFlashCrowd(rig, cfg); });
    return std::pair(std::move(traced), std::move(result));
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.first.first.empty());
  EXPECT_EQ(a.first.first, b.first.first);
  EXPECT_EQ(a.first.second, b.first.second);
  // The windowed series is part of the deliverable: identical too.
  ASSERT_EQ(a.second.windows.size(), b.second.windows.size());
  for (std::size_t i = 0; i < a.second.windows.size(); ++i) {
    EXPECT_EQ(a.second.windows[i].count, b.second.windows[i].count) << i;
    EXPECT_EQ(a.second.windows[i].p99_ms, b.second.windows[i].p99_ms) << i;
  }
}

TEST(ScenarioDeterminism, MultiTenantRunsExportIdenticalBytes) {
  MultiTenantConfig cfg;
  cfg.tenants.clear();
  cfg.tenants.push_back(TenantSpec{1, 1, 32, 1024});
  cfg.tenants.push_back(TenantSpec{2, 8, 64, 256});
  auto run = [&] {
    return RunTraced(8, [&](Rig& rig) { (void)RunMultiTenant(rig, cfg); });
  };
  const auto a = run();
  const auto b = run();
  ASSERT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Fleet growth never perturbs existing drivers' draws

TEST(ScenarioDeterminism, GrowingTheFleetPreservesDriverDigests) {
  auto digests = [](int drivers) {
    sim::Simulation sim(9);
    Rig rig(sim, SmallScenarioRig());
    sim.RunFor(sim::Seconds(1));
    OltpConfig cfg = SmallOltp();
    cfg.drivers = drivers;
    OltpResult r = RunZipfianOltp(rig, cfg);
    std::vector<std::uint64_t> d;
    for (const auto& s : r.drivers) d.push_back(s.draw_digest);
    return d;
  };
  const auto small = digests(3);
  const auto big = digests(6);
  ASSERT_EQ(small.size(), 3u);
  ASSERT_EQ(big.size(), 6u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], big[i]) << "driver " << i
                                << " draws perturbed by fleet growth";
  }
  // And the new drivers are genuinely distinct streams.
  EXPECT_NE(big[3], big[0]);
}

// ---------------------------------------------------------------------------
// Contention: the skew knob must reach the lock manager

TEST(ScenarioContention, HotSkewQueuesOnLocks) {
  auto run = [](double theta) {
    sim::Simulation sim(10);
    Rig rig(sim, SmallScenarioRig());
    sim.RunFor(sim::Seconds(1));
    OltpConfig cfg;
    cfg.drivers = 8;
    cfg.txns_per_driver = 40;
    cfg.keys_per_file = 200;
    cfg.theta = theta;
    return RunZipfianOltp(rig, cfg);
  };
  const OltpResult uniform = run(0.0);
  const OltpResult hot = run(0.95);
  EXPECT_GT(hot.TotalCommitted(), 0u);
  // Non-trivial lock wait-time histogram at high skew: queued waits
  // happened and took measurable sim-time.
  EXPECT_GT(hot.locks.waits, uniform.locks.waits);
  EXPECT_GT(hot.locks.wait_time.count(), 0u);
  EXPECT_GT(hot.locks.wait_time.Percentile(0.99), 0u);
  EXPECT_GT(hot.WaitsPerTxn(), 2.0 * uniform.WaitsPerTxn());
}

TEST(ScenarioContention, ScansInterfereWithWriters) {
  auto run = [](int scanners) {
    sim::Simulation sim(12);
    Rig rig(sim, SmallScenarioRig());
    sim.RunFor(sim::Seconds(1));
    ScanMixConfig cfg;
    cfg.writers = 3;
    cfg.writer_txns = 15;
    cfg.scanners = scanners;
    cfg.scans_per_scanner = 4;
    cfg.keys_per_file = 120;
    return RunScanMix(rig, cfg);
  };
  const ScanMixResult alone = run(0);
  const ScanMixResult mixed = run(2);
  EXPECT_GT(mixed.scans_completed, 0u);
  EXPECT_GT(mixed.records_scanned, 0u);
  EXPECT_GT(alone.writer_committed, 0u);
  // Strict 2PL: scan shared locks must be visible to writers as waits.
  EXPECT_GT(mixed.locks.waits, alone.locks.waits);
  // Elapsed time is the last driver's finish, not the 60 s RunFor quantum.
  for (const ScanMixResult* r : {&alone, &mixed}) {
    EXPECT_GT(r->elapsed_seconds, 0.0);
    EXPECT_LT(r->elapsed_seconds, 60.0);
  }
}

// ---------------------------------------------------------------------------
// Zipfian generator unit tests

TEST(Zipfian, HotSkewConcentratesAndUniformDoesNot) {
  constexpr std::uint64_t kN = 1000;
  constexpr int kDraws = 20000;
  ZipfianGenerator hot(kN, 0.99);
  ZipfianGenerator flat(kN, 0.0);
  Rng rng = Rng::ForStream(3, 0);
  std::vector<int> hot_counts(kN, 0), flat_counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t h = hot.Next(rng);
    const std::uint64_t f = flat.Next(rng);
    ASSERT_LT(h, kN);
    ASSERT_LT(f, kN);
    ++hot_counts[h];
    ++flat_counts[f];
  }
  // θ=0.99 on 1000 keys: rank 0 alone takes a large share, the top 10
  // take most of a third; uniform spreads.
  int hot_top10 = 0;
  for (int r = 0; r < 10; ++r) hot_top10 += hot_counts[r];
  EXPECT_GT(hot_counts[0], kDraws / 20) << "rank 0 share too small for θ=0.99";
  EXPECT_GT(hot_top10, kDraws / 4);
  EXPECT_GT(hot_counts[0], hot_counts[1]);
  int flat_max = 0;
  for (int c : flat_counts) flat_max = std::max(flat_max, c);
  EXPECT_LT(flat_max, 3 * kDraws / static_cast<int>(kN))
      << "uniform draw concentrated unexpectedly";
}

TEST(Zipfian, NextDrawsExactlyOneVariateRegardlessOfTheta) {
  // Positional stability across configurations: a driver's Nth draw
  // happens at the same stream position whatever the skew, so changing
  // θ never shifts unrelated randomness.
  ZipfianGenerator hot(500, 0.99);
  ZipfianGenerator flat(500, 0.0);
  Rng a = Rng::ForStream(4, 1);
  Rng b = Rng::ForStream(4, 1);
  for (int i = 0; i < 32; ++i) {
    (void)hot.Next(a);
    (void)flat.Next(b);
  }
  EXPECT_EQ(a.Next(), b.Next());
}

// ---------------------------------------------------------------------------
// WindowedLatency unit tests

TEST(WindowedLatencyTest, ClassifiesByTimestampAndClamps) {
  WindowedLatency w(/*start_ns=*/1000, /*width_ns=*/100, /*num_windows=*/3);
  w.Record(1000, 11);  // window 0
  w.Record(1099, 12);  // window 0
  w.Record(1100, 21);  // window 1
  w.Record(1299, 31);  // window 2
  w.Record(50, 41);    // before start: clamps into window 0
  w.Record(9999, 51);  // past the end: clamps into the last window
  ASSERT_EQ(w.windows().size(), 3u);
  EXPECT_EQ(w.windows()[0].count(), 3u);
  EXPECT_EQ(w.windows()[1].count(), 1u);
  EXPECT_EQ(w.windows()[2].count(), 2u);
  EXPECT_EQ(w.window_start_ns(0), 1000);
  EXPECT_EQ(w.window_start_ns(2), 1200);
}

}  // namespace
}  // namespace ods::workload
