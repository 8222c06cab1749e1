// Scale-out sweep — the sharded persistence plane under open-loop load.
//
// Closed-loop drivers cannot show saturation: their offered load shrinks
// as latency grows. This sweep instead runs an open-loop fleet (Poisson
// arrivals with a diurnal swell and a flash spike; see
// workload/hot_stock.h) against {1,2,4,8} persistence shards and reports
// committed-transaction throughput and arrival-to-commit p99/p99.9 for
// fleets from 4 to 1000 drivers. At the largest fleet the offered load
// exceeds a single PMM pair's ingress bandwidth severalfold, so the
// shard count is the capacity lever and the curve exposes the scaling
// knee (the shard count where added pairs stop buying throughput —
// another resource, e.g. the 4 application CPUs, has become the
// bottleneck).
//
// A closed-loop single-shard row (the paper's 4-driver config) rides
// along as the no-regression baseline: sharding the plane must not slow
// the unsharded configuration down.
//
// Env knobs:
//   ODS_SCALEOUT_MATRIX=small   -> shards {1,4} x drivers {4,1000} (CI)
//   ODS_SCALEOUT_SECONDS=<n>    -> open-loop generation window
//   ODS_SCALEOUT_RATE=<hz>      -> per-driver base arrival rate
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "workload/sweep.h"

using namespace ods;
using namespace ods::bench;

namespace {

struct Cell {
  int shards = 0;
  int drivers = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t begin_failures = 0;
  std::uint64_t insert_failures = 0;
  std::uint64_t commit_failures = 0;
  std::uint64_t max_backlog = 0;
  double elapsed_s = 0;       // generation window + backlog drain
  double txn_per_sec = 0;     // committed transactions / elapsed
  double rec_per_sec = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
};

workload::RigConfig ShardedRig(int shards) {
  workload::RigConfig cfg;
  // Scale-out node: 16 CPUs and 16 ADP pairs so the application plane can
  // offer enough concurrent flush traffic to saturate multiple PMM pairs
  // (4 CPUs bottleneck before a second shard ever pays for itself).
  cfg.num_cpus = 16;
  cfg.num_files = 4;
  cfg.partitions_per_file = 4;
  cfg.num_adps = 16;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.num_pm_shards = shards;
  cfg.pm_log_region_bytes = 16ull << 20;  // per stream; perf runs may wrap
  // Under open-loop overload a queued group commit legitimately waits out
  // the backlog; resolve on the commit-resolution budget instead of the
  // conservative default so saturation sheds at the client, not mid-commit.
  // (Stays below the 5s client-side commit deadline.)
  cfg.tmf_resolve_timeout = sim::Seconds(4);
  // Leaner IPC path for the scale-out node: at 10us/message the per-CPU
  // messaging ceiling is shard-invariant and caps the whole sweep before
  // the persistence plane does.
  cfg.cluster.message_overhead = sim::Microseconds(5);
  return cfg;
}

double EnvD(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace

int main() {
  const bool small = [] {
    const char* env = std::getenv("ODS_SCALEOUT_MATRIX");
    return env != nullptr && std::strcmp(env, "small") == 0;
  }();
  const std::vector<int> shard_counts = small ? std::vector<int>{1, 4}
                                              : std::vector<int>{1, 2, 4, 8};
  const std::vector<int> fleet_sizes = small ? std::vector<int>{4, 1000}
                                             : std::vector<int>{4, 64, 256, 1000};
  const double duration_s = EnvD("ODS_SCALEOUT_SECONDS", small ? 2.0 : 4.0);
  const double rate_hz = EnvD("ODS_SCALEOUT_RATE", 12.0);

  const int n_cells =
      static_cast<int>(shard_counts.size() * fleet_sizes.size());
  std::vector<Cell> cells(static_cast<std::size_t>(n_cells));

  workload::ParallelSweep(n_cells, [&](int idx) {
    const int s_idx = idx / static_cast<int>(fleet_sizes.size());
    const int d_idx = idx % static_cast<int>(fleet_sizes.size());
    Cell& cell = cells[static_cast<std::size_t>(idx)];
    cell.shards = shard_counts[static_cast<std::size_t>(s_idx)];
    cell.drivers = fleet_sizes[static_cast<std::size_t>(d_idx)];

    sim::Simulation sim(7);
    workload::Rig rig(sim, ShardedRig(cell.shards));
    sim.RunFor(sim::Seconds(1));  // stack bring-up

    workload::HotStockConfig hs;
    hs.drivers = cell.drivers;
    hs.inserts_per_txn = 8;
    hs.record_bytes = 4096;
    hs.open_loop = true;
    hs.arrival_rate_hz = rate_hz;
    hs.open_loop_duration = sim::FromSecondsD(duration_s);
    hs.max_in_flight = 4;
    // The trace the issue calls for: a slow diurnal swell plus a 2.5x
    // flash spike in the middle of the window.
    hs.diurnal_amplitude = 0.25;
    hs.diurnal_period = sim::FromSecondsD(duration_s);
    hs.spike_factor = 2.5;
    hs.spike_start = sim::FromSecondsD(duration_s * 0.5);
    hs.spike_duration = sim::FromSecondsD(duration_s * 0.125);
    hs.arrival_seed = 42;

    const auto result = workload::RunHotStock(rig, hs);
    for (const auto& d : result.drivers) {
      cell.arrivals += d.arrivals;
      cell.aborted += d.aborted_txns;
      cell.begin_failures += d.begin_failures;
      cell.insert_failures += d.insert_failures;
      cell.commit_failures += d.commit_failures;
      cell.max_backlog = std::max(cell.max_backlog, d.max_backlog);
    }
    cell.committed = result.TotalCommitted();
    cell.elapsed_s = result.elapsed_seconds;
    cell.txn_per_sec = cell.elapsed_s > 0
                           ? static_cast<double>(cell.committed) / cell.elapsed_s
                           : 0;
    cell.rec_per_sec = result.Throughput();
    const LatencyHistogram h = result.MergedResponse();
    cell.mean_ms = h.mean() / 1e6;
    cell.p99_ms = static_cast<double>(h.Percentile(0.99)) / 1e6;
    cell.p999_ms = static_cast<double>(h.Percentile(0.999)) / 1e6;
  });

  // Single-shard closed-loop baseline (the paper's 4-driver config):
  // sharding support must not regress the unsharded plane.
  double baseline_rec_per_sec = 0;
  double baseline_mean_us = 0;
  {
    sim::Simulation sim(7);
    workload::Rig rig(sim, ShardedRig(1));
    sim.RunFor(sim::Seconds(1));
    auto hs = PaperWorkload(/*drivers=*/4, /*boxcar=*/8);
    hs.records_per_driver = std::min(RecordsPerDriver(), 2000);
    const auto result = workload::RunHotStock(rig, hs);
    baseline_rec_per_sec = result.Throughput();
    baseline_mean_us = result.MeanResponseUs();
  }

  std::printf("scale-out: committed txn/s and arrival->commit latency vs "
              "shards x open-loop drivers\n");
  std::printf("(rate %.0f Hz/driver, %.0fs window, diurnal+flash-spike "
              "trace)\n\n",
              rate_hz, duration_s);
  std::printf("%-7s %-8s %10s %10s %12s %10s %10s %10s\n", "shards", "drivers",
              "arrivals", "committed", "txn/s", "mean ms", "p99 ms",
              "p99.9 ms");
  PrintRule(84);
  for (const Cell& c : cells) {
    std::printf("%-7d %-8d %10llu %10llu %12.0f %10.2f %10.2f %10.2f\n",
                c.shards, c.drivers,
                static_cast<unsigned long long>(c.arrivals),
                static_cast<unsigned long long>(c.committed), c.txn_per_sec,
                c.mean_ms, c.p99_ms, c.p999_ms);
  }
  PrintRule(84);

  // Scaling summary at the largest fleet: speedup per shard step and the
  // knee (first step that buys < 1.4x — the plane has stopped being the
  // bottleneck).
  const int max_fleet = fleet_sizes.back();
  auto tput_at = [&](int shards) {
    for (const Cell& c : cells) {
      if (c.shards == shards && c.drivers == max_fleet) return c.txn_per_sec;
    }
    return 0.0;
  };
  const double t1 = tput_at(1);
  int knee = shard_counts.back();
  for (std::size_t i = 1; i < shard_counts.size(); ++i) {
    const double prev = tput_at(shard_counts[i - 1]);
    const double cur = tput_at(shard_counts[i]);
    if (prev > 0 && cur / prev < 1.4) {
      knee = shard_counts[i - 1];
      break;
    }
  }
  const double speedup4 = t1 > 0 ? tput_at(4) / t1 : 0;
  std::printf("\n%d drivers: 4-shard/1-shard committed throughput %.2fx "
              "(target >= 2.5x); scaling knee at %d shard(s)\n",
              max_fleet, speedup4, knee);
  std::printf("closed-loop 1-shard baseline: %.0f rec/s, mean %.0f us\n",
              baseline_rec_per_sec, baseline_mean_us);

  BenchJson json("scaleout");
  JsonValue rows = JsonValue::Array();
  for (const Cell& c : cells) {
    JsonValue row = JsonValue::Object();
    row.Set("shards", c.shards);
    row.Set("drivers", c.drivers);
    row.Set("arrivals", static_cast<double>(c.arrivals));
    row.Set("committed_txns", static_cast<double>(c.committed));
    row.Set("aborted_txns", static_cast<double>(c.aborted));
    row.Set("begin_failures", static_cast<double>(c.begin_failures));
    row.Set("insert_failures", static_cast<double>(c.insert_failures));
    row.Set("commit_failures", static_cast<double>(c.commit_failures));
    row.Set("max_backlog", static_cast<double>(c.max_backlog));
    row.Set("elapsed_s", c.elapsed_s);
    row.Set("txn_per_sec", c.txn_per_sec);
    row.Set("rec_per_sec", c.rec_per_sec);
    row.Set("mean_ms", c.mean_ms);
    row.Set("p99_ms", c.p99_ms);
    row.Set("p999_ms", c.p999_ms);
    rows.Append(std::move(row));
  }
  json.Set("rows", std::move(rows));
  json.Set("max_fleet_drivers", static_cast<double>(max_fleet));
  json.Set("speedup_4s_over_1s", speedup4);
  json.Set("knee_shards", static_cast<double>(knee));
  json.Set("closed_loop_1shard_rec_per_sec", baseline_rec_per_sec);
  json.Set("closed_loop_1shard_mean_us", baseline_mean_us);
  std::printf("peak RSS: %.0f MB\n", json.SetPeakRss());
  json.Write();
  return 0;
}
