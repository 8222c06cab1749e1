// Experiment E1 — reproduces Figure 1: "PM improves response time
// drastically". Response-time speedup with a PM-enabled ADP vs the
// standard (disk) ADP, as a function of transaction size (degree of
// boxcarring) for 1-4 driver processes.
//
// Paper shape: up to ~3.5x speedup, greatest at small transaction sizes
// (32k) and with 1-2 drivers; declining with more boxcarring (commit cost
// amortized over more inserts) and more drivers (group commit amortizes
// the disk flush).
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/sweep.h"

using namespace ods;
using namespace ods::bench;

int main() {
  const int boxcars[] = {8, 16, 32};
  const int max_drivers = 4;

  struct Cell {
    double disk_us = 0;
    double pm_us = 0;
    std::uint64_t piggybacked = 0;
    std::uint64_t overlapped = 0;
    std::uint64_t coalesced = 0;
  };
  Cell cells[4][3];

  // 24 independent simulations (4 drivers x 3 sizes x 2 media).
  workload::ParallelSweep(max_drivers * 3 * 2, [&](int idx) {
    const bool pm = idx % 2 == 1;
    const int size_idx = (idx / 2) % 3;
    const int drivers = idx / 6 + 1;
    Cell& c = cells[drivers - 1][size_idx];
    if (!pm) {
      c.disk_us = RunConfig(false, drivers, boxcars[size_idx]).MeanResponseUs();
      return;
    }
    // Every ADP flush overlaps its device append with its backup
    // checkpoint, so the overlapped count is the flush count.
    c.pm_us = RunConfig(true, drivers, boxcars[size_idx],
                        [&](const MetricsRegistry& m) {
                          c.piggybacked = m.CounterValue("pm.log.piggybacked");
                          c.overlapped = m.CounterValue("adp.flushes");
                          c.coalesced =
                              m.CounterValue("adp.coalesced_checkpoints");
                        })
                  .MeanResponseUs();
  });

  std::printf("E1 / Figure 1: response-time speedup with PM vs transaction "
              "size\n");
  std::printf("(hot-stock; %d x 4K records/driver; 4 files x 4 volumes; 4 "
              "audit trails)\n\n",
              RecordsPerDriver());
  std::printf("%-10s %-10s %14s %14s %10s\n", "txn size", "drivers",
              "no-PM resp(us)", "PM resp(us)", "speedup");
  PrintRule();
  for (int s = 0; s < 3; ++s) {
    for (int d = 1; d <= max_drivers; ++d) {
      const Cell& c = cells[d - 1][s];
      std::printf("%-10s %-10d %14.0f %14.0f %9.2fx\n",
                  TxnSizeLabel(boxcars[s]), d, c.disk_us, c.pm_us,
                  c.pm_us > 0 ? c.disk_us / c.pm_us : 0.0);
    }
  }
  PrintRule();
  std::printf("paper: speedup up to ~3.5x, greatest at 32k with 1-2 "
              "drivers,\ndeclining with larger boxcars and more drivers.\n\n");

  // Pipelined-write-engine accounting for the PM runs: how often the
  // control block rode the data RDMA, flushes overlapped their backup
  // checkpoint, and buffer checkpoints were coalesced.
  std::uint64_t piggybacked = 0, overlapped = 0, coalesced = 0;
  for (int s = 0; s < 3; ++s) {
    for (int d = 1; d <= max_drivers; ++d) {
      piggybacked += cells[d - 1][s].piggybacked;
      overlapped += cells[d - 1][s].overlapped;
      coalesced += cells[d - 1][s].coalesced;
    }
  }
  std::printf("PM write engine: %llu piggybacked control blocks, %llu "
              "overlapped flushes,\n%llu coalesced buffer checkpoints "
              "across the 12 PM runs.\n",
              static_cast<unsigned long long>(piggybacked),
              static_cast<unsigned long long>(overlapped),
              static_cast<unsigned long long>(coalesced));

  BenchJson json("fig1_response_speedup");
  for (int s = 0; s < 3; ++s) {
    for (int d = 1; d <= max_drivers; ++d) {
      const Cell& c = cells[d - 1][s];
      const std::string base = std::string(TxnSizeLabel(boxcars[s])) + "_d" +
                               std::to_string(d);
      json.Set(base + "_speedup", c.pm_us > 0 ? c.disk_us / c.pm_us : 0.0);
    }
  }
  json.Set("piggybacked_controls", static_cast<double>(piggybacked));
  json.Set("overlapped_flushes", static_cast<double>(overlapped));
  json.Set("coalesced_checkpoints", static_cast<double>(coalesced));
  json.Write();
  return 0;
}
