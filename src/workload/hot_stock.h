// The hot-stock benchmark (§4.3, after Denzinger [7]).
//
// "This test consists of up to 4 driver processes. Each driver represents
// a single hotly-traded stock. The drivers each insert 32000 4K records.
// The database consists of 4 files, each distributed across 4 disk
// volumes. During each transaction each driver performs a number of
// asynchronous inserts into each file. The transactions are committed
// between subsequent iterations to simulate the regulatory ordering
// constraints."
//
// The regulatory constraint makes the workload response-time critical
// (§2): driver throughput is inversely proportional to transaction
// response time, and boxcarring more trades per transaction is the only
// lever — until PM removes the need for it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "db/txn_client.h"
#include "nsk/process.h"
#include "sim/sync.h"
#include "workload/rig.h"

namespace ods::workload {

struct HotStockConfig {
  int drivers = 1;
  int inserts_per_txn = 8;  // boxcar degree: 8/16/32 -> 32K/64K/128K txns
  int records_per_driver = 4000;  // paper: 32000 (scaled; see EXPERIMENTS.md)
  std::size_t record_bytes = 4096;
  // Driver-side work to produce one record (matching/bookkeeping).
  sim::SimDuration per_record_cpu = sim::Microseconds(15);

  // ---- open-loop mode (scale-out load model) ----
  // Closed-loop drivers issue the next transaction only after the
  // previous commit, so offered load shrinks as latency grows and
  // saturation is invisible. In open-loop mode each driver generates
  // transaction *arrivals* from a Poisson process whose rate λ(t) does
  // not care how the system is doing:
  //
  //   λ(t) = arrival_rate_hz
  //            · (1 + diurnal_amplitude · sin(2π t / diurnal_period))
  //            · (spike_factor inside [spike_start, spike_start+spike_duration))
  //
  // Arrivals queue; up to max_in_flight worker fibers per driver drain
  // the backlog, and response time is measured from ARRIVAL to commit so
  // queueing delay shows up in the percentiles. records_per_driver is
  // ignored; the run lasts open_loop_duration plus the backlog drain.
  bool open_loop = false;
  double arrival_rate_hz = 4.0;  // per driver, base rate
  sim::SimDuration open_loop_duration = sim::Seconds(10);
  int max_in_flight = 4;  // concurrent transactions per driver
  double diurnal_amplitude = 0.0;
  sim::SimDuration diurnal_period = sim::Seconds(60);
  double spike_factor = 1.0;
  sim::SimDuration spike_start = sim::Seconds(0);
  sim::SimDuration spike_duration = sim::Seconds(0);
  // Master seed for arrival processes, split into per-driver streams
  // (Rng::ForStream): adding drivers never perturbs existing streams.
  std::uint64_t arrival_seed = 42;

  // Optional time-windowed response collector (flash-crowd SLO-recovery
  // measurement; see workload/scenario.h). Responses are classified by
  // ARRIVAL time. Not owned; null = off.
  WindowedLatency* response_windows = nullptr;
};

struct DriverStats {
  int driver = 0;
  std::uint64_t committed_txns = 0;
  std::uint64_t aborted_txns = 0;
  std::uint64_t records_inserted = 0;
  std::uint64_t arrivals = 0;     // open-loop: txns generated
  std::uint64_t max_backlog = 0;  // open-loop: peak queued arrivals
  // Abort breakdown by failing phase (sums to aborted_txns).
  std::uint64_t begin_failures = 0;
  std::uint64_t insert_failures = 0;
  std::uint64_t commit_failures = 0;
  LatencyHistogram txn_response;  // arrival..commit (open-loop) or
                                  // begin..commit (closed-loop)
  sim::SimTime finished{0};
};

struct HotStockResult {
  std::vector<DriverStats> drivers;
  double elapsed_seconds = 0;  // wall (simulated) time for all drivers
  [[nodiscard]] double MeanResponseUs() const;
  [[nodiscard]] std::uint64_t TotalCommitted() const;
  // All drivers' response histograms merged (for p99/p99.9 readouts).
  [[nodiscard]] LatencyHistogram MergedResponse() const;
  [[nodiscard]] double Throughput() const {  // records per second
    std::uint64_t recs = 0;
    for (const auto& d : drivers) recs += d.records_inserted;
    return elapsed_seconds > 0 ? static_cast<double>(recs) / elapsed_seconds
                               : 0;
  }
};

// One driver process: serialized transactions of `inserts_per_txn`
// records spread round-robin over the files, inserts fanned out
// asynchronously, commit awaited before the next iteration.
class HotStockDriver : public nsk::NskProcess {
 public:
  HotStockDriver(nsk::Cluster& cluster, int cpu_index, int driver_index,
                 const db::Catalog& catalog, HotStockConfig config,
                 sim::Latch& done, DriverStats& stats);

 protected:
  sim::Task<void> Main() override;

 private:
  sim::Task<void> RunClosedLoop();
  // Open-loop mode: Main becomes the arrival generator; worker fibers
  // drain the backlog channel. `generating` and `next_key` live in
  // Main's frame, which outlives every worker (Main joins them).
  sim::Task<void> RunOpenLoop();
  sim::Task<void> OpenLoopWorker(db::TxnClient& client,
                                 sim::Channel<sim::SimTime>& arrivals,
                                 const bool& generating,
                                 std::uint64_t& next_key,
                                 sim::Latch& workers_done);
  sim::Task<bool> RunOneTxn(db::TxnClient& client, sim::SimTime measure_from,
                            int batch, std::uint64_t& next_key);
  [[nodiscard]] double ArrivalRateAt(sim::SimDuration since_start) const;

  int driver_index_;
  const db::Catalog* catalog_;
  HotStockConfig config_;
  sim::Latch* done_;
  DriverStats* stats_;
};

// Builds drivers on the rig, runs to completion, returns per-driver and
// aggregate results. The rig must already be running (spawned).
HotStockResult RunHotStock(Rig& rig, const HotStockConfig& config);

}  // namespace ods::workload
