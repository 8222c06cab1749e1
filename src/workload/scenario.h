// Scenario suite beyond hot-stock (ROADMAP item 5). Hot-stock is
// uniform, insert-only and contention-free by construction (each driver
// owns its key namespace); the scenarios here stress the parts of the
// stack that leaves cold:
//
//   * RunZipfianOltp — a TATP/TPC-B-shaped read/write mix over a shared
//     preloaded keyspace with Zipfian skew θ, driving shared/exclusive
//     acquisition (and deadlock-timeout aborts) through tp::LockManager;
//   * RunScanMix    — long-running shared-lock range scans (kDp2Scan)
//     concurrent with update/commit traffic: strict 2PL makes the scan
//     hold its locks until commit, so writers feel it;
//   * RunFlashCrowd — the PR 7 open-loop fleet with a 10× Poisson
//     arrival spike, measuring time-to-SLO-recovery from windowed p99s;
//   * RunMultiTenant— tenants with mixed boxcar sizes / record sizes /
//     fleet shapes sharing one rig, with per-tenant tail metrics.
//
// Every scenario is seed-deterministic: all randomness comes from
// Rng::ForStream(seed, stream) with positionally-stable stream indices,
// so same seed ⇒ byte-identical traces, and growing a fleet never
// perturbs the draws of drivers that were already there.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace ods::workload {

// ---------------------------------------------------------------------------
// Zipfian rank generator (Gray et al., as popularized by YCSB).
//
// Next() returns a rank in [0, n); rank 0 is the hottest. θ in [0, 1)
// controls skew: θ=0 is uniform, θ=0.99 gives the classic YCSB "most of
// the traffic on a handful of keys". The zeta(n, θ) normalizer is
// computed once at construction (O(n)) and shared by const-ref across
// drivers; Next() itself is O(1) and draws exactly one uniform variate,
// which keeps per-driver draw sequences positionally stable.
class ZipfianGenerator {
 public:
  ZipfianGenerator(std::uint64_t n, double theta);

  [[nodiscard]] std::uint64_t Next(Rng& rng) const noexcept;
  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double theta() const noexcept { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_ = 0;
  double zetan_ = 0;
  double eta_ = 0;
  double half_pow_theta_ = 0;  // 0.5^theta, the rank-1 cutoff
};

// ---------------------------------------------------------------------------
// Shared plumbing

// Lock-manager counters of the rig's run (the "tp.lock.*" metrics,
// summed over every DP2 partition).
struct LockStats {
  std::uint64_t grants = 0;
  std::uint64_t waits = 0;
  std::uint64_t timeouts = 0;
  LatencyHistogram wait_time;  // sim-ns blocked on the slow path
  [[nodiscard]] LockStats operator-(const LockStats& base) const noexcept {
    LockStats d;
    d.grants = grants - base.grants;
    d.waits = waits - base.waits;
    d.timeouts = timeouts - base.timeouts;
    d.wait_time = wait_time;  // histograms are cumulative; callers diff counts
    return d;
  }
};
[[nodiscard]] LockStats AggregateLockStats(Rig& rig);

// Populates keys 1..keys_per_file of every file with `record_bytes`
// records, committed in batches, so the OLTP/scan mixes start from a
// warm shared keyspace. Runs the sim until the load completes.
Status PreloadKeyspace(Rig& rig, std::uint64_t keys_per_file,
                       std::size_t record_bytes);

// ---------------------------------------------------------------------------
// Scenario 1: Zipfian read/write OLTP mix

struct OltpConfig {
  int drivers = 8;
  int txns_per_driver = 50;  // txn *attempts*: fixed draw budget per stream
  int ops_per_txn = 4;
  double read_fraction = 0.5;  // per-op Bernoulli(read)
  double theta = 0.9;          // Zipfian skew; 0 = uniform
  std::uint64_t keys_per_file = 500;  // shared preloaded keyspace
  std::size_t record_bytes = 256;
  sim::SimDuration per_op_cpu = sim::Microseconds(5);
  std::uint64_t seed = 1234;  // master seed; driver d uses stream d
  bool preload = true;        // false if the caller preloaded already
};

struct OltpDriverStats {
  int driver = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;  // lock conflicts / deadlock timeouts
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  // FNV-1a over the first 256 (read?, file, rank) draws. A pure function
  // of (seed, driver): the fleet-growth golden test asserts growing the
  // fleet leaves existing drivers' digests untouched.
  std::uint64_t draw_digest = 14695981039346656037ull;
  LatencyHistogram txn_response;
  sim::SimTime finished{0};
};

struct OltpResult {
  std::vector<OltpDriverStats> drivers;
  double elapsed_seconds = 0;
  LockStats locks;  // delta over the scenario (preload excluded)
  [[nodiscard]] std::uint64_t TotalCommitted() const noexcept;
  [[nodiscard]] std::uint64_t TotalAborted() const noexcept;
  [[nodiscard]] LatencyHistogram MergedResponse() const;
  [[nodiscard]] double WaitsPerTxn() const noexcept {
    const std::uint64_t txns = TotalCommitted() + TotalAborted();
    return txns == 0 ? 0
                     : static_cast<double>(locks.waits) /
                           static_cast<double>(txns);
  }
};

OltpResult RunZipfianOltp(Rig& rig, const OltpConfig& config);

// ---------------------------------------------------------------------------
// Scenario 2: long-running scans vs commit traffic

struct ScanMixConfig {
  int writers = 4;
  int writer_txns = 40;    // update-txn attempts per writer
  int updates_per_txn = 4;
  int scanners = 2;        // 0 = baseline (writers only)
  int scans_per_scanner = 6;
  std::uint64_t keys_per_file = 300;
  std::size_t record_bytes = 256;
  sim::SimDuration per_op_cpu = sim::Microseconds(5);
  std::uint64_t seed = 99;  // writer d = stream d; scanner s = stream 1000+s
  bool preload = true;
};

struct ScanMixResult {
  double elapsed_seconds = 0;
  std::uint64_t writer_committed = 0;
  std::uint64_t writer_aborted = 0;
  LatencyHistogram writer_response;
  std::uint64_t scans_completed = 0;
  std::uint64_t scans_aborted = 0;
  std::uint64_t records_scanned = 0;
  LatencyHistogram scan_duration;
  LockStats locks;
};

ScanMixResult RunScanMix(Rig& rig, const ScanMixConfig& config);

// ---------------------------------------------------------------------------
// Scenario 3: flash crowd (open-loop spike) with SLO-recovery readout

struct FlashCrowdConfig {
  // The open-loop fleet; spike_* fields define the crowd. Defaults: 10×
  // for 2 s in the middle of a 12 s run.
  HotStockConfig fleet;
  double slo_p99_ms = 50.0;               // the SLO: windowed p99 under this
  sim::SimDuration window = sim::Milliseconds(250);
  FlashCrowdConfig() {
    fleet.open_loop = true;
    fleet.drivers = 64;
    // 12 Hz x 64 drivers = 768 txn/s base; the 10x spike offers ~7.7k
    // txn/s, past the 4-CPU rig's commit capacity, so the SLO actually
    // breaks and recovery_ms measures the backlog drain.
    fleet.arrival_rate_hz = 12.0;
    fleet.inserts_per_txn = 4;
    fleet.record_bytes = 512;
    fleet.open_loop_duration = sim::Seconds(12);
    fleet.max_in_flight = 2;
    fleet.spike_factor = 10.0;
    fleet.spike_start = sim::Seconds(4);
    fleet.spike_duration = sim::Seconds(2);
  }
};

struct FlashWindow {
  double t_s = 0;        // window start, seconds from run start
  std::uint64_t count = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  bool violates_slo = false;
};

struct FlashCrowdResult {
  HotStockResult fleet;
  std::vector<FlashWindow> windows;
  double baseline_p99_ms = 0;  // p99 over pre-spike windows
  double spike_p99_ms = 0;     // worst windowed p99 during/after the spike
  // End of the last SLO-violating window minus end of the spike; 0 if
  // the SLO never broke, negative if it recovered before the spike ended.
  double recovery_ms = 0;
  int violating_windows = 0;
};

FlashCrowdResult RunFlashCrowd(Rig& rig, const FlashCrowdConfig& config);

// ---------------------------------------------------------------------------
// Scenario 4: multi-tenant regions with mixed boxcar sizes

struct TenantSpec {
  int drivers = 2;
  int inserts_per_txn = 8;        // the tenant's boxcar degree
  int records_per_driver = 256;   // closed-loop volume per driver
  std::size_t record_bytes = 512;
};

struct MultiTenantConfig {
  std::vector<TenantSpec> tenants;
  std::uint64_t seed = 7;  // global driver index g uses arrival stream g
  MultiTenantConfig() {
    tenants.push_back(TenantSpec{2, 1, 128, 4096});   // latency-sensitive
    tenants.push_back(TenantSpec{2, 16, 512, 512});   // batch/boxcarred
    tenants.push_back(TenantSpec{2, 64, 1024, 128});  // bulk ingest
  }
};

struct TenantResult {
  int tenant = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t records = 0;
  LatencyHistogram txn_response;
};

struct MultiTenantResult {
  std::vector<TenantResult> tenants;
  double elapsed_seconds = 0;
  [[nodiscard]] double Throughput() const noexcept {  // records/s, all tenants
    std::uint64_t recs = 0;
    for (const auto& t : tenants) recs += t.records;
    return elapsed_seconds > 0
               ? static_cast<double>(recs) / elapsed_seconds
               : 0;
  }
};

MultiTenantResult RunMultiTenant(Rig& rig, const MultiTenantConfig& config);

}  // namespace ods::workload
