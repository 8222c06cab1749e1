#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"

namespace ods::workload {

using sim::Task;

namespace {

// FNV-1a over the bytes of one 64-bit value, folded into `h`.
void FnvMix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

// Shared orchestration: run the sim until every spawned driver has
// arrived at `done` (mirrors RunHotStock's stall guard).
void RunUntilDone(sim::Simulation& sim, sim::Latch& done, const char* what) {
  while (done.count() > 0) {
    if (sim.RunFor(sim::Seconds(60)) == 0 && done.count() > 0) {
      ODS_ELOG("scenario", "%s stalled with %d drivers pending", what,
               done.count());
      break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ZipfianGenerator

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  if (theta_ <= 0.0) {
    theta_ = 0.0;  // uniform
    return;
  }
  if (theta_ > 0.9999) theta_ = 0.9999;  // α = 1/(1-θ) diverges at θ=1
  double zetan = 0;
  for (std::uint64_t i = 1; i <= n_; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta_);
  half_pow_theta_ = std::pow(0.5, theta_);
  const double zeta2 = 1.0 + half_pow_theta_;
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t ZipfianGenerator::Next(Rng& rng) const noexcept {
  const double u = rng.NextDouble();  // exactly one draw per call
  if (theta_ == 0.0) {
    auto r = static_cast<std::uint64_t>(u * static_cast<double>(n_));
    return r >= n_ ? n_ - 1 : r;
  }
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  auto r = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return r >= n_ ? n_ - 1 : r;
}

// ---------------------------------------------------------------------------
// Shared plumbing

LockStats AggregateLockStats(Rig& rig) {
  const MetricsRegistry& m = rig.sim().metrics();
  LockStats s;
  s.grants = m.CounterValue("tp.lock.grants");
  s.waits = m.CounterValue("tp.lock.waits");
  s.timeouts = m.CounterValue("tp.lock.timeouts");
  if (const LatencyHistogram* h = m.FindHistogram("tp.lock.wait_ns")) {
    s.wait_time = *h;
  }
  return s;
}

namespace {

class PreloadProcess : public nsk::NskProcess {
 public:
  PreloadProcess(nsk::Cluster& cluster, int cpu, const db::Catalog& catalog,
                 std::uint64_t keys_per_file, std::size_t record_bytes,
                 sim::Latch& done, Status& status)
      : NskProcess(cluster, cpu, "$LOADER"), catalog_(&catalog),
        keys_per_file_(keys_per_file), record_bytes_(record_bytes),
        done_(&done), status_(&status) {}

 protected:
  Task<void> Main() override {
    db::TxnClient client(*this, *catalog_);
    constexpr std::uint64_t kBatch = 32;
    for (int f = 0; f < catalog_->num_files() && status_->ok(); ++f) {
      for (std::uint64_t k = 1; k <= keys_per_file_ && status_->ok();
           k += kBatch) {
        auto txn = co_await client.Begin();
        if (!txn.ok()) {
          *status_ = txn.status();
          break;
        }
        std::vector<db::TxnClient::InsertOp> ops;
        const std::uint64_t hi = std::min(keys_per_file_, k + kBatch - 1);
        for (std::uint64_t key = k; key <= hi; ++key) {
          db::TxnClient::InsertOp op;
          op.file = static_cast<std::uint32_t>(f);
          op.key = key;
          op.value.assign(record_bytes_, std::byte{0xAB});
          ops.push_back(std::move(op));
        }
        Status st = co_await client.InsertMany(*txn, std::move(ops));
        if (st.ok()) st = co_await client.Commit(*txn);
        if (!st.ok()) {
          (void)co_await client.Abort(*txn);
          *status_ = st;
        }
      }
    }
    done_->Arrive();
  }

 private:
  const db::Catalog* catalog_;
  std::uint64_t keys_per_file_;
  std::size_t record_bytes_;
  sim::Latch* done_;
  Status* status_;
};

}  // namespace

Status PreloadKeyspace(Rig& rig, std::uint64_t keys_per_file,
                       std::size_t record_bytes) {
  sim::Simulation& sim = rig.sim();
  sim::Latch done(sim, 1);
  Status status;
  sim.Adopt<PreloadProcess>(rig.cluster(), 0, rig.catalog(), keys_per_file,
                            record_bytes, done, status);
  RunUntilDone(sim, done, "preload");
  return status;
}

// ---------------------------------------------------------------------------
// Scenario 1: Zipfian read/write OLTP mix

namespace {

class OltpDriver : public nsk::NskProcess {
 public:
  OltpDriver(nsk::Cluster& cluster, int cpu, int driver_index,
             const db::Catalog& catalog, const OltpConfig& config,
             const ZipfianGenerator& zipf, sim::Latch& done,
             OltpDriverStats& stats)
      : NskProcess(cluster, cpu, "oltp" + std::to_string(driver_index)),
        driver_index_(driver_index), catalog_(&catalog), config_(&config),
        zipf_(&zipf), done_(&done), stats_(&stats) {}

 protected:
  Task<void> Main() override {
    // Positionally-stable stream: driver d's draw sequence is a pure
    // function of (seed, d), regardless of fleet size.
    Rng rng = Rng::ForStream(config_->seed,
                             static_cast<std::uint64_t>(driver_index_));
    db::TxnClient client(*this, *catalog_);
    const auto files = static_cast<std::uint64_t>(catalog_->num_files());
    int digested = 0;
    struct Op {
      bool read;
      std::uint32_t file;
      std::uint64_t key;
    };
    std::vector<Op> ops;
    // Fixed number of txn ATTEMPTS, drawn up-front per txn: the draw
    // sequence never depends on which attempts commit, which is what
    // makes the per-driver digest scheduling-independent.
    for (int t = 0; t < config_->txns_per_driver; ++t) {
      ops.clear();
      for (int i = 0; i < config_->ops_per_txn; ++i) {
        const bool read = rng.Bernoulli(config_->read_fraction);
        const auto file = static_cast<std::uint32_t>(rng.Below(files));
        const std::uint64_t rank = zipf_->Next(rng);
        if (digested < 256) {
          FnvMix(stats_->draw_digest, read ? 1 : 2);
          FnvMix(stats_->draw_digest, file + 3);
          FnvMix(stats_->draw_digest, rank);
          ++digested;
        }
        ops.push_back(Op{read, file, 1 + rank});
      }
      const sim::SimTime t0 = sim().Now();
      auto txn = co_await client.Begin();
      if (!txn.ok()) {
        ++stats_->aborted;
        continue;
      }
      bool failed = false;
      for (const Op& op : ops) {
        co_await Compute(config_->per_op_cpu);
        if (op.read) {
          auto r = co_await client.Read(*txn, op.file, op.key);
          if (!r.ok() && r.status().code() != ErrorCode::kNotFound) {
            failed = true;
            break;
          }
          ++stats_->reads;
        } else {
          std::vector<std::byte> value(
              config_->record_bytes,
              static_cast<std::byte>(driver_index_ + 1));
          Status st =
              co_await client.Insert(*txn, op.file, op.key, std::move(value));
          if (!st.ok()) {
            failed = true;
            break;
          }
          ++stats_->writes;
        }
      }
      if (failed) {
        (void)co_await client.Abort(*txn);
        ++stats_->aborted;
        continue;
      }
      Status st = co_await client.Commit(*txn);
      if (!st.ok()) {
        ++stats_->aborted;
        continue;
      }
      ++stats_->committed;
      stats_->txn_response.Record(
          static_cast<std::uint64_t>((sim().Now() - t0).ns));
    }
    stats_->finished = sim().Now();
    done_->Arrive();
  }

 private:
  int driver_index_;
  const db::Catalog* catalog_;
  const OltpConfig* config_;
  const ZipfianGenerator* zipf_;
  sim::Latch* done_;
  OltpDriverStats* stats_;
};

}  // namespace

std::uint64_t OltpResult::TotalCommitted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& d : drivers) n += d.committed;
  return n;
}

std::uint64_t OltpResult::TotalAborted() const noexcept {
  std::uint64_t n = 0;
  for (const auto& d : drivers) n += d.aborted;
  return n;
}

LatencyHistogram OltpResult::MergedResponse() const {
  LatencyHistogram merged;
  for (const auto& d : drivers) merged.Merge(d.txn_response);
  return merged;
}

OltpResult RunZipfianOltp(Rig& rig, const OltpConfig& config) {
  OltpResult result;
  if (config.preload) {
    Status st =
        PreloadKeyspace(rig, config.keys_per_file, config.record_bytes);
    if (!st.ok()) {
      ODS_ELOG("scenario", "oltp preload failed: %s", st.ToString().c_str());
      return result;
    }
  }
  const LockStats before = AggregateLockStats(rig);
  const ZipfianGenerator zipf(config.keys_per_file, config.theta);
  sim::Simulation& sim = rig.sim();
  result.drivers.resize(static_cast<std::size_t>(config.drivers));
  sim::Latch done(sim, config.drivers);
  const sim::SimTime start = sim.Now();
  for (int d = 0; d < config.drivers; ++d) {
    result.drivers[static_cast<std::size_t>(d)].driver = d;
    sim.Adopt<OltpDriver>(rig.cluster(), d % rig.config().num_cpus, d,
                          rig.catalog(), config, zipf, done,
                          result.drivers[static_cast<std::size_t>(d)]);
  }
  RunUntilDone(sim, done, "zipfian-oltp");
  sim::SimTime finish = start;
  for (const auto& d : result.drivers) {
    finish = std::max(finish, d.finished);
  }
  result.elapsed_seconds = sim::ToSecondsD(finish - start);
  result.locks = AggregateLockStats(rig) - before;
  return result;
}

// ---------------------------------------------------------------------------
// Scenario 2: long-running scans vs commit traffic

namespace {

class ScanDriver : public nsk::NskProcess {
 public:
  ScanDriver(nsk::Cluster& cluster, int cpu, int scanner_index,
             const db::Catalog& catalog, const ScanMixConfig& config,
             sim::Latch& done, ScanMixResult& result, sim::SimTime& finished)
      : NskProcess(cluster, cpu, "scan" + std::to_string(scanner_index)),
        scanner_index_(scanner_index), catalog_(&catalog), config_(&config),
        done_(&done), result_(&result), finished_(&finished) {}

 protected:
  Task<void> Main() override {
    // Scanner streams live at 1000+s so writer streams 0..W-1 are never
    // perturbed by adding scanners.
    Rng rng = Rng::ForStream(config_->seed,
                             1000 + static_cast<std::uint64_t>(scanner_index_));
    db::TxnClient client(*this, *catalog_);
    const auto files = static_cast<std::uint64_t>(catalog_->num_files());
    for (int s = 0; s < config_->scans_per_scanner; ++s) {
      const auto file = static_cast<std::uint32_t>(rng.Below(files));
      const sim::SimTime t0 = sim().Now();
      auto txn = co_await client.Begin();
      if (!txn.ok()) {
        ++result_->scans_aborted;
        continue;
      }
      auto r = co_await client.Scan(*txn, file, 1, config_->keys_per_file);
      if (!r.ok()) {
        (void)co_await client.Abort(*txn);
        ++result_->scans_aborted;
        continue;
      }
      Status st = co_await client.Commit(*txn);
      if (!st.ok()) {
        ++result_->scans_aborted;
        continue;
      }
      ++result_->scans_completed;
      result_->records_scanned += r->records;
      result_->scan_duration.Record(
          static_cast<std::uint64_t>((sim().Now() - t0).ns));
    }
    *finished_ = std::max(*finished_, sim().Now());
    done_->Arrive();
  }

 private:
  int scanner_index_;
  const db::Catalog* catalog_;
  const ScanMixConfig* config_;
  sim::Latch* done_;
  ScanMixResult* result_;
  sim::SimTime* finished_;  // latest scanner finish time
};

}  // namespace

ScanMixResult RunScanMix(Rig& rig, const ScanMixConfig& config) {
  ScanMixResult result;
  if (config.preload) {
    Status st =
        PreloadKeyspace(rig, config.keys_per_file, config.record_bytes);
    if (!st.ok()) {
      ODS_ELOG("scenario", "scan preload failed: %s", st.ToString().c_str());
      return result;
    }
  }
  const LockStats before = AggregateLockStats(rig);
  // Writers are a uniform update-only OLTP fleet over the same keyspace.
  OltpConfig wcfg;
  wcfg.drivers = config.writers;
  wcfg.txns_per_driver = config.writer_txns;
  wcfg.ops_per_txn = config.updates_per_txn;
  wcfg.read_fraction = 0.0;
  wcfg.theta = 0.0;
  wcfg.keys_per_file = config.keys_per_file;
  wcfg.record_bytes = config.record_bytes;
  wcfg.per_op_cpu = config.per_op_cpu;
  wcfg.seed = config.seed;
  const ZipfianGenerator uniform(wcfg.keys_per_file, 0.0);

  sim::Simulation& sim = rig.sim();
  std::vector<OltpDriverStats> writer_stats(
      static_cast<std::size_t>(config.writers));
  sim::Latch done(sim, config.writers + config.scanners);
  const sim::SimTime start = sim.Now();
  sim::SimTime finish = start;
  for (int d = 0; d < config.writers; ++d) {
    writer_stats[static_cast<std::size_t>(d)].driver = d;
    sim.Adopt<OltpDriver>(rig.cluster(), d % rig.config().num_cpus, d,
                          rig.catalog(), wcfg, uniform, done,
                          writer_stats[static_cast<std::size_t>(d)]);
  }
  for (int s = 0; s < config.scanners; ++s) {
    sim.Adopt<ScanDriver>(rig.cluster(),
                          (config.writers + s) % rig.config().num_cpus, s,
                          rig.catalog(), config, done, result, finish);
  }
  RunUntilDone(sim, done, "scan-mix");
  for (const auto& w : writer_stats) {
    finish = std::max(finish, w.finished);
    result.writer_committed += w.committed;
    result.writer_aborted += w.aborted;
    result.writer_response.Merge(w.txn_response);
  }
  // The last driver's finish, not the RunFor quantum RunUntilDone ends on.
  result.elapsed_seconds = sim::ToSecondsD(finish - start);
  result.locks = AggregateLockStats(rig) - before;
  return result;
}

// ---------------------------------------------------------------------------
// Scenario 3: flash crowd

FlashCrowdResult RunFlashCrowd(Rig& rig, const FlashCrowdConfig& config) {
  FlashCrowdResult result;
  sim::Simulation& sim = rig.sim();
  const sim::SimTime start = sim.Now();
  // Window span covers the run plus a drain tail: late commits of spike
  // arrivals are classified by ARRIVAL time, so the tail windows show
  // how long the backlog kept the SLO broken.
  const std::int64_t width_ns = config.window.ns;
  const std::int64_t span_ns =
      config.fleet.open_loop_duration.ns + sim::Seconds(8).ns;
  const int n_windows = static_cast<int>(span_ns / width_ns) + 1;
  WindowedLatency windows(start.ns, width_ns, n_windows);

  HotStockConfig fleet = config.fleet;
  fleet.open_loop = true;
  fleet.response_windows = &windows;
  result.fleet = RunHotStock(rig, fleet);

  const std::int64_t spike_start_ns = start.ns + config.fleet.spike_start.ns;
  const std::int64_t spike_end_ns =
      spike_start_ns + config.fleet.spike_duration.ns;
  LatencyHistogram baseline;
  std::int64_t last_violation_end_ns = std::numeric_limits<std::int64_t>::min();
  for (int i = 0; i < n_windows; ++i) {
    const LatencyHistogram& h = windows.windows()[static_cast<std::size_t>(i)];
    const std::int64_t w_start = windows.window_start_ns(i);
    const std::int64_t w_end = w_start + width_ns;
    FlashWindow fw;
    fw.t_s = static_cast<double>(w_start - start.ns) / 1e9;
    fw.count = h.count();
    if (h.count() > 0) {
      fw.p50_ms = static_cast<double>(h.Percentile(0.50)) / 1e6;
      fw.p99_ms = static_cast<double>(h.Percentile(0.99)) / 1e6;
      fw.violates_slo = fw.p99_ms > config.slo_p99_ms;
      if (w_end <= spike_start_ns) baseline.Merge(h);
      if (w_start >= spike_start_ns) {
        result.spike_p99_ms = std::max(result.spike_p99_ms, fw.p99_ms);
      }
      if (fw.violates_slo) {
        ++result.violating_windows;
        last_violation_end_ns = std::max(last_violation_end_ns, w_end);
      }
    }
    result.windows.push_back(fw);
  }
  if (baseline.count() > 0) {
    result.baseline_p99_ms =
        static_cast<double>(baseline.Percentile(0.99)) / 1e6;
  }
  if (result.violating_windows > 0) {
    result.recovery_ms =
        static_cast<double>(last_violation_end_ns - spike_end_ns) / 1e6;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Scenario 4: multi-tenant

MultiTenantResult RunMultiTenant(Rig& rig, const MultiTenantConfig& config) {
  MultiTenantResult result;
  sim::Simulation& sim = rig.sim();
  int total_drivers = 0;
  for (const TenantSpec& t : config.tenants) total_drivers += t.drivers;
  std::vector<DriverStats> stats(static_cast<std::size_t>(total_drivers));
  std::vector<int> tenant_of(static_cast<std::size_t>(total_drivers));
  sim::Latch done(sim, total_drivers);
  const sim::SimTime start = sim.Now();
  int g = 0;  // global driver index: key namespace AND rng stream
  for (std::size_t ti = 0; ti < config.tenants.size(); ++ti) {
    const TenantSpec& spec = config.tenants[ti];
    HotStockConfig hs;
    hs.drivers = spec.drivers;
    hs.inserts_per_txn = spec.inserts_per_txn;
    hs.records_per_driver = spec.records_per_driver;
    hs.record_bytes = spec.record_bytes;
    hs.arrival_seed = config.seed;
    for (int d = 0; d < spec.drivers; ++d, ++g) {
      stats[static_cast<std::size_t>(g)].driver = g;
      tenant_of[static_cast<std::size_t>(g)] = static_cast<int>(ti);
      // HotStockDriver keys off its driver index: global indices give
      // each tenant a disjoint key namespace for free.
      sim.Adopt<HotStockDriver>(rig.cluster(), g % rig.config().num_cpus, g,
                                rig.catalog(), hs, done,
                                stats[static_cast<std::size_t>(g)]);
    }
  }
  RunUntilDone(sim, done, "multi-tenant");
  sim::SimTime finish = start;
  result.tenants.resize(config.tenants.size());
  for (int i = 0; i < total_drivers; ++i) {
    const DriverStats& ds = stats[static_cast<std::size_t>(i)];
    TenantResult& tr =
        result.tenants[static_cast<std::size_t>(tenant_of[static_cast<std::size_t>(i)])];
    tr.committed += ds.committed_txns;
    tr.aborted += ds.aborted_txns;
    tr.records += ds.records_inserted;
    tr.txn_response.Merge(ds.txn_response);
    finish = std::max(finish, ds.finished);
  }
  for (std::size_t ti = 0; ti < result.tenants.size(); ++ti) {
    result.tenants[ti].tenant = static_cast<int>(ti);
  }
  result.elapsed_seconds = sim::ToSecondsD(finish - start);
  return result;
}

}  // namespace ods::workload
