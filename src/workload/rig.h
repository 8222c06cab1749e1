// The assembled system under test: a NonStop-style node running the full
// transaction stack, matching §4.2-§4.3 of the paper:
//
//   * N application CPUs, each with an ADP (log writer) pair — "we used 4
//     auxiliary audit volumes, one for each CPU",
//   * a TMF pair,
//   * DP2 pairs for `num_files x partitions_per_file` data partitions,
//     each on its own data volume — "4 files, each distributed across 4
//     disk volumes (a total of 16 disk volumes)",
//   * in PM mode: a PMM pair plus either a mirrored pair of hardware
//     NPMUs or a PMP on an extra CPU ("we ran a PMP on a 5th CPU") —
//     every ADP then logs to its own PM region instead of its audit
//     volume.
//
// The Rig owns all of it and exposes aggregate accounting for the
// experiments (bytes persisted per medium, checkpoint traffic, flushes).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "db/catalog.h"
#include "nsk/cluster.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "pm/shard_map.h"
#include "sim/simulation.h"
#include "storage/disk.h"
#include "tp/adp.h"
#include "tp/dp2.h"
#include "tp/log_device.h"
#include "tp/tmf.h"

namespace ods::workload {

enum class PmDeviceKind {
  kNone,      // disk-only baseline
  kNpmuPair,  // mirrored hardware NPMUs
  kPmp,       // the paper's prototype: one PMP process on an extra CPU
};

struct RigConfig {
  int num_cpus = 4;  // application CPUs (PMP gets its own extra CPU)
  int num_files = 4;
  int partitions_per_file = 4;
  int num_adps = 4;  // one audit trail per CPU

  tp::LogMedium log_medium = tp::LogMedium::kDisk;
  PmDeviceKind pm_device = PmDeviceKind::kNone;  // forced for kPm medium
  // Scale-out: number of PMM pairs, each owning its own mirrored NPMU
  // pair (disjoint pools). 1 = the paper's single-pair config, wired
  // exactly as before (same names, same spawn order, golden-stable).
  // With N > 1, PM regions are placed by the shard map, and each ADP
  // stripes its audit log over one stream per shard. NPMU-pair mode
  // only; the PMP prototype stays single-shard.
  int num_pm_shards = 1;
  bool pm_tcb = false;            // PM-resident TMF control blocks
  // Commit-resolution deadline before the TMF sheds the transaction.
  // Open-loop saturation sweeps raise this: measuring capacity requires
  // commits to be able to wait out the flush queue instead of timing
  // out and wasting the audit bandwidth they already consumed.
  sim::SimDuration tmf_resolve_timeout = sim::Milliseconds(500);
  // Has no effect: redo reads the durable trail off the log device.
  // Still declared only because the repo benchmark sets it; the next
  // benchmark change drops that write and deletes this field.
  bool retain_log_image = false;
  // Active NPMU offload (ISSUE 9): arm the device command engine and use
  // it everywhere it helps — ADP cold recovery via device VerifyScan,
  // DP2 redo via device ShipReplay, log truncation via device CompactTo.
  // Off (the default) reproduces the passive rig byte-identically; on,
  // every offload path still falls back to the host path on failure.
  bool pm_offload = false;
  bool with_backups = true;       // process pairs (vs singletons)
  // Ablation: force each insert's audit to durable media synchronously
  // (fine-grained persistence) instead of buffering until commit.
  bool force_audit_per_insert = false;

  storage::DiskConfig data_disk;
  storage::DiskConfig audit_disk;
  tp::DiskLogConfig disk_log;
  pm::NpmuConfig npmu;
  nsk::ClusterConfig cluster;
  std::uint64_t pm_log_region_bytes = 48ull << 20;
};

class Rig {
 public:
  Rig(sim::Simulation& sim, RigConfig config);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] nsk::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] const db::Catalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const RigConfig& config() const noexcept { return config_; }

  [[nodiscard]] tp::TmfProcess& tmf() noexcept { return *tmf_primary_; }
  [[nodiscard]] std::vector<tp::AdpProcess*>& adps() noexcept {
    return adp_primaries_;
  }
  [[nodiscard]] std::vector<tp::Dp2Process*>& dp2s() noexcept {
    return dp2_primaries_;
  }
  [[nodiscard]] pm::PmManager* pmm() noexcept {
    return pm_shards_.empty() ? nullptr : pm_shards_.front().pmm_primary;
  }
  [[nodiscard]] pm::PmManager* pmm(int shard) noexcept {
    return pm_shards_.at(static_cast<std::size_t>(shard)).pmm_primary;
  }
  [[nodiscard]] int num_pm_shards() const noexcept {
    return static_cast<int>(pm_shards_.size());
  }
  [[nodiscard]] const pm::ShardMap& shard_map() const noexcept {
    return shard_map_;
  }
  [[nodiscard]] std::vector<storage::DiskVolume*> data_volumes() noexcept;
  [[nodiscard]] std::vector<storage::DiskVolume*> audit_volumes() noexcept;

  // ---- fault injection ----
  void KillAdpPrimary(int index);
  void KillTmfPrimary();
  void KillPmmPrimary(int shard = 0);
  // Whole-node power loss: every process dies, volatile device state is
  // wiped; disks and NPMUs keep their contents. Call Restart() after.
  void PowerLoss();
  void RestartAfterPowerLoss();

  // ---- aggregate accounting (experiment E7 and friends) ----
  struct PersistenceAccounting {
    std::uint64_t disk_bytes_written = 0;   // data + audit volumes
    std::uint64_t pm_bytes_written = 0;     // NPMU/PMP ingress
    std::uint64_t checkpoint_bytes = 0;     // process-pair traffic
    std::uint64_t checkpoint_messages = 0;
    std::uint64_t audit_flushes = 0;
    std::uint64_t audit_bytes = 0;
  };
  [[nodiscard]] PersistenceAccounting Account() const;

 private:
  void BuildDisks();
  void BuildPm();
  void BuildAdps();
  void BuildTmf();
  void BuildDp2s();

  template <typename P, typename... Args>
  std::pair<P*, P*> SpawnPair(const std::string& service, int primary_cpu,
                              int backup_cpu, Args&&... args);

  sim::Simulation& sim_;
  RigConfig config_;
  std::unique_ptr<nsk::Cluster> cluster_;
  db::Catalog catalog_;

  // One persistence shard: a PMM pair and the mirrored NPMU pair it
  // owns. The single-shard config is pm_shards_[0] with legacy names.
  struct PmShard {
    std::unique_ptr<pm::Npmu> npmu_a;
    std::unique_ptr<pm::Npmu> npmu_b;
    pm::PmManager* pmm_primary = nullptr;
    pm::PmManager* pmm_backup = nullptr;
  };

  std::vector<std::unique_ptr<storage::DiskVolume>> data_volumes_;
  std::vector<std::unique_ptr<storage::DiskVolume>> audit_volumes_;
  std::vector<PmShard> pm_shards_;
  pm::ShardMap shard_map_;
  pm::Pmp* pmp_ = nullptr;

  tp::TmfProcess* tmf_primary_ = nullptr;
  tp::TmfProcess* tmf_backup_ = nullptr;
  std::vector<tp::AdpProcess*> adp_primaries_;
  std::vector<tp::AdpProcess*> adp_backups_;
  std::vector<tp::Dp2Process*> dp2_primaries_;
  std::vector<tp::Dp2Process*> dp2_backups_;
};

}  // namespace ods::workload
