#include "workload/rig.h"

#include <cassert>

#include "tp/kinds.h"

namespace ods::workload {

using db::Catalog;

Rig::Rig(sim::Simulation& sim, RigConfig config)
    : sim_(sim), config_(config),
      catalog_(config.num_files, config.partitions_per_file) {
  if (config_.log_medium == tp::LogMedium::kPm &&
      config_.pm_device == PmDeviceKind::kNone) {
    config_.pm_device = PmDeviceKind::kNpmuPair;
  }
  if (config_.num_pm_shards < 1 ||
      config_.pm_device != PmDeviceKind::kNpmuPair) {
    config_.num_pm_shards = 1;  // PMP prototype and disk mode: one shard
  }
  if (config_.log_medium != tp::LogMedium::kPm) {
    config_.pm_offload = false;  // nothing to offload on a disk trail
  }
  if (config_.pm_offload) config_.npmu.active_commands = true;
  nsk::ClusterConfig cluster_cfg = config_.cluster;
  cluster_cfg.num_cpus =
      config_.num_cpus + (config_.pm_device == PmDeviceKind::kPmp ? 1 : 0);
  cluster_ = std::make_unique<nsk::Cluster>(sim_, cluster_cfg);

  BuildDisks();
  BuildPm();
  BuildAdps();
  BuildTmf();
  BuildDp2s();
}

Rig::~Rig() {
  // Unwind every process while the devices and cluster are still alive.
  sim_.Shutdown();
}

void Rig::BuildDisks() {
  const int n_parts = config_.num_files * config_.partitions_per_file;
  data_volumes_.reserve(static_cast<std::size_t>(n_parts));
  for (int i = 0; i < n_parts; ++i) {
    data_volumes_.push_back(std::make_unique<storage::DiskVolume>(
        sim_, "data" + std::to_string(i), config_.data_disk));
  }
  if (config_.log_medium == tp::LogMedium::kDisk) {
    audit_volumes_.reserve(static_cast<std::size_t>(config_.num_adps));
    for (int i = 0; i < config_.num_adps; ++i) {
      audit_volumes_.push_back(std::make_unique<storage::DiskVolume>(
          sim_, "audit" + std::to_string(i), config_.audit_disk));
    }
  }
}

void Rig::BuildPm() {
  if (config_.pm_device != PmDeviceKind::kNone) {
    // Size each shard's devices to hold one log stream per ADP plus the
    // TMF TCB region with headroom (region alignment + metadata).
    const std::uint64_t needed =
        static_cast<std::uint64_t>(config_.num_adps) *
            (config_.pm_log_region_bytes + 4096) +
        (8ull << 20);
    config_.npmu.capacity_bytes =
        std::max(config_.npmu.capacity_bytes, needed);
  }
  pm_ = std::make_unique<pm::PmPlane>(*cluster_, config_.pm_device,
                                      config_.num_pm_shards, config_.npmu);
  pm_->Start();
}

void Rig::BuildAdps() {
  for (int i = 0; i < config_.num_adps; ++i) {
    const std::string service = Catalog::AdpName(i);
    const int cpu = i % config_.num_cpus;
    const int backup_cpu = (cpu + 1) % config_.num_cpus;
    auto make_device = [&]() -> std::unique_ptr<tp::LogDevice> {
      if (config_.log_medium == tp::LogMedium::kDisk) {
        return std::make_unique<tp::DiskLogDevice>(
            *audit_volumes_[static_cast<std::size_t>(i)], config_.disk_log);
      }
      if (config_.num_pm_shards > 1) {
        // Multi-log mode: one stream per shard, placed pinned (stream k
        // on shard k's pair), merged at recovery.
        tp::ShardedPmLogConfig sh_cfg;
        sh_cfg.map = pm_->shard_map();
        sh_cfg.region_prefix = "audit-" + service + "-s";
        sh_cfg.region_bytes = config_.pm_log_region_bytes;
        sh_cfg.offload = config_.pm_offload;
        return std::make_unique<tp::ShardedPmLogDevice>(sh_cfg);
      }
      tp::PmLogConfig pm_cfg;
      pm_cfg.pmm_service = "$PMM";
      pm_cfg.region_name = "audit-" + service;
      pm_cfg.region_bytes = config_.pm_log_region_bytes;
      pm_cfg.offload = config_.pm_offload;
      return std::make_unique<tp::PmLogDevice>(pm_cfg);
    };
    tp::AdpProcess& primary = sim_.AdoptStopped<tp::AdpProcess>(
        *cluster_, cpu, service, service + "-P", make_device());
    tp::AdpProcess& backup = sim_.AdoptStopped<tp::AdpProcess>(
        *cluster_, backup_cpu, service, service + "-B", make_device());
    nsk::StartPair(primary, backup);
    adp_primaries_.push_back(&primary);
    adp_backups_.push_back(&backup);
  }
}

void Rig::BuildTmf() {
  tp::TmfConfig tmf_cfg;
  tmf_cfg.pm_tcb = config_.pm_tcb && config_.pm_device != PmDeviceKind::kNone;
  tmf_cfg.master_adp = Catalog::AdpName(0);
  tmf_cfg.resolve_timeout = config_.tmf_resolve_timeout;
  if (tmf_cfg.pm_tcb && config_.num_pm_shards > 1) {
    // The TCB region is placed like any other region: wherever the
    // shard map routes its name.
    tmf_cfg.pmm_service = pm_->shard_map().ServiceFor(tp::kTmfTcbRegion);
  }
  auto [p, b] = nsk::SpawnPair<tp::TmfProcess>(
      *cluster_, tp::kTmfService, 0, 1 % config_.num_cpus, tmf_cfg);
  tmf_primary_ = p;
  tmf_backup_ = b;
}

void Rig::BuildDp2s() {
  for (int f = 0; f < config_.num_files; ++f) {
    for (int part = 0; part < config_.partitions_per_file; ++part) {
      const int idx = f * config_.partitions_per_file + part;
      const int cpu = idx % config_.num_cpus;
      const std::string service = Catalog::Dp2Name(f, part);
      const std::string adp = Catalog::AdpName(cpu % config_.num_adps);
      tp::Dp2Config dp2_cfg;
      dp2_cfg.adp_service = adp;
      dp2_cfg.force_audit_each_write = config_.force_audit_per_insert;
      dp2_cfg.data_volume = data_volumes_[static_cast<std::size_t>(idx)].get();
      dp2_cfg.file_id = static_cast<std::uint32_t>(f);
      dp2_cfg.partition = static_cast<std::uint32_t>(part);
      dp2_cfg.partitions_per_file =
          static_cast<std::uint32_t>(config_.partitions_per_file);
      auto [p, b] = nsk::SpawnPair<tp::Dp2Process>(
          *cluster_, service, cpu, (cpu + 1) % config_.num_cpus, dp2_cfg);
      dp2_primaries_.push_back(p);
      dp2_backups_.push_back(b);
      catalog_.SetRoute(f, part, db::PartitionRoute{service, adp});
    }
  }
}

std::vector<storage::DiskVolume*> Rig::data_volumes() noexcept {
  std::vector<storage::DiskVolume*> out;
  out.reserve(data_volumes_.size());
  for (auto& v : data_volumes_) out.push_back(v.get());
  return out;
}

std::vector<storage::DiskVolume*> Rig::audit_volumes() noexcept {
  std::vector<storage::DiskVolume*> out;
  out.reserve(audit_volumes_.size());
  for (auto& v : audit_volumes_) out.push_back(v.get());
  return out;
}

void Rig::KillAdpPrimary(int index) {
  adp_primaries_.at(static_cast<std::size_t>(index))->Kill();
}

void Rig::KillTmfPrimary() { tmf_primary_->Kill(); }

void Rig::KillPmmPrimary(int shard) {
  if (shard >= 0 && shard < num_pm_shards()) pm_->pmm(shard)->Kill();
}

void Rig::PowerLoss() {
  auto kill = [](auto* p) {
    if (p != nullptr && p->alive()) p->Kill();
  };
  for (auto* p : dp2_primaries_) kill(p);
  for (auto* p : dp2_backups_) kill(p);
  for (auto* p : adp_primaries_) kill(p);
  for (auto* p : adp_backups_) kill(p);
  kill(tmf_primary_);
  kill(tmf_backup_);
  pm_->PowerLoss();
  for (auto& v : data_volumes_) v->PowerFail();
  for (auto& v : audit_volumes_) v->PowerFail();
}

void Rig::RestartAfterPowerLoss() {
  auto restart = [](auto* p) {
    if (p != nullptr && !p->alive()) p->Restart();
  };
  pm_->RestartAfterPowerLoss();
  for (auto* p : adp_primaries_) restart(p);
  for (auto* p : adp_backups_) restart(p);
  restart(tmf_primary_);
  restart(tmf_backup_);
  for (auto* p : dp2_primaries_) restart(p);
  for (auto* p : dp2_backups_) restart(p);
}

Rig::PersistenceAccounting Rig::Account() const {
  PersistenceAccounting acct;
  for (const auto& v : data_volumes_) acct.disk_bytes_written += v->bytes_written();
  for (const auto& v : audit_volumes_) {
    acct.disk_bytes_written += v->bytes_written();
  }
  acct.pm_bytes_written = pm_->bytes_persisted();
  auto add_pair = [&](const nsk::PairMember* m) {
    if (m == nullptr) return;
    acct.checkpoint_bytes += m->checkpoint_bytes();
    acct.checkpoint_messages += m->checkpoints_sent();
  };
  for (auto* p : dp2_primaries_) add_pair(p);
  for (auto* p : dp2_backups_) add_pair(p);
  for (auto* p : adp_primaries_) add_pair(p);
  for (auto* p : adp_backups_) add_pair(p);
  add_pair(tmf_primary_);
  add_pair(tmf_backup_);
  for (int s = 0; s < pm_->num_shards(); ++s) {
    add_pair(pm_->pmm(s));
    add_pair(pm_->pmm_backup(s));
  }
  acct.audit_flushes = sim_.metrics().CounterValue("adp.flushes");
  acct.audit_bytes = sim_.metrics().CounterValue("adp.flushed_bytes");
  return acct;
}

}  // namespace ods::workload
