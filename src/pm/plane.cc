#include "pm/plane.h"

#include <algorithm>
#include <string>

#include "nsk/pair.h"

namespace ods::pm {

PmPlane::PmPlane(nsk::Cluster& cluster, PmDeviceKind kind, int num_shards,
                 NpmuConfig npmu) {
  if (kind == PmDeviceKind::kNone) return;
  const int n_shards =
      kind == PmDeviceKind::kNpmuPair ? std::max(num_shards, 1) : 1;
  const int n_cpus = cluster.num_cpus();
  sim::Simulation& sim = cluster.sim();
  shard_map_ = ShardMap("$PMM", n_shards);
  if (kind == PmDeviceKind::kPmp) {
    pmp_ = &sim.AdoptStopped<Pmp>(cluster, n_cpus - 1, "$PMP", npmu);
  }
  shards_.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) {
    const std::string suffix = n_shards == 1 ? "" : std::to_string(s);
    Shard& shard = shards_.emplace_back();
    auto device = [&](std::unique_ptr<Npmu>& owned, const std::string& name) {
      if (pmp_ != nullptr) return PmDevice(*pmp_);
      owned = std::make_unique<Npmu>(cluster.fabric(), name + suffix, npmu);
      return PmDevice(*owned);
    };
    const PmDevice a = device(shard.npmu_a, "npmu-a");
    const PmDevice b = device(shard.npmu_b, "npmu-b");
    const std::string service = shard_map_.ServiceForShard(s);
    const std::string volume = n_shards == 1 ? "$PM1" : "$PM1-" + suffix;
    const ShardIdentity identity{static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(n_shards)};
    shard.pmm_primary = &sim.AdoptStopped<PmManager>(
        cluster, (2 * s) % n_cpus, service, service + "-P", a, b, volume,
        identity);
    shard.pmm_backup = &sim.AdoptStopped<PmManager>(
        cluster, (2 * s + 1) % n_cpus, service, service + "-B", a, b, volume,
        identity);
  }
}

void PmPlane::Start() {
  if (pmp_ != nullptr) pmp_->Start();
  for (Shard& shard : shards_) {
    nsk::StartPair(*shard.pmm_primary, *shard.pmm_backup);
  }
}

std::uint64_t PmPlane::bytes_persisted() const noexcept {
  std::uint64_t bytes = pmp_ == nullptr ? 0 : pmp_->bytes_persisted();
  for (const Shard& shard : shards_) {
    if (shard.npmu_a) bytes += shard.npmu_a->bytes_persisted();
    if (shard.npmu_b) bytes += shard.npmu_b->bytes_persisted();
  }
  return bytes;
}

void PmPlane::PowerLoss() {
  auto kill = [](sim::Process* p) {
    if (p != nullptr && p->alive()) p->Kill();
  };
  for (Shard& shard : shards_) {
    kill(shard.pmm_primary);
    kill(shard.pmm_backup);
  }
  kill(pmp_);
  for (Shard& shard : shards_) {
    if (shard.npmu_a) shard.npmu_a->PowerFail();
    if (shard.npmu_b) shard.npmu_b->PowerFail();
  }
}

void PmPlane::RestartAfterPowerLoss() {
  auto restart = [](sim::Process* p) {
    if (p != nullptr && !p->alive()) p->Restart();
  };
  restart(pmp_);
  for (Shard& shard : shards_) {
    restart(shard.pmm_primary);
    restart(shard.pmm_backup);
  }
}

}  // namespace ods::pm
