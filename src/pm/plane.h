// The persistence plane (§3.3, §4.3): the devices that hold persistent
// memory and the PMM process pairs that own them. This is the one place
// that decides device names, CPU placement, shard naming and start
// order, so the rig, the tests, the benches and the examples all stand
// up the same plane the same way.
//
//   * kNpmuPair: per shard s, a mirrored pair of hardware NPMUs
//     ("npmu-a<suffix>", "npmu-b<suffix>") owned by a PMM pair on CPUs
//     2s and 2s+1 (mod the cluster's CPU count). One shard uses no
//     suffix, service "$PMM" and volume "$PM1"; shard s of N > 1 uses
//     suffix s, service "$PMM<s>" and volume "$PM1-<s>".
//   * kPmp: the paper's prototype ("we ran a PMP on a 5th CPU") — one
//     unmirrored PMP on the cluster's last CPU, owned by one PMM pair on
//     CPUs 0 and 1. Always one shard.
//   * kNone: no plane (the disk-only rig).
//
// Endpoint ids and process adoption follow construction order, so the
// plane builds in a fixed order: the PMP, then per shard the two NPMUs,
// the PMM primary and the PMM backup.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nsk/cluster.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "pm/shard_map.h"

namespace ods::pm {

enum class PmDeviceKind {
  kNone,      // disk-only baseline
  kNpmuPair,  // mirrored hardware NPMUs
  kPmp,       // the paper's prototype: one PMP process on an extra CPU
};

class PmPlane {
 public:
  // Builds the devices and adopts the processes, all stopped. kPmp and
  // kNone ignore `num_shards` (one shard and none).
  PmPlane(nsk::Cluster& cluster, PmDeviceKind kind, int num_shards = 1,
          NpmuConfig npmu = {});

  // Starts the PMP, then wires and starts each shard's PMM pair. Separate
  // from construction so a caller can arm a fault plan or tracer first.
  void Start();

  [[nodiscard]] int num_shards() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] const ShardMap& shard_map() const noexcept {
    return shard_map_;
  }
  // The PMM members built as primary and backup; roles may swap later.
  [[nodiscard]] PmManager* pmm(int shard = 0) {
    return shards_.at(static_cast<std::size_t>(shard)).pmm_primary;
  }
  [[nodiscard]] PmManager* pmm_backup(int shard = 0) {
    return shards_.at(static_cast<std::size_t>(shard)).pmm_backup;
  }
  // Shard 0's mirrored NPMUs (kNpmuPair only).
  [[nodiscard]] Npmu& npmu_a() { return *shards_.at(0).npmu_a; }
  [[nodiscard]] Npmu& npmu_b() { return *shards_.at(0).npmu_b; }
  [[nodiscard]] Pmp* pmp() noexcept { return pmp_; }

  // Bytes landed on every device of the plane (persistence accounting).
  [[nodiscard]] std::uint64_t bytes_persisted() const noexcept;

  // Power loss: every PMM member and the PMP die; the NPMUs keep their
  // media but lose their ATTs (and any staged bytes).
  void PowerLoss();
  // Restarts the PMP, then every PMM member.
  void RestartAfterPowerLoss();

 private:
  struct Shard {
    std::unique_ptr<Npmu> npmu_a;
    std::unique_ptr<Npmu> npmu_b;
    PmManager* pmm_primary = nullptr;
    PmManager* pmm_backup = nullptr;
  };

  ShardMap shard_map_;
  Pmp* pmp_ = nullptr;
  std::vector<Shard> shards_;
};

}  // namespace ods::pm
