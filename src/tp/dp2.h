// DP2 — the database writer / disk process (§1.2): "The database writer
// mutates the data stored on data volumes on behalf of transactions. To
// ensure durability of those changes, it sends them off to a log writer."
//
// One DP2 process pair manages one data-volume partition of the record
// files. The write path per record:
//   1. exclusive record lock (strict 2PL),
//   2. apply to the in-memory table, remembering the undo image,
//   3. send the audit delta to this partition's ADP (acknowledged after
//      the ADP has checkpointed it),
//   4. checkpoint the mutation to the DP2 backup,
//   5. reply to the requester.
// Commit/abort arrives later as kDp2Resolve from the TMF: on commit the
// record becomes flushable to the data volume (background, off the
// commit path); on abort the undo image is restored. Steps 3 and 4 are
// the "repeated, wasteful and uncoordinated persistence actions" (§3.4)
// that experiment E7 counts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "nsk/pair.h"
#include "storage/disk.h"
#include "tp/audit.h"
#include "tp/lock.h"

namespace ods::tp {

struct Dp2Config {
  std::string adp_service;                    // this partition's log writer
  storage::DiskVolume* data_volume = nullptr; // lazily flushed
  // Fine-grained persistence ablation: force each write's audit record
  // to durable media synchronously instead of buffering until commit
  // (§3.4 — "too cumbersome and too expensive to persist with the
  // traditional I/O programming model", but cheap with PM).
  bool force_audit_each_write = false;
  sim::SimDuration apply_cpu = sim::Microseconds(20);
  // Per-record CPU charged by kDp2Scan (reading is cheaper than the full
  // apply/audit path of a write).
  sim::SimDuration scan_cpu = sim::Microseconds(2);
  sim::SimDuration lock_timeout = sim::Milliseconds(500);
  sim::SimDuration flush_interval = sim::Milliseconds(250);
  bool background_flush = true;
  // This partition's catalog identity. Cold-recovery redo first asks the
  // ADP for a replay source (kAdpReplaySource): an active NPMU then ships
  // only this partition's committed updates (ShipReplay), filtered by
  // these fields through the catalog's routing (db::Catalog::Route /
  // common/keyhash.h). Any other log device refuses, and any failure
  // falls back to redo from the durable trail the ADP reads off its
  // device (kAdpReadLog).
  std::uint32_t file_id = 0;             // this DP2's file
  std::uint32_t partition = 0;           // ... and partition within it
  std::uint32_t partitions_per_file = 0; // catalog partition count
};

class Dp2Process : public nsk::PairMember {
 public:
  Dp2Process(nsk::Cluster& cluster, int cpu_index, std::string service_name,
             std::string member_name, Dp2Config config);

  [[nodiscard]] std::uint64_t inserts() const noexcept { return inserts_; }
  [[nodiscard]] std::uint64_t aborts_undone() const noexcept {
    return aborts_undone_;
  }
  [[nodiscard]] std::size_t record_count() const noexcept {
    return table_.size();
  }
  [[nodiscard]] sim::SimDuration last_recovery_time() const noexcept {
    return last_recovery_time_;
  }

  // Test/bench access to committed record state (no latency modelling).
  [[nodiscard]] const std::vector<std::byte>* Peek(LockKey key) const;

 protected:
  sim::Task<void> HandleRequest(nsk::Request req) override;
  void ApplyCheckpoint(std::span<const std::byte> delta) override;
  std::vector<std::byte> SnapshotState() override;
  void InstallState(std::span<const std::byte> snapshot) override;
  sim::Task<void> OnBecomePrimary(bool via_takeover) override;

  void OnRestart() override {
    PairMember::OnRestart();
    table_.clear();
    undo_.clear();
    dirty_.clear();
    locks_.Reset();
    volume_tail_ = 0;
    flusher_running_ = false;
    state_valid_ = false;
  }

 private:
  struct UndoEntry {
    LockKey key;
    std::optional<std::vector<std::byte>> old_value;  // nullopt = was absent
  };

  sim::Task<void> HandleWrite(nsk::Request& req);
  sim::Task<void> HandleRead(nsk::Request& req);
  sim::Task<void> HandleScan(nsk::Request& req);
  sim::Task<void> HandleResolve(nsk::Request& req);
  sim::Task<void> FlushLoop();
  // Cold-recovery redo via device ShipReplay; true = redo complete.
  sim::Task<bool> OffloadReplay();
  // Cold-recovery redo from the durable trail the ADP reads off its
  // device (kAdpReadLog).
  sim::Task<void> RedoFromTrail();

  // Applies a mutation locally (both roles use this).
  void ApplyWrite(std::uint64_t txn, LockKey key,
                  std::vector<std::byte> value);
  void Resolve(std::uint64_t txn, bool committed);

  Dp2Config config_;
  LockManager locks_;

  std::map<LockKey, std::vector<std::byte>> table_;
  std::map<std::uint64_t, std::vector<UndoEntry>> undo_;
  std::set<LockKey> dirty_;           // committed but not yet on the volume
  std::uint64_t volume_tail_ = 0;     // append offset on the data volume
  bool state_valid_ = false;
  bool flusher_running_ = false;

  std::uint64_t inserts_ = 0;
  std::uint64_t aborts_undone_ = 0;
  sim::SimDuration last_recovery_time_{0};
};

}  // namespace ods::tp
