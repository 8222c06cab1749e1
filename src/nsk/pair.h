// Process pairs (Gray's classic fault-tolerance pattern, [1] in the
// paper): a primary process checkpoints state changes to a backup before
// externalizing them; when the primary fails, the backup takes over "in a
// second or less" with no loss of externalized state.
//
// PairMember is the base class for the paper's critical services — the
// database writer (DP2), the log writer (ADP) and the persistent memory
// manager (PMM). Roles are determined dynamically: the first member to
// start owns the service name; a member that starts while another owns it
// becomes the backup, resyncs a state snapshot from the primary, applies
// checkpoints, and promotes itself when the primary dies.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nsk/process.h"

namespace ods::nsk {

// Message kinds reserved for pair-internal traffic.
inline constexpr std::uint32_t kMsgCheckpoint = 0xF001;
inline constexpr std::uint32_t kMsgBackupUp = 0xF002;
inline constexpr std::uint32_t kMsgPeerDied = 0xF003;

class PairMember : public NskProcess {
 public:
  // `member_name` must be unique ("$ADP0-P"); `service_name` is shared by
  // both members ("$ADP0") and owned by whichever is primary.
  PairMember(Cluster& cluster, int cpu_index, std::string service_name,
             std::string member_name);

  [[nodiscard]] bool is_primary() const noexcept { return primary_; }
  [[nodiscard]] const std::string& service_name() const noexcept {
    return service_name_;
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept {
    return checkpoint_bytes_;
  }
  [[nodiscard]] std::uint64_t checkpoints_sent() const noexcept {
    return checkpoints_sent_;
  }
  [[nodiscard]] PairMember* peer() const noexcept { return peer_; }
  [[nodiscard]] bool backup_up() const noexcept { return peer_up_; }

 protected:
  sim::Task<void> Main() final;

  // ---- service hooks ----

  // Handles one client request while primary. By default each request
  // runs in its own fiber (NSK servers are internally concurrent; a
  // request blocked on a lock must not stall lock releases). Services
  // with ordering-sensitive control planes return true from
  // serial_requests() to process one request at a time instead.
  virtual sim::Task<void> HandleRequest(Request req) = 0;
  [[nodiscard]] virtual bool serial_requests() const noexcept {
    return false;
  }

  // Applies a checkpoint delta while backup.
  virtual void ApplyCheckpoint(std::span<const std::byte> delta) = 0;

  // Full-state snapshot/install for backup resynchronization.
  virtual std::vector<std::byte> SnapshotState() = 0;
  virtual void InstallState(std::span<const std::byte> snapshot) = 0;

  // Server-specific recovery performed whenever this member becomes the
  // primary — at initial/restart startup (via_takeover=false) or when
  // promoted after the primary died (via_takeover=true). E.g. the
  // disk-based ADP scans its log tail; the PM-based ADP reads its control
  // block from the NPMU. This is where the paper's MTTR difference lives.
  virtual sim::Task<void> OnBecomePrimary(bool via_takeover) {
    (void)via_takeover;
    co_return;
  }

  // ---- primary-side helper ----

  // Sends a state delta to the backup and waits for the ack; per §1.3 the
  // primary must do this before externalizing the change. Returns OK
  // (without sending) when no backup is up — the service then runs
  // unprotected, as NSK does.
  sim::Task<Status> CheckpointToBackup(std::vector<std::byte> delta);

  // Subclass OnRestart overrides must call this (it resets role state).
  void OnRestart() override {
    primary_ = false;
    peer_up_ = false;
  }

 private:
  friend void StartPair(PairMember& primary, PairMember& backup);

  sim::Task<void> RunPrimary(bool via_takeover);
  sim::Task<void> RunBackup();
  void WatchPeer();

  std::string service_name_;
  PairMember* peer_ = nullptr;
  bool primary_ = false;
  bool peer_up_ = false;
  std::uint64_t checkpoint_bytes_ = 0;
  std::uint64_t checkpoints_sent_ = 0;
};

// Wires two constructed members as peers and starts them, primary first:
// the first member to start claims the service name. For pairs whose
// members are built from different arguments (e.g. each ADP member owns
// its own log device); otherwise use SpawnPair.
void StartPair(PairMember& primary, PairMember& backup);

// Adopts "<service>-P" on `primary_cpu` and "<service>-B" on
// `backup_cpu`, both constructed from `args`, then StartPair()s them.
// Returns {primary, backup}.
template <typename P, typename... Args>
std::pair<P*, P*> SpawnPair(Cluster& cluster, const std::string& service,
                            int primary_cpu, int backup_cpu,
                            const Args&... args) {
  P& primary = cluster.sim().AdoptStopped<P>(cluster, primary_cpu, service,
                                             service + "-P", args...);
  P& backup = cluster.sim().AdoptStopped<P>(cluster, backup_cpu, service,
                                            service + "-B", args...);
  StartPair(primary, backup);
  return {&primary, &backup};
}

}  // namespace ods::nsk
