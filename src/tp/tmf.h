// TMF — the transaction monitor (§1.2): "keeps track of transactions as
// they enter and leave the system ... ensures that the changes related to
// that transaction sent to the log writer by the database writers are
// flushed to permanent media before the transaction is committed. It also
// notates transaction states (e.g., commit or abort) in the audit trail."
//
// Commit protocol:
//   1. TCB -> committing (checkpointed; optionally persisted to PM),
//   2. flush every involved ADP in parallel, plus the master ADP
//      (appended last to the list when no participant logs to it) — the
//      commit record rides every one of those flushes; a failed flush is
//      re-sent, and one that never lands leaves the transaction
//      committing and the client answered in doubt (never aborted),
//   3. TCB -> committed, reply to the client,
//   4. resolve fanout to the involved DP2s (release locks, undo drop).
//
// With `pm_tcb` enabled, every TCB transition is also written
// synchronously to a small PM region (§3.4 "being able to update ...
// transaction control blocks at a fine grain reduces uncertainty
// regarding the state of the database, and eliminates costly heuristic
// searching of audit trail information, leading to shorter MTTR").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nsk/pair.h"
#include "tp/log_device.h"

namespace ods::tp {

enum class TxnState : std::uint32_t {
  kActive = 1,
  kCommitting = 2,
  kCommitted = 3,
  kAborted = 4,
};

// The PM region holding the TCB trail when `pm_tcb` is on.
inline constexpr char kTmfTcbRegion[] = "tmf-tcb";

struct TmfConfig {
  // Synchronously persist TCB transitions to persistent memory.
  bool pm_tcb = false;
  std::string pmm_service = "$PMM";  // owner of kTmfTcbRegion
  // Master audit trail (first ADP): every outcome record lands there,
  // and scan-based state recovery reads it when pm_tcb is off.
  std::string master_adp;
  sim::SimDuration resolve_timeout = sim::Milliseconds(500);
};

class TmfProcess : public nsk::PairMember {
 public:
  TmfProcess(nsk::Cluster& cluster, int cpu_index, std::string service_name,
             std::string member_name, TmfConfig config);

  [[nodiscard]] sim::SimDuration last_recovery_time() const noexcept {
    return last_recovery_time_;
  }
  [[nodiscard]] TxnState StateOf(std::uint64_t txn) const noexcept {
    auto it = tcbs_.find(txn);
    return it == tcbs_.end() ? TxnState::kAborted : it->second;
  }

 protected:
  sim::Task<void> HandleRequest(nsk::Request req) override;
  void ApplyCheckpoint(std::span<const std::byte> delta) override;
  std::vector<std::byte> SnapshotState() override;
  void InstallState(std::span<const std::byte> snapshot) override;
  sim::Task<void> OnBecomePrimary(bool via_takeover) override;

  void OnRestart() override {
    PairMember::OnRestart();
    tcbs_.clear();
    next_txn_ = 1;
    state_valid_ = false;
    if (tcb_log_ != nullptr) tcb_log_->Reset();
  }

 private:
  sim::Task<void> HandleBegin(nsk::Request& req);
  sim::Task<void> HandleCommit(nsk::Request& req);
  sim::Task<void> HandleAbort(nsk::Request& req);

  // Records a TCB transition: checkpoint to backup + optional PM write.
  // Returns the PM write's status (ok without PM-resident TCBs).
  sim::Task<Status> NoteState(std::uint64_t txn, TxnState state);

  // Flushes all `adps` in parallel; the commit/abort record
  // `outcome_payload` rides every one of those flushes. A trail whose
  // flush fails is flushed again, up to kFlushAttempts in all. Returns
  // the last failure if some trail never succeeded.
  sim::Task<Status> FlushAudit(std::vector<std::string> adps,
                               std::vector<std::byte> outcome_payload);

  void ResolveFanout(std::uint64_t txn, bool committed,
                     const std::vector<std::string>& dp2s);

  TmfConfig config_;
  std::uint64_t next_txn_ = 1;
  std::map<std::uint64_t, TxnState> tcbs_;
  std::unique_ptr<PmLogDevice> tcb_log_;
  bool state_valid_ = false;
  // Registry handles: "tmf.commits" and "tmf.aborts".
  Counter* commits_;
  Counter* aborts_;
  sim::SimDuration last_recovery_time_{0};
};

}  // namespace ods::tp
