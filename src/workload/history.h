// One transaction history for every transaction-level crash harness, and
// the one post-recovery check of the three transaction contracts (DESIGN
// §5b):
//
//   * an ACKED commit is durable: every key it last wrote reads back
//     with its value;
//   * a DEFINITE ABORT is never visible: a transaction that never sent
//     its commit (explicitly aborted, or left open when its driver died),
//     or whose commit was answered kAborted, shows none of its values;
//   * an IN-DOUBT commit is all-or-nothing: a transaction whose commit was
//     sent but neither acked nor answered kAborted (another error, or no
//     reply) shows either all of its values or none.
//
// A harness records as it runs — Begin, then Write before each Insert is
// sent, then Commit through the history — and calls Check once recovery
// has settled. A key's expectation comes from its LAST recorded writer,
// so a driver may retry a key after a failed commit. Keys written by more
// than one recorded transaction are checked only when their last writer
// is acked: an earlier writer's outcome could still decide their value.
// A key counts as showing none of a transaction's values only when its
// read finds no record or times out on a lock (kNotFound, kAborted); any
// other error, or other bytes, is a violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/txn_client.h"
#include "sim/task.h"

namespace ods::workload {

class Rig;

class History {
 public:
  // Opens a transaction record and returns its history index. The index,
  // not the TMF txn id, names it: a TMF that recovers its state by
  // scanning the master trail can reissue ids after a power loss.
  std::size_t Begin();

  // Records that transaction `t` writes `value` at (file, key). Call it
  // before the Insert is sent: an insert in flight at a crash may land.
  void Write(std::size_t t, std::uint32_t file, std::uint64_t key,
             std::vector<std::byte> value);

  // Sends `txn`'s commit through `client`. From the send on, `t` is
  // in-doubt; it becomes acked only when the reply is ok, and a definite
  // abort when the reply is kAborted. A transaction that never gets here
  // is a definite abort.
  sim::Task<Status> Commit(std::size_t t, db::TxnClient& client,
                           db::Transaction& txn);

  // Transactions whose commit was acked so far.
  [[nodiscard]] std::size_t acked() const;

  // Reads every recorded key back through a fresh checker process, then
  // proves liveness: the read transaction commits, and a new one inserts
  // and commits a probe key no recorded transaction wrote. Drives the
  // rig's simulation until the checker finishes. It judges the history
  // as recorded when it is called; what a still-running driver records
  // meanwhile is not checked. Returns the violations; empty means every
  // contract held.
  [[nodiscard]] std::vector<std::string> Check(Rig& rig) const;

 private:
  enum class Outcome : std::uint8_t { kAborted, kInDoubt, kAcked };
  struct Record {
    std::size_t txn = 0;
    std::uint32_t file = 0;
    std::uint64_t key = 0;
    std::vector<std::byte> value;
  };

  std::vector<Outcome> outcomes_;  // by history index
  std::vector<Record> writes_;     // in record order
};

}  // namespace ods::workload
