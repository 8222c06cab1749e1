// ADP — the audit data process (log writer), §1.2 and §4.2.
//
// Database writers send audit deltas here (kAdpBuffer); the transaction
// monitor forces the trail to durable media at commit (kAdpFlush). The
// ADP is a process pair: buffered audit is checkpointed to the backup
// BEFORE it is acknowledged, so a primary failure loses no acknowledged
// record (§1.3's externalization rule).
//
// The durable medium is pluggable (tp/log_device.h):
//   * DiskLogDevice — the unmodified NSK ADP flushing to audit volumes;
//   * PmLogDevice — the paper's "modified ADP [that] synchronously writes
//     database log data to persistent memory", making "the database log
//     persistent immediately" so "transactions can commit faster".
//
// Appends are serial, one in flight at a time, and each takes everything
// buffered so far (group commit). When they start is the device's choice
// (LogDevice::writes_behind): the PM devices write behind, starting an
// append whenever audit is buffered and none is in flight, so a commit's
// flush waits only for its own last records; the disk device appends
// only for a commit's flush, and requests arriving while one is in
// flight ride the next. That is what keeps the multi-driver disk
// baseline competitive at high boxcar degrees (E1's declining speedup).
// A flush is acked only once every byte up to its own records is
// durable; a failed append keeps its bytes buffered for the next one.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "nsk/pair.h"
#include "tp/audit.h"
#include "tp/log_device.h"

namespace ods::tp {

// Counts go to the metrics registry: "adp.flushes", "adp.flushed_bytes"
// and "adp.coalesced_checkpoints" summed over every ADP of the run, and
// one flush-latency histogram per trail, "adp.<service>.flush_latency_ns",
// shared by the pair's primary and backup.
class AdpProcess : public nsk::PairMember {
 public:
  AdpProcess(nsk::Cluster& cluster, int cpu_index, std::string service_name,
             std::string member_name, std::unique_ptr<LogDevice> device);

  // ---- accounting ----
  // This trail's flush latency: commit-flush request to durable ack.
  [[nodiscard]] const LatencyHistogram& flush_latency() const noexcept {
    return *flush_latency_;
  }
  [[nodiscard]] sim::SimDuration last_recovery_time() const noexcept {
    return last_recovery_time_;
  }
  [[nodiscard]] std::uint64_t next_lsn() const noexcept { return next_lsn_; }
  [[nodiscard]] LogDevice& device() noexcept { return *device_; }

 protected:
  sim::Task<void> HandleRequest(nsk::Request req) override;
  void ApplyCheckpoint(std::span<const std::byte> delta) override;
  std::vector<std::byte> SnapshotState() override;
  void InstallState(std::span<const std::byte> snapshot) override;
  sim::Task<void> OnBecomePrimary(bool via_takeover) override;

  void OnRestart() override {
    PairMember::OnRestart();
    buffer_.clear();
    buffer_marks_.clear();
    flush_waiters_.clear();
    flusher_running_ = false;
    durable_tail_ = 0;
    next_lsn_ = 1;
    state_valid_ = false;
    ckpt_acked_tail_ = 0;
    durable_confirmed_ = 0;
    flush_intent_ = 0;
    ckpt_pending_.clear();
    ckpt_pending_marks_.clear();
    ckpt_waiters_.clear();
    ckpt_pump_running_ = false;
    log_read_.reset();
    device_->Reset();
  }

 private:
  // Parses serialized records from `payload`, assigns LSNs, frames them
  // into buffer_ (starting an append if the device writes behind),
  // checkpoints the delta and returns the logical end of these records
  // once the backup holds them. Refuses (kInvalidArgument) a batch larger
  // than the device's largest append. When `last_txn` is non-null it
  // receives the txn id of the batch's final record — the op-id used to
  // correlate the flush that makes this batch durable.
  sim::Task<Result<std::uint64_t>> BufferRecords(
      std::span<const std::byte> payload, std::uint64_t* last_txn = nullptr);

  void EnsureFlusher();
  // Runs while a flush waits or, on a write-behind device, while audit is
  // buffered; exits after a failed append (the next request restarts it).
  sim::Task<void> FlushLoop();
  [[nodiscard]] std::uint64_t buffered_tail() const noexcept {
    return durable_tail_ + buffer_.size();
  }
  void EnsureCkptPump();
  sim::Task<void> CkptPumpLoop();
  // Advances durable_tail_ to `tail` (never backwards) and trims the
  // now-durable prefix off buffer_: the primary once an append lands,
  // the backup on a confirm.
  void AdvanceDurable(std::uint64_t tail);

  std::unique_ptr<LogDevice> device_;

  // Volatile primary state, checkpointed to the backup.
  // Framed records not yet durable: [durable_tail_, buffered_tail()). An
  // append writes a copy of a prefix and trims it only once durable, so
  // a failed append leaves its bytes to be re-written at the same offset.
  std::vector<std::byte> buffer_;
  // Record-cohort ends within buffer_ (ascending, relative offsets; the
  // last is buffer_.size()) — where an append longer than the device's
  // limit is cut, and the stripe-cut boundaries handed to the device so
  // a sharded flush never splits a record across streams.
  std::vector<std::uint64_t> buffer_marks_;
  std::uint64_t durable_tail_ = 0;    // logical bytes durable on media
  std::uint64_t next_lsn_ = 1;
  bool state_valid_ = false;  // false until recovered or resynced
  // Highest logical tail covered by an ACKED kCkptBuffer checkpoint.
  // Checkpoint delivery is not FIFO (a small confirm can overtake a large
  // buffer delta on the wire), so durable confirms sent to the backup are
  // capped here — the backup must never trim bytes it has not received.
  std::uint64_t ckpt_acked_tail_ = 0;
  // Highest durable tail the backup has been told to trim to.
  std::uint64_t durable_confirmed_ = 0;
  // Backup side: highest flush intent received (diagnostics at takeover).
  std::uint64_t flush_intent_ = 0;

  struct FlushWaiter {
    std::uint64_t target;  // durable_tail_ must reach this
    nsk::Request request;
    sim::SimTime arrived;  // of the kAdpFlush request
    std::uint64_t op_id = 0;  // trace correlation id (committing txn)
  };
  std::deque<FlushWaiter> flush_waiters_;
  // Acks `w` as durable at durable_tail_ and records its latency.
  void RespondDurable(FlushWaiter& w);
  bool flusher_running_ = false;

  // Buffer-checkpoint coalescing: framed bytes staged for the next
  // kCkptBuffer checkpoint, their cohort ends (relative offsets) and the
  // fibers awaiting its ack.
  std::vector<std::byte> ckpt_pending_;
  std::vector<std::uint64_t> ckpt_pending_marks_;
  std::deque<sim::Promise<Status>> ckpt_waiters_;
  bool ckpt_pump_running_ = false;

  // The kAdpReadLog device read in flight: the device tail it covers
  // and the requests riding it.
  struct LogRead {
    std::uint64_t tail;
    std::vector<nsk::Request> readers;
  };
  std::shared_ptr<LogRead> log_read_;

  // Registry handles, resolved at construction.
  Counter* flushes_;
  Counter* flushed_bytes_;
  Counter* coalesced_checkpoints_;
  LatencyHistogram* flush_latency_;
  sim::SimDuration last_recovery_time_{0};
};

}  // namespace ods::tp
