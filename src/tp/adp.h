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
// Flushes use group commit: requests arriving while a flush is in flight
// ride the next one. This is what keeps the multi-driver disk baseline
// competitive at high boxcar degrees (E1's declining speedup).
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
    buffered_tail_ = 0;
    ckpt_acked_tail_ = 0;
    durable_confirmed_ = 0;
    flush_intent_ = 0;
    ckpt_pending_.clear();
    ckpt_waiters_.clear();
    ckpt_pump_running_ = false;
    log_read_.reset();
    device_->Reset();
  }

 private:
  // Parses serialized records from `payload`, assigns LSNs, frames them
  // into buffer_, checkpoints the delta, then calls done. When `last_txn`
  // is non-null it receives the txn id of the batch's final record — the
  // op-id used to correlate the flush that makes this batch durable.
  sim::Task<Status> BufferRecords(std::span<const std::byte> payload,
                                  std::uint64_t* last_txn = nullptr);

  void EnsureFlusher();
  sim::Task<void> FlushLoop();
  void EnsureCkptPump();
  sim::Task<void> CkptPumpLoop();
  // Backup side: advances durable_tail_ to `tail` (never backwards) and
  // trims the now-durable prefix off the pending buffer.
  void AdvanceDurable(std::uint64_t tail);

  std::unique_ptr<LogDevice> device_;

  // Volatile primary state, checkpointed to the backup.
  std::vector<std::byte> buffer_;     // framed records not yet durable
  // Record-cohort ends within buffer_ (ascending, relative offsets) —
  // the stripe-cut boundaries handed to the device so a sharded flush
  // never splits a record across streams.
  std::vector<std::uint64_t> buffer_marks_;
  std::uint64_t durable_tail_ = 0;    // logical bytes durable on media
  std::uint64_t next_lsn_ = 1;
  bool state_valid_ = false;  // false until recovered or resynced

  // Logical end of every byte ever framed into buffer_ (monotonic; equals
  // durable_tail_ + buffer_.size() except while a flush is in flight).
  std::uint64_t buffered_tail_ = 0;
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
    sim::SimTime enqueued;
    std::uint64_t op_id = 0;  // trace correlation id (committing txn)
  };
  std::deque<FlushWaiter> flush_waiters_;
  bool flusher_running_ = false;

  // Buffer-checkpoint coalescing: framed bytes staged for the next
  // kCkptBuffer checkpoint, and the fibers awaiting its ack.
  std::vector<std::byte> ckpt_pending_;
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
