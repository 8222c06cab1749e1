// PmQueue — a durable FIFO over a PM region.
//
// §2 motivates it directly: "Streams of buy and sell orders arrive from
// brokerage systems and must be queued and matched to generate trades."
// With a disk, queuing durably per order is a millisecond each; with PM
// it is one chained RDMA write. The queue survives power loss and process
// crashes: a consumer restarted in a different address space resumes at
// the durable head.
//
// Region layout:
//   [control block (64B): magic | head | tail | crc]
//   [ring of framed entries: len | payload | crc]
//
// Durability protocol: an enqueue is one ring commit (PmRegion::CommitRing)
// — the entry bytes, then the control block advancing the tail, in one
// chained RDMA write that lands in order and aborts on error, so an
// interrupted enqueue is invisible. Dequeue advances the head in the
// control block after the consumer has the payload; a crash between the
// two re-delivers the entry (at-least-once, like any durable queue without
// consumer-side dedup). One fiber at a time drives a queue: each control
// block is encoded from the in-memory head and tail when it is posted.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pm/client.h"

namespace ods::pm {

class PmQueue {
 public:
  static constexpr std::uint64_t kControlBytes = 64;

  explicit PmQueue(PmRegion region)
      : region_(std::move(region)),
        capacity_(region_.size() - kControlBytes) {}

  // Initializes an empty queue in the region.
  sim::Task<Status> Format();
  // Recovers head/tail from the durable control block (fresh address
  // space / post-crash).
  sim::Task<Status> Open();

  // Durably appends one entry; returns once it is persistent.
  sim::Task<Status> Enqueue(std::vector<std::byte> payload);

  // Removes and returns the oldest entry, durably advancing the head;
  // returns kNotFound when the queue is empty.
  sim::Task<Result<std::vector<std::byte>>> Dequeue();

  // Reads the oldest entry without consuming it.
  sim::Task<Result<std::vector<std::byte>>> Peek();

  [[nodiscard]] std::uint64_t size_bytes() const noexcept {
    return tail_ - head_;
  }
  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  [[nodiscard]] std::uint64_t enqueued() const noexcept { return enqueued_; }
  [[nodiscard]] std::uint64_t dequeued() const noexcept { return dequeued_; }

 private:
  [[nodiscard]] static std::vector<std::byte> EncodeControl(
      std::uint64_t head, std::uint64_t tail);
  // Ring helper: logical offset -> region offset.
  [[nodiscard]] std::uint64_t Phys(std::uint64_t logical) const noexcept {
    return kControlBytes + logical % capacity_;
  }
  sim::Task<Result<std::vector<std::byte>>> RingRead(std::uint64_t logical,
                                                     std::uint64_t len);

  PmRegion region_;
  std::uint64_t capacity_;
  std::uint64_t head_ = 0;  // logical, monotonic
  std::uint64_t tail_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dequeued_ = 0;
};

}  // namespace ods::pm
