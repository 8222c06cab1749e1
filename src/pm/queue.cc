#include "pm/queue.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/serialize.h"

namespace ods::pm {

using sim::Task;

namespace {
constexpr std::uint32_t kQueueMagic = 0x504D5121;  // "PMQ!"
}

std::vector<std::byte> PmQueue::EncodeControl(std::uint64_t head,
                                              std::uint64_t tail) {
  Serializer s;
  s.PutU32(kQueueMagic);
  s.PutU64(head);
  s.PutU64(tail);
  s.PutU32(Crc32c(s.bytes()));
  return std::move(s).Take();
}

Task<Status> PmQueue::Format() {
  head_ = tail_ = 0;
  co_return co_await region_.Write(0, EncodeControl(head_, tail_));
}

Task<Status> PmQueue::Open() {
  auto raw = co_await region_.Read(0, kControlBytes);
  if (!raw.ok()) co_return raw.status();
  Deserializer d(*raw);
  std::uint32_t magic = 0, stored = 0;
  std::uint64_t head = 0, tail = 0;
  if (!d.GetU32(magic) || magic != kQueueMagic || !d.GetU64(head) ||
      !d.GetU64(tail) || !d.GetU32(stored)) {
    co_return Status(ErrorCode::kDataLoss, "queue control block invalid");
  }
  Serializer check;
  check.PutU32(magic);
  check.PutU64(head);
  check.PutU64(tail);
  if (Crc32c(check.bytes()) != stored) {
    co_return Status(ErrorCode::kDataLoss, "queue control block corrupt");
  }
  if (tail < head || tail - head > capacity_) {
    co_return Status(ErrorCode::kDataLoss, "queue control block out of range");
  }
  head_ = head;
  tail_ = tail;
  co_return OkStatus();
}

Task<Result<std::vector<std::byte>>> PmQueue::RingRead(std::uint64_t logical,
                                                       std::uint64_t len) {
  const std::uint64_t phys = Phys(logical);
  const std::uint64_t first =
      std::min<std::uint64_t>(len, kControlBytes + capacity_ - phys);
  auto part1 = co_await region_.Read(phys, first);
  if (!part1.ok() || first == len) co_return part1;
  auto part2 = co_await region_.Read(kControlBytes, len - first);
  if (!part2.ok()) co_return part2.status();
  part1->insert(part1->end(), part2->begin(), part2->end());
  co_return std::move(*part1);
}

Task<Status> PmQueue::Enqueue(std::vector<std::byte> payload) {
  Serializer s;
  s.PutU32(static_cast<std::uint32_t>(payload.size()));
  s.PutBytes(payload);
  s.PutU32(Crc32c(payload));
  std::vector<std::byte> frame = std::move(s).Take();
  if (size_bytes() + frame.size() > capacity_) {
    co_return Status(ErrorCode::kResourceExhausted, "queue full");
  }
  // Entry first, tail pointer second, in one chain: an interrupted
  // enqueue never becomes visible.
  const std::uint64_t new_tail = tail_ + frame.size();
  Status st = co_await region_.CommitRing(kControlBytes, capacity_, tail_,
                                          std::move(frame),
                                          EncodeControl(head_, new_tail));
  if (!st.ok()) co_return st;
  tail_ = new_tail;
  ++enqueued_;
  co_return OkStatus();
}

Task<Result<std::vector<std::byte>>> PmQueue::Peek() {
  if (empty()) co_return Status(ErrorCode::kNotFound, "queue empty");
  auto header = co_await RingRead(head_, 4);
  if (!header.ok()) co_return header.status();
  Deserializer d(*header);
  std::uint32_t len = 0;
  if (!d.GetU32(len) || 4 + len + 4 > size_bytes()) {
    co_return Status(ErrorCode::kDataLoss, "queue entry header corrupt");
  }
  auto body = co_await RingRead(head_ + 4, len + 4);
  if (!body.ok()) co_return body.status();
  std::vector<std::byte> payload(
      body->begin(), body->begin() + static_cast<std::ptrdiff_t>(len));
  Deserializer t(std::span<const std::byte>(body->data() + len, 4));
  std::uint32_t stored = 0;
  (void)t.GetU32(stored);
  if (Crc32c(payload) != stored) {
    co_return Status(ErrorCode::kDataLoss, "queue entry CRC mismatch");
  }
  co_return payload;
}

Task<Result<std::vector<std::byte>>> PmQueue::Dequeue() {
  auto payload = co_await Peek();
  if (!payload.ok()) co_return payload;
  const std::uint64_t new_head = head_ + 4 + payload->size() + 4;
  Status st = co_await region_.Write(0, EncodeControl(new_head, tail_));
  if (!st.ok()) co_return st;
  head_ = new_head;
  ++dequeued_;
  co_return payload;
}

}  // namespace ods::pm
