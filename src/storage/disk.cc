#include "storage/disk.h"

#include <algorithm>
#include <cstring>

namespace ods::storage {

using sim::SimDuration;
using sim::SimTime;

DiskVolume::DiskVolume(sim::Simulation& sim, std::string name,
                       DiskConfig config)
    : sim_(sim), name_(std::move(name)), config_(config) {}

void DiskVolume::StoreBytes(std::uint64_t offset,
                            std::span<const std::byte> data) {
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t chunk_id = (offset + pos) / kChunkBytes;
    const std::uint64_t within = (offset + pos) % kChunkBytes;
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunkBytes - within, data.size() - pos);
    auto& chunk = chunks_[chunk_id];
    if (chunk.empty()) chunk.resize(kChunkBytes);
    std::memcpy(chunk.data() + within, data.data() + pos, n);
    pos += n;
  }
  written_end_ = std::max(written_end_, offset + data.size());
}

void DiskVolume::LoadBytes(std::uint64_t offset,
                           std::span<std::byte> out) const {
  std::uint64_t pos = 0;
  while (pos < out.size()) {
    const std::uint64_t chunk_id = (offset + pos) / kChunkBytes;
    const std::uint64_t within = (offset + pos) % kChunkBytes;
    const std::uint64_t n =
        std::min<std::uint64_t>(kChunkBytes - within, out.size() - pos);
    auto it = chunks_.find(chunk_id);
    if (it == chunks_.end()) {
      std::memset(out.data() + pos, 0, n);  // unwritten sectors read as 0
    } else {
      std::memcpy(out.data() + pos, it->second.data() + within, n);
    }
    pos += n;
  }
}

std::vector<std::byte> DiskVolume::ReadImage(std::uint64_t offset,
                                             std::uint64_t len) const {
  std::vector<std::byte> out(len);
  LoadBytes(offset, out);
  return out;
}

SimDuration DiskVolume::ServiceTime(std::uint64_t offset,
                                    std::uint64_t bytes) const {
  const bool sequential = offset == head_position_;
  const SimDuration positioning = sequential ? config_.sequential_positioning
                                             : config_.random_positioning;
  return config_.controller_overhead + positioning +
         sim::FromSecondsD(static_cast<double>(bytes) /
                           config_.transfer_bytes_per_sec);
}

sim::Future<Status> DiskVolume::StartWrite(std::uint64_t offset,
                                           std::vector<std::byte> data) {
  sim::Promise<Status> done(sim_);
  auto fut = done.GetFuture();
  if (offset + data.size() > config_.capacity_bytes) {
    sim_.After(config_.controller_overhead, [done]() mutable {
      done.Set(Status(ErrorCode::kOutOfRange, "write beyond volume end"));
    });
    return fut;
  }
  const SimDuration service = ServiceTime(offset, data.size());
  const SimTime start = std::max(sim_.Now(), busy_until_);
  const SimTime complete = start + service;
  busy_until_ = complete;
  busy_ += service;
  head_position_ = offset + data.size();
  ++writes_;
  bytes_written_ += data.size();
  const std::uint64_t gen = generation_;
  sim_.Schedule(complete,
                [this, gen, offset, data = std::move(data), done]() mutable {
                  if (gen != generation_) return;  // lost to power failure
                  StoreBytes(offset, data);
                  done.Set(OkStatus());
                });
  return fut;
}

sim::Future<Result<std::vector<std::byte>>> DiskVolume::StartRead(
    std::uint64_t offset, std::uint64_t len) {
  sim::Promise<Result<std::vector<std::byte>>> done(sim_);
  auto fut = done.GetFuture();
  if (offset + len > config_.capacity_bytes) {
    sim_.After(config_.controller_overhead, [done]() mutable {
      done.Set(Status(ErrorCode::kOutOfRange, "read beyond volume end"));
    });
    return fut;
  }
  const SimDuration service = ServiceTime(offset, len);
  const SimTime start = std::max(sim_.Now(), busy_until_);
  const SimTime complete = start + service;
  busy_until_ = complete;
  busy_ += service;
  head_position_ = offset + len;
  ++reads_;
  bytes_read_ += len;
  const std::uint64_t gen = generation_;
  sim_.Schedule(complete, [this, gen, offset, len, done]() mutable {
    if (gen != generation_) return;
    const std::uint64_t n =
        std::min(len, std::max(written_end_, offset) - offset);
    done.Set(Result<std::vector<std::byte>>(ReadImage(offset, n)));
  });
  return fut;
}

sim::Task<Status> DiskVolume::Write(sim::Process& proc, std::uint64_t offset,
                                    std::vector<std::byte> data) {
  co_return co_await StartWrite(offset, std::move(data)).Wait(proc);
}

sim::Task<Result<std::vector<std::byte>>> DiskVolume::Read(sim::Process& proc,
                                                           std::uint64_t offset,
                                                           std::uint64_t len) {
  co_return co_await StartRead(offset, len).Wait(proc);
}

sim::Task<Status> MirroredVolume::Write(sim::Process& proc,
                                        std::uint64_t offset,
                                        std::vector<std::byte> data) {
  // Both writes proceed in parallel; durability requires both acks.
  auto f1 = primary_.StartWrite(offset, data);
  auto f2 = mirror_.StartWrite(offset, std::move(data));
  Status s1 = co_await f1.Wait(proc);
  Status s2 = co_await f2.Wait(proc);
  if (!s1.ok()) co_return s1;
  co_return s2;
}

sim::Task<Result<std::vector<std::byte>>> MirroredVolume::Read(
    sim::Process& proc, std::uint64_t offset, std::uint64_t len) {
  co_return co_await primary_.StartRead(offset, len).Wait(proc);
}

}  // namespace ods::storage
