#include "pm/offload.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/crc32.h"
#include "common/framescan.h"
#include "common/keyhash.h"
#include "common/serialize.h"
#include "pm/npmu.h"
#include "sim/simulation.h"

namespace ods::pm {

namespace {

// Little-endian u32 straight off device memory (the frame length words).
std::uint32_t LoadU32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
}

std::uint64_t LoadU64(const std::byte* p) noexcept {
  return static_cast<std::uint64_t>(LoadU32(p)) |
         static_cast<std::uint64_t>(LoadU32(p + 4)) << 32;
}

net::Endpoint::CommandResult Fail(ErrorCode code, const char* msg) {
  net::Endpoint::CommandResult r;
  r.status = Status(code, msg);
  return r;
}

// Resolves a device-relative window: NVAs live in the data area behind
// kDataBase. Returns nullptr (and leaves `off` untouched) when out of
// bounds.
const std::byte* Resolve(std::byte* data, std::uint64_t capacity,
                         std::uint64_t nva, std::uint64_t len,
                         std::uint64_t& off) {
  if (nva < kDataBase) return nullptr;
  const std::uint64_t o = nva - kDataBase;
  if (o > capacity || len > capacity - o) return nullptr;
  off = o;
  return data + o;
}

sim::SimDuration ScanCost(std::uint64_t bytes, std::uint64_t scan_bw,
                          sim::SimDuration setup) {
  if (scan_bw == 0) return setup;
  const double secs = static_cast<double>(bytes) / static_cast<double>(scan_bw);
  return setup + sim::Nanoseconds(static_cast<std::int64_t>(secs * 1e9));
}

net::Endpoint::CommandResult DoVerifyScan(sim::Simulation& sim,
                                          std::byte* data,
                                          std::uint64_t capacity,
                                          std::uint64_t scan_bw,
                                          sim::SimDuration setup,
                                          std::span<const std::byte> request) {
  Deserializer d(request);
  std::uint8_t kind = 0;
  std::uint64_t base_nva = 0;
  std::uint64_t limit = 0;
  if (!d.GetU8(kind) || !d.GetU64(base_nva) || !d.GetU64(limit)) {
    return Fail(ErrorCode::kInvalidArgument, "malformed VerifyScan request");
  }
  std::uint64_t off = 0;
  const std::byte* base = Resolve(data, capacity, base_nva, limit, off);
  if (base == nullptr) {
    return Fail(ErrorCode::kOutOfRange, "VerifyScan window out of bounds");
  }
  const std::span<const std::byte> image(base, limit);
  net::Endpoint::CommandResult r;
  Serializer s;

  if (kind == kScanCrcFrames) {
    // Same walk as the host recovery scan (common/framescan) — the
    // differential test pins the two byte-for-byte.
    FrameScanState st;
    FrameScanStep(image, st);
    VerifyScanResult res;
    res.durable_tail = st.durable_tail;
    res.frame_count = st.frame_count;
    res.first_bad_off = st.hard_stop ? st.durable_tail : ~0ull;
    if (st.frame_count > 0) {
      FramedRecordHeader h;
      if (PeekFramedRecord(image, st.last_frame_off, h)) res.last_lsn = h.lsn;
    }
    s.PutU64(res.durable_tail);
    s.PutU64(res.frame_count);
    s.PutU64(res.first_bad_off);
    s.PutU64(res.last_lsn);
    r.device_time = ScanCost(st.durable_tail + kFrameScanOverhead, scan_bw,
                             setup);
  } else if (kind == kScanStripeFrames) {
    // Stripe frames: [goff u64][len u32][payload]. Validity is decided
    // by the host (epoch == frame count), so the device just returns the
    // frame table; a zero length word or a frame running past the window
    // ends the walk exactly like the host-side stripe scan.
    const std::vector<StripeFrame> frames = WalkStripeFrames(image);
    std::uint64_t pos = 0;
    s.PutU64(frames.size());
    for (const StripeFrame& f : frames) {
      s.PutU64(f.goff);
      s.PutU32(f.len);
      pos += 12 + f.len;
    }
    r.device_time = ScanCost(pos + 12, scan_bw, setup);
  } else {
    return Fail(ErrorCode::kInvalidArgument, "unknown VerifyScan kind");
  }
  r.response = std::move(s).Take();
  sim.metrics().GetCounter("pm.offload.verify_scans").Increment();
  return r;
}

net::Endpoint::CommandResult DoCompactTo(sim::Simulation& sim,
                                         std::byte* data, std::byte* media,
                                         std::uint64_t capacity,
                                         std::uint64_t scan_bw,
                                         sim::SimDuration setup,
                                         std::span<const std::byte> request) {
  Deserializer d(request);
  std::uint64_t src_nva = 0, dst_nva = 0, len = 0, control_nva = 0;
  std::vector<std::byte> control;
  if (!d.GetU64(src_nva) || !d.GetU64(dst_nva) || !d.GetU64(len) ||
      !d.GetU64(control_nva) || !d.GetBlob(control)) {
    return Fail(ErrorCode::kInvalidArgument, "malformed CompactTo request");
  }
  std::uint64_t src_off = 0, dst_off = 0, ctl_off = 0;
  if (Resolve(data, capacity, src_nva, len, src_off) == nullptr ||
      Resolve(data, capacity, dst_nva, len, dst_off) == nullptr ||
      Resolve(data, capacity, control_nva, control.size(), ctl_off) ==
          nullptr) {
    return Fail(ErrorCode::kOutOfRange, "CompactTo window out of bounds");
  }
  // Device-internal move + control rewrite. These writes never cross the
  // NIC staging buffer, so under the volatile-staging model they go to
  // media as well as the NIC-visible view — durable at the command ack.
  std::memmove(data + dst_off, data + src_off, len);
  std::memcpy(data + ctl_off, control.data(), control.size());
  if (media != nullptr) {
    std::memmove(media + dst_off, media + src_off, len);
    std::memcpy(media + ctl_off, control.data(), control.size());
  }
  net::Endpoint::CommandResult r;
  r.device_time = ScanCost(len + control.size(), scan_bw, setup);
  sim.metrics().GetCounter("pm.offload.compactions").Increment();
  return r;
}

net::Endpoint::CommandResult DoShipReplay(sim::Simulation& sim,
                                          std::byte* data,
                                          std::uint64_t capacity,
                                          std::uint64_t scan_bw,
                                          sim::SimDuration setup,
                                          std::span<const std::byte> request) {
  Deserializer d(request);
  std::uint64_t base_nva = 0, limit = 0;
  std::uint32_t file_id = 0, partition = 0, partitions = 0;
  if (!d.GetU64(base_nva) || !d.GetU64(limit) || !d.GetU32(file_id) ||
      !d.GetU32(partition) || !d.GetU32(partitions)) {
    return Fail(ErrorCode::kInvalidArgument, "malformed ShipReplay request");
  }
  std::uint64_t off = 0;
  const std::byte* base = Resolve(data, capacity, base_nva, limit, off);
  if (base == nullptr) {
    return Fail(ErrorCode::kOutOfRange, "ShipReplay window out of bounds");
  }
  const std::span<const std::byte> image(base, limit);

  // Pass 1: the committed-transaction set (the host's first replay pass,
  // run where the data lives).
  std::unordered_set<std::uint64_t> committed;
  std::uint64_t pos = 0;
  FramedRecordHeader h;
  while (pos + kFrameScanOverhead <= limit) {
    const std::uint32_t len = LoadU32(base + pos);
    if (len == 0 || pos + kFrameScanOverhead + len > limit) break;
    if (!PeekFramedRecord(image, pos, h)) break;
    if (h.type == kFramedAuditCommit) committed.insert(h.txn);
    pos += kFrameScanOverhead + len;
  }
  const std::uint64_t scanned = pos;

  // Pass 2: ship verbatim frames of committed updates for this
  // partition. The key routes through the same hash as db::Catalog, so
  // the device's filter and the host's placement agree.
  std::vector<std::byte> out;
  pos = 0;
  while (pos + kFrameScanOverhead <= limit) {
    const std::uint32_t len = LoadU32(base + pos);
    if (len == 0 || pos + kFrameScanOverhead + len > limit) break;
    if (!PeekFramedRecord(image, pos, h)) break;
    const std::uint64_t frame_end = pos + kFrameScanOverhead + len;
    if (h.type == kFramedAuditUpdate && h.file_id == file_id &&
        KeyPartition(h.key, partitions) == partition &&
        committed.contains(h.txn)) {
      out.insert(out.end(), base + pos, base + frame_end);
    }
    pos = frame_end;
  }

  net::Endpoint::CommandResult r;
  r.response = std::move(out);
  r.device_time = ScanCost(2 * scanned, scan_bw, setup);
  sim.metrics().GetCounter("pm.offload.replay_ships").Increment();
  sim.metrics().GetCounter("pm.offload.replay_bytes").Add(r.response.size());
  return r;
}

}  // namespace

std::vector<std::byte> BuildVerifyScanRequest(std::uint8_t kind,
                                              std::uint64_t base_nva,
                                              std::uint64_t limit) {
  Serializer s;
  s.PutU8(kind);
  s.PutU64(base_nva);
  s.PutU64(limit);
  return std::move(s).Take();
}

bool ParseVerifyScanResponse(std::span<const std::byte> bytes,
                             VerifyScanResult& out) {
  Deserializer d(bytes);
  return d.GetU64(out.durable_tail) && d.GetU64(out.frame_count) &&
         d.GetU64(out.first_bad_off) && d.GetU64(out.last_lsn);
}

bool ParseStripeScanResponse(std::span<const std::byte> bytes,
                             std::vector<StripeFrame>& out) {
  Deserializer d(bytes);
  std::uint64_t count = 0;
  if (!d.GetU64(count)) return false;
  out.clear();
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    StripeFrame f;
    if (!d.GetU64(f.goff) || !d.GetU32(f.len)) return false;
    out.push_back(f);
  }
  return true;
}

std::vector<StripeFrame> WalkStripeFrames(std::span<const std::byte> image) {
  std::vector<StripeFrame> frames;
  std::uint64_t pos = 0;
  while (pos + 12 <= image.size()) {
    const std::uint64_t goff = LoadU64(image.data() + pos);
    const std::uint32_t len = LoadU32(image.data() + pos + 8);
    if (len == 0 || pos + 12 + len > image.size()) break;
    frames.push_back({goff, len});
    pos += 12 + len;
  }
  return frames;
}

std::vector<std::byte> BuildCompactRequest(std::uint64_t src_nva,
                                           std::uint64_t dst_nva,
                                           std::uint64_t len,
                                           std::uint64_t control_nva,
                                           std::span<const std::byte> control) {
  Serializer s;
  s.PutU64(src_nva);
  s.PutU64(dst_nva);
  s.PutU64(len);
  s.PutU64(control_nva);
  s.PutBlob(control);
  return std::move(s).Take();
}

std::vector<std::byte> BuildShipReplayRequest(std::uint64_t base_nva,
                                              std::uint64_t limit,
                                              std::uint32_t file_id,
                                              std::uint32_t partition,
                                              std::uint32_t partitions) {
  Serializer s;
  s.PutU64(base_nva);
  s.PutU64(limit);
  s.PutU32(file_id);
  s.PutU32(partition);
  s.PutU32(partitions);
  return std::move(s).Take();
}

net::Endpoint::CommandResult ExecuteDeviceCommand(
    sim::Simulation& sim, std::byte* data, std::byte* media,
    std::uint64_t capacity, std::uint64_t scan_bw, sim::SimDuration setup,
    std::uint32_t opcode, std::span<const std::byte> request) {
  switch (opcode) {
    case kCmdVerifyScan:
      return DoVerifyScan(sim, data, capacity, scan_bw, setup, request);
    case kCmdCompactTo:
      return DoCompactTo(sim, data, media, capacity, scan_bw, setup, request);
    case kCmdShipReplay:
      return DoShipReplay(sim, data, capacity, scan_bw, setup, request);
    default:
      return Fail(ErrorCode::kInvalidArgument, "unknown device command");
  }
}

}  // namespace ods::pm
