#include "tp/log_device.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>

#include "common/crc32.h"
#include "common/framescan.h"
#include "common/serialize.h"
#include "pm/offload.h"
#include "sim/fault_plan.h"

namespace ods::tp {

using sim::Task;

namespace {

constexpr std::uint32_t kControlMagic = 0x41445054;       // "ADPT" v1
constexpr std::uint32_t kControlMagicV2 = 0x41445055;     // "ADPU" v2 (+base)
constexpr std::uint32_t kShardControlMagic = 0x41445053;  // "ADPS"

// Every control block is sealed as [magic u32][fields u64...][crc32c
// u32], the CRC covering everything before it. The classic device's v1
// block is {tail}, v2 adds the retained base a Compact leaves behind; v1
// is written for as long as base == 0 and offload is off, so passive
// runs stay byte-identical to the seed. A sharded stream's block is
// {epoch, stream tail, global tail}.
std::vector<std::byte> SealControl(
    std::uint32_t magic, std::initializer_list<std::uint64_t> fields) {
  Serializer s;
  s.PutU32(magic);
  for (std::uint64_t f : fields) s.PutU64(f);
  s.PutU32(Crc32c(s.bytes()));
  return std::move(s).Take();
}

// Reads a block sealed with `magic` and fields.size() fields into
// `fields`. false = another magic (a virgin region); kDataLoss = the
// block is truncated or fails its CRC.
Result<bool> UnsealControl(std::span<const std::byte> cb, std::uint32_t magic,
                           std::span<std::uint64_t> fields) {
  Deserializer d(cb);
  std::uint32_t m = 0;
  if (!d.GetU32(m) || m != magic) return false;
  const Status corrupt(ErrorCode::kDataLoss, "log control block corrupt");
  for (std::uint64_t& f : fields) {
    if (!d.GetU64(f)) return corrupt;
  }
  std::uint32_t stored_crc = 0;
  if (!d.GetU32(stored_crc) ||
      Crc32c(cb.first(4 + 8 * fields.size())) != stored_crc) {
    return corrupt;
  }
  return true;
}

Status NotOpen() { return Status(ErrorCode::kFailedPrecondition, "not open"); }

// Reading the log back needs the whole retained history in the ring.
Status Wrapped() {
  return Status(ErrorCode::kFailedPrecondition,
                "log wrapped; full history not retained");
}

// 1 + the LSN of the last whole frame in `frames` (1 when there is none).
std::uint64_t NextLsnAfter(std::span<const std::byte> frames) {
  FrameScanState scan;
  FrameScanStep(frames, scan);
  FramedRecordHeader h;
  if (scan.frame_count > 0 &&
      PeekFramedRecord(frames, scan.last_frame_off, h)) {
    return h.lsn + 1;
  }
  return 1;
}

// Splits a ring write into at most two physical extents.
template <typename WriteFn>
Task<Status> RingWrite(std::uint64_t tail, std::uint64_t capacity,
                       std::uint64_t base, std::vector<std::byte> bytes,
                       WriteFn&& write) {
  const std::uint64_t phys = tail % capacity;
  const std::uint64_t first = std::min<std::uint64_t>(bytes.size(),
                                                      capacity - phys);
  if (first == bytes.size()) {
    co_return co_await write(base + phys, std::move(bytes));
  }
  std::vector<std::byte> head(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(first));
  std::vector<std::byte> rest(bytes.begin() + static_cast<std::ptrdiff_t>(first),
                              bytes.end());
  Status s1 = co_await write(base + phys, std::move(head));
  if (!s1.ok()) co_return s1;
  co_return co_await write(base, std::move(rest));
}

}  // namespace

// ---------------------------------------------------------------- LogDevice

Task<Result<LogDevice::RecoverySummary>> LogDevice::RecoverSummary(
    nsk::NskProcess& host) {
  // Host-side default: recover the full image, then scan it here. The
  // active-offload devices override this with a device command that
  // returns the same numbers without the image ever crossing the fabric.
  auto log = co_await RecoverLog(host);
  if (!log.ok()) co_return log.status();
  co_return RecoverySummary{tail(), NextLsnAfter(*log)};
}

Task<Status> LogDevice::Compact(nsk::NskProcess& host, std::uint64_t cut) {
  (void)host;
  (void)cut;
  co_return Status(ErrorCode::kFailedPrecondition,
                   "log device does not support compaction");
}

// ------------------------------------------------------------ DiskLogDevice

Task<Status> DiskLogDevice::Open(nsk::NskProcess& host) {
  (void)host;
  co_return OkStatus();
}

Task<Status> DiskLogDevice::Append(nsk::NskProcess& host,
                                   std::vector<std::byte> bytes,
                                   std::vector<std::uint64_t> marks,
                                   std::uint64_t op_id) {
  (void)marks;  // appended whole
  (void)op_id;  // disk volumes sit below the traced fabric
  // Synchronous append: rotational wait (no write cache), then the
  // sequential volume write.
  co_await host.Sleep(config_.sync_rotational_wait);
  const std::uint64_t n = bytes.size();
  auto st = co_await RingWrite(
      tail_, volume_.capacity(), 0, std::move(bytes),
      [&](std::uint64_t off, std::vector<std::byte> b) -> Task<Status> {
        co_return co_await volume_.Write(host, off, std::move(b));
      });
  if (st.ok()) tail_ += n;
  co_return st;
}

Task<Result<std::vector<std::byte>>> ScanFramedVolume(
    nsk::NskProcess& host, storage::DiskVolume& volume) {
  constexpr std::uint64_t kScanChunk = 4 << 20;
  std::vector<std::byte> log;
  FrameScanState scan;
  for (std::uint64_t off = 0; off < volume.capacity(); off += kScanChunk) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kScanChunk, volume.capacity() - off);
    auto chunk = co_await volume.Read(host, off, n);
    if (!chunk.ok()) co_return chunk.status();
    log.insert(log.end(), chunk->begin(), chunk->end());
    // Resume the walk from the previous chunk's durable tail (O(total),
    // not O(n²)). Only a hard stop — the len==0 sentinel or a CRC
    // mismatch — ends the scan early: a frame merely extending past the
    // bytes read so far may straddle the chunk boundary, and the next
    // chunk decides whether it completes or is the torn tail. A short
    // chunk ends at the volume's written extent: only zeros follow, so
    // the walk would stop in this chunk either way.
    FrameScanStep(log, scan);
    if (scan.hard_stop || chunk->size() < n) break;
  }
  log.resize(scan.durable_tail);
  co_return log;
}

Task<Result<std::vector<std::byte>>> DiskLogDevice::RecoverLog(
    nsk::NskProcess& host) {
  // No durable tail pointer on disk: scan the volume sequentially from
  // the start until the frames stop validating. This is the "costly
  // heuristic searching of audit trail information" the paper's PM
  // design eliminates. The scan cost is real (simulated) disk reads at
  // sequential bandwidth.
  // The scan reads the log itself, so it is already ReadLog's image.
  auto log = co_await ScanFramedVolume(host, volume_);
  if (!log.ok()) co_return log.status();
  tail_ = log->size();
  co_return std::move(*log);
}

Task<Result<std::vector<std::byte>>> DiskLogDevice::ReadLog(
    nsk::NskProcess& host) {
  if (tail_ > volume_.capacity()) co_return Wrapped();
  if (tail_ == 0) co_return std::vector<std::byte>{};
  co_return co_await volume_.Read(host, 0, tail_);
}

// -------------------------------------------------------------- PmLogStream

Task<Status> PmLogStream::Open(nsk::NskProcess& host,
                               const std::string& pmm_service,
                               const std::string& name,
                               std::uint64_t ring_bytes,
                               std::optional<DurabilityMode> durability) {
  pm::PmClient client(host, pmm_service);
  auto region = co_await client.Create(name, kDataBase + ring_bytes);
  if (!region.ok()) co_return region.status();
  region_ = std::move(*region);
  region_->set_durability(durability);
  pipeline_.emplace(*region_);
  ring_bytes_ = ring_bytes;
  piggybacked_ = &host.sim().metrics().GetCounter("pm.log.piggybacked");
  co_return OkStatus();
}

Task<Status> PmLogStream::Commit(std::uint64_t ring_pos,
                                 std::vector<std::byte> data,
                                 std::vector<std::byte> control, bool piggyback,
                                 std::uint64_t op_id) {
  const std::uint64_t phys = ring_pos % ring_bytes_;
  if (piggyback && phys + data.size() <= ring_bytes_) {
    // Fast path: data and the control block covering it go out as ONE
    // chained RDMA op — a single software-latency round trip instead of
    // two. The chain lands in posting order and aborts on error, so the
    // control block can never become durable before the data it covers
    // (§3.4 recovery invariant holds without the second round).
    std::vector<pm::PmRegion::ScatterOp> ops;
    ops.reserve(2);
    ops.push_back({kDataBase + phys, std::move(data)});
    ops.push_back({0, std::move(control)});
    auto st = co_await region_->WriteChain(std::move(ops), op_id);
    if (st.ok()) piggybacked_->Increment();
    co_return st;
  }
  // Wrap / ablation path: pipeline the data extents, drain the pipeline,
  // then write the control block as its own op — the seed's ordering
  // (data fully durable before the control block covers it).
  auto st = co_await RingWrite(
      ring_pos, ring_bytes_, kDataBase, std::move(data),
      [&](std::uint64_t off, std::vector<std::byte> b) -> Task<Status> {
        co_return co_await pipeline_->Submit(off, std::move(b), op_id);
      });
  if (st.ok()) st = co_await pipeline_->Drain();
  if (!st.ok()) co_return st;
  co_return co_await region_->Write(0, std::move(control), op_id);
}

// -------------------------------------------------------------- PmLogDevice

Task<Status> PmLogDevice::Open(nsk::NskProcess& host) {
  co_return co_await stream_.Open(host, config_.pmm_service,
                                  config_.region_name, config_.region_bytes,
                                  config_.durability);
}

Task<Status> PmLogDevice::Append(nsk::NskProcess& host,
                                 std::vector<std::byte> bytes,
                                 std::vector<std::uint64_t> marks,
                                 std::uint64_t op_id) {
  (void)host;
  (void)marks;  // the classic ring appends the bytes whole
  if (!stream_.is_open()) co_return NotOpen();
  const std::uint64_t n = bytes.size();
  if (n == 0) co_return OkStatus();
  std::vector<std::byte> control =
      config_.offload || base_ != 0
          ? SealControl(kControlMagicV2, {tail_ + n, base_})
          : SealControl(kControlMagic, {tail_ + n});
  auto st = co_await stream_.Commit(tail_ - base_, std::move(bytes),
                                    std::move(control),
                                    config_.piggyback_control, op_id);
  if (st.ok()) tail_ += n;
  co_return st;
}

Task<Result<bool>> PmLogDevice::LoadControl(nsk::NskProcess& host) {
  if (!stream_.is_open()) {
    auto st = co_await Open(host);
    if (!st.ok()) co_return st;
  }
  // Direct read of the durable tail pointer — no scanning.
  auto cb = co_await stream_.region().Read(0, PmLogStream::kDataBase);
  if (!cb.ok()) co_return cb.status();
  std::array<std::uint64_t, 2> fields{};  // {tail, base}
  auto present =
      UnsealControl(*cb, kControlMagic, std::span(fields).first(1));
  if (present.ok() && !*present) {
    present = UnsealControl(*cb, kControlMagicV2, fields);
  }
  if (!present.ok()) co_return present.status();
  tail_ = fields[0];
  base_ = fields[1];
  if (tail_ - base_ > config_.region_bytes) co_return Wrapped();
  co_return *present;
}

Task<Result<std::vector<std::byte>>> PmLogDevice::RecoverLog(
    nsk::NskProcess& host) {
  auto present = co_await LoadControl(host);
  if (!present.ok()) co_return present.status();
  co_return co_await ReadLog(host);
}

Task<Result<std::vector<std::byte>>> PmLogDevice::ReadLog(
    nsk::NskProcess& host) {
  (void)host;
  if (!stream_.is_open()) co_return NotOpen();
  if (tail_ - base_ > config_.region_bytes) co_return Wrapped();
  if (tail_ == base_) co_return std::vector<std::byte>{};
  // The retained suffix [base, tail) sits at physical 0 — a Compact
  // re-anchors the ring there.
  co_return co_await stream_.region().Read(PmLogStream::kDataBase,
                                           tail_ - base_);
}

Task<Result<LogDevice::RecoverySummary>> PmLogDevice::RecoverSummary(
    nsk::NskProcess& host) {
  if (!config_.offload) co_return co_await LogDevice::RecoverSummary(host);
  auto present = co_await LoadControl(host);
  if (!present.ok()) co_return present.status();
  if (!*present) co_return RecoverySummary{};
  const std::uint64_t retained = tail_ - base_;
  // Device-side scan of the retained frames: only the summary crosses
  // the fabric, never the log. A passive device (or any command failure)
  // drops to the host path — correctness never depends on the offload.
  pm::PmRegion& region = stream_.region();
  auto resp = co_await region.DeviceCommand(
      pm::kCmdVerifyScan,
      pm::BuildVerifyScanRequest(pm::kScanCrcFrames,
                                 region.handle().nva + PmLogStream::kDataBase,
                                 retained));
  if (!resp.ok()) co_return co_await LogDevice::RecoverSummary(host);
  pm::VerifyScanResult vs;
  if (!pm::ParseVerifyScanResponse(*resp, vs)) {
    co_return Status(ErrorCode::kInternal, "malformed VerifyScan response");
  }
  if (vs.durable_tail != retained) {
    // The control block covers these bytes; a scan stopping short of it
    // means a frame below the committed tail is torn.
    co_return Status(ErrorCode::kDataLoss,
                     "torn frame below the committed log tail");
  }
  co_return RecoverySummary{tail_, vs.last_lsn + 1};
}

Task<Status> PmLogDevice::Compact(nsk::NskProcess& host, std::uint64_t cut) {
  (void)host;
  if (!stream_.is_open()) co_return NotOpen();
  if (cut < base_ || cut > tail_) {
    co_return Status(ErrorCode::kOutOfRange, "cut outside the retained log");
  }
  if (tail_ - base_ > config_.region_bytes) co_return Wrapped();
  if (cut == base_) co_return OkStatus();
  const std::uint64_t keep = tail_ - cut;
  constexpr std::uint64_t kDataBase = PmLogStream::kDataBase;
  pm::PmRegion& region = stream_.region();
  std::vector<std::byte> control = SealControl(kControlMagicV2, {tail_, cut});
  if (config_.offload) {
    // One durable device command per mirror: the NPMU moves the retained
    // suffix to the ring base and installs the re-based control block,
    // atomically at the command ack. Nothing but the request crosses the
    // fabric.
    auto resp = co_await region.DeviceCommand(
        pm::kCmdCompactTo,
        pm::BuildCompactRequest(region.handle().nva + kDataBase + Phys(cut),
                                region.handle().nva + kDataBase, keep,
                                region.handle().nva, control),
        /*mirrored=*/true);
    if (resp.ok()) {
      base_ = cut;
      co_return OkStatus();
    }
    if (resp.status().code() != ErrorCode::kFailedPrecondition) {
      co_return resp.status();
    }
    // Passive device: fall through to the host path.
  }
  // Host path: read the suffix back, rewrite it at the ring base, then
  // commit the re-based control. Costs two crossings of the retained
  // bytes, and a crash between the rewrite and the control commit can
  // leave the ring mid-move — the exposure the single-command offload
  // closes.
  if (keep > 0) {
    auto suffix = co_await region.Read(kDataBase + Phys(cut), keep);
    if (!suffix.ok()) co_return suffix.status();
    auto st = co_await region.Write(kDataBase, std::move(*suffix));
    if (!st.ok()) co_return st;
  }
  auto st = co_await region.Write(0, std::move(control));
  if (!st.ok()) co_return st;
  base_ = cut;
  co_return OkStatus();
}

std::optional<LogDevice::ReplaySource> PmLogDevice::replay_source() const {
  if (!config_.offload || !stream_.is_open() ||
      tail_ - base_ > config_.region_bytes) {
    return std::nullopt;
  }
  return ReplaySource{config_.pmm_service, config_.region_name,
                      /*base_offset=*/PmLogStream::kDataBase, tail_ - base_};
}

// ------------------------------------------------------- ShardedPmLogDevice

Task<Status> ShardedPmLogDevice::Open(nsk::NskProcess& host) {
  // Idempotent: OnBecomePrimary opens unconditionally, and a promoted
  // backup must not clobber live in-memory stream state with older
  // durable controls.
  if (!streams_.empty()) co_return OkStatus();
  // Opened in place (a stream never moves) and installed only whole: the
  // vector's move hands over its buffer, so no stream moves either.
  std::vector<ShardStream> streams(
      static_cast<std::size_t>(config_.map.shard_count()));
  std::uint64_t t_max = 0;
  std::uint64_t flushes = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ShardStream& st = streams[s];
    auto status = co_await st.log.Open(
        host, config_.map.ServiceForShard(static_cast<int>(s)),
        config_.region_prefix + std::to_string(s), config_.region_bytes,
        config_.durability);
    if (!status.ok()) co_return status;
    // Restore the stream's committed state from its control block — this
    // is what lets a promoted backup keep appending without a scan.
    auto cb = co_await st.log.region().Read(0, PmLogStream::kDataBase);
    if (!cb.ok()) co_return cb.status();
    std::array<std::uint64_t, 3> fields{};  // virgin stream: all zeroes
    auto present = UnsealControl(*cb, kShardControlMagic, fields);
    if (!present.ok()) co_return present.status();
    st.epoch = fields[0];
    st.tail = fields[1];
    st.global_tail = fields[2];
    t_max = std::max(t_max, st.global_tail);
    flushes += st.epoch;
  }
  streams_ = std::move(streams);
  tail_ = t_max;
  flush_seq_ = flushes;
  co_return OkStatus();
}

Task<Status> ShardedPmLogDevice::CommitStripe(ShardStream& st,
                                              std::vector<std::byte> framed,
                                              std::uint64_t new_global,
                                              std::uint64_t op_id) {
  const std::uint64_t new_tail = st.tail + framed.size();
  std::vector<std::byte> control =
      SealControl(kShardControlMagic, {st.epoch + 1, new_tail, new_global});
  auto status = co_await st.log.Commit(st.tail, std::move(framed),
                                       std::move(control),
                                       /*piggyback=*/true, op_id);
  if (!status.ok()) co_return status;
  st.tail = new_tail;
  st.epoch += 1;
  st.global_tail = new_global;
  co_return OkStatus();
}

Task<Status> ShardedPmLogDevice::Append(nsk::NskProcess& host,
                                        std::vector<std::byte> flat,
                                        std::vector<std::uint64_t> marks,
                                        std::uint64_t op_id) {
  if (streams_.empty()) co_return NotOpen();
  if (!poison_.ok()) co_return poison_;
  const std::uint64_t n = flat.size();
  if (n == 0) co_return OkStatus();
  const std::size_t S = streams_.size();
  // Cut into stripes — every stream gets one unless the flush is too
  // small for stripes of kMinStripeBytes to be worth their control
  // commits — snapping each cut DOWN to a record boundary so that a
  // recovery truncated at any stripe edge still ends on a whole record.
  // Without marks the append is one indivisible chunk (one stripe).
  struct StripePlan {
    std::size_t stream;
    std::uint64_t goff;  // global offset of the stripe's first byte
    std::uint64_t len;
  };
  const std::size_t k_target =
      static_cast<std::size_t>(std::clamp<std::uint64_t>(
          n / kMinStripeBytes, 1, static_cast<std::uint64_t>(S)));
  const std::size_t base = static_cast<std::size_t>(flush_seq_ % S);
  std::vector<StripePlan> plan;
  plan.reserve(k_target);
  std::uint64_t cut = 0;  // end of the planned stripes within flat
  auto add_stripe = [&](std::uint64_t end) {
    plan.push_back({(base + plan.size()) % S, tail_ + cut, end - cut});
    cut = end;
  };
  for (std::size_t i = 1; i < k_target; ++i) {
    auto it = std::upper_bound(marks.begin(), marks.end(), i * n / k_target);
    const std::uint64_t snapped = it == marks.begin() ? 0 : *std::prev(it);
    if (snapped > cut && snapped < n) add_stripe(snapped);
  }
  add_stripe(n);
  const std::size_t k = plan.size();
  const std::uint64_t new_global = tail_ + n;

  auto frame = [&](const StripePlan& p) {
    Serializer f;
    f.Reserve(kFrameHeader + p.len);
    f.PutU64(p.goff);
    f.PutU32(static_cast<std::uint32_t>(p.len));
    f.PutBytes(std::span<const std::byte>(flat).subspan(
        static_cast<std::size_t>(p.goff - tail_),
        static_cast<std::size_t>(p.len)));
    return std::move(f).Take();
  };

  // Launch every stripe in parallel — one per stream, so each rides its
  // own shard pair's links and the flush's wire time divides by k.
  std::vector<sim::Future<Status>> pending;
  pending.reserve(k);
  for (const StripePlan& p : plan) {
    ShardStream& st = streams_[p.stream];
    // Crash-injection site on the boundary between per-shard epoch
    // commits: a crash armed here lands after every earlier flush's
    // commits and before any byte of this stripe reaches its shard.
    sim::FaultPoint(host.sim(), sim::FaultSiteKind::kCustom,
                    "shardlog:commit:s" + std::to_string(p.stream),
                    {static_cast<std::uint64_t>(p.stream), st.epoch + 1,
                     p.goff + p.len});
    pending.push_back(sim::SpawnTask(
        host, CommitStripe(st, frame(p), p.goff + p.len, op_id)));
  }
  std::vector<Status> results;
  results.reserve(k);
  for (auto& f : pending) results.push_back(co_await f.Wait(host));

  // A stripe that failed outright (shard down) is retried once on the
  // next stream — frames carry their global offset, so any stream can
  // host any interval. A flush that still cannot land poisons the
  // device: later appends above the hole would break I4.
  for (std::size_t i = 0; i < k; ++i) {
    if (results[i].ok()) continue;
    ShardStream& next = streams_[(plan[i].stream + 1) % S];
    Status retried = co_await CommitStripe(next, frame(plan[i]),
                                           plan[i].goff + plan[i].len, op_id);
    if (!retried.ok()) {
      poison_ = std::move(retried);
      co_return poison_;
    }
  }
  tail_ = new_global;
  ++flush_seq_;
  co_return OkStatus();
}

Task<Result<ShardedPmLogDevice::FrameTables>> ShardedPmLogDevice::Merge(
    const std::vector<std::vector<pm::StripeFrame>>& tables) {
  // T = the newest global tail any stream recorded. The serial flush
  // loop guarantees every flush before the one that recorded T also
  // committed, so the union of stream frames must cover [0, T).
  std::uint64_t t_max = 0;
  for (const ShardStream& st : streams_) {
    t_max = std::max(t_max, st.global_tail);
  }
  const Status torn(ErrorCode::kDataLoss,
                    "torn frame below a committed stream tail");
  FrameTables frames(streams_.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    const ShardStream& st = streams_[si];
    std::uint64_t pos = 0;
    for (const pm::StripeFrame& f : tables[si]) {
      if (f.len == 0 || pos + kFrameHeader + f.len > st.tail ||
          f.goff + f.len > t_max) {
        co_return torn;
      }
      pos += kFrameHeader + f.len;
      frames[si].push_back({f.goff, f.goff + f.len, pos});
      intervals.emplace_back(f.goff, f.goff + f.len);
    }
    if (pos != st.tail) co_return torn;
    // Cross-shard I1: a stream's durable epoch is exactly its committed
    // stripe count, i.e. the frames below its control's stream tail.
    if (frames[si].size() != st.epoch) {
      co_return Status(ErrorCode::kDataLoss,
                       "stream epoch does not match its frame count");
    }
  }
  std::sort(intervals.begin(), intervals.end());
  // Overlaps are legal (a takeover re-flushes byte-identical records).
  // The contiguous prefix is the recovered log: a hole can only be a
  // missing stripe of the single flush in flight at the crash (I4 — the
  // flush loop is serial and acks only fully-landed flushes), so every
  // acked byte lies below the first gap.
  std::uint64_t covered = 0;
  for (const auto& [begin, end] : intervals) {
    if (begin > covered) break;
    covered = std::max(covered, end);
  }
  // Truncate the hole's committed sibling stripes, if any — necessarily
  // each stream's final frames, since only the last flush can be
  // partial. Their controls are rewritten so a future append of the same
  // global interval (with different bytes) can never conflict with them.
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    auto& fs = frames[si];
    if (fs.empty() || fs.back().gend <= covered) continue;
    ShardStream& st = streams_[si];
    while (!fs.empty() && fs.back().gend > covered) {
      fs.pop_back();
      st.epoch -= 1;
    }
    st.tail = fs.empty() ? 0 : fs.back().spos_end;
    st.global_tail = fs.empty() ? 0 : fs.back().gend;
    std::vector<std::byte> control = SealControl(
        kShardControlMagic, {st.epoch, st.tail, st.global_tail});
    auto status = co_await st.log.region().Write(0, std::move(control));
    if (!status.ok()) co_return status;
  }
  tail_ = covered;
  co_return frames;
}

Task<Result<std::vector<std::byte>>> ShardedPmLogDevice::RecoverLog(
    nsk::NskProcess& host) {
  if (Status st = co_await Open(host); !st.ok()) co_return st;
  co_return co_await ReadStreams(/*merge=*/true);
}

Task<Result<std::vector<std::byte>>> ShardedPmLogDevice::ReadLog(
    nsk::NskProcess& host) {
  (void)host;
  if (streams_.empty()) co_return NotOpen();
  // No merge: the live tail covers only fully committed flushes, and
  // truncating stale stripes would rewrite controls under an in-flight
  // Append.
  co_return co_await ReadStreams(/*merge=*/false);
}

Task<Result<std::vector<std::byte>>> ShardedPmLogDevice::ReadStreams(
    bool merge) {
  // The tail to assemble up to, fixed before any read: a flush that
  // commits between two stream reads must not leave a hole below it.
  std::uint64_t tail = tail_;
  // Read every stream's committed bytes and walk their frame headers.
  std::vector<std::vector<std::byte>> data(streams_.size());
  std::vector<std::vector<pm::StripeFrame>> tables(streams_.size());
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    ShardStream& st = streams_[si];
    if (st.tail > config_.region_bytes) co_return Wrapped();
    if (st.tail == 0) continue;
    auto d = co_await st.log.region().Read(PmLogStream::kDataBase, st.tail);
    if (!d.ok()) co_return d.status();
    data[si] = std::move(*d);
    tables[si] = pm::WalkStripeFrames(data[si]);
  }
  if (merge) {
    auto frames = co_await Merge(tables);
    if (!frames.ok()) co_return frames.status();
    tail = tail_;
  }
  // Stripe assembly: every frame wholly below the tail. Frames above it
  // belong to a flush that had not completed.
  std::vector<std::byte> image(tail);
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    std::uint64_t pos = 0;
    for (const pm::StripeFrame& f : tables[si]) {
      pos += kFrameHeader;
      if (f.goff + f.len <= tail) {
        std::copy_n(data[si].begin() + static_cast<std::ptrdiff_t>(pos), f.len,
                    image.begin() + static_cast<std::ptrdiff_t>(f.goff));
      }
      pos += f.len;
    }
  }
  co_return image;
}

Task<Result<LogDevice::RecoverySummary>> ShardedPmLogDevice::RecoverSummary(
    nsk::NskProcess& host) {
  if (!config_.offload) co_return co_await LogDevice::RecoverSummary(host);
  if (Status st = co_await Open(host); !st.ok()) co_return st;
  // Same merge as RecoverLog, but built from device-side stripe scans:
  // each stream returns its frame TABLE (headers only) — the payloads
  // never cross the fabric.
  std::vector<std::vector<pm::StripeFrame>> tables(streams_.size());
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    ShardStream& st = streams_[si];
    if (st.tail > config_.region_bytes) co_return Wrapped();
    if (st.tail == 0) continue;
    pm::PmRegion& region = st.log.region();
    auto resp = co_await region.DeviceCommand(
        pm::kCmdVerifyScan,
        pm::BuildVerifyScanRequest(pm::kScanStripeFrames,
                                   region.handle().nva + PmLogStream::kDataBase,
                                   st.tail));
    if (!resp.ok()) co_return co_await LogDevice::RecoverSummary(host);
    if (!pm::ParseStripeScanResponse(*resp, tables[si])) {
      co_return Status(ErrorCode::kInternal, "malformed stripe scan response");
    }
  }
  auto frames = co_await Merge(tables);
  if (!frames.ok()) co_return frames.status();
  // The final record lives wholly inside the stripe ending at the
  // covered tail (stripes cut only at record boundaries) — read just
  // that stripe's payload to learn the next LSN.
  for (std::size_t si = 0; si < streams_.size() && tail_ > 0; ++si) {
    for (const Frame& f : (*frames)[si]) {
      if (f.gend != tail_) continue;
      const std::uint64_t len = f.gend - f.goff;
      auto data = co_await streams_[si].log.region().Read(
          PmLogStream::kDataBase + (f.spos_end - len), len);
      if (!data.ok()) co_return data.status();
      co_return RecoverySummary{tail_, NextLsnAfter(*data)};
    }
  }
  co_return RecoverySummary{tail_, 1};
}

}  // namespace ods::tp
