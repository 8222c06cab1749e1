// Durable media behind the log writer (ADP). Three implementations:
//
//  * DiskLogDevice — the baseline: audit flushed to an audit disk volume.
//    A synchronous append with intervening think time pays rotational
//    latency on top of the storage-stack overhead (no write cache on a
//    2004-era audit volume), i.e. milliseconds per commit. Recovery has
//    no tail pointer and scans the volume.
//
//  * PmLogDevice — the paper's modified ADP (§4.2): audit written
//    synchronously to a persistent-memory region, i.e. tens of
//    microseconds. The region is one PmLogStream in the classic layout:
//    an "ADPT" control block holding the durable tail, then the raw
//    CRC-framed audit records.
//
//  * ShardedPmLogDevice — the ADP's multi-log mode on a sharded
//    persistence plane: a flush is striped in parallel over one
//    PmLogStream per shard, each stream holding an "ADPS" control block
//    and [global_offset|len|payload] stripe frames.
//
// Both PM devices commit through PmLogStream::Commit. When the ring does
// not wrap, a commit is ONE chained RDMA op — the data plus a small
// control block carrying the new tail as the final gather segment (the
// chain's in-order, abort-on-error semantics keep the tail from ever
// covering un-landed data). On wrap, or with piggybacking disabled for
// ablation, the data is pipelined and the control block written
// separately afterwards. The fine-grained control block is what
// eliminates "costly heuristic searching of audit trail information" at
// recovery (§3.4): recovery reads the tail pointer directly instead of
// scanning the log.
//
// Every device is a logically infinite ring buffer: physical offsets
// wrap modulo capacity. Reading the log back (RecoverLog, ReadLog)
// requires the retained suffix to fit in capacity — true for all
// recovery tests; perf benchmarks may wrap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/durability.h"
#include "common/stats.h"
#include "common/status.h"
#include "nsk/process.h"
#include "pm/client.h"
#include "pm/offload.h"
#include "storage/disk.h"

namespace ods::tp {

class LogDevice {
 public:
  virtual ~LogDevice() = default;

  // Prepares the device for use by `host` (the primary ADP member).
  virtual sim::Task<Status> Open(nsk::NskProcess& host) = 0;

  // Durably appends `bytes` at the logical tail; returns once durable.
  // One group-commit flush is one call. `marks` are the ascending ends
  // (relative offsets) of the whole records inside `bytes`, or empty when
  // the bytes are one indivisible chunk: a device that splits an append
  // internally (the sharded device stripes it across shards) cuts only
  // at marks, so a recovery truncated at any internal boundary still
  // ends on a parseable record. `op_id` is a trace correlation id (0 =
  // untagged) threaded down to the fabric. Virtual default arguments
  // resolve statically, so overrides restate exactly these defaults
  // (callers hold concrete devices too).
  virtual sim::Task<Status> Append(nsk::NskProcess& host,
                                   std::vector<std::byte> bytes,
                                   std::vector<std::uint64_t> marks = {},
                                   std::uint64_t op_id = 0) = 0;

  // Recovery with no surviving in-memory state: locate the durable tail
  // (the device's cold prelude) and return ReadLog's image. The time
  // this takes — scan vs direct read — is the MTTR experiment. Never on
  // a live log writer: it reinstalls the tail (and on the sharded device
  // rewrites control blocks), racing an in-flight Append.
  virtual sim::Task<Result<std::vector<std::byte>>> RecoverLog(
      nsk::NskProcess& host) = 0;

  // The durable log [log_base, tail), in log order, read from an open
  // device without changing any device state — safe beside an in-flight
  // Append, whose bytes lie above the tail. This is what every redo
  // reader gets (kAdpReadLog). kFailedPrecondition once the ring wrapped
  // past the retained history.
  virtual sim::Task<Result<std::vector<std::byte>>> ReadLog(
      nsk::NskProcess& host) = 0;

  // Summary-based cold recovery: what the log writer needs to resume
  // appending — durable tail and the next LSN — WITHOUT the log image
  // itself. The active-offload PM devices answer this with a device-side
  // VerifyScan command (the whole log never crosses the fabric); the
  // default runs RecoverLog and scans on the host.
  struct RecoverySummary {
    std::uint64_t durable_tail = 0;  // logical durable tail
    std::uint64_t next_lsn = 1;      // 1 + the final record's LSN
  };
  virtual sim::Task<Result<RecoverySummary>> RecoverSummary(
      nsk::NskProcess& host);

  // Reclaims log space below `cut` (a checkpoint cut: the caller
  // guarantees recovery never needs bytes below it, and that `cut` is a
  // record boundary). Afterwards log_base() == cut and RecoverLog
  // returns only the retained suffix. The active-offload PmLogDevice
  // does this with one durable CompactTo device command per mirror;
  // passive PM pays read-back + rewrite round trips. Default:
  // unsupported.
  virtual sim::Task<Status> Compact(nsk::NskProcess& host, std::uint64_t cut);
  // Logical offset of the first retained log byte (0 until a Compact).
  [[nodiscard]] virtual std::uint64_t log_base() const noexcept { return 0; }

  // Where a DP2 can stream committed records straight from the device
  // (the ShipReplay command), bypassing the log writer's host hop.
  // Engaged only by the active-offload PmLogDevice; nullopt = the DP2
  // redoes from ReadLog's image instead (kAdpReadLog).
  struct ReplaySource {
    std::string pmm_service;
    std::string region_name;
    std::uint64_t base_offset = 0;  // region-relative offset of first frame
    std::uint64_t length = 0;       // framed bytes to scan
  };
  [[nodiscard]] virtual std::optional<ReplaySource> replay_source() const {
    return std::nullopt;
  }

  [[nodiscard]] virtual std::uint64_t tail() const noexcept = 0;
  // Installs the tail on a promoted backup (checkpointed state).
  virtual void set_tail(std::uint64_t tail) noexcept = 0;
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;
  // Drops volatile handle state (host process restart). Durable contents
  // are untouched; Open()/RecoverLog() re-derive the rest.
  virtual void Reset() noexcept = 0;
};

struct DiskLogConfig {
  // Average rotational wait for a synchronous append on a volume with no
  // write cache (10k RPM class: half a rotation).
  sim::SimDuration sync_rotational_wait = sim::Milliseconds(3);
};

class DiskLogDevice final : public LogDevice {
 public:
  DiskLogDevice(storage::DiskVolume& volume, DiskLogConfig config = {})
      : volume_(volume), config_(config) {}

  sim::Task<Status> Open(nsk::NskProcess& host) override;
  sim::Task<Status> Append(nsk::NskProcess& host, std::vector<std::byte> bytes,
                           std::vector<std::uint64_t> marks = {},
                           std::uint64_t op_id = 0) override;
  sim::Task<Result<std::vector<std::byte>>> RecoverLog(
      nsk::NskProcess& host) override;
  sim::Task<Result<std::vector<std::byte>>> ReadLog(
      nsk::NskProcess& host) override;

  [[nodiscard]] std::uint64_t tail() const noexcept override { return tail_; }
  void set_tail(std::uint64_t tail) noexcept override { tail_ = tail; }
  [[nodiscard]] std::string_view kind() const noexcept override {
    return "disk";
  }
  void Reset() noexcept override { tail_ = 0; }

 private:
  storage::DiskVolume& volume_;
  DiskLogConfig config_;
  std::uint64_t tail_ = 0;  // logical (monotonic)
};

// One PM log stream: the unit both PM log devices are built from. It
// owns a PM region laid out as [control block (64 B) | data ring], the
// write pipeline that feeds the ring, and the commit that makes a ring
// write durable together with the control block covering it. The caller
// keeps the ring position and encodes the control block, so the stream
// serves both the classic layout and the striped one.
class PmLogStream {
 public:
  // Region layout: [control block | data ring].
  static constexpr std::uint64_t kDataBase = 64;

  PmLogStream() = default;
  // The pipeline points into the region: the stream never moves.
  PmLogStream(const PmLogStream&) = delete;
  PmLogStream& operator=(const PmLogStream&) = delete;

  // Creates (or re-attaches) region `name` on `pmm_service` with a data
  // ring of `ring_bytes`, sets its durability mode (nullopt = the
  // fabric-wide mode) and attaches the write pipeline.
  sim::Task<Status> Open(nsk::NskProcess& host, const std::string& pmm_service,
                         const std::string& name, std::uint64_t ring_bytes,
                         std::optional<DurabilityMode> durability);

  // Durably writes `data` at ring position `ring_pos` (taken modulo the
  // ring), then `control` at offset 0; returns once both are durable.
  // With `piggyback` and no wrap this is ONE chained RDMA op (data, then
  // control); otherwise the data is pipelined and drained, and the
  // control block written as its own op — the seed's ordering.
  sim::Task<Status> Commit(std::uint64_t ring_pos, std::vector<std::byte> data,
                           std::vector<std::byte> control, bool piggyback,
                           std::uint64_t op_id);

  [[nodiscard]] bool is_open() const noexcept { return region_.has_value(); }
  [[nodiscard]] pm::PmRegion& region() { return *region_; }
  void Reset() noexcept {
    pipeline_.reset();
    region_.reset();
  }

 private:
  std::optional<pm::PmRegion> region_;
  std::optional<pm::PmWritePipeline> pipeline_;
  std::uint64_t ring_bytes_ = 0;
  Counter* piggybacked_ = nullptr;  // "pm.log.piggybacked"
};

struct PmLogConfig {
  std::string pmm_service = "$PMM";
  std::string region_name;          // unique per ADP, e.g. "audit-$ADP0"
  std::uint64_t region_bytes = 48ull << 20;
  // Carry the control block as the final gather segment of the data RDMA
  // when the ring does not wrap (one fabric round trip per append instead
  // of two). Off = the seed's serialized data-then-control path, kept as
  // an ablation knob.
  bool piggyback_control = true;
  // Per-log override of the fabric-wide remote-durability mode
  // (common/durability.h); nullopt = FabricConfig::durability_mode.
  std::optional<DurabilityMode> durability;
  // Active-NPMU offload: cold recovery via a device-side VerifyScan
  // command instead of shipping the log image, compaction via a single
  // CompactTo command, and replay_source() advertised so DP2s can
  // ShipReplay straight off the device. Requires the device to execute
  // commands (pm::NpmuConfig::active_commands); off = the paper's
  // passive NPMU, byte-identical to the seed.
  bool offload = false;
};

// The classic single-stream device: one PmLogStream whose control block
// holds {tail} (v1, "ADPT") or {tail, base} (v2, "ADPU", after a Compact
// or with offload on) and whose ring holds the raw CRC frames.
class PmLogDevice final : public LogDevice {
 public:
  explicit PmLogDevice(PmLogConfig config) : config_(std::move(config)) {}

  sim::Task<Status> Open(nsk::NskProcess& host) override;
  sim::Task<Status> Append(nsk::NskProcess& host, std::vector<std::byte> bytes,
                           std::vector<std::uint64_t> marks = {},
                           std::uint64_t op_id = 0) override;
  sim::Task<Result<std::vector<std::byte>>> RecoverLog(
      nsk::NskProcess& host) override;
  sim::Task<Result<std::vector<std::byte>>> ReadLog(
      nsk::NskProcess& host) override;
  sim::Task<Result<RecoverySummary>> RecoverSummary(
      nsk::NskProcess& host) override;
  sim::Task<Status> Compact(nsk::NskProcess& host, std::uint64_t cut) override;
  [[nodiscard]] std::uint64_t log_base() const noexcept override {
    return base_;
  }
  [[nodiscard]] std::optional<ReplaySource> replay_source() const override;

  [[nodiscard]] std::uint64_t tail() const noexcept override { return tail_; }
  void set_tail(std::uint64_t tail) noexcept override { tail_ = tail; }
  [[nodiscard]] std::string_view kind() const noexcept override { return "pm"; }
  void Reset() noexcept override {
    stream_.Reset();
    tail_ = 0;
    base_ = 0;
  }

 private:
  // Cold-recovery prelude shared by RecoverLog and RecoverSummary: opens
  // the region if needed, reads the control block and installs its
  // {tail, base} ({0, 0} on a virgin region). false = virgin region;
  // fails if the ring wrapped past the retained history.
  sim::Task<Result<bool>> LoadControl(nsk::NskProcess& host);
  // Physical ring offset of logical byte L (compaction re-anchors the
  // ring so the retained base sits at physical 0).
  [[nodiscard]] std::uint64_t Phys(std::uint64_t logical) const noexcept {
    return (logical - base_) % config_.region_bytes;
  }

  PmLogConfig config_;
  PmLogStream stream_;
  std::uint64_t tail_ = 0;
  // Logical offset of the first retained byte (> 0 after a Compact).
  std::uint64_t base_ = 0;
};

// Multi-log configuration for a sharded persistence plane: one log
// stream per shard (pm/shard_map.h), each stream a PM region on that
// shard's PMM pair.
struct ShardedPmLogConfig {
  pm::ShardMap map;            // shard count + service naming
  std::string region_prefix;   // stream k's region is prefix + k
  std::uint64_t region_bytes = 48ull << 20;  // per stream
  // Per-log override of the fabric-wide remote-durability mode, applied
  // to every stream region (nullopt = FabricConfig::durability_mode).
  std::optional<DurabilityMode> durability;
  // Active-NPMU offload: recover each stream's frame table with a
  // device-side stripe VerifyScan (headers only — stripe payloads never
  // cross the fabric) instead of reading every stream in full.
  bool offload = false;
};

// The ADP's multi-log mode (scale-out): the logical audit log is striped
// over one stream per shard (pm/shard_map.h). A flush is cut into up to
// S stripes (at least kMinStripeBytes each, so small flushes stay whole
// and rotate round-robin); every stripe is framed as
// [global_offset u64][len u32][payload] in its stream's ring and
// committed with a per-stream control block {per-shard epoch, stream
// tail, global tail} carried behind the data in one chained RDMA (the
// same PmLogStream commit as PmLogDevice, per stream). The stripes of
// one flush land IN PARALLEL, one per shard pair — this is what makes a
// single ADP's flush latency scale down with shard count instead of
// merely spreading successive flushes over the links.
//
// Because the ADP's flush loop is strictly serial and a flush is acked
// only once every stripe committed, at most one flush — the in-flight
// one — can be partially durable at a crash; every earlier flush is
// fully committed in stream control blocks. Recovery reads the S
// controls, walks each stream's frames, reassembles the global byte
// stream by global offset, and truncates at the first hole: a hole can
// only be a missing stripe of that final unacked flush, so everything
// below it is exactly the acked prefix (the cross-shard form of
// invariants I1/I4). Stale sibling stripes above the hole are erased
// from their streams' controls so a later write at the same global
// offset cannot conflict with them. Overlapping intervals are tolerated
// because a takeover's re-flushed records are byte-identical at a given
// global offset (the promoted backup replays its pending buffer from
// the confirmed tail, which also re-covers any stripes the dead
// primary's last flush left behind).
//
// If a stripe write fails outright (both mirrors of a shard down), it
// is retried once on the next stream — any stream can host any global
// interval — and a flush that still cannot complete poisons the device:
// accepting later appends above an unrepaired hole would let an acked
// byte land beyond a gap, breaking I4. The poisoned primary keeps
// failing flushes until takeover or restart re-anchors the log.
class ShardedPmLogDevice final : public LogDevice {
 public:
  explicit ShardedPmLogDevice(ShardedPmLogConfig config)
      : config_(std::move(config)) {}

  sim::Task<Status> Open(nsk::NskProcess& host) override;
  sim::Task<Status> Append(nsk::NskProcess& host, std::vector<std::byte> bytes,
                           std::vector<std::uint64_t> marks = {},
                           std::uint64_t op_id = 0) override;
  sim::Task<Result<std::vector<std::byte>>> RecoverLog(
      nsk::NskProcess& host) override;
  sim::Task<Result<std::vector<std::byte>>> ReadLog(
      nsk::NskProcess& host) override;
  sim::Task<Result<RecoverySummary>> RecoverSummary(
      nsk::NskProcess& host) override;

  [[nodiscard]] std::uint64_t tail() const noexcept override { return tail_; }
  void set_tail(std::uint64_t tail) noexcept override { tail_ = tail; }
  [[nodiscard]] std::string_view kind() const noexcept override {
    return "pm-sharded";
  }
  void Reset() noexcept override {
    streams_.clear();
    tail_ = 0;
    flush_seq_ = 0;
    poison_ = OkStatus();
  }

 private:
  // Per-frame header: [global_offset u64][len u32].
  static constexpr std::uint64_t kFrameHeader = 12;
  // Smallest stripe worth its own control-block commit; flushes below
  // S * this use fewer stripes (a lone small flush stays whole).
  static constexpr std::uint64_t kMinStripeBytes = 64ull << 10;

  struct ShardStream {
    PmLogStream log;
    std::uint64_t tail = 0;   // framed bytes appended to this stream
    std::uint64_t epoch = 0;  // stripes committed to this stream
    std::uint64_t global_tail = 0;  // global tail at the last commit
  };
  // A validated stripe frame: global interval [goff, gend), ending at
  // stream position spos_end.
  struct Frame {
    std::uint64_t goff;
    std::uint64_t gend;
    std::uint64_t spos_end;
  };
  using FrameTables = std::vector<std::vector<Frame>>;

  // Commits one already-framed stripe to `st` and advances the stream's
  // in-memory state on success. Stripes of one flush run in parallel,
  // each on its own stream.
  sim::Task<Status> CommitStripe(ShardStream& st,
                                 std::vector<std::byte> framed,
                                 std::uint64_t new_global,
                                 std::uint64_t op_id);
  // Reads every stream's committed bytes and assembles the global log
  // [0, tail) from their stripe frames; with `merge`, runs Merge on the
  // frame tables first (cold recovery). kFailedPrecondition if a stream
  // wrapped.
  sim::Task<Result<std::vector<std::byte>>> ReadStreams(bool merge);
  // Cold-recovery merge shared by RecoverLog and RecoverSummary.
  // `tables[s]` is stream s's frame table in stream order. Checks every
  // table against its stream's committed control, takes the covered
  // prefix of the union of global intervals, truncates stale sibling
  // stripes above a hole (rewriting their controls durably) and installs
  // the covered prefix as the tail. Returns the surviving frames.
  sim::Task<Result<FrameTables>> Merge(
      const std::vector<std::vector<pm::StripeFrame>>& tables);

  ShardedPmLogConfig config_;
  std::vector<ShardStream> streams_;
  std::uint64_t tail_ = 0;       // global logical tail (payload bytes)
  std::uint64_t flush_seq_ = 0;  // total committed flushes (round-robin)
  // Set when a flush could not land on any stream: appending above the
  // resulting hole would break I4, so the device fails fast instead.
  Status poison_;
};

// Factory used by ADP configuration.
enum class LogMedium { kDisk, kPm };

// Sequentially scans a volume holding framed records (timed disk reads)
// and returns the valid prefix — shared by the disk log writer and DP2
// data-volume recovery.
sim::Task<Result<std::vector<std::byte>>> ScanFramedVolume(
    nsk::NskProcess& host, storage::DiskVolume& volume);

}  // namespace ods::tp
