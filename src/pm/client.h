// Client PM access library (§4.1-§4.2).
//
// "Once a PM region has been opened by the PMM, clients can perform RDMA
// read and write operations directly to the NPMU memory comprising that
// region. ... To preserve data integrity the API writes data to both the
// primary and mirror NPMUs; reads need not be replicated. API operations
// are typically synchronous ... when the call returns the data is either
// persistent or the call will return in error."
//
// The control path (create/open/delete) is messages to the PMM service;
// the data path never touches the PMM except to report a dead device.
//
// Write contract, shared by every PmRegion write entry point and by
// mirrored device commands: all ops of a call are validated before any is
// posted; each op then goes to the primary and, while the mirror is up to
// date, to the mirror. Once every leg has resolved, each op is
//   durable        both legs ok (or the primary ok with no mirror leg);
//   survivor-held  exactly one leg kUnavailable and the other ok;
//   failed         any other outcome.
// Each dead endpoint of a survivor-held op is reported to the PMM once
// (kPmMirrorDown), which durably demotes it and refreshes the handle. A
// survivor-held op counts as written only if that report was recorded:
// acking on an unrecorded demotion would let a later recovery resurrect
// the stale device as a live mirror that silently misses the write. The
// call returns OK iff every op counts as written, else the first failing
// op's error.
//
// Reads and device queries go to the primary; when it is unavailable they
// fail over to the up-to-date mirror and report the primary down.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "net/fabric.h"
#include "nsk/process.h"
#include "pm/manager.h"
#include "pm/shard_map.h"

namespace ods::pm {

class PmClient;
class PmRegion;

// Completion token for an asynchronous mirrored write (WriteAsync).
// Resolves under the write contract above; failover happens inside the
// token's completion path. Validation errors are born ready. Awaiting a
// token does not consume it; Wait() after ready() returns the cached
// status.
class PmWriteToken {
 public:
  PmWriteToken() = default;

  // True once the final status is known.
  [[nodiscard]] bool ready() const noexcept {
    return !pending_.has_value() || pending_->ready();
  }

  // co_await token.Wait() -> Status. Blocks the issuing process's fiber.
  sim::Task<Status> Wait();

 private:
  friend class PmRegion;
  explicit PmWriteToken(Status immediate) : immediate_(std::move(immediate)) {}
  PmWriteToken(sim::Process& proc, sim::Future<Status> pending)
      : proc_(&proc), pending_(std::move(pending)) {}

  sim::Process* proc_ = nullptr;
  std::optional<sim::Future<Status>> pending_;
  Status immediate_;
};

// An open region bound to one host process. Byte-grained, synchronous.
class PmRegion {
 public:
  PmRegion() = default;

  [[nodiscard]] const RegionHandle& handle() const noexcept { return handle_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return handle_.length; }
  [[nodiscard]] bool valid() const noexcept { return host_ != nullptr; }

  // Synchronous write under the write contract (file comment).
  //
  // Every write/read takes a trailing `op_id` — an opaque correlation id
  // (0 = untagged) carried into the fabric's trace stream so one commit
  // can be followed across layers.
  sim::Task<Status> Write(std::uint64_t offset, std::vector<std::byte> data,
                          std::uint64_t op_id = 0);

  // Non-blocking write: both mirror legs are on the wire before this
  // returns. The software latency of later writes overlaps the wire time
  // of earlier ones — the primitive under PmWritePipeline.
  PmWriteToken WriteAsync(std::uint64_t offset, std::vector<std::byte> data,
                          std::uint64_t op_id = 0);

  // Scatter variant: independent (offset, bytes) writes issued
  // concurrently (RDMA queue depth) and awaited together, each one op of
  // the write contract — the data path for incremental pointer-fixing
  // flushes (§3.4).
  struct ScatterOp {
    std::uint64_t offset;
    std::vector<std::byte> bytes;
  };
  sim::Task<Status> WriteScatter(std::vector<ScatterOp> ops,
                                 std::uint64_t op_id = 0);

  // Ordered-chain variant: all segments go out as ONE chained RDMA op per
  // mirror (a single software-latency initiation). Segments land strictly
  // in order and a failure in segment k suppresses every later segment —
  // the ordering guarantee the log device relies on to piggyback its
  // control block behind the data it covers (§3.4).
  sim::Task<Status> WriteChain(std::vector<ScatterOp> ops,
                               std::uint64_t op_id = 0);

  // Synchronous read from the primary mirror (failover to the other).
  sim::Task<Result<std::vector<std::byte>>> Read(std::uint64_t offset,
                                                 std::uint64_t len,
                                                 std::uint64_t op_id = 0);

  // Ships a device command (pm/offload.h) to the region's NPMU and
  // returns its response. `mirrored` = the command mutates device state
  // (CompactTo): it goes to both mirrors as one op of the write contract
  // and returns the primary's response. Queries (VerifyScan, ShipReplay)
  // are read-style. kFailedPrecondition means the device is passive —
  // callers fall back to the host path.
  sim::Task<Result<std::vector<std::byte>>> DeviceCommand(
      std::uint32_t opcode, std::vector<std::byte> request,
      bool mirrored = false, std::uint64_t op_id = 0);

  // ---- durability (common/durability.h) ----
  //
  // Per-region override of the fabric-wide durability mode; every write
  // this region issues carries it down to the persist phase. nullopt
  // (default) = follow FabricConfig::durability_mode.
  void set_durability(std::optional<DurabilityMode> mode) noexcept {
    durability_ = mode;
  }
  [[nodiscard]] std::optional<DurabilityMode> durability() const noexcept {
    return durability_;
  }
  // The mode this region's writes actually run under (override or the
  // fabric default). Only meaningful on a bound region.
  [[nodiscard]] DurabilityMode EffectiveDurability() const noexcept;

  // Simulation of the bound host (nullptr when unbound) — lets the write
  // pipeline reach the tracer/metrics without knowing about nsk.
  [[nodiscard]] sim::Simulation* simulation() noexcept;

  // Service name of the PMM pair owning this region (the routed shard).
  [[nodiscard]] const std::string& owner_service() const noexcept {
    return owner_service_;
  }

 private:
  friend class PmClient;
  PmRegion(PmClient& client, nsk::NskProcess& host, RegionHandle handle,
           std::string owner_service)
      : client_(&client), host_(&host), handle_(std::move(handle)),
        owner_service_(std::move(owner_service)) {}

  // One op's legs: on the primary and, if the mirror was up, the mirror.
  struct MirrorLegs {
    sim::Future<Status> primary;
    std::optional<sim::Future<Status>> mirror;
  };
  struct LegStatus {
    Status primary;
    std::optional<Status> mirror;  // nullopt: no mirror leg was issued
  };
  // The endpoints a call's legs were posted to, captured at issue.
  struct LegEndpoints {
    std::uint32_t primary = 0;
    std::uint32_t mirror = 0;
  };
  // A posted call: its ops' legs plus what its trace span reports.
  struct InFlight {
    std::vector<MirrorLegs> legs;
    LegEndpoints posted;
    std::uint64_t nbytes = 0;
    std::int64_t issued_ns = 0;
  };

  // The one issue path. Validates every op, then posts them to each
  // up-to-date mirror: as ONE chain when `chained`, else one chain per
  // op. Nothing is posted when any op fails validation.
  Result<InFlight> Issue(std::vector<ScatterOp> ops, bool chained,
                         std::uint64_t op_id);
  // The one write-failover rule (file comment) over the legs of N >= 1
  // ops, in op order, posted to the endpoints `posted`.
  sim::Task<Status> Resolve(std::vector<LegStatus> ops, LegEndpoints posted);
  // Awaits every leg of `w` in issue order, then resolves.
  sim::Task<Status> Settle(InFlight& w);
  // Settles a single-op call and closes its `span_name` trace span (a
  // string literal) on the pm_client lane. Write awaits it inline;
  // WriteAsync and WriteChain run it in a spawned fiber behind a token.
  sim::Task<Status> Complete(InFlight w, const char* span_name,
                             std::uint64_t op_id);
  PmWriteToken Launch(InFlight w, const char* span_name, std::uint64_t op_id);
  // Emits a write's span (args "bytes" and `key`) and the persist marker
  // of the effective durability mode (arg `key`).
  void TraceWrite(const char* span_name, const InFlight& w,
                  std::uint64_t op_id, const char* key, std::uint64_t value);

  // Read-style failover: runs `op` on the primary; when that is
  // unavailable and the mirror up to date, on the mirror — and a mirror
  // success reports the primary down.
  sim::Task<Result<std::vector<std::byte>>> PrimaryOrMirror(
      std::function<sim::Task<net::RdmaResult>(net::EndpointId)> op);

  // Tells the PMM a device looks dead and refreshes the handle. Returns
  // true only once the PMM acknowledged, i.e. the role change is durable.
  // A device the handle already shows demoted (neither primary nor up
  // mirror) is not reported again: the handle changes only on an acked
  // report, so that demotion is durable, and a second report would name
  // the promoted survivor.
  sim::Task<bool> ReportDeviceDown(std::uint32_t endpoint);

  PmClient* client_ = nullptr;
  nsk::NskProcess* host_ = nullptr;
  RegionHandle handle_;
  std::string owner_service_;
  std::optional<DurabilityMode> durability_;
};

// Pipelines mirrored writes through a region at a fixed queue depth.
// Writes are staged one op at a time; a submit adjacent to the staged op
// is merged into it (one fabric op instead of two), and a full queue
// exerts backpressure by awaiting the oldest in-flight token.
// Single-submitter discipline: one fiber calls Submit/Drain. Durability
// point is Drain(): it resolves once everything submitted so far is
// persistent and returns the first error seen since the previous Drain.
//
// Counts go to the bound host's metrics registry: "pm.pipeline.issued"
// (ops handed to the fabric), "pm.pipeline.coalesced" (submits merged
// into the staged op) and "pm.pipeline.depth" (in-flight depth sampled
// at each issue).
class PmWritePipeline {
 public:
  static constexpr std::size_t kQueueDepth = 8;  // max in-flight fabric ops
  static constexpr std::size_t kMaxCoalesceBytes = 256 * 1024;

  // `region` must be bound (it supplies the registry).
  explicit PmWritePipeline(PmRegion& region);

  // Queues a write of `bytes` at `offset`. Blocks only for backpressure
  // (queue at depth), never for durability. `op_id` tags the staged
  // fabric op for tracing; a coalesced submit keeps the first op's tag.
  sim::Task<Status> Submit(std::uint64_t offset, std::vector<std::byte> bytes,
                           std::uint64_t op_id = 0);

  // Barrier: everything submitted before this call is durable (or failed)
  // when it resolves. Clears the sticky error it returns.
  sim::Task<Status> Drain();

  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size();
  }

 private:
  // Issues the staged op, first waiting out backpressure.
  sim::Task<void> IssueStaged();

  PmRegion* region_;
  Counter* issued_ = nullptr;
  Counter* coalesced_ = nullptr;
  LatencyHistogram* depth_ = nullptr;
  std::optional<PmRegion::ScatterOp> staged_;
  std::uint64_t staged_op_id_ = 0;  // trace tag of the staged op
  std::deque<PmWriteToken> inflight_;
  Status error_;  // first failure since the last Drain
};

class PmClient {
 public:
  // `host` is the process on whose behalf operations run (its CPU's
  // fabric endpoint is the RDMA initiator). `pmm_service` is the PMM
  // pair's service name.
  PmClient(nsk::NskProcess& host, std::string pmm_service)
      : host_(&host), map_(pmm_service, 1),
        pmm_service_(std::move(pmm_service)) {}

  // Shard-routed client: control operations for a region go to the shard
  // the map places that region name on; each returned PmRegion stays
  // bound to its owning shard for later failure reports. Volume-wide
  // calls (Info, Resilver) address shard 0 — use a per-shard plain
  // client to manage other shards individually.
  PmClient(nsk::NskProcess& host, ShardMap map)
      : host_(&host), map_(std::move(map)),
        pmm_service_(map_.ServiceForShard(0)) {}

  // Creates a region of `length` bytes. `access_list` restricts which
  // CPUs (fabric endpoints) may touch it; empty = any. The caller's CPU
  // is always included. Retries that race a completed create return the
  // existing region (idempotent).
  sim::Task<Result<PmRegion>> Create(const std::string& name,
                                     std::uint64_t length,
                                     std::vector<std::uint32_t> access_list = {});

  sim::Task<Result<PmRegion>> Open(const std::string& name);
  sim::Task<Status> Delete(const std::string& name);
  sim::Task<Result<VolumeInfo>> Info();

  // Asks the PMM to rebuild a repaired mirror from the primary (full
  // copy). Returns the number of bytes copied. Callers should quiesce
  // writers for a consistent rebuild.
  sim::Task<Result<std::uint64_t>> Resilver();

  [[nodiscard]] const std::string& pmm_service() const noexcept {
    return pmm_service_;
  }
  [[nodiscard]] const ShardMap& shard_map() const noexcept { return map_; }
  // Service owning `name` under this client's map (== pmm_service() for
  // an unsharded client).
  [[nodiscard]] std::string RouteFor(const std::string& name) const {
    return map_.ServiceFor(name);
  }
  [[nodiscard]] nsk::NskProcess& host() noexcept { return *host_; }

 private:
  friend class PmRegion;

  nsk::NskProcess* host_;
  ShardMap map_;
  std::string pmm_service_;
};

}  // namespace ods::pm
