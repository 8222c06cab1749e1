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
// the data path never touches the PMM. On device failure the client
// reports to the PMM (kPmMirrorDown), refreshes its handle, and continues
// on the surviving mirror — data remains durable throughout.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "nsk/process.h"
#include "pm/manager.h"
#include "pm/shard_map.h"

namespace ods::pm {

class PmClient;
class PmRegion;

// Completion token for an asynchronous mirrored write (WriteAsync,
// WriteChainAsync). Resolves OK only once the data is persistent on every
// up-to-date mirror — the same durability contract as the synchronous
// Write; mirror failover (report to the PMM, continue on the survivor)
// happens inside the token's completion path. Validation errors are born
// ready. Awaiting a token does not consume it; Wait() after ready()
// returns the cached status.
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

  // Synchronous write: mirrored to both NPMUs; returns once the data is
  // persistent (on every up-to-date mirror) or an error.
  //
  // Every write/read takes a trailing `op_id` — an opaque correlation id
  // (0 = untagged) carried into the fabric's trace stream so one commit
  // can be followed across layers.
  sim::Task<Status> Write(std::uint64_t offset, std::vector<std::byte> data,
                          std::uint64_t op_id = 0);

  // Non-blocking write: both mirror RDMAs are issued before this returns;
  // the token resolves once both up mirrors acked (or after failover to a
  // survivor). The software latency of later writes overlaps the wire
  // time of earlier ones — the primitive under PmWritePipeline and the
  // log device's pipelined append path.
  PmWriteToken WriteAsync(std::uint64_t offset, std::vector<std::byte> data,
                          std::uint64_t op_id = 0);

  // Gather variant: the segments are written back-to-back at `offset` as
  // one RDMA op per mirror (pointer-rich data without marshalling).
  sim::Task<Status> WriteV(std::uint64_t offset,
                           std::vector<std::vector<std::byte>> segments);

  // Scatter variant: independent (offset, bytes) writes issued
  // concurrently (RDMA queue depth) and awaited together — the data path
  // for incremental pointer-fixing flushes (§3.4). Returns the first
  // failure, but all writes are attempted.
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
  PmWriteToken WriteChainAsync(std::vector<ScatterOp> ops,
                               std::uint64_t op_id = 0);
  sim::Task<Status> WriteChain(std::vector<ScatterOp> ops,
                               std::uint64_t op_id = 0);

  // Synchronous read from the primary mirror (failover to the other).
  sim::Task<Result<std::vector<std::byte>>> Read(std::uint64_t offset,
                                                 std::uint64_t len,
                                                 std::uint64_t op_id = 0);

  // Ships a device command (pm/offload.h) to the region's NPMU and
  // returns its response. `mirrored` = the command mutates device state
  // (CompactTo): it is issued to both mirrors and succeeds only when
  // every up-to-date mirror executed it — same durability contract as a
  // write, including survivor failover. Queries (VerifyScan, ShipReplay)
  // go to the primary with read-style failover. kFailedPrecondition
  // means the device is passive — callers fall back to the host path.
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

  // ---- accounting ----
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }

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

  // Tells the PMM a device looks dead and refreshes the handle. Returns
  // true only once the PMM acknowledged, i.e. the role change is durable
  // — a survivor-only write may be acknowledged to the application only
  // on top of a durable demotion, or a later recovery could resurrect
  // the stale device as a live mirror.
  sim::Task<bool> ReportDeviceDown(std::uint32_t endpoint);

  // Shared completion logic for mirrored writes: both-acked success,
  // single-mirror-dead failover (report + refresh + succeed on the
  // survivor), hard error otherwise. `sm` is nullopt when no mirror leg
  // was issued.
  sim::Task<Status> ResolveMirrored(Status sp, std::optional<Status> sm,
                                    std::uint64_t nbytes);
  // Fiber body behind a PmWriteToken: awaits both legs, then resolves.
  // `span_name` must be a string literal; the completion span runs from
  // `issued_ns` (issue time) to resolution on the pm_client trace lane.
  sim::Task<Status> CompleteMirrored(sim::Future<Status> fp,
                                     std::optional<sim::Future<Status>> fm,
                                     std::uint64_t nbytes,
                                     const char* span_name,
                                     std::int64_t issued_ns,
                                     std::uint64_t op_id);
  // Wraps the completion fiber for issued mirror legs into a token.
  PmWriteToken LaunchMirrored(sim::Future<Status> fp,
                              std::optional<sim::Future<Status>> fm,
                              std::uint64_t nbytes, const char* span_name,
                              std::int64_t issued_ns, std::uint64_t op_id);

  PmClient* client_ = nullptr;
  nsk::NskProcess* host_ = nullptr;
  RegionHandle handle_;
  std::string owner_service_;
  std::optional<DurabilityMode> durability_;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
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
