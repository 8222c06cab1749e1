// A ServerNet-class system area network: a dual-rail RDMA fabric with
// per-endpoint network virtual address spaces.
//
// Semantics modelled from the paper (§3.3, §4, §4.1):
//  * each endpoint presents a 32-bit network virtual address space to
//    initiators; address-translation hardware in the NIC maps windows of
//    that space onto device memory and enforces per-initiator access
//    control;
//  * hosts perform host-initiated RDMA read/write directly against a
//    remote endpoint's memory, with no CPU on the remote side;
//  * packets are acknowledged in hardware; a completed transfer is
//    guaranteed to have arrived in the remote NIC with a correct CRC;
//  * the fabric is dual-rail (X/Y); an initiator fails over to the other
//    rail when one is down;
//  * software latency of an operation is 10-20us, plus wire time.
//
// Transfers land packet-by-packet: a simulated power failure between
// packet arrivals leaves a torn write, which is exactly the hazard the
// PMM's self-consistent metadata protocol (pm/metadata.h) must survive.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/durability.h"
#include "common/status.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/time.h"

namespace ods::net {

// Identifies a fabric endpoint (a CPU NIC, an NPMU, a disk controller...).
struct EndpointId {
  std::uint32_t value = 0;
  auto operator<=>(const EndpointId&) const = default;
};

struct FabricConfig {
  // Software + NIC initiation latency per operation (the paper's
  // "software latency is between 10 and 20 microseconds").
  sim::SimDuration software_latency = sim::Microseconds(15);
  // Per-packet wire latency (propagation + switching).
  sim::SimDuration packet_latency = sim::Microseconds(1);
  // Link bandwidth in bytes/second (ServerNet II class).
  double bandwidth_bytes_per_sec = 125e6;
  // Maximum payload per packet.
  std::uint32_t mtu_bytes = 512;
  // Hardware acknowledgement latency for the final packet.
  sim::SimDuration ack_latency = sim::Microseconds(1);
  int num_rails = 2;

  // ---- remote durability (common/durability.h) ----
  // Persist primitive executed after the data packets of every RDMA
  // write. kPostedWriteOnly reproduces the seed behaviour exactly: the
  // write ack is treated as the durability point and no persist phase is
  // scheduled (zero extra events, zero extra latency). The other modes
  // drain the target's staging buffer before the future resolves, each
  // paying its own device-side cost below.
  DurabilityMode durability_mode = DurabilityMode::kPostedWriteOnly;
  // Native flush: the NIC drains its own staging to media.
  sim::SimDuration persist_flush_latency = sim::Microseconds(2);
  // Read-after-write: the target PCIe complex flushes posted writes
  // before producing the read response (a full extra round trip).
  sim::SimDuration persist_raw_latency = sim::Microseconds(4);
  // Device-ack ("appliance method"): a device-side agent drains and
  // acks — remote-CPU latency dominates.
  sim::SimDuration persist_ack_latency = sim::Microseconds(8);
};

// Window of a target endpoint's network virtual address space mapped onto
// device memory by the address-translation hardware.
struct AttWindow {
  std::uint64_t nva_base = 0;
  std::uint64_t length = 0;
  std::byte* memory = nullptr;  // device memory backing this window
  // Initiators allowed to touch this window. Empty means "any".
  std::vector<EndpointId> allowed_initiators;
  bool writable = true;
  // Notified after a packet's payload lands in device memory (NPMUs use
  // this to mark dirty bytes for persistence accounting).
  std::function<void(std::uint64_t offset, std::uint64_t len)> on_write;
};

struct RdmaResult {
  Status status;
  std::vector<std::byte> data;  // for reads
};

// One segment of a chained RDMA write (StartWriteChain).
struct ChainSegment {
  std::uint64_t nva = 0;
  std::vector<std::byte> data;
};

class Fabric;

// One attachment point on the fabric. Endpoints are created via
// Fabric::CreateEndpoint and owned by the Fabric (stable addresses).
class Endpoint {
 public:
  Endpoint(Fabric& fabric, EndpointId id, std::string name);

  [[nodiscard]] EndpointId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Fabric& fabric() noexcept { return fabric_; }

  // ---- target side: address translation table ----

  // Maps [nva_base, nva_base+memory.size()) onto `memory`. Windows must
  // not overlap. Returns kInvalidArgument on overlap.
  Status MapWindow(AttWindow window);
  // Removes the window starting at nva_base (kNotFound if absent).
  Status UnmapWindow(std::uint64_t nva_base);
  void UnmapAll() { windows_.clear(); }

  // Marks the endpoint unreachable (device failure). Initiated operations
  // targeting it fail with kUnavailable.
  void SetDown(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool down() const noexcept { return down_; }

  // ---- target side: volatile staging model (durability ablation) ----
  //
  // A device that models a volatile NIC/PCIe staging buffer installs
  // these. `stage` is called when a write's payload lands (per chain
  // leg: first nva, landed bytes) and returns a staging ticket; `persist`
  // is called by the fabric's persist phase — it drains the whole staging
  // buffer to media and returns false iff a loss event (crash) happened
  // after the ticket was issued, i.e. the write's bytes are gone and the
  // op must NOT be acked as durable. Unset hooks (the default) mean
  // landed == durable, the seed model.
  void InstallStagingHooks(
      std::function<std::uint64_t(std::uint64_t nva, std::uint64_t len)> stage,
      std::function<bool(std::uint64_t ticket)> persist) {
    stage_hook_ = std::move(stage);
    persist_hook_ = std::move(persist);
  }
  [[nodiscard]] bool has_staging_hooks() const noexcept {
    return static_cast<bool>(stage_hook_);
  }

  // ---- target side: device command execution (active-NPMU offload) ----
  //
  // An ACTIVE device (NearPM/MCAS-style) installs a hook that executes
  // small commands against its own memory: the initiator ships a request
  // (VerifyScan, CompactTo, ShipReplay...), the device runs it near the
  // data and streams back only the result. The hook returns the response
  // plus the modeled on-device execution time; the fabric adds wire and
  // software latency around it. A device with no hook installed (the
  // paper's passive NPMU, the default) answers kFailedPrecondition —
  // callers fall back to the host-side path.
  struct CommandResult {
    Status status;
    std::vector<std::byte> response;
    sim::SimDuration device_time{0};  // modeled near-data execution time
  };
  using CommandHook = std::function<CommandResult(
      std::uint32_t opcode, std::span<const std::byte> request)>;
  void InstallCommandHook(CommandHook hook) { command_hook_ = std::move(hook); }
  [[nodiscard]] bool has_command_hook() const noexcept {
    return static_cast<bool>(command_hook_);
  }

  // ---- initiator side: host-initiated RDMA ----

  // Begins an RDMA write of `data` to `target`'s address space at `nva`.
  // The returned future resolves when the final packet is acknowledged;
  // per the paper, resolution with OK means the data arrived with a
  // correct CRC. Packets land in target memory as they arrive.
  //
  // `op_id` is an opaque correlation id carried into the trace stream
  // (0 = untagged); the TP layer threads the committing transaction id
  // down here so one commit's fabric ops can be picked out end to end.
  //
  // `mode` overrides the fabric-wide durability mode for this op
  // (nullopt = FabricConfig::durability_mode). Non-posted modes resolve
  // the future only after the mode's persist primitive completed on the
  // target — and fail with kDataLoss if the target's staging buffer was
  // lost in the window between landing and persisting.
  sim::Future<Status> StartWrite(EndpointId target, std::uint64_t nva,
                                 std::vector<std::byte> data,
                                 std::uint64_t op_id = 0,
                                 std::optional<DurabilityMode> mode =
                                     std::nullopt);

  // Begins a chained RDMA write: all segments are posted as ONE fabric
  // operation (a doorbell-batched work-queue chain), so the whole chain
  // pays a single software-latency initiation. Segments land strictly in
  // posting order, and a CRC failure in segment k suppresses the rest of
  // k and every later segment — ordered WQEs on one QP flush after an
  // error. This is the ordering primitive behind control-block
  // piggybacking in tp/log_device.cc: a trailing tail-pointer segment can
  // never become durable before the data segments it covers. All
  // segments are translated up front; a translation failure fails the
  // chain before anything lands.
  sim::Future<Status> StartWriteChain(EndpointId target,
                                      std::vector<ChainSegment> segments,
                                      std::uint64_t op_id = 0,
                                      std::optional<DurabilityMode> mode =
                                          std::nullopt);

  // Begins an RDMA read of `len` bytes from `target` at `nva`.
  sim::Future<RdmaResult> StartRead(EndpointId target, std::uint64_t nva,
                                    std::uint64_t len,
                                    std::uint64_t op_id = 0);

  // Ships a device command to `target` and resolves with its response.
  // Timing: software latency + request wire time, then the device
  // executes the command at request arrival (hook runs against the
  // device's state at that instant, like a read's memory snapshot), then
  // response wire time + ack. Request and response queue on the target's
  // ingress/egress link like any transfer, so concurrent commands to one
  // device serialize on the wire. kFailedPrecondition if the target has
  // no hook installed; command packets are CRC-protected at the device
  // protocol layer and skip the per-packet corruption model.
  sim::Future<RdmaResult> StartCommand(EndpointId target, std::uint32_t opcode,
                                       std::vector<std::byte> request,
                                       std::uint64_t op_id = 0);

  // Synchronous (fiber-blocking) variants with automatic rail failover.
  sim::Task<Status> Write(sim::Process& proc, EndpointId target,
                          std::uint64_t nva, std::vector<std::byte> data,
                          std::uint64_t op_id = 0,
                          std::optional<DurabilityMode> mode = std::nullopt);
  sim::Task<RdmaResult> Read(sim::Process& proc, EndpointId target,
                             std::uint64_t nva, std::uint64_t len,
                             std::uint64_t op_id = 0);
  sim::Task<RdmaResult> Command(sim::Process& proc, EndpointId target,
                                std::uint32_t opcode,
                                std::vector<std::byte> request,
                                std::uint64_t op_id = 0);

  // ---- messaging (the NSK message system rides on the fabric) ----

  struct Packet {
    EndpointId from;
    std::uint32_t kind = 0;
    std::vector<std::byte> payload;
  };

  // Delivers a message to `target`'s incoming queue after wire latency.
  // Fire-and-forget at this layer; request/reply lives in nsk/.
  void PostMessage(EndpointId target, std::uint32_t kind,
                   std::vector<std::byte> payload);

  [[nodiscard]] sim::Channel<Packet>& Incoming() noexcept { return incoming_; }

 private:
  friend class Fabric;

  // Translation: returns the window covering [nva, nva+len) or an error.
  Result<AttWindow*> Translate(EndpointId initiator, std::uint64_t nva,
                               std::uint64_t len, bool for_write);

  Fabric& fabric_;
  EndpointId id_;
  std::string name_;
  bool down_ = false;
  std::function<std::uint64_t(std::uint64_t, std::uint64_t)> stage_hook_;
  std::function<bool(std::uint64_t)> persist_hook_;
  CommandHook command_hook_;
  std::vector<AttWindow> windows_;
  sim::Channel<Packet> incoming_;
  // Ingress link occupancy: concurrent transfers to the same endpoint
  // queue behind each other on the wire (saturation behaviour for the
  // audit-throughput scaling experiment).
  sim::SimTime link_busy_until_{0};
};

// The fabric owns endpoints, models transfer timing, and injects faults.
class Fabric {
 public:
  Fabric(sim::Simulation& sim, FabricConfig config);

  Endpoint& CreateEndpoint(std::string name);
  [[nodiscard]] Endpoint* Find(EndpointId id) noexcept;
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

  // Fabric-wide durability mode for writes that don't pass a per-op
  // override. Settable at runtime so a rig can sweep the modes without
  // rebuilding the cluster.
  void set_durability_mode(DurabilityMode mode) noexcept {
    config_.durability_mode = mode;
  }
  [[nodiscard]] DurabilityMode durability_mode() const noexcept {
    return config_.durability_mode;
  }

  // ---- fault injection ----

  // Fails / restores one rail. Operations started on a failed rail fail
  // fast with kUnavailable; initiators retry on the surviving rail.
  void SetRailDown(int rail, bool is_down);
  [[nodiscard]] bool RailUp(int rail) const noexcept;
  [[nodiscard]] int FirstHealthyRail() const noexcept;

  // Probability that any given packet is corrupted in flight. Corrupted
  // packets are caught by the receiving NIC's CRC check: their payload is
  // not written to memory and the transfer fails with kDataLoss.
  void SetCorruptionRate(double p) noexcept { corruption_rate_ = p; }

  // ---- accounting (read by the data-integrity experiment, E10) ----
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return packets_sent_;
  }
  // Packets attributed to rail `rail` (ops stripe round-robin over the
  // healthy rails; all packets of one op ride one rail).
  [[nodiscard]] std::uint64_t rail_packets(int rail) const noexcept {
    return rail >= 0 && rail < static_cast<int>(rail_packets_.size())
               ? rail_packets_[static_cast<std::size_t>(rail)]->value()
               : 0;
  }
  // RDMA data operations posted (each StartWrite/StartWriteChain/
  // StartRead that reached the wire counts once; messaging excluded).
  [[nodiscard]] std::uint64_t rdma_write_ops() const noexcept {
    return rdma_write_ops_;
  }
  [[nodiscard]] std::uint64_t rdma_read_ops() const noexcept {
    return rdma_read_ops_;
  }
  [[nodiscard]] std::uint64_t write_packets() const noexcept {
    return write_packets_;
  }
  [[nodiscard]] std::uint64_t read_packets() const noexcept {
    return read_packets_;
  }
  [[nodiscard]] std::uint64_t packets_corrupted() const noexcept {
    return packets_corrupted_;
  }
  [[nodiscard]] std::uint64_t crc_detections() const noexcept {
    return crc_detections_;
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
    return bytes_transferred_;
  }
  // Persist-primitive accounting: ops/packets/bytes spent on the persist
  // phase of non-posted durability modes (excluded from
  // bytes_transferred(), which counts payload only).
  [[nodiscard]] std::uint64_t persist_ops() const noexcept;
  [[nodiscard]] std::uint64_t persist_packets() const noexcept {
    return persist_packets_;
  }
  [[nodiscard]] std::uint64_t persist_bytes() const noexcept {
    return persist_bytes_;
  }
  // Writes failed because the target's staging buffer was lost between
  // landing and persist (only non-posted modes can detect this).
  [[nodiscard]] std::uint64_t persist_failures() const noexcept {
    return persist_failures_;
  }
  // Device-command accounting (active-NPMU offload): ops posted and
  // request+response bytes on the wire. Excluded from
  // bytes_transferred(), which counts RDMA data payload only.
  [[nodiscard]] std::uint64_t command_ops() const noexcept {
    return cmd_ops_counter_ == nullptr ? 0 : cmd_ops_counter_->value();
  }
  [[nodiscard]] std::uint64_t command_bytes() const noexcept {
    return cmd_bytes_counter_ == nullptr ? 0 : cmd_bytes_counter_->value();
  }
  // Total message payload bytes posted via Endpoint::PostMessage (the
  // NSK message system). Messages pay wire latency but were never
  // counted anywhere — recovery-traffic experiments need them to price
  // the passive replay path honestly.
  [[nodiscard]] std::uint64_t message_bytes() const noexcept {
    return message_bytes_;
  }

  // Duration of `bytes` on the wire (packetized).
  [[nodiscard]] sim::SimDuration TransferTime(std::uint64_t bytes) const;

 private:
  friend class Endpoint;

  // Picks the rail for the next RDMA op: round-robin over healthy rails
  // (accounting only; the timing model is rail-agnostic). -1 = none up.
  [[nodiscard]] int PickRail() noexcept;

  // Lazily registered "fabric.persist.<mode>" counter (first-use
  // registration keeps default-mode metric exports seed-identical).
  [[nodiscard]] Counter& PersistCounter(DurabilityMode mode);
  // Lazily registered "fabric.cmd.ops"/"fabric.cmd.bytes" counters —
  // passive runs post no commands, so their exports stay seed-identical.
  void NoteCommand(std::uint64_t bytes);

  sim::Simulation& sim_;
  FabricConfig config_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<bool> rail_up_;
  double corruption_rate_ = 0.0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_corrupted_ = 0;
  std::uint64_t crc_detections_ = 0;
  std::uint64_t bytes_transferred_ = 0;
  std::uint64_t rdma_write_ops_ = 0;
  std::uint64_t rdma_read_ops_ = 0;
  std::uint64_t write_packets_ = 0;
  std::uint64_t read_packets_ = 0;
  std::uint64_t persist_packets_ = 0;
  std::uint64_t persist_bytes_ = 0;
  std::uint64_t persist_failures_ = 0;
  std::uint64_t message_bytes_ = 0;
  // Cached registry counters, one per rail ("fabric.rail<K>.packets");
  // resolved once at construction so the per-packet path is a pointer
  // bump, not a name lookup.
  std::vector<Counter*> rail_packets_;
  // Cached per-mode persist-op counters ("fabric.persist.<mode>"),
  // indexed by DurabilityMode; slot 0 (posted) is unused.
  std::array<Counter*, 4> persist_ops_{};
  // Lazily registered command counters (offload runs only).
  Counter* cmd_ops_counter_ = nullptr;
  Counter* cmd_bytes_counter_ = nullptr;
  std::size_t next_rail_ = 0;  // round-robin cursor for PickRail
};

}  // namespace ods::net
