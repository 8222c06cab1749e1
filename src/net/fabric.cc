#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "sim/fault_plan.h"

namespace ods::net {

using sim::SimDuration;
using sim::SimTime;

// ---------------------------------------------------------------- Endpoint

Endpoint::Endpoint(Fabric& fabric, EndpointId id, std::string name)
    : fabric_(fabric), id_(id), name_(std::move(name)),
      incoming_(fabric.sim()) {}

Status Endpoint::MapWindow(AttWindow window) {
  if (window.memory == nullptr || window.length == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty ATT window");
  }
  for (const AttWindow& w : windows_) {
    const bool disjoint = window.nva_base + window.length <= w.nva_base ||
                          w.nva_base + w.length <= window.nva_base;
    if (!disjoint) {
      return Status(ErrorCode::kInvalidArgument,
                    "ATT window overlaps an existing mapping");
    }
  }
  windows_.push_back(std::move(window));
  return OkStatus();
}

Status Endpoint::UnmapWindow(std::uint64_t nva_base) {
  auto it = std::find_if(windows_.begin(), windows_.end(),
                         [&](const AttWindow& w) { return w.nva_base == nva_base; });
  if (it == windows_.end()) {
    return Status(ErrorCode::kNotFound, "no ATT window at that address");
  }
  windows_.erase(it);
  return OkStatus();
}

Result<AttWindow*> Endpoint::Translate(EndpointId initiator, std::uint64_t nva,
                                       std::uint64_t len, bool for_write) {
  for (AttWindow& w : windows_) {
    if (nva >= w.nva_base && nva + len <= w.nva_base + w.length) {
      if (!w.allowed_initiators.empty() &&
          std::find(w.allowed_initiators.begin(), w.allowed_initiators.end(),
                    initiator) == w.allowed_initiators.end()) {
        return Status(ErrorCode::kPermissionDenied,
                      "initiator not in window access list");
      }
      if (for_write && !w.writable) {
        return Status(ErrorCode::kPermissionDenied, "window is read-only");
      }
      return &w;
    }
  }
  return Status(ErrorCode::kOutOfRange,
                "no ATT window covers the requested range");
}

sim::Future<Status> Endpoint::StartWrite(EndpointId target, std::uint64_t nva,
                                         std::vector<std::byte> data,
                                         std::uint64_t op_id) {
  std::vector<ChainSegment> segments;
  segments.push_back(ChainSegment{nva, std::move(data)});
  return StartWriteChain(target, std::move(segments), op_id);
}

namespace {

// One chain segment's delivery state: the landed prefix of its payload is
// applied to target memory by the batched delivery event.
struct LandedLeg {
  std::byte* base;
  std::function<void(std::uint64_t, std::uint64_t)> on_write;
  std::uint64_t window_off;
  std::uint64_t nva;  // device network virtual address (staging model)
  std::vector<std::byte> payload;
  std::uint64_t landed;  // bytes of this leg that arrived intact
};

// Persist-phase shape of one durability mode: extra command/response
// packets on the wire, extra command bytes, and the trace span name. The
// latency comes from FabricConfig's per-mode knobs.
struct PersistShape {
  std::uint64_t packets;
  std::uint64_t bytes;
  bool is_read;  // RAW's flush is a real RDMA read
  const char* span;
};

PersistShape ShapeFor(DurabilityMode mode) noexcept {
  switch (mode) {
    case DurabilityMode::kReadAfterWrite:
      // Read request + 8-byte response.
      return {2, 8, /*is_read=*/true, "rdma.persist.raw"};
    case DurabilityMode::kDeviceAck:
      // Send to the device agent + its ack message.
      return {2, 32, /*is_read=*/false, "rdma.persist.devack"};
    case DurabilityMode::kNativeFlush:
      // One flush work request chained behind the data.
      return {1, 16, /*is_read=*/false, "rdma.persist.flush"};
    case DurabilityMode::kPostedWriteOnly:
      break;
  }
  return {0, 0, false, nullptr};
}

}  // namespace

sim::Future<Status> Endpoint::StartWriteChain(EndpointId target,
                                              std::vector<ChainSegment> segments,
                                              std::uint64_t op_id) {
  sim::Promise<Status> done(fabric_.sim());
  auto fut = done.GetFuture();
  auto& sim = fabric_.sim();
  const FabricConfig& cfg = fabric_.config();
  const DurabilityMode dmode = cfg.durability_mode;
  const bool persist_phase = dmode != DurabilityMode::kPostedWriteOnly;

  // Crash-point instrumentation: every write completion — the moment the
  // initiator learns the outcome — is an injection site. The site fires
  // just BEFORE the future resolves, so an armed fault (process halt,
  // device power cycle) lands when the data's durability is decided but
  // the initiator has not yet acted on it.
  auto fail_after = [&, target](SimDuration d, Status s) {
    sim.After(d, [&sim, done, target, s = std::move(s)]() mutable {
      sim::FaultPoint(sim, sim::FaultSiteKind::kRdmaWriteComplete,
                      "write-err:ep" + std::to_string(target.value));
      done.Set(std::move(s));
    });
  };

  if (fabric_.FirstHealthyRail() < 0) {
    fail_after(cfg.software_latency,
               Status(ErrorCode::kUnavailable, "all fabric rails down"));
    return fut;
  }
  Endpoint* tgt = fabric_.Find(target);
  if (tgt == nullptr) {
    fail_after(cfg.software_latency,
               Status(ErrorCode::kInvalidArgument, "unknown target endpoint"));
    return fut;
  }
  const SimDuration round_trip =
      cfg.software_latency + cfg.packet_latency * 2 + cfg.ack_latency;
  if (tgt->down()) {
    fail_after(round_trip,
               Status(ErrorCode::kUnavailable, "target endpoint down"));
    return fut;
  }
  // Translate every segment before anything is posted: a bad chain fails
  // whole, nothing lands.
  std::vector<LandedLeg> legs;
  legs.reserve(segments.size());
  std::uint64_t total = 0;
  const std::uint64_t first_seg_nva = segments.empty() ? 0 : segments[0].nva;
  for (ChainSegment& seg : segments) {
    auto win = tgt->Translate(id_, seg.nva, seg.data.size(), /*for_write=*/true);
    if (!win.ok()) {
      fail_after(round_trip, win.status());
      return fut;
    }
    total += seg.data.size();
    legs.push_back(LandedLeg{(*win)->memory + (seg.nva - (*win)->nva_base),
                             (*win)->on_write, seg.nva - (*win)->nva_base,
                             seg.nva, std::move(seg.data), 0});
  }
  // Staging ticket shared between the delivery event (which stages the
  // landed bytes) and the persist event (which drains them): only needed
  // when the target models a volatile buffer AND this op has a persist
  // phase to check it. Allocation-free on the default path.
  std::shared_ptr<std::uint64_t> ticket;
  if (persist_phase && tgt->stage_hook_) {
    ticket = std::make_shared<std::uint64_t>(0);
  }

  // Packetize each segment in order along one timeline: the whole chain
  // pays one software latency, and a corrupted packet aborts the rest of
  // the chain (later segments never land). Timing, per-packet corruption
  // draws, and counters are identical to delivering each packet with its
  // own event — but the landed prefix is applied by ONE delivery event at
  // the arrival time of its last packet, so a boxcar of N packets costs
  // one event instead of N (the payloads move into the batch; nothing is
  // reference-counted per packet). Concurrent transfers to the same
  // target queue on its ingress link.
  const SimTime now = sim.Now();
  const SimTime link_free = std::max(now, tgt->link_busy_until_);
  SimDuration wire{0};
  for (const LandedLeg& leg : legs) {
    wire = wire + fabric_.TransferTime(leg.payload.size());
  }
  tgt->link_busy_until_ = link_free + wire;
  SimDuration t = (link_free - now) + cfg.software_latency;
  const int rail = fabric_.PickRail();
  Counter* rail_counter =
      rail >= 0 ? fabric_.rail_packets_[static_cast<std::size_t>(rail)]
                : nullptr;
  fabric_.rdma_write_ops_++;
  bool aborted = false;
  SimDuration last_land{0};  // arrival of the last non-corrupt packet
  bool any_landed = false;
  for (LandedLeg& leg : legs) {
    const std::uint64_t len = leg.payload.size();
    for (std::uint64_t off = 0; off < len && !aborted; off += cfg.mtu_bytes) {
      const std::uint64_t chunk = std::min<std::uint64_t>(cfg.mtu_bytes, len - off);
      t += cfg.packet_latency +
           sim::FromSecondsD(static_cast<double>(chunk) /
                             cfg.bandwidth_bytes_per_sec);
      fabric_.packets_sent_++;
      fabric_.write_packets_++;
      if (rail_counter != nullptr) rail_counter->Increment();
      if (sim.rng().Bernoulli(fabric_.corruption_rate_)) {
        // The receiving NIC's CRC check rejects this packet: nothing lands,
        // the initiator sees a failed transfer. Earlier packets have
        // already landed — the write is torn.
        fabric_.packets_corrupted_++;
        fabric_.crc_detections_++;
        fail_after(t + cfg.ack_latency,
                   Status(ErrorCode::kDataLoss, "packet CRC check failed"));
        aborted = true;
        break;
      }
      leg.landed = off + chunk;
      last_land = t;
      any_landed = true;
    }
    if (aborted) break;
  }
  if (any_landed) {
    sim.After(last_land, [batch = std::move(legs), tgt, ticket] {
      std::uint64_t tk = 0;
      for (const LandedLeg& leg : batch) {
        if (leg.landed == 0) continue;
        std::memcpy(leg.base, leg.payload.data(), leg.landed);
        if (leg.on_write) leg.on_write(leg.window_off, leg.landed);
        if (tgt->stage_hook_) tk = tgt->stage_hook_(leg.nva, leg.landed);
      }
      if (ticket) *ticket = tk;
    });
  }
  SimDuration completion = t + cfg.ack_latency;
  if (!aborted) {
    fabric_.bytes_transferred_ += total;
    // Site args: {first nva, total bytes} — crash sweeps use them to spot
    // metadata-slot writes landing on a device.
    const std::uint64_t first_nva = first_seg_nva;
    if (!persist_phase) {
      sim.After(completion, [&sim, done, target, first_nva,
                             total]() mutable {
        sim::FaultPoint(sim, sim::FaultSiteKind::kRdmaWriteComplete,
                        "write-ack:ep" + std::to_string(target.value),
                        {first_nva, total});
        done.Set(OkStatus());
      });
    } else {
      // Persist phase: the mode's primitive rides behind the data on the
      // same QP, drains the target's staging buffer, and only then is the
      // op's completion externalized. A staging loss in the window between
      // landing and the drain fails the op — the initiator never gets a
      // durability ack for bytes that are gone.
      const PersistShape shape = ShapeFor(dmode);
      const SimDuration persist_lat =
          dmode == DurabilityMode::kReadAfterWrite ? cfg.persist_raw_latency
          : dmode == DurabilityMode::kDeviceAck    ? cfg.persist_ack_latency
                                                   : cfg.persist_flush_latency;
      completion = t +
                   cfg.packet_latency *
                       static_cast<std::int64_t>(shape.packets) +
                   persist_lat + cfg.ack_latency;
      fabric_.persist_packets_ += shape.packets;
      fabric_.persist_bytes_ += shape.bytes;
      fabric_.packets_sent_ += shape.packets;
      if (shape.is_read) {
        fabric_.rdma_read_ops_++;
        fabric_.read_packets_ += shape.packets;
      } else {
        fabric_.write_packets_ += shape.packets;
      }
      fabric_.PersistCounter(dmode).Increment();
      Fabric& fab = fabric_;
      sim.After(completion, [&sim, &fab, done, target, first_nva, total, tgt,
                             ticket]() mutable {
        const bool persisted =
            tgt->persist_hook_ ? tgt->persist_hook_(ticket ? *ticket : 0)
                               : true;
        if (!persisted) {
          fab.persist_failures_++;
          sim::FaultPoint(sim, sim::FaultSiteKind::kRdmaWriteComplete,
                          "write-err:ep" + std::to_string(target.value));
          done.Set(Status(ErrorCode::kDataLoss,
                          "staged data lost before persist"));
          return;
        }
        sim::FaultPoint(sim, sim::FaultSiteKind::kRdmaWriteComplete,
                        "write-ack:ep" + std::to_string(target.value),
                        {first_nva, total});
        done.Set(OkStatus());
      });
    }
  }
  // Span covering initiation to final ack. Everything is known at post
  // time (discrete-event model), so recording here keeps event order —
  // and therefore the exported bytes — deterministic.
  if (Tracer* tr = sim.tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kFabric,
                 aborted ? "rdma.write.crc_abort" : "rdma.write", now.ns,
                 (now + t + cfg.ack_latency).ns, op_id, "bytes", total, "rail",
                 rail < 0 ? 0 : static_cast<std::uint64_t>(rail));
    if (!aborted && persist_phase) {
      // The persist round trip gets its own span so a Perfetto trace
      // shows exactly where each mode's extra latency lands.
      tr->Complete(TraceLane::kFabric, ShapeFor(dmode).span,
                   (now + t + cfg.ack_latency).ns, (now + completion).ns,
                   op_id, "bytes", ShapeFor(dmode).bytes, "mode",
                   static_cast<std::uint64_t>(dmode));
    }
  }
  return fut;
}

sim::Future<RdmaResult> Endpoint::StartRead(EndpointId target,
                                            std::uint64_t nva,
                                            std::uint64_t len,
                                            std::uint64_t op_id) {
  sim::Promise<RdmaResult> done(fabric_.sim());
  auto fut = done.GetFuture();
  auto& sim = fabric_.sim();
  const FabricConfig& cfg = fabric_.config();

  auto fail_after = [&](SimDuration d, Status s) {
    sim.After(d, [done, s = std::move(s)]() mutable {
      done.Set(RdmaResult{std::move(s), {}});
    });
  };

  if (fabric_.FirstHealthyRail() < 0) {
    fail_after(cfg.software_latency,
               Status(ErrorCode::kUnavailable, "all fabric rails down"));
    return fut;
  }
  Endpoint* tgt = fabric_.Find(target);
  if (tgt == nullptr) {
    fail_after(cfg.software_latency,
               Status(ErrorCode::kInvalidArgument, "unknown target endpoint"));
    return fut;
  }
  const SimDuration request_leg = cfg.software_latency + cfg.packet_latency;
  if (tgt->down()) {
    fail_after(request_leg + cfg.packet_latency + cfg.ack_latency,
               Status(ErrorCode::kUnavailable, "target endpoint down"));
    return fut;
  }
  auto win = tgt->Translate(id_, nva, len, /*for_write=*/false);
  if (!win.ok()) {
    fail_after(request_leg + cfg.packet_latency + cfg.ack_latency,
               win.status());
    return fut;
  }
  const std::byte* base = (*win)->memory + (nva - (*win)->nva_base);

  // The device snapshots memory when the request arrives, then the data
  // streams back packet by packet (the response occupies the target's
  // egress; we bill it to the same link-occupancy clock as writes).
  {
    const SimTime now = sim.Now();
    const SimTime link_free = std::max(now, tgt->link_busy_until_);
    tgt->link_busy_until_ = link_free + fabric_.TransferTime(len);
  }
  const int rail = fabric_.PickRail();
  fabric_.rdma_read_ops_++;
  const std::int64_t issued_ns = sim.Now().ns;
  sim.After(request_leg, [this, done, base, len, &sim, cfg, rail, op_id,
                          issued_ns]() mutable {
    Counter* rail_counter =
        rail >= 0 ? fabric_.rail_packets_[static_cast<std::size_t>(rail)]
                  : nullptr;
    auto trace_read = [&](const char* name, SimDuration tail) {
      if (Tracer* tr = sim.tracer(); tr != nullptr && tr->enabled()) {
        tr->Complete(TraceLane::kFabric, name, issued_ns,
                     (sim.Now() + tail).ns, op_id, "bytes", len, "rail",
                     rail < 0 ? 0 : static_cast<std::uint64_t>(rail));
      }
    };
    std::vector<std::byte> data(base, base + len);
    SimDuration t{0};
    const std::uint64_t n_packets =
        std::max<std::uint64_t>(1, (len + cfg.mtu_bytes - 1) / cfg.mtu_bytes);
    for (std::uint64_t i = 0; i < n_packets; ++i) {
      fabric_.packets_sent_++;
      fabric_.read_packets_++;
      if (rail_counter != nullptr) rail_counter->Increment();
      if (sim.rng().Bernoulli(fabric_.corruption_rate_)) {
        fabric_.packets_corrupted_++;
        fabric_.crc_detections_++;
        const std::uint64_t chunk =
            std::min<std::uint64_t>(cfg.mtu_bytes, len - i * cfg.mtu_bytes);
        t += cfg.packet_latency +
             sim::FromSecondsD(static_cast<double>(chunk) /
                               cfg.bandwidth_bytes_per_sec);
        sim.After(t, [done]() mutable {
          done.Set(RdmaResult{
              Status(ErrorCode::kDataLoss, "response packet CRC failed"), {}});
        });
        trace_read("rdma.read.crc_abort", t);
        return;
      }
      const std::uint64_t chunk =
          std::min<std::uint64_t>(cfg.mtu_bytes, len - i * cfg.mtu_bytes);
      t += cfg.packet_latency +
           sim::FromSecondsD(static_cast<double>(chunk) /
                             cfg.bandwidth_bytes_per_sec);
    }
    fabric_.bytes_transferred_ += len;
    trace_read("rdma.read", t);
    sim.After(t, [done, data = std::move(data)]() mutable {
      done.Set(RdmaResult{OkStatus(), std::move(data)});
    });
  });
  return fut;
}

sim::Future<RdmaResult> Endpoint::StartCommand(EndpointId target,
                                               std::uint32_t opcode,
                                               std::vector<std::byte> request,
                                               std::uint64_t op_id) {
  sim::Promise<RdmaResult> done(fabric_.sim());
  auto fut = done.GetFuture();
  auto& sim = fabric_.sim();
  const FabricConfig& cfg = fabric_.config();

  auto fail_after = [&](SimDuration d, Status s) {
    sim.After(d, [done, s = std::move(s)]() mutable {
      done.Set(RdmaResult{std::move(s), {}});
    });
  };

  if (fabric_.FirstHealthyRail() < 0) {
    fail_after(cfg.software_latency,
               Status(ErrorCode::kUnavailable, "all fabric rails down"));
    return fut;
  }
  Endpoint* tgt = fabric_.Find(target);
  if (tgt == nullptr) {
    fail_after(cfg.software_latency,
               Status(ErrorCode::kInvalidArgument, "unknown target endpoint"));
    return fut;
  }
  const SimDuration round_trip =
      cfg.software_latency + cfg.packet_latency * 2 + cfg.ack_latency;
  if (tgt->down()) {
    fail_after(round_trip,
               Status(ErrorCode::kUnavailable, "target endpoint down"));
    return fut;
  }
  // The request queues on the target's ingress link like any transfer.
  const std::uint64_t req_bytes = request.size();
  const SimTime now = sim.Now();
  const SimTime link_free = std::max(now, tgt->link_busy_until_);
  tgt->link_busy_until_ = link_free + fabric_.TransferTime(req_bytes);
  const SimDuration request_leg = (link_free - now) + cfg.software_latency +
                                  fabric_.TransferTime(req_bytes);
  const std::uint64_t req_packets = std::max<std::uint64_t>(
      1, (req_bytes + cfg.mtu_bytes - 1) / cfg.mtu_bytes);
  fabric_.packets_sent_ += req_packets;
  const int rail = fabric_.PickRail();
  if (Counter* rc = rail >= 0
                        ? fabric_.rail_packets_[static_cast<std::size_t>(rail)]
                        : nullptr) {
    rc->Add(req_packets);
  }
  const std::int64_t issued_ns = now.ns;
  sim.After(request_leg, [this, done, tgt, target, opcode, op_id, rail,
                          issued_ns, req_bytes,
                          request = std::move(request)]() mutable {
    auto& s = fabric_.sim();
    const FabricConfig& fc = fabric_.config();
    CommandResult r;
    if (!tgt->command_hook_ || tgt->down()) {
      r.status = Status(ErrorCode::kFailedPrecondition,
                        "target device does not execute commands");
    } else {
      // The device executes against its state at request arrival (the
      // same snapshot semantics as a read).
      r = tgt->command_hook_(opcode, request);
    }
    // Response rides back once the device finishes; it occupies the
    // target's egress from that moment.
    const std::uint64_t resp_bytes = r.response.size();
    const SimTime done_at = s.Now() + r.device_time;
    const SimTime egress_free = std::max(done_at, tgt->link_busy_until_);
    tgt->link_busy_until_ = egress_free + fabric_.TransferTime(resp_bytes);
    const SimDuration tail = (egress_free - s.Now()) +
                             fabric_.TransferTime(resp_bytes) +
                             fc.ack_latency;
    const std::uint64_t resp_packets = std::max<std::uint64_t>(
        1, (resp_bytes + fc.mtu_bytes - 1) / fc.mtu_bytes);
    fabric_.packets_sent_ += resp_packets;
    if (Counter* rc =
            rail >= 0 ? fabric_.rail_packets_[static_cast<std::size_t>(rail)]
                      : nullptr) {
      rc->Add(resp_packets);
    }
    fabric_.NoteCommand(req_bytes + resp_bytes);
    if (Tracer* tr = s.tracer(); tr != nullptr && tr->enabled()) {
      tr->Complete(TraceLane::kFabric, "rdma.cmd", issued_ns,
                   (s.Now() + tail).ns, op_id, "opcode",
                   static_cast<std::uint64_t>(opcode), "bytes",
                   req_bytes + resp_bytes);
    }
    s.After(tail, [&sim = s, done, target, opcode, resp_bytes,
                   r = std::move(r)]() mutable {
      // Crash-injection site at the initiator-visible completion of a
      // device command — mirrors write-ack:epN for device mutations
      // (CompactTo). Only offload runs reach it, so passive traces are
      // untouched.
      sim::FaultPoint(sim, sim::FaultSiteKind::kCustom,
                      "cmd-ack:ep" + std::to_string(target.value),
                      {static_cast<std::uint64_t>(opcode), resp_bytes});
      done.Set(RdmaResult{std::move(r.status), std::move(r.response)});
    });
  });
  return fut;
}

namespace {

const Status& StatusOf(const Status& s) noexcept { return s; }
const Status& StatusOf(const RdmaResult& r) noexcept { return r.status; }

// Re-posts `start` once per rail while it fails kUnavailable and some rail
// is still healthy — models the NSK message system's automatic X/Y rail
// failover.
template <typename T>
sim::Task<T> RetryPerRail(Fabric& fabric, sim::Process& proc,
                          std::function<sim::Future<T>()> start) {
  T last;
  for (int attempt = 0; attempt < std::max(1, fabric.config().num_rails);
       ++attempt) {
    last = co_await start().Wait(proc);
    if (StatusOf(last).code() != ErrorCode::kUnavailable ||
        fabric.FirstHealthyRail() < 0) {
      break;
    }
  }
  co_return last;
}

}  // namespace

sim::Task<Status> Endpoint::Write(sim::Process& proc, EndpointId target,
                                  std::uint64_t nva,
                                  std::vector<std::byte> data,
                                  std::uint64_t op_id) {
  co_return co_await RetryPerRail<Status>(fabric_, proc, [&] {
    return StartWrite(target, nva, data, op_id);
  });
}

sim::Task<RdmaResult> Endpoint::Read(sim::Process& proc, EndpointId target,
                                     std::uint64_t nva, std::uint64_t len,
                                     std::uint64_t op_id) {
  co_return co_await RetryPerRail<RdmaResult>(fabric_, proc, [&] {
    return StartRead(target, nva, len, op_id);
  });
}

sim::Task<RdmaResult> Endpoint::Command(sim::Process& proc, EndpointId target,
                                        std::uint32_t opcode,
                                        std::vector<std::byte> request,
                                        std::uint64_t op_id) {
  co_return co_await RetryPerRail<RdmaResult>(fabric_, proc, [&] {
    return StartCommand(target, opcode, request, op_id);
  });
}

void Endpoint::PostMessage(EndpointId target, std::uint32_t kind,
                           std::vector<std::byte> payload) {
  Endpoint* tgt = fabric_.Find(target);
  if (tgt == nullptr || tgt->down() || fabric_.FirstHealthyRail() < 0) {
    return;  // dropped; senders detect loss via reply timeout (nsk layer)
  }
  const FabricConfig& cfg = fabric_.config();
  const SimDuration d = cfg.software_latency + cfg.packet_latency +
                        fabric_.TransferTime(payload.size());
  fabric_.message_bytes_ += payload.size();
  auto& sim = fabric_.sim();
  sim.After(d, [tgt, pkt = Packet{id_, kind, std::move(payload)}]() mutable {
    if (!tgt->down()) tgt->Incoming().Send(std::move(pkt));
  });
}

// ------------------------------------------------------------------ Fabric

Fabric::Fabric(sim::Simulation& sim, FabricConfig config)
    : sim_(sim), config_(config),
      rail_up_(static_cast<std::size_t>(std::max(1, config.num_rails)), true) {
  rail_packets_.reserve(rail_up_.size());
  for (std::size_t r = 0; r < rail_up_.size(); ++r) {
    rail_packets_.push_back(
        &sim_.metrics().GetCounter("fabric.rail" + std::to_string(r) +
                                   ".packets"));
  }
}

Counter& Fabric::PersistCounter(DurabilityMode mode) {
  // Registered on first use, not at construction: a default-mode run
  // never persists, and its metrics export must stay byte-identical to
  // the seed's (trace-determinism goldens).
  Counter*& c = persist_ops_[static_cast<std::size_t>(mode)];
  if (c == nullptr) {
    c = &sim_.metrics().GetCounter(std::string("fabric.persist.") +
                                   DurabilityModeName(mode));
  }
  return *c;
}

std::uint64_t Fabric::persist_ops() const noexcept {
  std::uint64_t total = 0;
  for (const Counter* c : persist_ops_) {
    if (c != nullptr) total += c->value();
  }
  return total;
}

void Fabric::NoteCommand(std::uint64_t bytes) {
  // Lazily registered so passive runs (which never issue device
  // commands) keep the seed's metrics export byte-identical.
  if (cmd_ops_counter_ == nullptr) {
    cmd_ops_counter_ = &sim_.metrics().GetCounter("fabric.cmd.ops");
    cmd_bytes_counter_ = &sim_.metrics().GetCounter("fabric.cmd.bytes");
  }
  cmd_ops_counter_->Increment();
  cmd_bytes_counter_->Add(bytes);
}

Endpoint& Fabric::CreateEndpoint(std::string name) {
  const EndpointId id{static_cast<std::uint32_t>(endpoints_.size())};
  endpoints_.push_back(std::make_unique<Endpoint>(*this, id, std::move(name)));
  return *endpoints_.back();
}

Endpoint* Fabric::Find(EndpointId id) noexcept {
  if (id.value >= endpoints_.size()) return nullptr;
  return endpoints_[id.value].get();
}

void Fabric::SetRailDown(int rail, bool is_down) {
  if (rail >= 0 && rail < static_cast<int>(rail_up_.size())) {
    rail_up_[static_cast<std::size_t>(rail)] = !is_down;
  }
}

bool Fabric::RailUp(int rail) const noexcept {
  return rail >= 0 && rail < static_cast<int>(rail_up_.size()) &&
         rail_up_[static_cast<std::size_t>(rail)];
}

int Fabric::PickRail() noexcept {
  for (std::size_t i = 0; i < rail_up_.size(); ++i) {
    const std::size_t r = (next_rail_ + i) % rail_up_.size();
    if (rail_up_[r]) {
      next_rail_ = r + 1;
      return static_cast<int>(r);
    }
  }
  return -1;
}

int Fabric::FirstHealthyRail() const noexcept {
  for (std::size_t i = 0; i < rail_up_.size(); ++i) {
    if (rail_up_[i]) return static_cast<int>(i);
  }
  return -1;
}

SimDuration Fabric::TransferTime(std::uint64_t bytes) const {
  const std::uint64_t n_packets =
      std::max<std::uint64_t>(1, (bytes + config_.mtu_bytes - 1) / config_.mtu_bytes);
  return config_.packet_latency * static_cast<std::int64_t>(n_packets) +
         sim::FromSecondsD(static_cast<double>(bytes) /
                           config_.bandwidth_bytes_per_sec);
}

}  // namespace ods::net
