#include "pm/client.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/serialize.h"

namespace ods::pm {

using sim::Task;

// ----------------------------------------------------------------- client

Task<Result<PmRegion>> PmClient::Create(const std::string& name,
                                        std::uint64_t length,
                                        std::vector<std::uint32_t> access_list) {
  if (!access_list.empty()) {
    const std::uint32_t self = host_->cpu().endpoint().id().value;
    if (std::find(access_list.begin(), access_list.end(), self) ==
        access_list.end()) {
      access_list.push_back(self);
    }
  }
  Serializer s;
  s.PutString(name);
  s.PutU64(length);
  s.PutU32(static_cast<std::uint32_t>(access_list.size()));
  for (std::uint32_t id : access_list) s.PutU32(id);

  std::string owner = RouteFor(name);
  auto r = co_await host_->Call(owner, kPmCreateRegion, std::move(s).Take());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok() && r->status.code() != ErrorCode::kAlreadyExists) {
    co_return r->status;
  }
  auto handle = RegionHandle::Deserialize(r->payload);
  if (!handle) {
    co_return Status(ErrorCode::kInternal, "malformed create reply");
  }
  co_return PmRegion(*this, *host_, std::move(*handle), std::move(owner));
}

Task<Result<PmRegion>> PmClient::Open(const std::string& name) {
  Serializer s;
  s.PutString(name);
  s.PutU32(host_->cpu().endpoint().id().value);
  std::string owner = RouteFor(name);
  auto r = co_await host_->Call(owner, kPmOpenRegion, std::move(s).Take());
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  auto handle = RegionHandle::Deserialize(r->payload);
  if (!handle) co_return Status(ErrorCode::kInternal, "malformed open reply");
  co_return PmRegion(*this, *host_, std::move(*handle), std::move(owner));
}

Task<Status> PmClient::Delete(const std::string& name) {
  Serializer s;
  s.PutString(name);
  auto r = co_await host_->Call(RouteFor(name), kPmDeleteRegion,
                                std::move(s).Take());
  if (!r.ok()) co_return r.status();
  co_return r->status;
}

Task<Result<VolumeInfo>> PmClient::Info() {
  auto r = co_await host_->Call(pmm_service_, kPmVolumeInfo, {});
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  Deserializer d(r->payload);
  VolumeInfo info;
  if (!d.GetBool(info.mirror_up) || !d.GetU64(info.free_bytes) ||
      !d.GetU32(info.region_count)) {
    co_return Status(ErrorCode::kInternal, "malformed info reply");
  }
  co_return info;
}

Task<Result<std::uint64_t>> PmClient::Resilver() {
  nsk::CallOptions opts;
  opts.timeout = sim::Seconds(30);  // a full copy can take a while
  opts.max_attempts = 2;
  auto r = co_await host_->Call(pmm_service_, kPmResilver, {}, opts);
  if (!r.ok()) co_return r.status();
  if (!r->status.ok()) co_return r->status;
  Deserializer d(r->payload);
  std::uint64_t copied = 0;
  (void)d.GetU64(copied);  // absent when already in sync
  co_return copied;
}

// ----------------------------------------------------------------- region

namespace {

// Trace marker emitted at write completion so a Perfetto view shows which
// persist primitive a completion waited on (nullptr = posted-only, no
// marker — indistinguishable from the seed by design).
const char* PersistSpanName(DurabilityMode mode) noexcept {
  switch (mode) {
    case DurabilityMode::kReadAfterWrite: return "pm.persist.raw";
    case DurabilityMode::kDeviceAck: return "pm.persist.devack";
    case DurabilityMode::kNativeFlush: return "pm.persist.flush";
    case DurabilityMode::kPostedWriteOnly: break;
  }
  return nullptr;
}

}  // namespace

sim::Simulation* PmRegion::simulation() noexcept {
  return host_ == nullptr ? nullptr : &host_->sim();
}

DurabilityMode PmRegion::EffectiveDurability() const noexcept {
  if (durability_.has_value()) return *durability_;
  return host_->cpu().endpoint().fabric().config().durability_mode;
}

Task<bool> PmRegion::ReportDeviceDown(std::uint32_t endpoint) {
  Serializer s;
  s.PutU32(endpoint);
  auto r = co_await host_->Call(owner_service_, kPmMirrorDown,
                                std::move(s).Take());
  if (!r.ok() || !r->status.ok()) co_return false;
  Deserializer d(r->payload);
  std::uint32_t primary = 0, mirror = 0;
  bool up = false;
  if (d.GetU32(primary) && d.GetU32(mirror) && d.GetBool(up)) {
    handle_.primary_endpoint = primary;
    handle_.mirror_endpoint = mirror;
    handle_.mirror_up = up;
  }
  co_return true;
}

Task<Status> PmRegion::ResolveMirrored(Status sp, std::optional<Status> sm_opt,
                                       std::uint64_t nbytes) {
  const bool mirror_issued = sm_opt.has_value();
  Status sm = mirror_issued ? std::move(*sm_opt) : OkStatus();
  if (sp.ok() && sm.ok()) {
    ++writes_;
    bytes_written_ += nbytes;
    co_return OkStatus();
  }
  // Exactly one mirror failed with a device-level error: data is durable
  // on the survivor. Report, refresh roles, succeed — but only if the
  // PMM durably recorded the loss. Acking on an unrecorded demotion
  // would let a recovery resurrect the stale device as a live mirror
  // that silently misses this write.
  const bool primary_dead = sp.code() == ErrorCode::kUnavailable;
  const bool mirror_dead = sm.code() == ErrorCode::kUnavailable;
  if (primary_dead && !mirror_dead && sm.ok() && mirror_issued) {
    if (co_await ReportDeviceDown(handle_.primary_endpoint)) {
      ++writes_;
      bytes_written_ += nbytes;
      co_return OkStatus();
    }
    co_return sp;
  }
  if (mirror_dead && !primary_dead && sp.ok()) {
    if (co_await ReportDeviceDown(handle_.mirror_endpoint)) {
      ++writes_;
      bytes_written_ += nbytes;
      co_return OkStatus();
    }
    co_return sm;
  }
  co_return sp.ok() ? sm : sp;
}

Task<Status> PmRegion::CompleteMirrored(sim::Future<Status> fp,
                                        std::optional<sim::Future<Status>> fm,
                                        std::uint64_t nbytes,
                                        const char* span_name,
                                        std::int64_t issued_ns,
                                        std::uint64_t op_id) {
  Status sp = co_await fp.Wait(*host_);
  std::optional<Status> sm;
  if (fm) sm = co_await fm->Wait(*host_);
  Status st = co_await ResolveMirrored(std::move(sp), std::move(sm), nbytes);
  if (Tracer* tr = host_->sim().tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kPmClient, span_name, issued_ns,
                 host_->sim().Now().ns, op_id, "bytes", nbytes, "ok",
                 st.ok() ? 1 : 0);
    if (const char* pn = PersistSpanName(EffectiveDurability())) {
      tr->Instant(TraceLane::kPmClient, pn, host_->sim().Now().ns, op_id,
                  "ok", st.ok() ? 1 : 0);
    }
  }
  co_return st;
}

PmWriteToken PmRegion::LaunchMirrored(sim::Future<Status> fp,
                                      std::optional<sim::Future<Status>> fm,
                                      std::uint64_t nbytes,
                                      const char* span_name,
                                      std::int64_t issued_ns,
                                      std::uint64_t op_id) {
  return PmWriteToken(
      *host_, sim::SpawnTask(*host_, CompleteMirrored(std::move(fp),
                                                      std::move(fm), nbytes,
                                                      span_name, issued_ns,
                                                      op_id)));
}

Task<Status> PmRegion::Write(std::uint64_t offset,
                             std::vector<std::byte> data,
                             std::uint64_t op_id) {
  if (!valid()) co_return Status(ErrorCode::kFailedPrecondition, "unbound");
  if (offset + data.size() > handle_.length) {
    co_return Status(ErrorCode::kOutOfRange, "write beyond region");
  }
  net::Endpoint& ep = host_->cpu().endpoint();
  const std::uint64_t nva = handle_.nva + offset;
  const std::uint64_t nbytes = data.size();
  const std::int64_t issued_ns = host_->sim().Now().ns;

  // Issue to both mirrors in parallel; durability requires the write to
  // land on every up-to-date mirror.
  auto f_primary = ep.StartWrite(net::EndpointId{handle_.primary_endpoint},
                                 nva, data, op_id, durability_);
  std::optional<sim::Future<Status>> f_mirror;
  if (handle_.mirror_up) {
    f_mirror = ep.StartWrite(net::EndpointId{handle_.mirror_endpoint}, nva,
                             std::move(data), op_id, durability_);
  }
  Status sp = co_await f_primary.Wait(*host_);
  std::optional<Status> sm;
  if (f_mirror) sm = co_await f_mirror->Wait(*host_);
  Status st = co_await ResolveMirrored(std::move(sp), std::move(sm), nbytes);
  if (Tracer* tr = host_->sim().tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kPmClient, "pm.write", issued_ns,
                 host_->sim().Now().ns, op_id, "bytes", nbytes, "ok",
                 st.ok() ? 1 : 0);
    if (const char* pn = PersistSpanName(EffectiveDurability())) {
      tr->Instant(TraceLane::kPmClient, pn, host_->sim().Now().ns, op_id,
                  "ok", st.ok() ? 1 : 0);
    }
  }
  co_return st;
}

PmWriteToken PmRegion::WriteAsync(std::uint64_t offset,
                                  std::vector<std::byte> data,
                                  std::uint64_t op_id) {
  if (!valid()) {
    return PmWriteToken(Status(ErrorCode::kFailedPrecondition, "unbound"));
  }
  if (offset + data.size() > handle_.length) {
    return PmWriteToken(Status(ErrorCode::kOutOfRange, "write beyond region"));
  }
  net::Endpoint& ep = host_->cpu().endpoint();
  const std::uint64_t nva = handle_.nva + offset;
  const std::uint64_t nbytes = data.size();
  const std::int64_t issued_ns = host_->sim().Now().ns;
  // Both mirror legs are on the wire before this returns; completion
  // (including failover) runs in a detached fiber behind the token.
  auto fp = ep.StartWrite(net::EndpointId{handle_.primary_endpoint}, nva,
                          data, op_id, durability_);
  std::optional<sim::Future<Status>> fm;
  if (handle_.mirror_up) {
    fm = ep.StartWrite(net::EndpointId{handle_.mirror_endpoint}, nva,
                       std::move(data), op_id, durability_);
  }
  return LaunchMirrored(std::move(fp), std::move(fm), nbytes,
                        "pm.write_async", issued_ns, op_id);
}

PmWriteToken PmRegion::WriteChainAsync(std::vector<ScatterOp> ops,
                                       std::uint64_t op_id) {
  if (!valid()) {
    return PmWriteToken(Status(ErrorCode::kFailedPrecondition, "unbound"));
  }
  std::vector<net::ChainSegment> segments;
  segments.reserve(ops.size());
  std::uint64_t nbytes = 0;
  for (ScatterOp& op : ops) {
    if (op.offset + op.bytes.size() > handle_.length) {
      return PmWriteToken(
          Status(ErrorCode::kOutOfRange, "chain write beyond region"));
    }
    nbytes += op.bytes.size();
    segments.push_back(
        net::ChainSegment{handle_.nva + op.offset, std::move(op.bytes)});
  }
  net::Endpoint& ep = host_->cpu().endpoint();
  const std::int64_t issued_ns = host_->sim().Now().ns;
  auto fp = ep.StartWriteChain(net::EndpointId{handle_.primary_endpoint},
                               segments, op_id, durability_);
  std::optional<sim::Future<Status>> fm;
  if (handle_.mirror_up) {
    fm = ep.StartWriteChain(net::EndpointId{handle_.mirror_endpoint},
                            std::move(segments), op_id, durability_);
  }
  return LaunchMirrored(std::move(fp), std::move(fm), nbytes,
                        "pm.write_chain", issued_ns, op_id);
}

Task<Status> PmRegion::WriteChain(std::vector<ScatterOp> ops,
                                  std::uint64_t op_id) {
  co_return co_await WriteChainAsync(std::move(ops), op_id).Wait();
}

Task<Status> PmRegion::WriteV(std::uint64_t offset,
                              std::vector<std::vector<std::byte>> segments) {
  std::size_t total = 0;
  for (const auto& seg : segments) total += seg.size();
  std::vector<std::byte> flat;
  flat.reserve(total);
  for (const auto& seg : segments) {
    flat.insert(flat.end(), seg.begin(), seg.end());
  }
  co_return co_await Write(offset, std::move(flat));
}

Task<Status> PmRegion::WriteScatter(std::vector<ScatterOp> ops,
                                    std::uint64_t op_id) {
  if (!valid()) co_return Status(ErrorCode::kFailedPrecondition, "unbound");
  const std::int64_t issued_ns = host_->sim().Now().ns;
  const std::uint64_t n_ops = ops.size();
  net::Endpoint& ep = host_->cpu().endpoint();
  struct Legs {
    sim::Future<Status> primary;
    std::optional<sim::Future<Status>> mirror;
  };
  std::vector<Legs> legs;
  legs.reserve(ops.size());
  std::uint64_t total = 0;
  const std::uint32_t primary_ep = handle_.primary_endpoint;
  const std::uint32_t mirror_ep = handle_.mirror_endpoint;
  for (ScatterOp& op : ops) {
    if (op.offset + op.bytes.size() > handle_.length) {
      co_return Status(ErrorCode::kOutOfRange, "scatter write beyond region");
    }
    total += op.bytes.size();
    const std::uint64_t nva = handle_.nva + op.offset;
    Legs l{ep.StartWrite(net::EndpointId{primary_ep}, nva, op.bytes, op_id,
                         durability_),
           std::nullopt};
    if (handle_.mirror_up) {
      l.mirror = ep.StartWrite(net::EndpointId{mirror_ep}, nva,
                               std::move(op.bytes), op_id, durability_);
    }
    legs.push_back(std::move(l));
  }
  // Await every op, then resolve each like a mirrored write: an op whose
  // only failure is one dead mirror is durable on the survivor. Each dead
  // endpoint is reported to the PMM exactly once, AFTER the awaits, so a
  // mid-scatter handle refresh cannot mix roles across ops.
  Status first_error;
  bool primary_down = false;
  bool mirror_down = false;
  bool survivor_held = false;  // some op is durable on one mirror only
  for (Legs& l : legs) {
    Status sp = co_await l.primary.Wait(*host_);
    Status sm = OkStatus();
    if (l.mirror) sm = co_await l.mirror->Wait(*host_);
    const bool pd = sp.code() == ErrorCode::kUnavailable;
    const bool md = sm.code() == ErrorCode::kUnavailable;
    primary_down = primary_down || pd;
    mirror_down = mirror_down || md;
    if (sp.ok() && sm.ok()) continue;
    if (pd && !md && sm.ok() && l.mirror) {  // survivor holds it
      survivor_held = true;
      continue;
    }
    if (md && !pd && sp.ok()) {  // survivor holds it
      survivor_held = true;
      continue;
    }
    if (first_error.ok()) first_error = sp.ok() ? sm : sp;
  }
  bool recorded = true;
  if (primary_down) {
    recorded = co_await ReportDeviceDown(primary_ep) && recorded;
  }
  if (mirror_down) {
    recorded = co_await ReportDeviceDown(mirror_ep) && recorded;
  }
  if (survivor_held && !recorded && first_error.ok()) {
    // Same rule as ResolveMirrored: a survivor-only op counts as durable
    // only once the PMM has the demotion on record.
    first_error = Status(ErrorCode::kUnavailable,
                         "device loss not recorded by PMM");
  }
  if (first_error.ok()) {
    ++writes_;
    bytes_written_ += total;
  }
  if (Tracer* tr = host_->sim().tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kPmClient, "pm.write_scatter", issued_ns,
                 host_->sim().Now().ns, op_id, "bytes", total, "ops", n_ops);
    if (const char* pn = PersistSpanName(EffectiveDurability())) {
      tr->Instant(TraceLane::kPmClient, pn, host_->sim().Now().ns, op_id,
                  "ops", n_ops);
    }
  }
  co_return first_error;
}

// ------------------------------------------------------------------ token

Task<Status> PmWriteToken::Wait() {
  if (!pending_.has_value()) co_return immediate_;
  co_return co_await pending_->Wait(*proc_);
}

// --------------------------------------------------------------- pipeline

PmWritePipeline::PmWritePipeline(PmRegion& region) : region_(&region) {
  MetricsRegistry& m = region.simulation()->metrics();
  issued_ = &m.GetCounter("pm.pipeline.issued");
  coalesced_ = &m.GetCounter("pm.pipeline.coalesced");
  depth_ = &m.GetHistogram("pm.pipeline.depth");
}

Task<void> PmWritePipeline::IssueStaged() {
  // Backpressure: at depth, retire the oldest token first. Completion
  // order is issue order (one ingress link per mirror), so the front
  // token is the first to resolve.
  while (inflight_.size() >= kQueueDepth) {
    PmWriteToken oldest = std::move(inflight_.front());
    inflight_.pop_front();
    Status st = co_await oldest.Wait();
    if (!st.ok() && error_.ok()) error_ = st;
  }
  issued_->Increment();
  depth_->Record(inflight_.size());
  if (sim::Simulation* s = region_->simulation();
      s != nullptr && s->tracer() != nullptr && s->tracer()->enabled()) {
    s->tracer()->Instant(TraceLane::kPmClient, "pm.pipeline_issue",
                         s->Now().ns, staged_op_id_, "depth",
                         inflight_.size(), "bytes", staged_->bytes.size());
  }
  inflight_.push_back(region_->WriteAsync(
      staged_->offset, std::move(staged_->bytes), staged_op_id_));
  staged_.reset();
  staged_op_id_ = 0;
}

Task<Status> PmWritePipeline::Submit(std::uint64_t offset,
                                     std::vector<std::byte> bytes,
                                     std::uint64_t op_id) {
  if (staged_.has_value() &&
      staged_->offset + staged_->bytes.size() == offset &&
      staged_->bytes.size() + bytes.size() <= kMaxCoalesceBytes) {
    staged_->bytes.insert(staged_->bytes.end(), bytes.begin(), bytes.end());
    coalesced_->Increment();
    co_return error_;
  }
  if (staged_.has_value()) co_await IssueStaged();
  staged_ = PmRegion::ScatterOp{offset, std::move(bytes)};
  staged_op_id_ = op_id;
  co_return error_;
}

Task<Status> PmWritePipeline::Drain() {
  if (staged_.has_value()) co_await IssueStaged();
  while (!inflight_.empty()) {
    PmWriteToken t = std::move(inflight_.front());
    inflight_.pop_front();
    Status st = co_await t.Wait();
    if (!st.ok() && error_.ok()) error_ = st;
  }
  co_return std::exchange(error_, OkStatus());
}

Task<Result<std::vector<std::byte>>> PmRegion::Read(std::uint64_t offset,
                                                    std::uint64_t len,
                                                    std::uint64_t op_id) {
  if (!valid()) co_return Status(ErrorCode::kFailedPrecondition, "unbound");
  if (offset + len > handle_.length) {
    co_return Status(ErrorCode::kOutOfRange, "read beyond region");
  }
  net::Endpoint& ep = host_->cpu().endpoint();
  const std::uint64_t nva = handle_.nva + offset;
  auto r = co_await ep.Read(*host_, net::EndpointId{handle_.primary_endpoint},
                            nva, len, op_id);
  if (r.status.ok()) co_return std::move(r.data);
  if (r.status.code() == ErrorCode::kUnavailable && handle_.mirror_up) {
    // Fail over to the mirror and tell the PMM.
    auto r2 = co_await ep.Read(
        *host_, net::EndpointId{handle_.mirror_endpoint}, nva, len, op_id);
    if (r2.status.ok()) {
      // Read-only failover: the data was mirror-committed, so it is
      // valid even if the report does not get through.
      (void)co_await ReportDeviceDown(handle_.primary_endpoint);
      co_return std::move(r2.data);
    }
    co_return r2.status;
  }
  co_return r.status;
}

Task<Result<std::vector<std::byte>>> PmRegion::DeviceCommand(
    std::uint32_t opcode, std::vector<std::byte> request, bool mirrored,
    std::uint64_t op_id) {
  if (!valid()) co_return Status(ErrorCode::kFailedPrecondition, "unbound");
  net::Endpoint& ep = host_->cpu().endpoint();
  if (!mirrored) {
    // Query: primary with read-style failover. The region sits at the
    // same NVA on both mirrors, so the request needs no rewriting.
    auto r = co_await ep.Command(
        *host_, net::EndpointId{handle_.primary_endpoint}, opcode, request,
        op_id);
    if (r.status.ok()) co_return std::move(r.data);
    if (r.status.code() == ErrorCode::kUnavailable && handle_.mirror_up) {
      auto r2 = co_await ep.Command(
          *host_, net::EndpointId{handle_.mirror_endpoint}, opcode,
          std::move(request), op_id);
      if (r2.status.ok()) {
        (void)co_await ReportDeviceDown(handle_.primary_endpoint);
        co_return std::move(r2.data);
      }
      co_return r2.status;
    }
    co_return r.status;
  }
  // Mutation: both mirrors must execute it (or the loss of one must be
  // durably recorded first), exactly like a mirrored write.
  auto fp = ep.StartCommand(net::EndpointId{handle_.primary_endpoint}, opcode,
                            request, op_id);
  std::optional<sim::Future<net::RdmaResult>> fm;
  if (handle_.mirror_up) {
    fm = ep.StartCommand(net::EndpointId{handle_.mirror_endpoint}, opcode,
                         std::move(request), op_id);
  }
  net::RdmaResult rp = co_await fp.Wait(*host_);
  std::optional<Status> sm;
  if (fm) sm = (co_await fm->Wait(*host_)).status;
  std::vector<std::byte> response = std::move(rp.data);
  Status st = co_await ResolveMirrored(std::move(rp.status), std::move(sm),
                                       /*nbytes=*/0);
  if (!st.ok()) co_return st;
  co_return response;
}

}  // namespace ods::pm
