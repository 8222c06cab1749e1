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
  if (handle_.primary_endpoint != endpoint &&
      !(handle_.mirror_up && handle_.mirror_endpoint == endpoint)) {
    co_return true;  // already demoted
  }
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

Result<PmRegion::InFlight> PmRegion::Issue(std::vector<ScatterOp> ops,
                                           bool chained,
                                           std::uint64_t op_id) {
  if (!valid()) return Status(ErrorCode::kFailedPrecondition, "unbound");
  InFlight w;
  for (const ScatterOp& op : ops) {
    if (op.offset + op.bytes.size() > handle_.length) {
      return Status(ErrorCode::kOutOfRange, "write beyond region");
    }
    w.nbytes += op.bytes.size();
  }
  std::vector<std::vector<net::ChainSegment>> chains(chained ? 1 : 0);
  for (ScatterOp& op : ops) {
    if (!chained) chains.emplace_back();
    chains.back().push_back(
        net::ChainSegment{handle_.nva + op.offset, std::move(op.bytes)});
  }
  net::Endpoint& ep = host_->cpu().endpoint();
  w.issued_ns = host_->sim().Now().ns;
  w.posted = {handle_.primary_endpoint, handle_.mirror_endpoint};
  w.legs.reserve(chains.size());
  for (std::vector<net::ChainSegment>& chain : chains) {
    MirrorLegs l{ep.StartWriteChain(net::EndpointId{handle_.primary_endpoint},
                                    chain, op_id, durability_),
                 std::nullopt};
    if (handle_.mirror_up) {
      l.mirror = ep.StartWriteChain(net::EndpointId{handle_.mirror_endpoint},
                                    std::move(chain), op_id, durability_);
    }
    w.legs.push_back(std::move(l));
  }
  return w;
}

Task<Status> PmRegion::Resolve(std::vector<LegStatus> ops,
                               LegEndpoints posted) {
  enum class Dead : std::uint8_t { kNone, kPrimary, kMirror };
  std::vector<Dead> dead(ops.size(), Dead::kNone);
  bool primary_dead = false;
  bool mirror_dead = false;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Status& sp = ops[i].primary;
    const std::optional<Status>& sm = ops[i].mirror;
    if (sp.code() == ErrorCode::kUnavailable && sm && sm->ok()) {
      dead[i] = Dead::kPrimary;
      primary_dead = true;
    } else if (sp.ok() && sm && sm->code() == ErrorCode::kUnavailable) {
      dead[i] = Dead::kMirror;
      mirror_dead = true;
    }
  }
  // Report after every leg resolved, to the endpoints the legs were
  // posted to: a concurrent call's report may have refreshed the handle
  // since.
  const std::uint32_t primary_ep = posted.primary;
  const std::uint32_t mirror_ep = posted.mirror;
  bool primary_recorded = false;
  bool mirror_recorded = false;
  if (primary_dead) primary_recorded = co_await ReportDeviceDown(primary_ep);
  if (mirror_dead) mirror_recorded = co_await ReportDeviceDown(mirror_ep);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if ((dead[i] == Dead::kPrimary && primary_recorded) ||
        (dead[i] == Dead::kMirror && mirror_recorded)) {
      continue;
    }
    if (!ops[i].primary.ok()) co_return ops[i].primary;
    if (ops[i].mirror && !ops[i].mirror->ok()) co_return *ops[i].mirror;
  }
  co_return OkStatus();
}

Task<Status> PmRegion::Settle(InFlight& w) {
  std::vector<LegStatus> ops;
  ops.reserve(w.legs.size());
  for (MirrorLegs& l : w.legs) {
    LegStatus& s = ops.emplace_back();
    s.primary = co_await l.primary.Wait(*host_);
    if (l.mirror) s.mirror = co_await l.mirror->Wait(*host_);
  }
  co_return co_await Resolve(std::move(ops), w.posted);
}

void PmRegion::TraceWrite(const char* span_name, const InFlight& w,
                          std::uint64_t op_id, const char* key,
                          std::uint64_t value) {
  Tracer* tr = host_->sim().tracer();
  if (tr == nullptr || !tr->enabled()) return;
  const std::int64_t now = host_->sim().Now().ns;
  tr->Complete(TraceLane::kPmClient, span_name, w.issued_ns, now, op_id,
               "bytes", w.nbytes, key, value);
  if (const char* pn = PersistSpanName(EffectiveDurability())) {
    tr->Instant(TraceLane::kPmClient, pn, now, op_id, key, value);
  }
}

Task<Status> PmRegion::Complete(InFlight w, const char* span_name,
                                std::uint64_t op_id) {
  Status st = co_await Settle(w);
  TraceWrite(span_name, w, op_id, "ok", st.ok() ? 1 : 0);
  co_return st;
}

PmWriteToken PmRegion::Launch(InFlight w, const char* span_name,
                              std::uint64_t op_id) {
  return PmWriteToken(*host_, sim::SpawnTask(*host_, Complete(std::move(w),
                                                              span_name,
                                                              op_id)));
}

namespace {

std::vector<PmRegion::ScatterOp> SingleOp(std::uint64_t offset,
                                          std::vector<std::byte> data) {
  std::vector<PmRegion::ScatterOp> ops;
  ops.push_back(PmRegion::ScatterOp{offset, std::move(data)});
  return ops;
}

}  // namespace

Task<Status> PmRegion::Write(std::uint64_t offset,
                             std::vector<std::byte> data,
                             std::uint64_t op_id) {
  auto w = Issue(SingleOp(offset, std::move(data)), /*chained=*/true, op_id);
  if (!w.ok()) co_return w.status();
  co_return co_await Complete(std::move(*w), "pm.write", op_id);
}

PmWriteToken PmRegion::WriteAsync(std::uint64_t offset,
                                  std::vector<std::byte> data,
                                  std::uint64_t op_id) {
  auto w = Issue(SingleOp(offset, std::move(data)), /*chained=*/true, op_id);
  if (!w.ok()) return PmWriteToken(w.status());
  return Launch(std::move(*w), "pm.write_async", op_id);
}

Task<Status> PmRegion::WriteChain(std::vector<ScatterOp> ops,
                                  std::uint64_t op_id) {
  auto w = Issue(std::move(ops), /*chained=*/true, op_id);
  if (!w.ok()) co_return w.status();
  co_return co_await Launch(std::move(*w), "pm.write_chain", op_id).Wait();
}

Task<Status> PmRegion::WriteScatter(std::vector<ScatterOp> ops,
                                    std::uint64_t op_id) {
  auto w = Issue(std::move(ops), /*chained=*/false, op_id);
  if (!w.ok()) co_return w.status();
  const std::uint64_t n_ops = w->legs.size();
  Status st = co_await Settle(*w);
  TraceWrite("pm.write_scatter", *w, op_id, "ops", n_ops);
  co_return st;
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

Task<Result<std::vector<std::byte>>> PmRegion::PrimaryOrMirror(
    std::function<Task<net::RdmaResult>(net::EndpointId)> op) {
  auto r = co_await op(net::EndpointId{handle_.primary_endpoint});
  if (r.status.ok()) co_return std::move(r.data);
  if (r.status.code() != ErrorCode::kUnavailable || !handle_.mirror_up) {
    co_return r.status;
  }
  auto r2 = co_await op(net::EndpointId{handle_.mirror_endpoint});
  if (!r2.status.ok()) co_return r2.status;
  // The data was mirror-committed, so it is valid even if the report
  // does not get through.
  (void)co_await ReportDeviceDown(handle_.primary_endpoint);
  co_return std::move(r2.data);
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
  co_return co_await PrimaryOrMirror([&](net::EndpointId target) {
    return ep.Read(*host_, target, nva, len, op_id);
  });
}

Task<Result<std::vector<std::byte>>> PmRegion::DeviceCommand(
    std::uint32_t opcode, std::vector<std::byte> request, bool mirrored,
    std::uint64_t op_id) {
  if (!valid()) co_return Status(ErrorCode::kFailedPrecondition, "unbound");
  net::Endpoint& ep = host_->cpu().endpoint();
  if (!mirrored) {
    // The region sits at the same NVA on both mirrors, so the request
    // needs no rewriting.
    co_return co_await PrimaryOrMirror([&](net::EndpointId target) {
      return ep.Command(*host_, target, opcode, request, op_id);
    });
  }
  const LegEndpoints posted{handle_.primary_endpoint, handle_.mirror_endpoint};
  auto fp = ep.StartCommand(net::EndpointId{posted.primary}, opcode,
                            request, op_id);
  std::optional<sim::Future<net::RdmaResult>> fm;
  if (handle_.mirror_up) {
    fm = ep.StartCommand(net::EndpointId{posted.mirror}, opcode,
                         std::move(request), op_id);
  }
  net::RdmaResult rp = co_await fp.Wait(*host_);
  std::vector<LegStatus> legs(1);
  legs[0].primary = std::move(rp.status);
  if (fm) legs[0].mirror = (co_await fm->Wait(*host_)).status;
  Status st = co_await Resolve(std::move(legs), posted);
  if (!st.ok()) co_return st;
  co_return std::move(rp.data);
}

}  // namespace ods::pm
