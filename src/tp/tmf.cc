#include "tp/tmf.h"

#include <algorithm>
#include <memory>

#include "common/log.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "tp/audit.h"
#include "tp/kinds.h"

namespace ods::tp {

using nsk::Request;
using sim::Task;

namespace {

// TCB log entries (both the backup checkpoint and the PM TCB trail use
// the same encoding): [txn u64][state u32].
std::vector<std::byte> EncodeTransition(std::uint64_t txn, TxnState state) {
  Serializer s;
  s.PutU64(txn);
  s.PutEnum(state);
  return std::move(s).Take();
}

std::vector<std::byte> MakeResolvePayload(std::uint64_t txn, bool committed) {
  Serializer s;
  s.PutU64(txn);
  s.PutBool(committed);
  return std::move(s).Take();
}

// Audit batch holding a single commit/abort record.
std::vector<std::byte> MakeOutcomeBatch(std::uint64_t txn, bool committed) {
  AuditRecord rec;
  rec.txn = txn;
  rec.type = committed ? AuditType::kCommit : AuditType::kAbort;
  Serializer s;
  s.PutU32(1);
  s.PutBlob(rec.Serialize());
  return std::move(s).Take();
}

bool ParseParticipants(Deserializer& d, std::uint64_t& txn,
                       std::vector<std::string>& adps,
                       std::vector<std::string>& dp2s) {
  std::uint32_t n_adps = 0, n_dp2s = 0;
  if (!d.GetU64(txn) || !d.GetU32(n_adps)) return false;
  adps.resize(n_adps);
  for (auto& a : adps) {
    if (!d.GetString(a)) return false;
  }
  if (!d.GetU32(n_dp2s)) return false;
  dp2s.resize(n_dp2s);
  for (auto& p : dp2s) {
    if (!d.GetString(p)) return false;
  }
  return true;
}

}  // namespace

TmfProcess::TmfProcess(nsk::Cluster& cluster, int cpu_index,
                       std::string service_name, std::string member_name,
                       TmfConfig config)
    : PairMember(cluster, cpu_index, std::move(service_name),
                 std::move(member_name)),
      config_(std::move(config)),
      commits_(&sim().metrics().GetCounter("tmf.commits")),
      aborts_(&sim().metrics().GetCounter("tmf.aborts")) {
  if (config_.pm_tcb) {
    PmLogConfig log_cfg;
    log_cfg.pmm_service = config_.pmm_service;
    log_cfg.region_name = config_.tcb_region;
    log_cfg.region_bytes = config_.tcb_region_bytes;
    tcb_log_ = std::make_unique<PmLogDevice>(log_cfg);
  }
}

Task<void> TmfProcess::NoteState(std::uint64_t txn, TxnState state) {
  tcbs_[txn] = state;
  std::vector<std::byte> entry = EncodeTransition(txn, state);
  if (tcb_log_ != nullptr) {
    // Fine-grained synchronous persistence of the control block.
    std::vector<std::byte> framed;
    AuditRecord rec;
    rec.txn = txn;
    rec.type = state == TxnState::kCommitted  ? AuditType::kCommit
               : state == TxnState::kAborted ? AuditType::kAbort
                                             : AuditType::kUpdate;
    rec.key = static_cast<std::uint64_t>(state);
    FrameRecord(rec, framed);
    (void)co_await tcb_log_->Append(*this, std::move(framed), {}, txn);
  }
  (void)co_await CheckpointToBackup(std::move(entry));
}

Task<Status> TmfProcess::FlushAudit(const std::vector<std::string>& adps,
                                    std::vector<std::byte> outcome_payload) {
  if (adps.empty()) co_return OkStatus();
  auto latch = std::make_shared<sim::Latch>(sim(), static_cast<int>(adps.size()));
  auto statuses = std::make_shared<std::vector<Status>>(adps.size());
  for (std::size_t i = 0; i < adps.size(); ++i) {
    // The outcome record rides EVERY participating trail: each database
    // writer recovers from its own trail and must be able to prove the
    // transaction's outcome there.
    std::vector<std::byte> payload = outcome_payload;
    SpawnFiber([](TmfProcess& self, std::string adp,
                  std::vector<std::byte> body,
                  std::shared_ptr<sim::Latch> done,
                  std::shared_ptr<std::vector<Status>> out,
                  std::size_t slot) -> Task<void> {
      // The flush RPC's deadline follows the commit-resolution budget:
      // with a raised resolve_timeout (saturation sweeps) a queued flush
      // waits out the group-commit backlog instead of timing out and
      // aborting a transaction whose audit bytes were already paid for.
      nsk::CallOptions opts;
      opts.timeout = self.config_.resolve_timeout;
      auto r = co_await self.Call(adp, kAdpFlush, std::move(body), opts);
      (*out)[slot] = r.ok() ? r->status : r.status();
      done->Arrive();
    }(*this, adps[i], std::move(payload), latch, statuses, i));
  }
  co_await latch->Wait(*this);
  for (const Status& st : *statuses) {
    if (!st.ok()) co_return st;
  }
  co_return OkStatus();
}

void TmfProcess::ResolveFanout(std::uint64_t txn, bool committed,
                               const std::vector<std::string>& dp2s) {
  for (const std::string& dp2 : dp2s) {
    Cast(dp2, kDp2Resolve, MakeResolvePayload(txn, committed));
  }
}

Task<void> TmfProcess::HandleBegin(Request& req) {
  const std::uint64_t txn = next_txn_++;
  co_await NoteState(txn, TxnState::kActive);
  Serializer s;
  s.PutU64(txn);
  req.Respond(OkStatus(), std::move(s).Take());
}

Task<void> TmfProcess::HandleCommit(Request& req) {
  Deserializer d(req.payload);
  std::uint64_t txn = 0;
  std::vector<std::string> adps, dp2s;
  if (!ParseParticipants(d, txn, adps, dp2s)) {
    req.Respond(Status(ErrorCode::kInvalidArgument, "bad commit payload"));
    co_return;
  }
  auto it = tcbs_.find(txn);
  if (it == tcbs_.end() || it->second != TxnState::kActive) {
    req.Respond(Status(ErrorCode::kFailedPrecondition,
                       "transaction not active"));
    co_return;
  }
  Tracer* tr = sim().tracer();
  if (tr != nullptr && tr->enabled()) {
    tr->AsyncBegin(TraceLane::kTmf, "txn.commit", sim().Now().ns, txn, "adps",
                   adps.size());
  }
  co_await Compute(config_.commit_cpu);
  co_await NoteState(txn, TxnState::kCommitting);

  // The commit point: every involved audit trail durable, plus the
  // master audit trail (TMF's own outcome record lives there even when
  // no participant logs to it — scan-based state recovery reads it).
  if (!config_.master_adp.empty() &&
      std::find(adps.begin(), adps.end(), config_.master_adp) == adps.end()) {
    adps.push_back(config_.master_adp);
  }
  const sim::SimTime flush_start = sim().Now();
  Status st = co_await FlushAudit(adps, MakeOutcomeBatch(txn, true));
  if (tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kTmf, "tmf.flush_audit", flush_start.ns,
                 sim().Now().ns, txn, "adps", adps.size(), "ok",
                 st.ok() ? 1 : 0);
  }
  if (!st.ok()) {
    co_await NoteState(txn, TxnState::kAborted);
    ResolveFanout(txn, false, dp2s);
    aborts_->Increment();
    req.Respond(Status(ErrorCode::kAborted,
                       "audit flush failed: " + st.ToString()));
    if (tr != nullptr && tr->enabled()) {
      tr->AsyncEnd(TraceLane::kTmf, "txn.commit", sim().Now().ns, txn);
    }
    co_return;
  }
  co_await NoteState(txn, TxnState::kCommitted);
  commits_->Increment();
  req.Respond(OkStatus());
  if (tr != nullptr && tr->enabled()) {
    tr->AsyncEnd(TraceLane::kTmf, "txn.commit", sim().Now().ns, txn);
  }
  // Post-commit: lock release is off the response path.
  ResolveFanout(txn, true, dp2s);
}

Task<void> TmfProcess::HandleAbort(Request& req) {
  Deserializer d(req.payload);
  std::uint64_t txn = 0;
  std::vector<std::string> adps, dp2s;
  if (!ParseParticipants(d, txn, adps, dp2s)) {
    req.Respond(Status(ErrorCode::kInvalidArgument, "bad abort payload"));
    co_return;
  }
  co_await NoteState(txn, TxnState::kAborted);
  // Abort record in every participating trail plus the master (recovery
  // must see the outcome wherever it replays from).
  if (!config_.master_adp.empty() &&
      std::find(adps.begin(), adps.end(), config_.master_adp) == adps.end()) {
    adps.push_back(config_.master_adp);
  }
  for (const std::string& adp : adps) {
    (void)co_await Call(adp, kAdpBuffer, MakeOutcomeBatch(txn, false));
  }
  aborts_->Increment();
  // Undo must complete before the client can safely reuse the keys.
  for (const std::string& dp2 : dp2s) {
    nsk::CallOptions opts;
    opts.timeout = config_.resolve_timeout;
    (void)co_await Call(dp2, kDp2Resolve, MakeResolvePayload(txn, false), opts);
  }
  req.Respond(OkStatus());
}

Task<void> TmfProcess::HandleRequest(Request req) {
  switch (req.kind) {
    case kTmfBegin:
      co_await HandleBegin(req);
      break;
    case kTmfCommit:
      co_await HandleCommit(req);
      break;
    case kTmfAbort:
      co_await HandleAbort(req);
      break;
    case kTmfStatus: {
      Deserializer d(req.payload);
      std::uint64_t txn = 0;
      if (!d.GetU64(txn)) {
        req.Respond(Status(ErrorCode::kInvalidArgument, "bad status payload"));
        break;
      }
      Serializer s;
      s.PutEnum(StateOf(txn));
      req.Respond(OkStatus(), std::move(s).Take());
      break;
    }
    default:
      req.Respond(Status(ErrorCode::kInvalidArgument, "unknown TMF request"));
  }
}

Task<void> TmfProcess::OnBecomePrimary(bool via_takeover) {
  const sim::SimTime t0 = sim().Now();
  if (tcb_log_ != nullptr) {
    (void)co_await tcb_log_->Open(*this);
  }
  if (!state_valid_) {
    if (tcb_log_ != nullptr) {
      // PM-resident TCBs: read the control-block trail directly.
      auto log = co_await tcb_log_->RecoverLog(*this);
      if (log.ok()) {
        LogScanner scan(*log);
        while (auto rec = scan.Next()) {
          tcbs_[rec->txn] = static_cast<TxnState>(rec->key);
          next_txn_ = std::max(next_txn_, rec->txn + 1);
        }
        state_valid_ = true;
      }
    } else if (!config_.master_adp.empty()) {
      // Scan-based recovery: walk the master audit trail for outcome
      // records ("costly heuristic searching").
      auto log = co_await Call(config_.master_adp, kAdpReadLog, {});
      if (log.ok() && log->status.ok()) {
        LogScanner scan(log->payload);
        while (auto rec = scan.Next()) {
          if (rec->type == AuditType::kCommit) {
            tcbs_[rec->txn] = TxnState::kCommitted;
          } else if (rec->type == AuditType::kAbort) {
            tcbs_[rec->txn] = TxnState::kAborted;
          }
          next_txn_ = std::max(next_txn_, rec->txn + 1);
        }
      } else {
        ODS_WLOG("tmf", "%s: no audit image for state recovery; in-flight "
                        "transactions presumed aborted",
                 name().c_str());
      }
      state_valid_ = true;
    } else {
      state_valid_ = true;  // nothing to recover from
    }
  }
  (void)via_takeover;
  last_recovery_time_ = sim().Now() - t0;
}

void TmfProcess::ApplyCheckpoint(std::span<const std::byte> delta) {
  Deserializer d(delta);
  std::uint64_t txn = 0;
  TxnState state{};
  if (!d.GetU64(txn) || !d.GetEnum(state)) return;
  tcbs_[txn] = state;
  next_txn_ = std::max(next_txn_, txn + 1);
  state_valid_ = true;
}

std::vector<std::byte> TmfProcess::SnapshotState() {
  Serializer s;
  s.PutU64(next_txn_);
  s.PutU32(static_cast<std::uint32_t>(tcbs_.size()));
  for (const auto& [txn, state] : tcbs_) {
    s.PutU64(txn);
    s.PutEnum(state);
  }
  return std::move(s).Take();
}

void TmfProcess::InstallState(std::span<const std::byte> snapshot) {
  Deserializer d(snapshot);
  std::uint32_t n = 0;
  if (!d.GetU64(next_txn_) || !d.GetU32(n)) return;
  tcbs_.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t txn = 0;
    TxnState state{};
    if (!d.GetU64(txn) || !d.GetEnum(state)) return;
    tcbs_[txn] = state;
  }
  state_valid_ = true;
}

}  // namespace ods::tp
