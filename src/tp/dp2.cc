#include "tp/dp2.h"

#include <algorithm>

#include "common/log.h"
#include "common/serialize.h"
#include "pm/client.h"
#include "pm/offload.h"
#include "tp/kinds.h"
#include "tp/log_device.h"

namespace ods::tp {

using nsk::Request;
using sim::Task;

namespace {

constexpr std::uint8_t kCkptWrite = 1;
constexpr std::uint8_t kCkptResolve = 2;

}  // namespace

Dp2Process::Dp2Process(nsk::Cluster& cluster, int cpu_index,
                       std::string service_name, std::string member_name,
                       Dp2Config config)
    : PairMember(cluster, cpu_index, std::move(service_name),
                 std::move(member_name)),
      config_(std::move(config)), locks_(cluster.sim()) {}

const std::vector<std::byte>* Dp2Process::Peek(LockKey key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

void Dp2Process::ApplyWrite(std::uint64_t txn, LockKey key,
                            std::vector<std::byte> value) {
  auto& undo_list = undo_[txn];
  auto it = table_.find(key);
  if (it == table_.end()) {
    undo_list.push_back(UndoEntry{key, std::nullopt});
    table_.emplace(key, std::move(value));
  } else {
    undo_list.push_back(UndoEntry{key, it->second});
    it->second = std::move(value);
  }
  ++inserts_;
}

void Dp2Process::Resolve(std::uint64_t txn, bool committed) {
  auto it = undo_.find(txn);
  if (it != undo_.end()) {
    if (committed) {
      for (const UndoEntry& u : it->second) dirty_.insert(u.key);
    } else {
      // Undo in reverse order.
      for (auto u = it->second.rbegin(); u != it->second.rend(); ++u) {
        if (u->old_value.has_value()) {
          table_[u->key] = *u->old_value;
        } else {
          table_.erase(u->key);
        }
        ++aborts_undone_;
      }
    }
    undo_.erase(it);
  }
  locks_.ReleaseAll(txn);
}

Task<void> Dp2Process::HandleWrite(Request& req) {
  Deserializer d(req.payload);
  std::uint64_t txn = 0;
  LockKey key;
  std::vector<std::byte> value;
  if (!d.GetU64(txn) || !d.GetU32(key.file) || !d.GetU64(key.key) ||
      !d.GetBlob(value)) {
    req.Respond(Status(ErrorCode::kInvalidArgument, "bad write payload"));
    co_return;
  }
  Status lock_st = co_await locks_.Acquire(*this, txn, key,
                                           LockMode::kExclusive,
                                           config_.lock_timeout);
  if (!lock_st.ok()) {
    req.Respond(Status(ErrorCode::kAborted,
                       "lock conflict: " + lock_st.ToString()));
    co_return;
  }
  co_await Compute(config_.apply_cpu);

  AuditRecord rec;
  rec.txn = txn;
  rec.type = AuditType::kUpdate;
  rec.file_id = key.file;
  rec.key = key.key;
  rec.after_image = value;
  if (auto it = table_.find(key); it != table_.end()) {
    rec.before_image = it->second;
  }
  ApplyWrite(txn, key, std::move(value));

  // Audit delta to the log writer; the ack means the ADP has buffered AND
  // checkpointed it (durable-at-commit once flushed).
  Serializer batch;
  batch.PutU32(1);
  batch.PutBlob(rec.Serialize());
  const std::uint32_t adp_kind =
      config_.force_audit_each_write ? kAdpFlush : kAdpBuffer;
  nsk::CallOptions adp_opts;
  adp_opts.timeout = sim::Seconds(2);  // a forced flush can queue on disk
  auto adp = co_await Call(config_.adp_service, adp_kind,
                           std::move(batch).Take(), adp_opts);
  if (!adp.ok() || !adp->status.ok()) {
    req.Respond(Status(ErrorCode::kUnavailable, "audit trail unavailable"));
    co_return;
  }

  // Externalization rule: mirror the mutation to the backup before the
  // requester learns of it.
  Serializer ckpt;
  ckpt.PutU8(kCkptWrite);
  ckpt.PutU64(txn);
  ckpt.PutU32(key.file);
  ckpt.PutU64(key.key);
  ckpt.PutBlob(rec.after_image);
  (void)co_await CheckpointToBackup(std::move(ckpt).Take());

  req.Respond(OkStatus());
}

Task<void> Dp2Process::HandleRead(Request& req) {
  Deserializer d(req.payload);
  std::uint64_t txn = 0;
  LockKey key;
  if (!d.GetU64(txn) || !d.GetU32(key.file) || !d.GetU64(key.key)) {
    req.Respond(Status(ErrorCode::kInvalidArgument, "bad read payload"));
    co_return;
  }
  Status lock_st = co_await locks_.Acquire(*this, txn, key, LockMode::kShared,
                                           config_.lock_timeout);
  if (!lock_st.ok()) {
    req.Respond(Status(ErrorCode::kAborted,
                       "lock conflict: " + lock_st.ToString()));
    co_return;
  }
  co_await Compute(config_.apply_cpu);
  auto it = table_.find(key);
  if (it == table_.end()) {
    req.Respond(Status(ErrorCode::kNotFound, "no such record"));
    co_return;
  }
  req.Respond(OkStatus(), it->second);
}

Task<void> Dp2Process::HandleScan(Request& req) {
  Deserializer d(req.payload);
  std::uint64_t txn = 0;
  std::uint32_t file = 0;
  std::uint64_t lo = 0, hi = 0;
  if (!d.GetU64(txn) || !d.GetU32(file) || !d.GetU64(lo) || !d.GetU64(hi)) {
    req.Respond(Status(ErrorCode::kInvalidArgument, "bad scan payload"));
    co_return;
  }
  // Snapshot the key names in range first: lock acquisition suspends the
  // fiber, and concurrent writes may grow the table under us. Records
  // inserted after this point are not seen (no phantom protection — this
  // models a read-committed range scan under strict 2PL record locks).
  std::vector<LockKey> keys;
  for (auto it = table_.lower_bound(LockKey{file, lo});
       it != table_.end() && it->first.file == file && it->first.key <= hi;
       ++it) {
    keys.push_back(it->first);
  }
  std::uint32_t count = 0;
  std::uint64_t bytes = 0;
  for (const LockKey& key : keys) {
    Status lock_st = co_await locks_.Acquire(*this, txn, key,
                                             LockMode::kShared,
                                             config_.lock_timeout);
    if (!lock_st.ok()) {
      req.Respond(Status(ErrorCode::kAborted,
                         "scan lock conflict: " + lock_st.ToString()));
      co_return;
    }
    co_await Compute(config_.scan_cpu);
    auto it = table_.find(key);
    if (it == table_.end()) continue;  // undone by an abort while we waited
    ++count;
    bytes += it->second.size();
  }
  Serializer s;
  s.PutU32(count);
  s.PutU64(bytes);
  req.Respond(OkStatus(), std::move(s).Take());
}

Task<void> Dp2Process::HandleResolve(Request& req) {
  Deserializer d(req.payload);
  std::uint64_t txn = 0;
  bool committed = false;
  if (!d.GetU64(txn) || !d.GetBool(committed)) {
    req.Respond(Status(ErrorCode::kInvalidArgument, "bad resolve payload"));
    co_return;
  }
  Resolve(txn, committed);
  Serializer ckpt;
  ckpt.PutU8(kCkptResolve);
  ckpt.PutU64(txn);
  ckpt.PutBool(committed);
  (void)co_await CheckpointToBackup(std::move(ckpt).Take());
  if (committed && !dirty_.empty() &&
      !flusher_running_ && config_.data_volume != nullptr) {
    flusher_running_ = true;
    SpawnFiber([](Dp2Process& self) -> Task<void> {
      co_await self.FlushLoop();
    }(*this));
  }
  req.Respond(OkStatus());
}

Task<void> Dp2Process::FlushLoop() {
  while (alive() && !dirty_.empty()) {
    co_await Sleep(config_.flush_interval);
    if (!alive()) break;
    // Frame every dirty committed record and append to the data volume
    // in one sequential I/O (ring layout; see log_device.h caveat).
    std::set<LockKey> batch_keys = std::move(dirty_);
    dirty_.clear();
    std::vector<std::byte> framed;
    for (const LockKey& key : batch_keys) {
      auto it = table_.find(key);
      if (it == table_.end()) continue;  // deleted by a later abort
      AuditRecord rec;
      rec.type = AuditType::kUpdate;
      rec.file_id = key.file;
      rec.key = key.key;
      rec.after_image = it->second;
      FrameRecord(rec, framed);
    }
    if (framed.empty()) continue;
    const std::uint64_t n = framed.size();
    Status st = co_await WriteVolumeRing(*this, *config_.data_volume,
                                         volume_tail_, std::move(framed));
    if (st.ok()) {
      volume_tail_ += n;
    } else {
      // Put the batch back; retry on the next round.
      for (const LockKey& key : batch_keys) dirty_.insert(key);
    }
  }
  flusher_running_ = false;
}

Task<bool> Dp2Process::OffloadReplay() {
  // Ask this partition's log writer where the durable trail lives. Only
  // an active PM device answers; any other device, or a down ADP, answers
  // with an error — the caller then runs the kAdpReadLog path instead.
  auto src = co_await Call(config_.adp_service, kAdpReplaySource, {});
  if (!src.ok() || !src->status.ok()) co_return false;
  Deserializer d(src->payload);
  std::string pmm_service, region_name;
  std::uint64_t base_offset = 0, length = 0;
  if (!d.GetString(pmm_service) || !d.GetString(region_name) ||
      !d.GetU64(base_offset) || !d.GetU64(length)) {
    co_return false;
  }
  if (length == 0) co_return true;  // empty trail: nothing to redo
  pm::PmClient client(*this, pmm_service);
  auto region = co_await client.Open(region_name);
  if (!region.ok()) co_return false;
  auto resp = co_await region->DeviceCommand(
      pm::kCmdShipReplay,
      pm::BuildShipReplayRequest(region->handle().nva + base_offset, length,
                                 config_.file_id, config_.partition,
                                 config_.partitions_per_file));
  if (!resp.ok()) co_return false;
  // The device pre-filtered the stream: every frame is a committed update
  // for this partition, in LSN order. No commit set to build.
  std::vector<AuditRecord> redo;
  LogScanner scan(*resp);
  while (auto rec = scan.Next()) redo.push_back(std::move(*rec));
  co_await ApplyRedo(std::move(redo));
  co_return true;
}

Task<void> Dp2Process::OnBecomePrimary(bool via_takeover) {
  const sim::SimTime t0 = sim().Now();
  if (!state_valid_) {
    // Cold recovery: committed baseline from the data volume, then redo
    // from the audit trail (committed transactions only).
    if (config_.data_volume != nullptr) {
      auto image = co_await ScanFramedVolume(*this, *config_.data_volume);
      if (image.ok()) {
        volume_tail_ = image->size();
        LogScanner scan(*image);
        while (auto rec = scan.Next()) {
          table_[LockKey{rec->file_id, rec->key}] =
              std::move(rec->after_image);
        }
      }
    }
    if (!co_await OffloadReplay()) co_await RedoFromTrail();
    state_valid_ = true;
  }
  (void)via_takeover;
  last_recovery_time_ = sim().Now() - t0;
}

Task<void> Dp2Process::RedoFromTrail() {
  auto log = co_await Call(config_.adp_service, kAdpReadLog, {});
  if (!log.ok() || !log->status.ok()) {
    ODS_WLOG("dp2", "%s: audit redo unavailable: %s", name().c_str(),
             log.ok() ? log->status.ToString().c_str()
                      : log.status().ToString().c_str());
    co_return;  // serve from the volume baseline
  }
  // Pass 1: which transactions committed?
  std::set<std::uint64_t> committed;
  LogScanner outcomes(log->payload);
  while (auto rec = outcomes.Next()) {
    if (rec->type == AuditType::kCommit) committed.insert(rec->txn);
  }
  // Pass 2: redo committed updates in LSN order. (The shared audit
  // trail may contain records for sibling partitions; re-applying
  // them here is idempotent and harmless — clients route by the
  // partition map, so foreign keys are never served from this DP2.)
  std::vector<AuditRecord> redo;
  LogScanner scan(log->payload);
  while (auto rec = scan.Next()) {
    if (rec->type == AuditType::kUpdate && committed.count(rec->txn)) {
      redo.push_back(std::move(*rec));
    }
  }
  co_await ApplyRedo(std::move(redo));
}

Task<void> Dp2Process::ApplyRedo(std::vector<AuditRecord> redo) {
  co_await Compute(config_.apply_cpu * static_cast<std::int64_t>(redo.size()));
  if (redo.empty()) co_return;
  std::set<std::uint64_t> kept;
  for (const AuditRecord& rec : redo) kept.insert(rec.txn);
  Serializer s;
  s.PutU32(static_cast<std::uint32_t>(kept.size()));
  for (std::uint64_t txn : kept) s.PutU64(txn);
  auto r = co_await Call(kTmfService, kTmfAbortedOf, std::move(s).Take());
  if (r.ok() && r->status.ok()) {
    Deserializer d(r->payload);
    std::uint32_t n = 0;
    std::uint64_t txn = 0;
    for (bool ok = d.GetU32(n); ok && n > 0; --n) {
      if ((ok = d.GetU64(txn))) kept.erase(txn);
    }
  }
  for (AuditRecord& rec : redo) {
    if (!kept.contains(rec.txn)) continue;
    table_[LockKey{rec.file_id, rec.key}] = std::move(rec.after_image);
  }
}

Task<void> Dp2Process::HandleRequest(Request req) {
  switch (req.kind) {
    case kDp2Insert:
    case kDp2Update:
      co_await HandleWrite(req);
      break;
    case kDp2Read:
      co_await HandleRead(req);
      break;
    case kDp2Scan:
      co_await HandleScan(req);
      break;
    case kDp2Resolve:
      co_await HandleResolve(req);
      break;
    default:
      req.Respond(Status(ErrorCode::kInvalidArgument, "unknown DP2 request"));
  }
}

void Dp2Process::ApplyCheckpoint(std::span<const std::byte> delta) {
  Deserializer d(delta);
  std::uint8_t kind = 0;
  if (!d.GetU8(kind)) return;
  if (kind == kCkptWrite) {
    std::uint64_t txn = 0;
    LockKey key;
    std::vector<std::byte> value;
    if (!d.GetU64(txn) || !d.GetU32(key.file) || !d.GetU64(key.key) ||
        !d.GetBlob(value)) {
      return;
    }
    ApplyWrite(txn, key, std::move(value));
    --inserts_;  // ApplyWrite counted it; backups don't double-count
    state_valid_ = true;
  } else if (kind == kCkptResolve) {
    std::uint64_t txn = 0;
    bool committed = false;
    if (!d.GetU64(txn) || !d.GetBool(committed)) return;
    Resolve(txn, committed);
    state_valid_ = true;
  }
}

std::vector<std::byte> Dp2Process::SnapshotState() {
  Serializer s;
  s.PutU64(volume_tail_);
  s.PutU32(static_cast<std::uint32_t>(table_.size()));
  for (const auto& [key, value] : table_) {
    s.PutU32(key.file);
    s.PutU64(key.key);
    s.PutBlob(value);
  }
  s.PutU32(static_cast<std::uint32_t>(undo_.size()));
  for (const auto& [txn, entries] : undo_) {
    s.PutU64(txn);
    s.PutU32(static_cast<std::uint32_t>(entries.size()));
    for (const UndoEntry& u : entries) {
      s.PutU32(u.key.file);
      s.PutU64(u.key.key);
      s.PutBool(u.old_value.has_value());
      if (u.old_value.has_value()) s.PutBlob(*u.old_value);
    }
  }
  return std::move(s).Take();
}

void Dp2Process::InstallState(std::span<const std::byte> snapshot) {
  Deserializer d(snapshot);
  std::uint64_t tail = 0;
  std::uint32_t n_records = 0;
  if (!d.GetU64(tail) || !d.GetU32(n_records)) return;
  table_.clear();
  undo_.clear();
  for (std::uint32_t i = 0; i < n_records; ++i) {
    LockKey key;
    std::vector<std::byte> value;
    if (!d.GetU32(key.file) || !d.GetU64(key.key) || !d.GetBlob(value)) return;
    table_.emplace(key, std::move(value));
  }
  std::uint32_t n_txns = 0;
  if (!d.GetU32(n_txns)) return;
  for (std::uint32_t i = 0; i < n_txns; ++i) {
    std::uint64_t txn = 0;
    std::uint32_t n_entries = 0;
    if (!d.GetU64(txn) || !d.GetU32(n_entries)) return;
    auto& list = undo_[txn];
    for (std::uint32_t j = 0; j < n_entries; ++j) {
      UndoEntry u;
      bool has_old = false;
      if (!d.GetU32(u.key.file) || !d.GetU64(u.key.key) ||
          !d.GetBool(has_old)) {
        return;
      }
      if (has_old) {
        std::vector<std::byte> old;
        if (!d.GetBlob(old)) return;
        u.old_value = std::move(old);
      }
      list.push_back(std::move(u));
    }
  }
  volume_tail_ = tail;
  state_valid_ = true;
}

}  // namespace ods::tp
