#include "tp/adp.h"

#include <algorithm>

#include "common/log.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "tp/kinds.h"

namespace ods::tp {

using nsk::Request;
using sim::Task;

namespace {

// Checkpoint delta framing: [kind u8][payload]
constexpr std::uint8_t kCkptBuffer = 1;   // framed bytes appended to buffer
constexpr std::uint8_t kCkptDurable = 2;  // durable tail advanced (confirm)
// Flush intent, sent concurrently with the device append it describes:
// [confirmed u64][intent u64]. `confirmed` is a durable tail the backup
// may trim to (bounded by what it has acked receiving); `intent` is the
// tail the in-flight append is trying to reach. The backup must NOT trim
// to `intent` — if the append fails or the primary dies mid-flight, the
// promoted backup still holds the bytes and re-appends them idempotently
// (same framed bytes at the same ring offsets).
constexpr std::uint8_t kCkptFlush = 3;

}  // namespace

AdpProcess::AdpProcess(nsk::Cluster& cluster, int cpu_index,
                       std::string service_name, std::string member_name,
                       std::unique_ptr<LogDevice> device)
    : PairMember(cluster, cpu_index, std::move(service_name),
                 std::move(member_name)),
      device_(std::move(device)),
      flushes_(&sim().metrics().GetCounter("adp.flushes")),
      flushed_bytes_(&sim().metrics().GetCounter("adp.flushed_bytes")),
      coalesced_checkpoints_(
          &sim().metrics().GetCounter("adp.coalesced_checkpoints")),
      flush_latency_(&sim().metrics().GetHistogram(
          "adp." + this->service_name() + ".flush_latency_ns")) {}

Task<void> AdpProcess::OnBecomePrimary(bool via_takeover) {
  const sim::SimTime t0 = sim().Now();
  (void)co_await device_->Open(*this);
  if (!state_valid_) {
    // No surviving in-memory state (fresh start or post-power-loss
    // restart): re-derive the durable tail and next LSN from the medium.
    // This is where disk (full scan), PM (direct read) and an active
    // NPMU (device-side scan, no log bytes on the fabric) diverge — the
    // paper's MTTR claim. The device picks its own path.
    auto summary = co_await device_->RecoverSummary(*this);
    if (summary.ok()) {
      durable_tail_ = summary->durable_tail;
      next_lsn_ = std::max(next_lsn_, summary->next_lsn);
      state_valid_ = true;
    } else {
      ODS_WLOG("adp", "%s: log recovery failed: %s", name().c_str(),
               summary.status().ToString().c_str());
    }
  } else {
    // Promoted with checkpointed state: install the tail on the device.
    // Buffered-but-unflushed records stay pending; the next flush request
    // (clients retry through the service name) makes them durable.
    device_->set_tail(durable_tail_);
    if (flush_intent_ > durable_tail_) {
      ODS_DLOG("adp", "%s: takeover with flush in flight (intent %llu > "
               "confirmed %llu); pending buffer re-covers it",
               name().c_str(),
               static_cast<unsigned long long>(flush_intent_),
               static_cast<unsigned long long>(durable_tail_));
    }
  }
  // Primary-role watermarks: everything currently in buffer_ is ours by
  // definition (recovered it or had it checkpointed to us), so it counts
  // as acked; nothing has been confirmed to a (new) backup yet.
  buffered_tail_ = durable_tail_ + buffer_.size();
  ckpt_acked_tail_ = buffered_tail_;
  durable_confirmed_ = durable_tail_;
  (void)via_takeover;
  last_recovery_time_ = sim().Now() - t0;
}

Task<Status> AdpProcess::BufferRecords(std::span<const std::byte> payload,
                                       std::uint64_t* last_txn) {
  // Payload: sequence of length-prefixed serialized AuditRecords
  // (lsn unassigned).
  Deserializer d(payload);
  std::vector<std::byte> framed;
  std::uint32_t count = 0;
  if (!d.GetU32(count)) {
    co_return Status(ErrorCode::kInvalidArgument, "bad audit batch");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::vector<std::byte> rec_bytes;
    if (!d.GetBlob(rec_bytes)) {
      co_return Status(ErrorCode::kInvalidArgument, "bad audit batch");
    }
    auto rec = AuditRecord::Deserialize(rec_bytes);
    if (!rec) co_return Status(ErrorCode::kInvalidArgument, "bad record");
    rec->lsn = next_lsn_++;
    if (last_txn != nullptr) *last_txn = rec->txn;
    FrameRecord(*rec, framed);
  }
  buffer_.insert(buffer_.end(), framed.begin(), framed.end());
  buffer_marks_.push_back(buffer_.size());
  buffered_tail_ += framed.size();
  // Externalization rule: the buffered delta reaches the backup before
  // the sender is acknowledged. Deltas that arrive while a checkpoint is
  // in flight are coalesced into the next one (one backup round trip for
  // the whole cohort) instead of queueing a checkpoint per request.
  ckpt_pending_.insert(ckpt_pending_.end(), framed.begin(), framed.end());
  sim::Promise<Status> acked(sim());
  auto fut = acked.GetFuture();
  ckpt_waiters_.push_back(std::move(acked));
  EnsureCkptPump();
  (void)co_await fut.Wait(*this);
  co_return OkStatus();
}

void AdpProcess::EnsureCkptPump() {
  if (ckpt_pump_running_) return;
  ckpt_pump_running_ = true;
  SpawnFiber([](AdpProcess& self) -> Task<void> {
    co_await self.CkptPumpLoop();
  }(*this));
}

Task<void> AdpProcess::CkptPumpLoop() {
  while (alive() && !ckpt_waiters_.empty()) {
    std::vector<std::byte> framed = std::move(ckpt_pending_);
    ckpt_pending_.clear();
    // Everything staged so far — and every fiber waiting on it — rides
    // this one checkpoint.
    const std::uint64_t cohort_end = buffered_tail_;
    const std::size_t cohort = ckpt_waiters_.size();
    coalesced_checkpoints_->Add(cohort - 1);
    Serializer ckpt;
    ckpt.PutU8(kCkptBuffer);
    ckpt.PutU64(next_lsn_);
    ckpt.PutBlob(framed);
    (void)co_await CheckpointToBackup(std::move(ckpt).Take());
    // OK means applied (or no backup to protect); either way these bytes
    // can now be confirmed durable to the backup without risking a trim
    // of bytes it never received.
    ckpt_acked_tail_ = std::max(ckpt_acked_tail_, cohort_end);
    for (std::size_t i = 0; i < cohort; ++i) {
      ckpt_waiters_.front().Set(OkStatus());
      ckpt_waiters_.pop_front();
    }
  }
  ckpt_pump_running_ = false;
}

void AdpProcess::EnsureFlusher() {
  if (flusher_running_) return;
  flusher_running_ = true;
  SpawnFiber([](AdpProcess& self) -> Task<void> {
    co_await self.FlushLoop();
  }(*this));
}

Task<void> AdpProcess::FlushLoop() {
  while (alive() && !flush_waiters_.empty()) {
    // Group commit: take the whole buffer — every record buffered so
    // far, including ones that arrived while the previous flush was in
    // flight, rides this I/O.
    std::vector<std::byte> batch = std::move(buffer_);
    buffer_.clear();
    std::vector<std::uint64_t> marks = std::move(buffer_marks_);
    buffer_marks_.clear();
    const std::uint64_t target = durable_tail_ + batch.size();
    // The flush is tagged with the op-id of the request that triggered it
    // (the front waiter); riders are still traceable via their own
    // adp.flush async spans.
    const std::uint64_t flush_op =
        flush_waiters_.empty() ? 0 : flush_waiters_.front().op_id;
    Status st = OkStatus();
    if (!batch.empty()) {
      const std::size_t batch_size = batch.size();
      const sim::SimTime io_start = sim().Now();
      // Overlap the device append with the checkpoint to the backup: both
      // must complete before any waiter is acknowledged (§1.3), but
      // neither orders against the other. The checkpoint is an INTENT —
      // it confirms only a tail that is already durable AND covered by
      // acked buffer checkpoints, so the backup never trims bytes the
      // in-flight append could still fail to land (or bytes the backup
      // has not received yet).
      const std::uint64_t confirmed =
          std::min(durable_tail_, ckpt_acked_tail_);
      Serializer ckpt;
      ckpt.PutU8(kCkptFlush);
      ckpt.PutU64(confirmed);
      ckpt.PutU64(target);
      auto append_done = sim::SpawnTask(
          *this, device_->Append(*this, std::move(batch), std::move(marks),
                                 flush_op));
      auto ckpt_done =
          sim::SpawnTask(*this, CheckpointToBackup(std::move(ckpt).Take()));
      st = co_await append_done.Wait(*this);
      (void)co_await ckpt_done.Wait(*this);
      if (st.ok()) {
        durable_tail_ = target;
        durable_confirmed_ = std::max(durable_confirmed_, confirmed);
        flushes_->Increment();
        flushed_bytes_->Add(batch_size);
      }
      if (Tracer* tr = sim().tracer(); tr != nullptr && tr->enabled()) {
        tr->Complete(TraceLane::kAdp, "adp.flush_io", io_start.ns,
                     sim().Now().ns, flush_op, "bytes", batch_size, "ok",
                     st.ok() ? 1 : 0);
      }
    }
    // Answer every waiter satisfied by (or failed with) this flush.
    std::deque<FlushWaiter> still_waiting;
    for (auto& w : flush_waiters_) {
      if (!st.ok()) {
        w.request.Respond(st);
        if (Tracer* tr = sim().tracer();
            tr != nullptr && tr->enabled() && w.op_id != 0) {
          tr->AsyncEnd(TraceLane::kAdp, "adp.flush", sim().Now().ns, w.op_id);
        }
      } else if (w.target <= durable_tail_) {
        const auto wait_ns =
            static_cast<std::uint64_t>((sim().Now() - w.enqueued).ns);
        flush_latency_->Record(wait_ns);
        Serializer s;
        s.PutU64(durable_tail_);
        w.request.Respond(OkStatus(), std::move(s).Take());
        if (Tracer* tr = sim().tracer();
            tr != nullptr && tr->enabled() && w.op_id != 0) {
          tr->AsyncEnd(TraceLane::kAdp, "adp.flush", sim().Now().ns, w.op_id);
        }
      } else {
        still_waiting.push_back(std::move(w));
      }
    }
    flush_waiters_ = std::move(still_waiting);
    // Quiescent: tell the backup the final durable tail so it can trim
    // its pending buffer (the overlapped intents above confirm one flush
    // behind). Then re-check — waiters may arrive during the checkpoint.
    if (flush_waiters_.empty()) {
      const std::uint64_t confirm = std::min(durable_tail_, ckpt_acked_tail_);
      if (confirm > durable_confirmed_) {
        durable_confirmed_ = confirm;
        Serializer ckpt;
        ckpt.PutU8(kCkptDurable);
        ckpt.PutU64(confirm);
        (void)co_await CheckpointToBackup(std::move(ckpt).Take());
        continue;
      }
    }
  }
  flusher_running_ = false;
}

Task<void> AdpProcess::HandleRequest(Request req) {
  switch (req.kind) {
    case kAdpBuffer: {
      Status st = co_await BufferRecords(req.payload);
      req.Respond(st);
      break;
    }
    case kAdpFlush: {
      // Optional piggybacked records (e.g. the commit record). The txn id
      // of the batch's last record (the committing txn) becomes the flush
      // request's trace correlation id — flush messages themselves carry
      // no op-id.
      std::uint64_t op_id = 0;
      if (!req.payload.empty()) {
        Status st = co_await BufferRecords(req.payload, &op_id);
        if (!st.ok()) {
          req.Respond(st);
          break;
        }
      }
      Tracer* tr = sim().tracer();
      if (tr != nullptr && tr->enabled() && op_id != 0) {
        tr->AsyncBegin(TraceLane::kAdp, "adp.flush", sim().Now().ns, op_id);
      }
      FlushWaiter w{durable_tail_ + buffer_.size(), std::move(req),
                    sim().Now(), op_id};
      if (w.target == durable_tail_) {
        // Nothing pending: already durable.
        Serializer s;
        s.PutU64(durable_tail_);
        w.request.Respond(OkStatus(), std::move(s).Take());
        if (tr != nullptr && tr->enabled() && op_id != 0) {
          tr->AsyncEnd(TraceLane::kAdp, "adp.flush", sim().Now().ns, op_id);
        }
        break;
      }
      flush_waiters_.push_back(std::move(w));
      EnsureFlusher();
      break;
    }
    case kAdpReadLog: {
      // Redo reads the durable trail off the device, never the buffered
      // tail. Concurrent readers share one device read as long as
      // nothing became durable since it started.
      if (log_read_ != nullptr && log_read_->tail == device_->tail()) {
        log_read_->readers.push_back(std::move(req));
        break;
      }
      auto read = log_read_ = std::make_shared<LogRead>(device_->tail());
      read->readers.push_back(std::move(req));
      auto log = co_await device_->ReadLog(*this);
      if (log_read_ == read) log_read_.reset();
      for (Request& r : read->readers) {
        r.Respond(log.status(), log.ok() ? *log : std::vector<std::byte>{});
      }
      break;
    }
    case kAdpReplaySource: {
      // Replay handoff: tell the recovering DP2 where the durable log
      // lives so it can ship filtered replay straight from the device.
      auto src = device_->replay_source();
      if (!src.has_value()) {
        req.Respond(Status(ErrorCode::kFailedPrecondition,
                           "log device has no direct replay source"));
        break;
      }
      Serializer s;
      s.PutString(src->pmm_service);
      s.PutString(src->region_name);
      s.PutU64(src->base_offset);
      s.PutU64(src->length);
      req.Respond(OkStatus(), std::move(s).Take());
      break;
    }
    default:
      req.Respond(Status(ErrorCode::kInvalidArgument, "unknown ADP request"));
  }
}

void AdpProcess::ApplyCheckpoint(std::span<const std::byte> delta) {
  Deserializer d(delta);
  std::uint8_t kind = 0;
  if (!d.GetU8(kind)) return;
  if (kind == kCkptBuffer) {
    std::uint64_t lsn = 0;
    std::vector<std::byte> framed;
    if (!d.GetU64(lsn) || !d.GetBlob(framed)) return;
    next_lsn_ = lsn;
    buffer_.insert(buffer_.end(), framed.begin(), framed.end());
    buffer_marks_.push_back(buffer_.size());
    state_valid_ = true;
  } else if (kind == kCkptDurable) {
    std::uint64_t tail = 0;
    if (!d.GetU64(tail)) return;
    AdvanceDurable(tail);
    state_valid_ = true;
  } else if (kind == kCkptFlush) {
    std::uint64_t confirmed = 0;
    std::uint64_t intent = 0;
    if (!d.GetU64(confirmed) || !d.GetU64(intent)) return;
    // Trim only to `confirmed`; `intent` describes an append that may
    // still fail. The bytes covering [confirmed, intent) stay in our
    // pending buffer so a takeover can re-append them idempotently.
    AdvanceDurable(confirmed);
    flush_intent_ = std::max(flush_intent_, intent);
    state_valid_ = true;
  }
}

void AdpProcess::AdvanceDurable(std::uint64_t tail) {
  // Checkpoints are not FIFO on the wire: a stale (smaller) confirm may
  // arrive after a newer one. Never regress.
  if (tail <= durable_tail_) return;
  const std::uint64_t advanced = tail - durable_tail_;
  durable_tail_ = tail;
  // Drop the now-durable prefix from the pending buffer.
  if (advanced >= buffer_.size()) {
    buffer_.clear();
    buffer_marks_.clear();
  } else {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(advanced));
    std::erase_if(buffer_marks_,
                  [advanced](std::uint64_t m) { return m <= advanced; });
    for (std::uint64_t& m : buffer_marks_) m -= advanced;
  }
}

std::vector<std::byte> AdpProcess::SnapshotState() {
  // The snapshot carries the full pending buffer, so once the backup
  // installs it, everything buffered so far is known-received.
  ckpt_acked_tail_ = std::max(ckpt_acked_tail_, buffered_tail_);
  Serializer s;
  s.PutU64(durable_tail_);
  s.PutU64(next_lsn_);
  s.PutBlob(buffer_);
  return std::move(s).Take();
}

void AdpProcess::InstallState(std::span<const std::byte> snapshot) {
  Deserializer d(snapshot);
  std::uint64_t tail = 0, lsn = 0;
  std::vector<std::byte> buffer;
  if (!d.GetU64(tail) || !d.GetU64(lsn) || !d.GetBlob(buffer)) return;
  durable_tail_ = tail;
  next_lsn_ = lsn;
  buffer_ = std::move(buffer);
  // Internal cohort boundaries were not snapshotted; the whole pending
  // buffer is one indivisible chunk for the next flush.
  buffer_marks_.clear();
  if (!buffer_.empty()) buffer_marks_.push_back(buffer_.size());
  state_valid_ = true;
}

}  // namespace ods::tp
