#include "nsk/pair.h"

#include "common/log.h"
#include "sim/fault_plan.h"

namespace ods::nsk {

PairMember::PairMember(Cluster& cluster, int cpu_index,
                       std::string service_name, std::string member_name)
    : NskProcess(cluster, cpu_index, std::move(member_name)),
      service_name_(std::move(service_name)) {}

void StartPair(PairMember& primary, PairMember& backup) {
  primary.peer_ = &backup;
  backup.peer_ = &primary;
  primary.Start();
  backup.Start();
}

sim::Task<void> PairMember::Main() {
  // Members are addressable by their unique name (for pair-internal
  // traffic) in addition to the service name.
  cluster().names().Register(name(), this);

  NskProcess* holder = cluster().names().Lookup(service_name_);
  const bool someone_else_is_primary =
      holder != nullptr && holder != this && holder->alive();
  if (someone_else_is_primary) {
    co_await RunBackup();
  } else {
    // Claim the service name synchronously so a sibling starting in the
    // same instant sees the claim and becomes the backup (recovery below
    // may suspend). RunPrimary re-registers after recovery completes.
    primary_ = true;
    cluster().names().Register(service_name_, this);
    co_await RunPrimary(/*via_takeover=*/false);
  }
}

void PairMember::WatchPeer() {
  if (peer_ == nullptr) return;
  // NotifyOnDeath is one-shot; each watch round re-arms it. The death
  // notification is multiplexed into the mailbox so the service loop
  // stays a single fiber.
  peer_->NotifyOnDeath([this] {
    if (alive()) {
      Mailbox().Send(
          Request{peer_->name(), kMsgPeerDied, {}, std::nullopt, &cluster()});
    }
  });
}

sim::Task<void> PairMember::RunPrimary(bool via_takeover) {
  if (via_takeover) {
    // Fault detection + promotion work precede recovery.
    co_await Sleep(cluster().config().failure_detection_delay +
                   cluster().config().takeover_delay);
    // Crash sweeps arm here to test double-failure: the survivor dying
    // mid-promotion, before member-specific recovery runs.
    sim::FaultPoint(sim(), sim::FaultSiteKind::kTakeover,
                    "pair-takeover:" + service_name_);
    if (!alive()) co_return;
  }
  co_await OnBecomePrimary(via_takeover);
  cluster().names().Register(service_name_, this);
  if (peer_ != nullptr && peer_->alive()) WatchPeer();

  while (true) {
    Request req = co_await Mailbox().Receive(*this);
    if (req.kind == kMsgPeerDied) {
      peer_up_ = false;
      ODS_ILOG("pair", "%s: backup died; running unprotected",
               name().c_str());
      continue;
    }
    if (req.kind == kMsgBackupUp) {
      req.Respond(OkStatus(), SnapshotState());
      peer_up_ = true;
      WatchPeer();
      continue;
    }
    if (req.kind == kMsgCheckpoint) {
      // A checkpoint aimed at the old backup arrived after promotion.
      req.Respond(Status(ErrorCode::kFailedPrecondition, "not a backup"));
      continue;
    }
    if (serial_requests()) {
      co_await Compute(cluster().config().message_overhead);
      co_await HandleRequest(std::move(req));
    } else {
      SpawnFiber([](PairMember& self, Request r) -> sim::Task<void> {
        co_await self.Compute(self.cluster().config().message_overhead);
        co_await self.HandleRequest(std::move(r));
      }(*this, std::move(req)));
    }
  }
}

sim::Task<void> PairMember::RunBackup() {
  // Announce to the primary member and install its state snapshot.
  if (peer_ != nullptr) {
    auto r = co_await Call(peer_->name(), kMsgBackupUp, {});
    if (r.ok() && r->status.ok()) {
      InstallState(r->payload);
    } else {
      ODS_WLOG("pair", "%s: backup resync failed: %s", name().c_str(),
               r.status().ToString().c_str());
    }
  }
  WatchPeer();

  while (true) {
    Request req = co_await Mailbox().Receive(*this);
    if (req.kind == kMsgCheckpoint) {
      ApplyCheckpoint(req.payload);
      req.Respond(OkStatus());
      continue;
    }
    if (req.kind == kMsgPeerDied) break;  // take over
    // A client request reached the backup (stale name resolution).
    req.Respond(Status(ErrorCode::kUnavailable, "addressed the backup"));
  }

  primary_ = true;
  peer_up_ = false;
  co_await RunPrimary(/*via_takeover=*/true);
}

sim::Task<Status> PairMember::CheckpointToBackup(std::vector<std::byte> delta) {
  if (!peer_up_ || peer_ == nullptr) co_return OkStatus();
  checkpoint_bytes_ += delta.size();
  ++checkpoints_sent_;
  CallOptions opts;
  opts.timeout = sim::Milliseconds(200);
  opts.max_attempts = 2;
  opts.retry_backoff = sim::Milliseconds(10);
  auto r = co_await Call(peer_->name(), kMsgCheckpoint, std::move(delta), opts);
  if (!r.ok() || !r->status.ok()) {
    // Backup unreachable: run unprotected rather than stall commits.
    peer_up_ = false;
    co_return r.ok() ? r->status : r.status();
  }
  co_return OkStatus();
}

}  // namespace ods::nsk
