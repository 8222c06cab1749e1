#include "tp/lock.h"

#include <algorithm>

namespace ods::tp {

using sim::Task;

LockManager::LockManager(sim::Simulation& sim)
    : sim_(&sim),
      grants_(&sim.metrics().GetCounter("tp.lock.grants")),
      waits_(&sim.metrics().GetCounter("tp.lock.waits")),
      timeouts_(&sim.metrics().GetCounter("tp.lock.timeouts")),
      wait_time_(&sim.metrics().GetHistogram("tp.lock.wait_ns")) {}

bool LockManager::Compatible(const LockState& st, std::uint64_t txn,
                             LockMode mode) noexcept {
  for (const Holder& h : st.holders) {
    if (h.txn == txn) continue;  // own locks never conflict (upgrade below)
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::Grant(LockState& st, std::uint64_t txn, LockMode mode) {
  for (Holder& h : st.holders) {
    if (h.txn == txn) {
      // Re-entrant grant; upgrade shared->exclusive in place.
      if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
      return;
    }
  }
  st.holders.push_back(Holder{txn, mode});
}

Task<Status> LockManager::Acquire(sim::Process& proc, std::uint64_t txn,
                                  LockKey key, LockMode mode,
                                  sim::SimDuration timeout) {
  LockState& st = locks_[key];
  const bool already_holds =
      std::any_of(st.holders.begin(), st.holders.end(),
                  [&](const Holder& h) { return h.txn == txn; });
  if (Compatible(st, txn, mode) && (st.queue.empty() || already_holds)) {
    // Fast path. (A txn already holding may bypass the queue — blocking
    // an upgrade behind strangers would deadlock against itself.)
    Grant(st, txn, mode);
    if (!already_holds) held_by_txn_[txn].push_back(key);
    grants_->Increment();
    co_return OkStatus();
  }
  // Queue and wait (FIFO).
  waits_->Increment();
  st.queue.push_back(Waiter{txn, mode, sim::Promise<Status>(*sim_), false});
  auto future = st.queue.back().granted.GetFuture();
  const sim::SimTime wait_start = sim_->Now();
  auto result = co_await future.WaitFor(proc, timeout);
  wait_time_->Record(static_cast<std::uint64_t>((sim_->Now() - wait_start).ns));
  if (result.has_value()) {
    grants_->Increment();
    co_return *result;  // granted (PumpQueue recorded the hold)
  }
  if (future.ready()) {
    // The timer claimed our wait in the same instant PumpQueue granted
    // the lock: the grant is already recorded in holders/held_by_txn_,
    // so we must accept it — returning kTimedOut here would leave a
    // zombie hold that the aborting txn never knows to release.
    grants_->Increment();
    co_return OkStatus();
  }
  // Timed out: cancel our queue entry if it is still there, and re-pump —
  // a dead exclusive waiter at the head must not keep blocking grantable
  // waiters behind it until some unrelated ReleaseAll happens by.
  timeouts_->Increment();
  auto it = locks_.find(key);
  if (it != locks_.end()) {
    for (Waiter& w : it->second.queue) {
      if (w.txn == txn && !w.granted.resolved()) w.cancelled = true;
    }
    PumpQueue(key);
  }
  co_return Status(ErrorCode::kTimedOut,
                   "lock wait timed out (presumed deadlock)");
}

void LockManager::PumpQueue(LockKey key) {
  auto it = locks_.find(key);
  if (it == locks_.end()) return;
  LockState& st = it->second;
  while (!st.queue.empty()) {
    Waiter& w = st.queue.front();
    if (w.cancelled) {
      st.queue.pop_front();
      continue;
    }
    if (!Compatible(st, w.txn, w.mode)) break;  // strict FIFO
    const bool already_holds =
        std::any_of(st.holders.begin(), st.holders.end(),
                    [&](const Holder& h) { return h.txn == w.txn; });
    Grant(st, w.txn, w.mode);
    if (!already_holds) held_by_txn_[w.txn].push_back(key);
    w.granted.Set(OkStatus());
    st.queue.pop_front();
    // Multiple shared waiters may be granted together; an exclusive
    // grant blocks the rest.
  }
  if (st.holders.empty() && st.queue.empty()) locks_.erase(it);
}

void LockManager::ReleaseAll(std::uint64_t txn) {
  auto held = held_by_txn_.find(txn);
  if (held == held_by_txn_.end()) return;
  std::vector<LockKey> keys = std::move(held->second);
  held_by_txn_.erase(held);
  for (const LockKey& key : keys) {
    auto it = locks_.find(key);
    if (it == locks_.end()) continue;
    auto& holders = it->second.holders;
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [&](const Holder& h) { return h.txn == txn; }),
                  holders.end());
    PumpQueue(key);
  }
}

}  // namespace ods::tp
