// Record lock manager (§1.1): "The most common concurrency control
// operation is locking, whereby the process corresponding to the
// transaction program acquires either a shared or exclusive lock on the
// data it reads or writes." Strict two-phase: locks are held until the
// transaction resolves, giving the strong serializability ODS require.
// Deadlocks are broken by timeout (the waiter aborts).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace ods::tp {

struct LockKey {
  std::uint32_t file = 0;
  std::uint64_t key = 0;
  auto operator<=>(const LockKey&) const = default;
};

enum class LockMode { kShared, kExclusive };

// Counts go to the metrics registry, summed over every lock manager of
// the run: "tp.lock.grants", "tp.lock.waits", "tp.lock.timeouts", and
// "tp.lock.wait_ns", the sim-time spent blocked on the slow path (queued
// waits only; fast-path grants record nothing).
class LockManager {
 public:
  explicit LockManager(sim::Simulation& sim);

  // Blocks the calling fiber until granted or `timeout` expires
  // (kTimedOut — caller should abort the transaction). Re-entrant: a txn
  // holding shared may re-acquire shared; a sole holder may upgrade.
  sim::Task<Status> Acquire(sim::Process& proc, std::uint64_t txn,
                            LockKey key, LockMode mode,
                            sim::SimDuration timeout);

  // Releases everything `txn` holds and grants unblocked waiters.
  void ReleaseAll(std::uint64_t txn);

  // Drops all lock state (process restart). Pending waiters' fibers are
  // expected to be dead already.
  void Reset() {
    locks_.clear();
    held_by_txn_.clear();
  }

  [[nodiscard]] bool IsHeld(LockKey key) const noexcept {
    auto it = locks_.find(key);
    return it != locks_.end() && !it->second.holders.empty();
  }

 private:
  struct Holder {
    std::uint64_t txn;
    LockMode mode;
  };
  struct Waiter {
    std::uint64_t txn;
    LockMode mode;
    sim::Promise<Status> granted;
    bool cancelled = false;
  };
  struct LockState {
    std::vector<Holder> holders;
    std::deque<Waiter> queue;
  };

  // True if `txn` may take `mode` given current holders.
  static bool Compatible(const LockState& st, std::uint64_t txn,
                         LockMode mode) noexcept;
  void Grant(LockState& st, std::uint64_t txn, LockMode mode);
  void PumpQueue(LockKey key);

  sim::Simulation* sim_;
  std::map<LockKey, LockState> locks_;
  std::map<std::uint64_t, std::vector<LockKey>> held_by_txn_;
  Counter* grants_;
  Counter* waits_;
  Counter* timeouts_;
  LatencyHistogram* wait_time_;
};

}  // namespace ods::tp
