// Simulated processes. A Process models one NSK-style process: an actor
// whose behaviour is a set of coroutine fibers. Fault injection kills a
// process by force-resuming every suspended fiber with ProcessKilled,
// which unwinds all frames through normal exception propagation — RAII
// guards release locks, no coroutine frames leak, and no stale event can
// resume a dead fiber (every wait goes through a one-shot WaitState).
#pragma once

#include <cassert>
#include <coroutine>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"
#include "sim/wait_state.h"

namespace ods::sim {

class Simulation;

class Process {
 public:
  Process(Simulation& sim, std::string name);
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Launches Main() as the first fiber. Runs inline until its first await.
  void Start();

  // Adds a concurrent fiber to this process (e.g. one per in-flight
  // request in a server). Begins executing immediately.
  void SpawnFiber(Task<void> body);

  // Fault injection: force-unwinds all fibers. Idempotent. Unwinding is
  // scheduled at the current simulation time, not inline.
  void Kill();

  // Restores a killed (or exited) process to runnable and starts Main()
  // again — models replacing/restarting a process on a CPU. Issued while
  // the killed incarnation's fibers still unwind (e.g. in the same
  // instant as the Kill), it takes effect when the last of them exits; a
  // Kill before then cancels it.
  void Restart();

  [[nodiscard]] bool alive() const noexcept { return alive_; }
  // True once every fiber has completed (normally or via kill).
  [[nodiscard]] bool finished() const noexcept {
    return live_fibers_ == 0 && started_;
  }

  [[nodiscard]] Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // ---- awaitables (used from this process's fibers only) ----

  // co_await proc.Sleep(d): advance simulated time.
  [[nodiscard]] auto Sleep(SimDuration d);

  // co_await proc.Halt(): suspend this fiber until the process is
  // killed (for passive devices and idle service loops — schedules no
  // recurring wakeups). Always exits by throwing ProcessKilled.
  [[nodiscard]] auto Halt();

  // Called when the process exits or is killed; used by fault detectors.
  void NotifyOnDeath(std::function<void()> fn) {
    death_watchers_.push_back(std::move(fn));
  }

  // Internal: wait registration used by all awaitable primitives. The
  // registry holds weak WaitRefs; slots recycled by their awaiters read
  // as null and are skipped by the kill path.
  void RegisterWait(WaitRef ref);

 protected:
  // The process body. Subclasses implement their actor logic here.
  virtual Task<void> Main() = 0;

  // Called by Restart() before Main() runs again. A real process restart
  // loses all process memory — subclasses must drop volatile state here
  // (tables, buffers, caches) and re-derive it from durable media or
  // from their process-pair peer.
  virtual void OnRestart() {}

 private:
  // Eager self-destroying coroutine wrapping one fiber. The frame is
  // pooled like task frames: one fiber root is spawned per in-flight
  // request in the server processes.
  struct FiberHandle {
    struct promise_type : detail::PooledFrame {
      FiberHandle get_return_object() noexcept { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() noexcept {}
      void unhandled_exception() noexcept;
    };
  };

  FiberHandle FiberMain(Task<void> body);
  void OnFiberExit();

  Simulation& sim_;
  std::string name_;
  bool alive_ = false;
  bool started_ = false;
  bool restart_pending_ = false;  // Restart() waits for the unwind
  int live_fibers_ = 0;
  std::uint64_t epoch_ = 0;  // incremented on Kill/Restart
  std::vector<WaitRef> waits_;
  std::size_t waits_compact_at_ = 32;  // next geometric compaction point
  std::vector<std::function<void()>> death_watchers_;
};

// ---- Sleep awaiter ----

class SleepAwaiter {
 public:
  SleepAwaiter(Process& p, SimDuration d) noexcept : proc_(p), dur_(d) {}

  bool await_ready() const {
    if (!proc_.alive()) throw ProcessKilled{};
    return dur_.ns <= 0;
  }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const {
    if (state_ && state_->why == WaitState::Why::kKilled) {
      throw ProcessKilled{};
    }
    if (!proc_.alive()) throw ProcessKilled{};
  }

 private:
  Process& proc_;
  SimDuration dur_;
  PooledWait state_;
};

inline auto Process::Sleep(SimDuration d) { return SleepAwaiter(*this, d); }

class HaltAwaiter {
 public:
  explicit HaltAwaiter(Process& p) noexcept : proc_(p) {}

  bool await_ready() const {
    if (!proc_.alive()) throw ProcessKilled{};
    return false;
  }
  // No timer: only Kill() can resume this wait. Defined in process.cc
  // (needs the Simulation definition for the wait pool).
  void await_suspend(std::coroutine_handle<> h);
  [[noreturn]] void await_resume() const { throw ProcessKilled{}; }

 private:
  Process& proc_;
  PooledWait state_;
};

inline auto Process::Halt() { return HaltAwaiter(*this); }

}  // namespace ods::sim
