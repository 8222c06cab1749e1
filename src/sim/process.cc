#include "sim/process.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "common/log.h"
#include "sim/simulation.h"

namespace ods::sim {

Process::Process(Simulation& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

Process::~Process() = default;

void Process::Start() {
  assert(!started_ && "Start() is one-shot; use Restart()");
  started_ = true;
  alive_ = true;
  SpawnFiber(Main());
}

void Process::SpawnFiber(Task<void> body) {
  if (!alive_) return;  // process already dead; drop the work
  FiberMain(std::move(body));
}

Process::FiberHandle Process::FiberMain(Task<void> body) {
  ++live_fibers_;
  try {
    co_await std::move(body);
  } catch (const ProcessKilled&) {
    // Expected teardown path.
  } catch (const std::exception& e) {
    ODS_ELOG("proc", "%s: fiber died with exception: %s", name_.c_str(),
             e.what());
  }
  OnFiberExit();
}

void Process::FiberHandle::promise_type::unhandled_exception() noexcept {
  // A fiber body escaped FiberMain's handlers — invariant violation.
  std::fprintf(stderr, "fatal: unhandled exception escaped a fiber root\n");
  std::abort();
}

void Process::OnFiberExit() {
  assert(live_fibers_ > 0);
  if (--live_fibers_ == 0) {
    alive_ = false;
    auto watchers = std::move(death_watchers_);
    death_watchers_.clear();
    for (auto& fn : watchers) fn();
    if (std::exchange(restart_pending_, false)) Restart();
  }
}

void Process::Kill() {
  restart_pending_ = false;
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  auto waits = std::move(waits_);
  waits_.clear();
  waits_compact_at_ = 32;
  for (WaitRef& ref : waits) {
    WaitState* st = ref.get();
    if (st != nullptr && st->TryFire(WaitState::Why::kKilled)) {
      // The claim keeps the slot owned by its suspended awaiter until
      // the frame unwinds, so the handle is stable until the resume
      // event below runs (Shutdown pumps same-time events before
      // dropping anything).
      sim_.ScheduleNow([h = st->handle] { h.resume(); });
    }
  }
  // If no fiber was suspended (e.g. self-kill from a running fiber), the
  // running fiber will observe !alive() at its next await and unwind.
  // Fibers still unwinding keep live_fibers_ > 0; death watchers fire
  // from OnFiberExit when the last one finishes.
  if (live_fibers_ == 0) {
    auto watchers = std::move(death_watchers_);
    death_watchers_.clear();
    for (auto& fn : watchers) fn();
  }
}

void Process::Restart() {
  if (alive_) return;  // running, or already restarted
  if (live_fibers_ > 0) {
    // The killed incarnation is still unwinding and its fibers still
    // touch members: OnRestart and the new Main wait for the last exit.
    restart_pending_ = true;
    return;
  }
  OnRestart();  // process memory does not survive a restart
  alive_ = true;
  ++epoch_;
  // Start after any pending same-time unwind events for determinism.
  sim_.ScheduleNow([this] {
    if (alive_) SpawnFiber(Main());
  });
}

void Process::RegisterWait(WaitRef ref) {
  // Geometric lazy compaction: scan only when the registry doubles past
  // its last compacted size, so the cost is amortized O(1) per
  // registration even for processes holding thousands of live waits
  // (open-loop driver fleets), where a fixed-stride scan would reclaim
  // nothing and pay O(n) every few pushes.
  if (waits_.size() >= waits_compact_at_) {
    std::erase_if(waits_, [](const WaitRef& w) {
      const WaitState* st = w.get();
      return st == nullptr || st->fired();
    });
    waits_compact_at_ = std::max<std::size_t>(32, waits_.size() * 2);
  }
  waits_.push_back(ref);
}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  WaitState* st = state_.Acquire(proc_.sim());
  st->handle = h;
  proc_.RegisterWait(WaitRef(st));
  proc_.sim().TimerAfter(dur_, st, WaitState::Why::kFulfilled);
}

void HaltAwaiter::await_suspend(std::coroutine_handle<> h) {
  WaitState* st = state_.Acquire(proc_.sim());
  st->handle = h;
  proc_.RegisterWait(WaitRef(st));
}

}  // namespace ods::sim
