// Tests for the discrete-event simulation core: event ordering, coroutine
// processes, sleep/future/channel/mutex/latch primitives, and — most
// importantly for this paper — kill semantics (fault injection must
// unwind cleanly, release resources, and never resume dead fibers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ods::sim {
namespace {

// A process whose behaviour is supplied as a lambda, for compact tests.
class LambdaProcess : public Process {
 public:
  using Body = std::function<Task<void>(LambdaProcess&)>;
  LambdaProcess(Simulation& sim, std::string name, Body body)
      : Process(sim, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

// ------------------------------------------------------------ event queue

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime{30}, [&] { order.push_back(3); });
  sim.Schedule(SimTime{10}, [&] { order.push_back(1); });
  sim.Schedule(SimTime{20}, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime{30});
}

TEST(SimulationTest, SameTimeEventsRunFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(SimTime{5}, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulationTest, RunUntilLeavesLaterEvents) {
  Simulation sim;
  int ran = 0;
  sim.Schedule(SimTime{10}, [&] { ++ran; });
  sim.Schedule(SimTime{100}, [&] { ++ran; });
  sim.RunUntil(SimTime{50});
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), SimTime{50});
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulationTest, NestedSchedulingAdvancesClock) {
  Simulation sim;
  SimTime observed{};
  sim.Schedule(SimTime{10}, [&] {
    sim.After(Nanoseconds(5), [&] { observed = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(observed, SimTime{15});
}

// ---------------------------------------------------------------- process

TEST(ProcessTest, SleepAdvancesSimTime) {
  Simulation sim;
  SimTime woke{};
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    co_await self.Sleep(Microseconds(100));
    woke = self.sim().Now();
  });
  sim.Run();
  EXPECT_EQ(woke, SimTime{100'000});
}

TEST(ProcessTest, ZeroSleepDoesNotSuspend) {
  Simulation sim;
  bool done = false;
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    co_await self.Sleep(Nanoseconds(0));
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(ProcessTest, ProcessFinishesAfterMainReturns) {
  Simulation sim;
  auto& p =
      sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
        co_await self.Sleep(Microseconds(1));
      });
  EXPECT_TRUE(p.alive());
  EXPECT_FALSE(p.finished());
  sim.Run();
  EXPECT_FALSE(p.alive());
  EXPECT_TRUE(p.finished());
}

TEST(ProcessTest, NestedTasksPropagateValues) {
  Simulation sim;
  int result = 0;
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    auto inner = [](LambdaProcess& s, int x) -> Task<int> {
      co_await s.Sleep(Microseconds(1));
      co_return x * 2;
    };
    result = co_await inner(self, 21);
  });
  sim.Run();
  EXPECT_EQ(result, 42);
}

TEST(ProcessTest, FibersInterleaveByTime) {
  Simulation sim;
  std::vector<std::string> log;
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    self.SpawnFiber([](LambdaProcess& s, std::vector<std::string>& l)
                        -> Task<void> {
      co_await s.Sleep(Microseconds(10));
      l.push_back("b@10");
    }(self, log));
    co_await self.Sleep(Microseconds(5));
    log.push_back("a@5");
    co_await self.Sleep(Microseconds(10));
    log.push_back("a@15");
  });
  sim.Run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "a@5");
  EXPECT_EQ(log[1], "b@10");
  EXPECT_EQ(log[2], "a@15");
}

// ------------------------------------------------------------------- kill

TEST(KillTest, KilledSleeperUnwinds) {
  Simulation sim;
  bool reached_after_sleep = false;
  bool destructor_ran = false;

  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };

  auto& p =
      sim.Spawn<LambdaProcess>("victim", [&](LambdaProcess& self) -> Task<void> {
        Sentinel s{&destructor_ran};
        co_await self.Sleep(Seconds(100));
        reached_after_sleep = true;
      });
  sim.Schedule(SimTime{1000}, [&] { p.Kill(); });
  sim.Run();
  EXPECT_FALSE(reached_after_sleep);
  EXPECT_TRUE(destructor_ran) << "RAII must run during kill unwinding";
  EXPECT_FALSE(p.alive());
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(sim.Now(), SimTime{1000}) << "the 100s timer must not hold the sim";
}

TEST(KillTest, StaleTimerDoesNotResurrect) {
  Simulation sim;
  int wakeups = 0;
  auto& p =
      sim.Spawn<LambdaProcess>("victim", [&](LambdaProcess& self) -> Task<void> {
        co_await self.Sleep(Microseconds(10));
        ++wakeups;
      });
  sim.ScheduleNow([&] { p.Kill(); });
  sim.Run();  // the 10us timer still fires, but must be a no-op
  EXPECT_EQ(wakeups, 0);
}

TEST(KillTest, SelfKillUnwindsAtNextAwait) {
  Simulation sim;
  bool after = false;
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    self.Kill();
    // Still running here (kill takes effect at the next suspension).
    co_await self.Sleep(Microseconds(1));
    after = true;
  });
  sim.Run();
  EXPECT_FALSE(after);
}

TEST(KillTest, DeathWatcherFires) {
  Simulation sim;
  bool notified = false;
  auto& p =
      sim.Spawn<LambdaProcess>("victim", [&](LambdaProcess& self) -> Task<void> {
        co_await self.Sleep(Seconds(10));
      });
  p.NotifyOnDeath([&] { notified = true; });
  sim.Schedule(SimTime{500}, [&] { p.Kill(); });
  sim.Run();
  EXPECT_TRUE(notified);
}

TEST(KillTest, RestartRunsMainAgain) {
  Simulation sim;
  int runs = 0;
  int unwound = 0;
  int unwound_at_last_start = 0;
  struct Unwind {
    int* n;
    ~Unwind() { ++*n; }
  };
  auto& p = sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    ++runs;
    unwound_at_last_start = unwound;
    Unwind guard{&unwound};
    co_await self.Sleep(Seconds(100));
  });
  sim.Schedule(SimTime{100}, [&] { p.Kill(); });
  sim.Schedule(SimTime{200}, [&] { p.Restart(); });
  sim.RunUntil(SimTime{1'000'000});
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(p.alive());

  // A restart in the same instant as the kill, while the killed fiber
  // still unwinds, takes effect once it has unwound.
  sim.Schedule(SimTime{2'000'000}, [&] {
    p.Kill();
    p.Restart();
  });
  sim.RunUntil(SimTime{3'000'000});
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(unwound_at_last_start, 2) << "Main re-ran before the unwind";
  EXPECT_TRUE(p.alive());
}

TEST(KillTest, KillAllFibers) {
  Simulation sim;
  int unwound = 0;
  struct Count {
    int* n;
    ~Count() { ++*n; }
  };
  auto& p = sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      self.SpawnFiber([](LambdaProcess& s, int* n) -> Task<void> {
        Count c{n};
        co_await s.Sleep(Seconds(50));
      }(self, &unwound));
    }
    Count c{&unwound};
    co_await self.Sleep(Seconds(50));
  });
  sim.Schedule(SimTime{10}, [&] { p.Kill(); });
  sim.Run();
  EXPECT_EQ(unwound, 4);
  EXPECT_TRUE(p.finished());
}

// -------------------------------------------------------- promise/future

TEST(FutureTest, WaitReturnsValue) {
  Simulation sim;
  Promise<int> promise(sim);
  int got = 0;
  sim.Spawn<LambdaProcess>("w", [&](LambdaProcess& self) -> Task<void> {
    got = co_await promise.GetFuture().Wait(self);
  });
  sim.Schedule(SimTime{100}, [&] { promise.Set(99); });
  sim.Run();
  EXPECT_EQ(got, 99);
}

TEST(FutureTest, AlreadyResolvedReturnsImmediately) {
  Simulation sim;
  Promise<int> promise(sim);
  promise.Set(7);
  int got = 0;
  sim.Spawn<LambdaProcess>("w", [&](LambdaProcess& self) -> Task<void> {
    got = co_await promise.GetFuture().Wait(self);
    EXPECT_EQ(self.sim().Now(), SimTime{0});
  });
  sim.Run();
  EXPECT_EQ(got, 7);
}

TEST(FutureTest, WaitForTimesOut) {
  Simulation sim;
  Promise<int> promise(sim);
  bool timed_out = false;
  sim.Spawn<LambdaProcess>("w", [&](LambdaProcess& self) -> Task<void> {
    auto v = co_await promise.GetFuture().WaitFor(self, Microseconds(50));
    timed_out = !v.has_value();
  });
  sim.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(sim.Now(), SimTime{50'000});
}

TEST(FutureTest, WaitForBeatsTimeout) {
  Simulation sim;
  Promise<int> promise(sim);
  std::optional<int> got;
  sim.Spawn<LambdaProcess>("w", [&](LambdaProcess& self) -> Task<void> {
    got = co_await promise.GetFuture().WaitFor(self, Microseconds(50));
  });
  sim.Schedule(SimTime{10'000}, [&] { promise.Set(5); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
}

TEST(FutureTest, LateSetAfterTimeoutIsSafe) {
  Simulation sim;
  Promise<int> promise(sim);
  sim.Spawn<LambdaProcess>("w", [&](LambdaProcess& self) -> Task<void> {
    auto v = co_await promise.GetFuture().WaitFor(self, Microseconds(1));
    EXPECT_FALSE(v.has_value());
  });
  sim.Schedule(SimTime{1'000'000}, [&] { promise.Set(1); });
  sim.Run();  // must not crash or double-resume
}

TEST(FutureTest, KilledWaiterUnwinds) {
  Simulation sim;
  Promise<int> promise(sim);
  bool after = false;
  auto& p = sim.Spawn<LambdaProcess>("w", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await promise.GetFuture().Wait(self);
    after = true;
  });
  sim.Schedule(SimTime{10}, [&] { p.Kill(); });
  sim.Run();
  EXPECT_FALSE(after);
  EXPECT_TRUE(p.finished());
}

// ---------------------------------------------------------------- channel

TEST(ChannelTest, SendThenReceive) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.Send(1);
  ch.Send(2);
  std::vector<int> got;
  sim.Spawn<LambdaProcess>("r", [&](LambdaProcess& self) -> Task<void> {
    got.push_back(co_await ch.Receive(self));
    got.push_back(co_await ch.Receive(self));
  });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, ReceiveBlocksUntilSend) {
  Simulation sim;
  Channel<int> ch(sim);
  SimTime when{};
  sim.Spawn<LambdaProcess>("r", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await ch.Receive(self);
    when = self.sim().Now();
  });
  sim.Schedule(SimTime{777}, [&] { ch.Send(9); });
  sim.Run();
  EXPECT_EQ(when, SimTime{777});
}

TEST(ChannelTest, FifoAcrossManyMessages) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.Spawn<LambdaProcess>("r", [&](LambdaProcess& self) -> Task<void> {
    for (int i = 0; i < 100; ++i) got.push_back(co_await ch.Receive(self));
  });
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(SimTime{i * 10}, [&ch, i] { ch.Send(i); });
  }
  sim.Run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(ChannelTest, ReceiveForTimesOut) {
  Simulation sim;
  Channel<int> ch(sim);
  bool timed_out = false;
  sim.Spawn<LambdaProcess>("r", [&](LambdaProcess& self) -> Task<void> {
    auto v = co_await ch.ReceiveFor(self, Milliseconds(5));
    timed_out = !v.has_value();
  });
  sim.Run();
  EXPECT_TRUE(timed_out);
}

TEST(ChannelTest, SendSkipsTimedOutReceiver) {
  Simulation sim;
  Channel<int> ch(sim);
  std::optional<int> first, second;
  sim.Spawn<LambdaProcess>("r1", [&](LambdaProcess& self) -> Task<void> {
    first = co_await ch.ReceiveFor(self, Microseconds(10));
    // Second receive with a long deadline: must get the message.
    second = co_await ch.ReceiveFor(self, Seconds(10));
  });
  sim.Schedule(SimTime{1'000'000}, [&] { ch.Send(42); });
  sim.Run();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 42);
}

TEST(ChannelTest, TwoReceiversEachGetOne) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  for (int r = 0; r < 2; ++r) {
    sim.Spawn<LambdaProcess>("r" + std::to_string(r),
                             [&](LambdaProcess& self) -> Task<void> {
                               got.push_back(co_await ch.Receive(self));
                             });
  }
  sim.Schedule(SimTime{10}, [&] { ch.Send(1); });
  sim.Schedule(SimTime{20}, [&] { ch.Send(2); });
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0] + got[1], 3);
}

// ------------------------------------------------------------------ mutex

TEST(MutexTest, MutualExclusionSerializes) {
  Simulation sim;
  SimMutex mu(sim);
  std::vector<std::pair<std::string, SimTime>> log;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn<LambdaProcess>(
        "p" + std::to_string(i), [&, i](LambdaProcess& self) -> Task<void> {
          auto guard = co_await mu.Acquire(self);
          log.emplace_back("enter" + std::to_string(i), self.sim().Now());
          co_await self.Sleep(Microseconds(100));
          log.emplace_back("exit" + std::to_string(i), self.sim().Now());
        });
  }
  sim.Run();
  ASSERT_EQ(log.size(), 6u);
  // Critical sections must not overlap: enter/exit strictly alternate.
  for (size_t i = 0; i + 1 < log.size(); i += 2) {
    EXPECT_TRUE(log[i].first.starts_with("enter"));
    EXPECT_TRUE(log[i + 1].first.starts_with("exit"));
    EXPECT_EQ(log[i].first.substr(5), log[i + 1].first.substr(4));
  }
}

TEST(MutexTest, FifoGrantOrder) {
  Simulation sim;
  SimMutex mu(sim);
  std::vector<int> grant_order;
  for (int i = 0; i < 4; ++i) {
    sim.Schedule(SimTime{i * 10}, [&, i] {
      sim.Spawn<LambdaProcess>(
          "p" + std::to_string(i), [&, i](LambdaProcess& self) -> Task<void> {
            auto guard = co_await mu.Acquire(self);
            grant_order.push_back(i);
            co_await self.Sleep(Milliseconds(1));
          });
    });
  }
  sim.Run();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MutexTest, KilledHolderReleasesViaRaii) {
  Simulation sim;
  SimMutex mu(sim);
  bool second_got_lock = false;
  auto& holder =
      sim.Spawn<LambdaProcess>("holder", [&](LambdaProcess& self) -> Task<void> {
        auto guard = co_await mu.Acquire(self);
        co_await self.Sleep(Seconds(100));  // hold "forever"
      });
  sim.Spawn<LambdaProcess>("waiter", [&](LambdaProcess& self) -> Task<void> {
    co_await self.Sleep(Microseconds(1));  // let holder acquire first
    auto guard = co_await mu.Acquire(self);
    second_got_lock = true;
  });
  sim.Schedule(SimTime{1'000}, [&] { holder.Kill(); });
  sim.Run();
  EXPECT_TRUE(second_got_lock)
      << "kill-unwinding must release held locks through RAII guards";
}

TEST(MutexTest, KilledWaiterIsSkipped) {
  Simulation sim;
  SimMutex mu(sim);
  std::vector<int> grants;
  auto& holder =
      sim.Spawn<LambdaProcess>("holder", [&](LambdaProcess& self) -> Task<void> {
        auto guard = co_await mu.Acquire(self);
        co_await self.Sleep(Milliseconds(10));
      });
  (void)holder;
  LambdaProcess* w1 = nullptr;
  sim.ScheduleNow([&] {
    w1 = &sim.Spawn<LambdaProcess>("w1", [&](LambdaProcess& self) -> Task<void> {
      auto guard = co_await mu.Acquire(self);
      grants.push_back(1);
    });
    sim.Spawn<LambdaProcess>("w2", [&](LambdaProcess& self) -> Task<void> {
      co_await self.Sleep(Microseconds(1));
      auto guard = co_await mu.Acquire(self);
      grants.push_back(2);
    });
  });
  sim.Schedule(SimTime{1'000'000}, [&] { w1->Kill(); });
  sim.Run();
  EXPECT_EQ(grants, (std::vector<int>{2}));
}

// ------------------------------------------------------------------ latch

TEST(LatchTest, WaitUntilAllArrive) {
  Simulation sim;
  Latch latch(sim, 3);
  SimTime released{};
  sim.Spawn<LambdaProcess>("joiner", [&](LambdaProcess& self) -> Task<void> {
    co_await latch.Wait(self);
    released = self.sim().Now();
  });
  for (int i = 1; i <= 3; ++i) {
    sim.Schedule(SimTime{i * 100}, [&] { latch.Arrive(); });
  }
  sim.Run();
  EXPECT_EQ(released, SimTime{300});
}

TEST(LatchTest, ZeroCountDoesNotBlock) {
  Simulation sim;
  Latch latch(sim, 0);
  bool done = false;
  sim.Spawn<LambdaProcess>("j", [&](LambdaProcess& self) -> Task<void> {
    co_await latch.Wait(self);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------- determinism

TEST(DeterminismTest, IdenticalSeedsIdenticalTraces) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::int64_t> trace;
    Channel<int> ch(sim);
    sim.Spawn<LambdaProcess>("producer",
                             [&](LambdaProcess& self) -> Task<void> {
                               for (int i = 0; i < 50; ++i) {
                                 co_await self.Sleep(Nanoseconds(
                                     static_cast<std::int64_t>(
                                         self.sim().rng().Below(1000))));
                                 ch.Send(i);
                               }
                             });
    sim.Spawn<LambdaProcess>("consumer",
                             [&](LambdaProcess& self) -> Task<void> {
                               for (int i = 0; i < 50; ++i) {
                                 (void)co_await ch.Receive(self);
                                 trace.push_back(self.sim().Now().ns);
                               }
                             });
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

// Shutdown safety: abandoning a simulation with suspended fibers must not
// leak or crash (Simulation::~Simulation kills and unwinds everything).
TEST(ShutdownTest, AbandonedSimulationUnwindsCleanly) {
  bool destructor_ran = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Simulation sim;
    sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
      Sentinel s{&destructor_ran};
      co_await self.Sleep(Seconds(3600));
    });
    sim.RunUntil(SimTime{100});
    EXPECT_FALSE(destructor_ran);
  }
  EXPECT_TRUE(destructor_ran);
}

// ------------------------------------------------- calendar queue shape
//
// The calendar queue routes records into four tiers (active FIFO, near
// sorted array, fixed-width buckets, far heap) by distance from now.
// These tests pin the one observable contract — global (t, seq) order —
// across tier boundaries, window rebases and mid-dispatch scheduling.

// Deterministic xorshift so the "random" schedule is reproducible.
std::uint64_t NextRand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

TEST(CalendarQueueTest, RandomScheduleMatchesReferenceOrder) {
  // Timestamps drawn across bucket width (128ns), the calendar window
  // (~2.1ms) and the far tier, including duplicates. The execution
  // order must equal a stable sort by time (stable = FIFO for ties).
  Simulation sim;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  struct Ref {
    std::int64_t t;
    int id;
  };
  std::vector<Ref> expect;
  std::vector<int> got;
  for (int i = 0; i < 2000; ++i) {
    // Mix scales: same-bucket, in-window, and beyond-window times.
    const std::uint64_t r = NextRand(rng);
    std::int64_t t = 0;
    switch (r % 4) {
      case 0: t = static_cast<std::int64_t>(r % 200); break;          // dense
      case 1: t = static_cast<std::int64_t>(r % 100'000); break;      // window
      case 2: t = static_cast<std::int64_t>(r % 10'000'000); break;   // far
      default: t = static_cast<std::int64_t>(r % 50); break;          // ties
    }
    expect.push_back(Ref{t, i});
    sim.Schedule(SimTime{t}, [&got, i] { got.push_back(i); });
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const Ref& a, const Ref& b) { return a.t < b.t; });
  sim.Run();
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i].id) << "divergence at index " << i;
  }
}

TEST(CalendarQueueTest, EqualTimestampFifoAcrossTiers) {
  // Three events at the same far timestamp scheduled before the window
  // reaches it (far heap -> migration -> bucket), then two more at that
  // timestamp scheduled mid-dispatch of an earlier event (direct bucket
  // append). Migration pops in (t, seq) order and happens before any
  // direct push into the rebased window, so FIFO survives the detour.
  Simulation sim;
  std::vector<int> order;
  const SimTime far{5'000'000};  // beyond the ~2.1ms window
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(far, [&order, i] { order.push_back(i); });
  }
  sim.Schedule(SimTime{100}, [&] {
    for (int i = 3; i < 5; ++i) {
      sim.Schedule(far, [&order, i] { order.push_back(i); });
    }
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), far);
}

TEST(CalendarQueueTest, ScheduleNowDuringDispatchRunsAfterQueuedPeers) {
  // Events appended at `now` during dispatch must run after records
  // already queued at the same timestamp — regardless of whether the
  // peers came from the active FIFO, a sorted-near group, or a bucket.
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(SimTime{10}, [&] {
    order.push_back(0);
    sim.ScheduleNow([&] { order.push_back(3); });
  });
  sim.Schedule(SimTime{10}, [&] { order.push_back(1); });
  sim.Schedule(SimTime{10}, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(CalendarQueueTest, RunUntilStopsAtTierBoundaries) {
  // RunUntil limits that land exactly on, between, and beyond queued
  // timestamps — including one past the calendar window so the queue
  // must rebase mid-run — never run a late event early.
  Simulation sim;
  std::vector<std::int64_t> ran;
  const std::int64_t ts[] = {100, 128, 129, 2'000'000, 2'097'153, 9'000'000};
  for (std::int64_t t : ts) {
    sim.Schedule(SimTime{t}, [&ran, t] { ran.push_back(t); });
  }
  sim.RunUntil(SimTime{100});  // exactly the first event
  EXPECT_EQ(ran, (std::vector<std::int64_t>{100}));
  sim.RunUntil(SimTime{128});  // bucket-width boundary
  EXPECT_EQ(ran, (std::vector<std::int64_t>{100, 128}));
  sim.RunUntil(SimTime{2'000'000});
  EXPECT_EQ(ran, (std::vector<std::int64_t>{100, 128, 129, 2'000'000}));
  sim.Run();
  EXPECT_EQ(ran.back(), 9'000'000);
  EXPECT_EQ(sim.Now(), SimTime{9'000'000});
}

TEST(CalendarQueueTest, DrainedQueueReanchorsWindow) {
  // After the queue drains completely, the next schedule far in the
  // future must re-anchor the calendar window at its timestamp instead
  // of funneling everything into the far heap through a stale window.
  Simulation sim;
  int ran = 0;
  sim.Schedule(SimTime{50}, [&] { ++ran; });
  sim.Run();
  for (int burst = 1; burst <= 3; ++burst) {
    const std::int64_t base = burst * 100'000'000LL;  // 100ms apart
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      sim.Schedule(SimTime{base + i * 97}, [&order, i] { order.push_back(i); });
    }
    sim.Run();
    ASSERT_EQ(order.size(), 100u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    ++ran;
  }
  EXPECT_EQ(ran, 4);
}

// ------------------------------------------------ timer memory retention
//
// The seed engine held every guarded timer in its priority queue until
// the timer's timestamp arrived, even when the wait had long since been
// claimed — 10k abandoned 30s timeouts meant 10k dead closures pinned
// for 30 virtual seconds. The calendar queue cancels the pending record
// at claim time and reclaims cancelled records in bulk sweeps, so live
// state tracks live (unclaimed) waits.

TEST(TimerReclamationTest, AbandonedTimeoutsDoNotAccumulate) {
  Simulation sim;
  constexpr int kOps = 10'000;
  constexpr std::size_t kLiveBound = 1024;  // ~sweep threshold, not ~kOps
  std::size_t max_live_records = 0;
  std::size_t max_live_waits = 0;
  for (int i = 0; i < kOps; ++i) {
    // Arm a long guarded timeout, then immediately claim the wait from
    // the "fulfilled" side — the common RPC case where the reply beats
    // the timer. The timer record is now garbage for 30 virtual seconds.
    WaitState* st = sim.wait_pool().Acquire();
    sim.ScheduleTimer(sim.Now() + Seconds(30), st, WaitState::Why::kTimeout);
    ASSERT_TRUE(st->TryFire(WaitState::Why::kFulfilled));
    sim.wait_pool().Release(st);
    const Simulation::EngineStats stats = sim.engine_stats();
    max_live_records = std::max(max_live_records, stats.live_records);
    max_live_waits = std::max(max_live_waits, stats.live_waits);
  }
  // Live state must be bounded by the sweep threshold, not by the number
  // of abandoned timers. (The seed engine would sit at ~kOps here.)
  EXPECT_LT(max_live_records, kLiveBound);
  EXPECT_LE(max_live_waits, 1u);
  const Simulation::EngineStats stats = sim.engine_stats();
  EXPECT_LT(stats.record_capacity, kLiveBound);  // arena never grew past it
  EXPECT_LT(stats.wait_capacity, 128u);
  // Nothing left to run: every timer was cancelled and swept or will be
  // discarded on pop without executing.
  EXPECT_EQ(sim.Run(), 0u);
  EXPECT_EQ(sim.engine_stats().queued_events, 0u);
  EXPECT_EQ(sim.engine_stats().live_records, 0u);
}

TEST(TimerReclamationTest, MixedLiveAndAbandonedTimersKeepLiveOnes) {
  // Interleave abandoned timeouts with timers that must still fire:
  // sweeps reclaim only cancelled records.
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 500; ++i) {
    WaitState* abandoned = sim.wait_pool().Acquire();
    sim.ScheduleTimer(sim.Now() + Seconds(7), abandoned,
                      WaitState::Why::kTimeout);
    ASSERT_TRUE(abandoned->TryFire(WaitState::Why::kFulfilled));
    sim.wait_pool().Release(abandoned);
    sim.After(Microseconds(i + 1), [&fired] { ++fired; });
  }
  sim.Run();
  EXPECT_EQ(fired, 500);
  EXPECT_EQ(sim.engine_stats().live_records, 0u);
}

}  // namespace
}  // namespace ods::sim
