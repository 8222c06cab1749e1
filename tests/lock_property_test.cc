// Property suite for tp::LockManager (strict 2PL, FIFO queue, timeout
// deadlock-breaking) under randomized schedules, plus deterministic
// regression tests for three slow-path bugs the randomized runs exposed:
//
//   * lost wakeup — a waiter that timed out at the head of the queue
//     left grantable waiters behind it wedged until the next release;
//   * grant/timeout race — a grant landing in the same instant as the
//     waiter's timeout produced a "zombie" grant: the acquirer returned
//     kTimedOut while the manager recorded it as a holder;
//   * duplicate held_by_txn_ entry on a queued upgrade grant.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "tp/lock.h"

namespace ods::tp {
namespace {

using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

struct LockFixture : ::testing::Test {
  LockFixture() : sim(17), mgr(sim) {}
  sim::Simulation sim;
  LockManager mgr;

  template <typename Body>
  void Run(Body body) {
    struct P : sim::Process {
      Body body;
      P(sim::Simulation& s, Body b) : Process(s, "p"), body(std::move(b)) {}
      Task<void> Main() override { return body(*this); }
    };
    sim.Spawn<P>(std::move(body));
    sim.Run();
  }
};

// ---------------------------------------------------------------------------
// Randomized schedules: a shadow lock table checks the exclusion
// invariant at every successful grant, and termination checks there are
// no lost wakeups (every fiber either commits or times out — nobody
// waits forever on a grantable lock).

struct ShadowTable {
  // key -> holders, mirrored by the test fibers around Acquire/ReleaseAll.
  std::map<LockKey, std::map<std::uint64_t, LockMode>> held;

  void CheckCompatible(LockKey key, std::uint64_t txn, LockMode mode) {
    for (const auto& [other, other_mode] : held[key]) {
      if (other == txn) continue;
      EXPECT_FALSE(mode == LockMode::kExclusive ||
                   other_mode == LockMode::kExclusive)
          << "exclusion violated on {" << key.file << "," << key.key
          << "}: txn " << txn << " granted "
          << (mode == LockMode::kExclusive ? "X" : "S") << " while txn "
          << other << " holds "
          << (other_mode == LockMode::kExclusive ? "X" : "S");
    }
  }
  void Grant(LockKey key, std::uint64_t txn, LockMode mode) {
    auto& mode_held = held[key][txn];
    // Upgrade sticks; re-entrant shared under exclusive does not downgrade.
    if (mode == LockMode::kExclusive) mode_held = LockMode::kExclusive;
    else if (held[key].find(txn) == held[key].end())
      mode_held = LockMode::kShared;
  }
  void Release(std::uint64_t txn) {
    for (auto& [key, holders] : held) holders.erase(txn);
  }
};

TEST_F(LockFixture, RandomizedSchedulesHoldInvariants) {
  // Several seeds; each spawns a crowd of transactions doing random
  // lock sequences over a tiny hot keyspace with mixed modes, random
  // think times and timeouts short enough that deadlocks break.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim::Simulation s(seed);
    LockManager m(s);
    ShadowTable shadow;
    int completed = 0;
    constexpr int kTxns = 10;
    constexpr int kKeys = 4;
    constexpr int kOpsPerTxn = 4;

    struct Txn : sim::Process {
      LockManager* m;
      ShadowTable* shadow;
      std::uint64_t txn, seed;
      int* completed;
      Txn(sim::Simulation& s, LockManager* m, ShadowTable* sh,
          std::uint64_t txn, std::uint64_t seed, int* completed)
          : Process(s, "txn"), m(m), shadow(sh), txn(txn), seed(seed),
            completed(completed) {}
      Task<void> Main() override {
        Rng rng = Rng::ForStream(seed, txn);
        co_await Sleep(Milliseconds(rng.Below(20)));
        bool aborted = false;
        for (int op = 0; op < kOpsPerTxn && !aborted; ++op) {
          const LockKey key{0, rng.Below(kKeys)};
          const LockMode mode =
              rng.Bernoulli(0.4) ? LockMode::kExclusive : LockMode::kShared;
          auto st = co_await m->Acquire(
              *this, txn, key, mode, Milliseconds(30 + rng.Below(40)));
          if (st.ok()) {
            shadow->CheckCompatible(key, txn, mode);
            shadow->Grant(key, txn, mode);
            co_await Sleep(Milliseconds(rng.Below(10)));
          } else {
            EXPECT_EQ(st.code(), ErrorCode::kTimedOut);
            aborted = true;  // strict 2PL: abort releases everything
          }
        }
        shadow->Release(txn);
        m->ReleaseAll(txn);
        ++*completed;
      }
    };
    for (std::uint64_t t = 1; t <= kTxns; ++t)
      s.Spawn<Txn>(&m, &shadow, t, seed, &completed);
    s.Run();

    // No lost wakeups: the sim ran out of events only because every
    // transaction resolved (nobody is parked on a grantable lock).
    EXPECT_EQ(completed, kTxns) << "seed " << seed;
    for (std::uint64_t t = 1; t <= kTxns; ++t) m.ReleaseAll(t);
    for (int k = 0; k < kKeys; ++k)
      EXPECT_FALSE(m.IsHeld({0, static_cast<std::uint64_t>(k)}))
          << "seed " << seed << " key " << k;
    EXPECT_GE(s.metrics().CounterValue("tp.lock.grants"),
              static_cast<std::uint64_t>(kTxns));
  }
}

TEST_F(LockFixture, FifoFairnessAmongExclusiveWaiters) {
  // 8 exclusive waiters arriving 1ms apart are granted in arrival order.
  std::vector<int> order;
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 7}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    for (int i = 2; i <= 9; ++i) {
      self.SpawnFiber([](sim::Process& p, LockManager& m, int txn,
                         std::vector<int>& log) -> Task<void> {
        EXPECT_TRUE((co_await m.Acquire(p, static_cast<std::uint64_t>(txn),
                                        {0, 7}, LockMode::kExclusive,
                                        Seconds(30))).ok());
        log.push_back(txn);
        co_await p.Sleep(Milliseconds(2));
        m.ReleaseAll(static_cast<std::uint64_t>(txn));
      }(self, mgr, i, order));
      co_await self.Sleep(Milliseconds(1));
    }
    mgr.ReleaseAll(1);
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST_F(LockFixture, ConsecutiveSharedWaitersGrantTogether) {
  // X holder, then queue = [S, S, X, S]. On release the two lead shared
  // waiters are granted together; the trailing S waits behind the X
  // (FIFO prevents writer starvation).
  std::vector<std::pair<int, SimTime>> grants;
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 3}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    auto waiter = [](sim::Process& p, LockManager& m, int txn, LockMode mode,
                     std::vector<std::pair<int, SimTime>>& log) -> Task<void> {
      EXPECT_TRUE((co_await m.Acquire(p, static_cast<std::uint64_t>(txn),
                                      {0, 3}, mode, Seconds(30))).ok());
      log.emplace_back(txn, p.sim().Now());
      co_await p.Sleep(Milliseconds(5));
      m.ReleaseAll(static_cast<std::uint64_t>(txn));
    };
    self.SpawnFiber(waiter(self, mgr, 2, LockMode::kShared, grants));
    co_await self.Sleep(Milliseconds(1));
    self.SpawnFiber(waiter(self, mgr, 3, LockMode::kShared, grants));
    co_await self.Sleep(Milliseconds(1));
    self.SpawnFiber(waiter(self, mgr, 4, LockMode::kExclusive, grants));
    co_await self.Sleep(Milliseconds(1));
    self.SpawnFiber(waiter(self, mgr, 5, LockMode::kShared, grants));
    co_await self.Sleep(Milliseconds(1));
    mgr.ReleaseAll(1);
  });
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_EQ(grants[0].first, 2);
  EXPECT_EQ(grants[1].first, 3);
  EXPECT_EQ(grants[0].second.ns, grants[1].second.ns);  // granted together
  EXPECT_EQ(grants[2].first, 4);
  EXPECT_GT(grants[2].second.ns, grants[1].second.ns);
  EXPECT_EQ(grants[3].first, 5);
  EXPECT_GT(grants[3].second.ns, grants[2].second.ns);
}

// ---------------------------------------------------------------------------
// Regression: cancelled head must not wedge grantable waiters behind it.

TEST_F(LockFixture, TimedOutHeadDoesNotWedgeCompatibleWaiter) {
  // txn1 holds S. txn2 queues for X (blocked by the S holder). txn3
  // queues for S behind txn2 (FIFO: it must not jump the X waiter).
  // txn2 times out at 50ms. txn3 is compatible with txn1 the moment the
  // cancelled head is gone — it must be granted AT the timeout, not at
  // txn1's release half a second later.
  SimTime txn3_granted{};
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kShared,
                                      Seconds(1))).ok());
    self.SpawnFiber([](sim::Process& p, LockManager& m) -> Task<void> {
      auto st = co_await m.Acquire(p, 2, {0, 5}, LockMode::kExclusive,
                                   Milliseconds(50));
      EXPECT_EQ(st.code(), ErrorCode::kTimedOut);
      m.ReleaseAll(2);
    }(self, mgr));
    co_await self.Sleep(Milliseconds(1));
    self.SpawnFiber([](sim::Process& p, LockManager& m,
                       SimTime& out) -> Task<void> {
      EXPECT_TRUE((co_await m.Acquire(p, 3, {0, 5}, LockMode::kShared,
                                      Seconds(10))).ok());
      out = p.sim().Now();
      m.ReleaseAll(3);
    }(self, mgr, txn3_granted));
    co_await self.Sleep(Milliseconds(500));
    mgr.ReleaseAll(1);
  });
  EXPECT_EQ(txn3_granted.ns, Milliseconds(50).ns)
      << "shared waiter was wedged behind the cancelled head";
}

// ---------------------------------------------------------------------------
// Regression: a grant landing in the same instant as the timeout must
// not produce a zombie holder.

TEST_F(LockFixture, GrantAtTimeoutInstantIsNotLost) {
  // txn1 releases at exactly the instant txn2's wait times out. Whatever
  // order the two events run in, the outcome must be coherent: either
  // txn2 got the lock (st.ok() and it is a holder) or it did not (and it
  // is NOT recorded as a holder once txn1 is gone).
  Status txn2_status(ErrorCode::kInternal, "unset");
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 8}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    self.SpawnFiber([](sim::Process& p, LockManager& m,
                       Status& out) -> Task<void> {
      out = co_await m.Acquire(p, 2, {0, 8}, LockMode::kExclusive,
                               Milliseconds(100));
    }(self, mgr, txn2_status));
    co_await self.Sleep(Milliseconds(100));  // release in the same instant
    mgr.ReleaseAll(1);
  });
  if (txn2_status.ok()) {
    EXPECT_TRUE(mgr.IsHeld({0, 8}));
    mgr.ReleaseAll(2);
    EXPECT_FALSE(mgr.IsHeld({0, 8}));
  } else {
    // txn1 is gone and txn2 reported failure: nobody may hold the lock.
    EXPECT_FALSE(mgr.IsHeld({0, 8}))
        << "zombie grant: timeout reported but manager kept txn2 as holder";
  }
}

// ---------------------------------------------------------------------------
// Regression: queued upgrade grant must not duplicate held_by_txn_.

TEST_F(LockFixture, QueuedUpgradeReleasesCleanly) {
  // txn1 and txn2 hold S. txn1 queues an upgrade to X; txn2 releases;
  // the pump grants the upgrade. ReleaseAll(1) must fully release (a
  // duplicate held_by_txn_ entry used to survive it).
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 2}, LockMode::kShared,
                                      Seconds(1))).ok());
    EXPECT_TRUE((co_await mgr.Acquire(self, 2, {0, 2}, LockMode::kShared,
                                      Seconds(1))).ok());
    self.SpawnFiber([](sim::Process& p, LockManager& m) -> Task<void> {
      EXPECT_TRUE((co_await m.Acquire(p, 1, {0, 2}, LockMode::kExclusive,
                                      Seconds(10))).ok());
      m.ReleaseAll(1);
    }(self, mgr));
    co_await self.Sleep(Milliseconds(10));
    mgr.ReleaseAll(2);
    co_await self.Sleep(Milliseconds(10));
    // Both gone; a third txn must get X immediately (fast path, no wait).
    const std::uint64_t waits_before =
        sim.metrics().CounterValue("tp.lock.waits");
    EXPECT_TRUE((co_await mgr.Acquire(self, 3, {0, 2}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    EXPECT_EQ(sim.metrics().CounterValue("tp.lock.waits"), waits_before);
    mgr.ReleaseAll(3);
  });
  EXPECT_FALSE(mgr.IsHeld({0, 2}));
}

// ---------------------------------------------------------------------------
// The wait-time histogram: slow-path waits record sim-time blocked.

TEST_F(LockFixture, WaitTimeHistogramRecordsBlockedTime) {
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 4}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    self.SpawnFiber([](sim::Process& p, LockManager& m) -> Task<void> {
      EXPECT_TRUE((co_await m.Acquire(p, 2, {0, 4}, LockMode::kExclusive,
                                      Seconds(5))).ok());
      m.ReleaseAll(2);
    }(self, mgr));
    co_await self.Sleep(Milliseconds(25));
    mgr.ReleaseAll(1);
  });
  const LatencyHistogram* wait = sim.metrics().FindHistogram("tp.lock.wait_ns");
  ASSERT_NE(wait, nullptr);
  ASSERT_EQ(wait->count(), 1u);
  // Log-bucketed histogram: the recorded wait rounds to its bucket, so
  // check the quantile is in the right octave rather than exact.
  const auto p50 = static_cast<std::int64_t>(wait->Percentile(0.5));
  EXPECT_GE(p50, Milliseconds(20).ns);
  EXPECT_LE(p50, Milliseconds(40).ns);
}

}  // namespace
}  // namespace ods::tp
