// Tests for the durable FIFO queue over a PM region: ordering,
// persistence across crashes/address spaces, wrap-around, fullness,
// at-least-once redelivery semantics, and latency class.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/serialize.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/npmu.h"
#include "pm/plane.h"
#include "pm/queue.h"
#include "sim/simulation.h"

namespace ods::pm {
namespace {

using sim::Microseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

using TestProcess = nsk::AppProcess;

std::vector<std::byte> Order(std::uint64_t id) {
  Serializer s;
  s.PutU64(id);
  s.PutString("order");
  return std::move(s).Take();
}

std::uint64_t OrderId(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  std::uint64_t id = 0;
  (void)d.GetU64(id);
  return id;
}

struct QueueFixture : ::testing::Test {
  QueueFixture()
      : sim(71), cluster(sim, Cfg()), plane(cluster, PmDeviceKind::kNpmuPair) {
    plane.Start();
  }
  ~QueueFixture() override { sim.Shutdown(); }

  static nsk::ClusterConfig Cfg() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  PmPlane plane;
  Npmu& npmu_a = plane.npmu_a();
  Npmu& npmu_b = plane.npmu_b();
};

TEST_F(QueueFixture, FifoOrder) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("q", 64 * 1024);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Format()).ok());
    for (std::uint64_t i = 1; i <= 10; ++i) {
      EXPECT_TRUE((co_await q.Enqueue(Order(i))).ok());
    }
    EXPECT_EQ(q.enqueued(), 10u);
    for (std::uint64_t i = 1; i <= 10; ++i) {
      auto e = co_await q.Dequeue();
      EXPECT_TRUE(e.ok());
      EXPECT_EQ(OrderId(*e), i);
    }
    auto empty = co_await q.Dequeue();
    EXPECT_EQ(empty.status().code(), ErrorCode::kNotFound);
  });
  sim.Run();
}

TEST_F(QueueFixture, SurvivesCrashIntoNewAddressSpace) {
  // Producer enqueues 5, consumes 2, crashes. A fresh consumer opens the
  // queue and must see exactly orders 3..5.
  sim.Adopt<TestProcess>(cluster, 2, "producer",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("q", 64 * 1024);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Format()).ok());
    for (std::uint64_t i = 1; i <= 5; ++i) {
      EXPECT_TRUE((co_await q.Enqueue(Order(i))).ok());
    }
    (void)co_await q.Dequeue();
    (void)co_await q.Dequeue();
  });
  sim.RunUntil(SimTime{Seconds(1).ns});

  bool verified = false;
  sim.Adopt<TestProcess>(cluster, 3, "consumer",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Open("q");
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Open()).ok());
    std::uint64_t expect = 3;
    while (true) {
      auto e = co_await q.Dequeue();
      if (!e.ok()) break;
      EXPECT_EQ(OrderId(*e), expect++);
    }
    EXPECT_EQ(expect, 6u);
    verified = true;
  });
  sim.Run();
  EXPECT_TRUE(verified);
}

TEST_F(QueueFixture, WrapsAroundTheRing) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    // Small ring: control 64B + ~1KB of data.
    auto region = co_await client.Create("q", PmQueue::kControlBytes + 1024);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Format()).ok());
    // Entries of ~40B; pump 200 through a 1KB ring.
    std::uint64_t next_in = 1, next_out = 1;
    while (next_out <= 200) {
      if (next_in <= 200 &&
          (co_await q.Enqueue(Order(next_in))).ok()) {
        ++next_in;
        continue;
      }
      auto e = co_await q.Dequeue();
      EXPECT_TRUE(e.ok());
      EXPECT_EQ(OrderId(*e), next_out++);
    }
    EXPECT_TRUE(q.empty());
  });
  sim.Run();
}

TEST_F(QueueFixture, FullQueueRejectsCleanly) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("q", PmQueue::kControlBytes + 256);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Format()).ok());
    Status st = OkStatus();
    int accepted = 0;
    while (st.ok()) {
      st = co_await q.Enqueue(Order(1));
      if (st.ok()) ++accepted;
    }
    EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
    EXPECT_GT(accepted, 0);
    // Dequeue one, then there is room again.
    EXPECT_TRUE((co_await q.Dequeue()).ok());
    EXPECT_TRUE((co_await q.Enqueue(Order(2))).ok());
  });
  sim.Run();
}

TEST_F(QueueFixture, PeekDoesNotConsume) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("q", 64 * 1024);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Format()).ok());
    EXPECT_TRUE((co_await q.Enqueue(Order(7))).ok());
    auto p1 = co_await q.Peek();
    auto p2 = co_await q.Peek();
    EXPECT_TRUE(p1.ok());
    EXPECT_TRUE(p2.ok());
    EXPECT_EQ(OrderId(*p1), 7u);
    EXPECT_EQ(OrderId(*p2), 7u);
    EXPECT_EQ(q.dequeued(), 0u);
  });
  sim.Run();
}

TEST_F(QueueFixture, DurableEnqueueIsMicrosecondClass) {
  // The point of the exercise: a durable order enqueue at PM speed.
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("q", 64 * 1024);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    EXPECT_TRUE((co_await q.Format()).ok());
    const SimTime t0 = self.sim().Now();
    EXPECT_TRUE((co_await q.Enqueue(Order(1))).ok());
    const double us = sim::ToMicrosD(self.sim().Now() - t0);
    EXPECT_LT(us, 100.0) << "durable enqueue must be ~one chained RDMA write";
    EXPECT_GT(us, 10.0);
  });
  sim.Run();
}

TEST_F(QueueFixture, OpenRejectsUnformattedRegion) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("virgin", 4096);
    EXPECT_TRUE(region.ok());
    PmQueue q(std::move(*region));
    auto st = co_await q.Open();
    EXPECT_EQ(st.code(), ErrorCode::kDataLoss);
  });
  sim.Run();
}

}  // namespace
}  // namespace ods::pm
