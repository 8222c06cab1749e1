// Tests for the persistent heap (pointer-rich structures without
// marshalling, §3.4) and direct-attached PM with store-barrier semantics
// (§3.2/§5.1).
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/direct.h"
#include "pm/heap.h"
#include "pm/npmu.h"
#include "pm/plane.h"
#include "sim/simulation.h"

namespace ods::pm {
namespace {

using sim::Seconds;
using sim::Task;

using TestProcess = nsk::AppProcess;

// A pointer-rich structure: a sorted singly-linked list of orders.
struct Order {
  std::uint64_t id = 0;
  std::uint64_t price = 0;
  PmPtr<Order> next;
};
static_assert(std::is_trivially_copyable_v<Order>);

struct HeapFixture : ::testing::Test {
  HeapFixture()
      : sim(31), cluster(sim, MakeConfig()),
        plane(cluster, PmDeviceKind::kNpmuPair) {
    plane.Start();
  }
  ~HeapFixture() override { sim.Shutdown(); }

  static nsk::ClusterConfig MakeConfig() {
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

TEST_F(HeapFixture, AllocateResolveRoundTrip) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("heap", 64 * 1024);
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    EXPECT_TRUE((co_await heap.Format()).ok());

    auto order = heap.New<Order>();
    EXPECT_TRUE(order.ok());
    Order* o = heap.Resolve(*order);
    o->id = 42;
    o->price = 101;
    heap.Dirty(*order);
    heap.SetRoot(order->offset);
    EXPECT_TRUE((co_await heap.FlushDirty()).ok());
    EXPECT_EQ(heap.Resolve(*order)->id, 42u);
  });
  sim.Run();
}

TEST_F(HeapFixture, LinkedStructureSurvivesReloadIntoNewAddressSpace) {
  // Build a 50-node linked list, flush, then recover through a brand-new
  // heap/region handle (a different "address space") and traverse it —
  // no unmarshalling, just offset chasing.
  sim.Adopt<TestProcess>(cluster, 2, "writer",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("book", 256 * 1024);
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    EXPECT_TRUE((co_await heap.Format()).ok());
    PmPtr<Order> head;
    for (std::uint64_t i = 50; i >= 1; --i) {
      auto node = heap.New<Order>();
      EXPECT_TRUE(node.ok());
      Order* o = heap.Resolve(*node);
      o->id = i;
      o->price = i * 10;
      o->next = head;
      heap.Dirty(*node);
      head = *node;
    }
    heap.SetRoot(head.offset);
    EXPECT_TRUE((co_await heap.FlushDirty()).ok());
  });
  sim.RunUntil(sim::SimTime{Seconds(1).ns});

  bool verified = false;
  sim.Adopt<TestProcess>(cluster, 3, "reader",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Open("book");
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    EXPECT_TRUE((co_await heap.Load()).ok());
    PmPtr<Order> cur{heap.root()};
    std::uint64_t expect = 1;
    while (cur) {
      const Order* o = heap.Resolve(cur);
      EXPECT_EQ(o->id, expect);
      EXPECT_EQ(o->price, expect * 10);
      ++expect;
      cur = o->next;
    }
    EXPECT_EQ(expect, 51u);
    verified = true;
  });
  sim.Run();
  EXPECT_TRUE(verified);
}

TEST_F(HeapFixture, IncrementalFlushWritesOnlyDirtyBytes) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("heap", 1 << 20);
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    EXPECT_TRUE((co_await heap.Format()).ok());
    // Allocate 100 nodes and flush everything once.
    std::vector<PmPtr<Order>> nodes;
    for (int i = 0; i < 100; ++i) {
      auto n = heap.New<Order>();
      EXPECT_TRUE(n.ok());
      nodes.push_back(*n);
    }
    EXPECT_TRUE((co_await heap.FlushDirty()).ok());
    const std::uint64_t baseline = heap.bytes_flushed();
    // Touch exactly one node: the incremental flush must move only
    // that node plus the header, not the whole heap.
    heap.Resolve(nodes[50])->price = 7;
    heap.Dirty(nodes[50]);
    EXPECT_TRUE((co_await heap.FlushDirty()).ok());
    const std::uint64_t delta = heap.bytes_flushed() - baseline;
    EXPECT_LE(delta, sizeof(Order) + PmHeap::kHeaderBytes);
    EXPECT_LT(delta, heap.used_bytes() / 10);
  });
  sim.Run();
}

TEST_F(HeapFixture, DirtyRangeCoalescing) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("heap", 64 * 1024);
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    EXPECT_TRUE((co_await heap.Format()).ok());
    heap.MarkDirty(100, 50);
    heap.MarkDirty(150, 50);  // adjacent: coalesce
    heap.MarkDirty(120, 10);  // contained
    EXPECT_EQ(heap.dirty_bytes(), 100u);
    heap.MarkDirty(500, 10);  // disjoint
    EXPECT_EQ(heap.dirty_bytes(), 110u);
  });
  sim.Run();
}

TEST_F(HeapFixture, ExhaustionReported) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("tiny", 4096);
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    EXPECT_TRUE((co_await heap.Format()).ok());
    auto big = heap.Allocate(8192);
    EXPECT_EQ(big.status().code(), ErrorCode::kResourceExhausted);
  });
  sim.Run();
}

TEST_F(HeapFixture, LoadRejectsGarbage) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("virgin", 4096);
    EXPECT_TRUE(region.ok());
    PmHeap heap(std::move(*region));
    auto st = co_await heap.Load();  // never formatted
    EXPECT_EQ(st.code(), ErrorCode::kDataLoss);
  });
  sim.Run();
}

// --------------------------------------------------------------- DirectPm

struct DirectFixture : ::testing::Test {
  DirectFixture() : sim(9) {}
  sim::Simulation sim;

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

std::vector<std::byte> Bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST_F(DirectFixture, StoreWithoutBarrierIsLostOnPowerFail) {
  DirectPm pm;
  Run([&](sim::Process&) -> Task<void> {
    pm.Store(0, Bytes({1, 2, 3}));
    co_return;
  });
  EXPECT_EQ(pm.dirty_lines(), 1u);
  pm.PowerFail();
  std::vector<std::byte> out(3);
  pm.Load(0, out);
  EXPECT_EQ(out[0], std::byte{0}) << "unflushed store must not be durable";
}

TEST_F(DirectFixture, BarrierMakesStoresDurable) {
  DirectPm pm;
  Run([&](sim::Process& self) -> Task<void> {
    pm.Store(0, Bytes({1, 2, 3}));
    co_await pm.PersistBarrier(self);
  });
  pm.PowerFail();
  std::vector<std::byte> out(3);
  pm.Load(0, out);
  EXPECT_EQ(out[0], std::byte{1});
  EXPECT_EQ(out[2], std::byte{3});
}

TEST_F(DirectFixture, PartialFlushTearsAcrossCacheLines) {
  // The §3.2 hazard: a structure spanning two cache lines, only one
  // flushed before the crash -> torn durable state.
  DirectPm pm;
  Run([&](sim::Process& self) -> Task<void> {
    pm.Store(60, Bytes({0xA, 0xB, 0xC, 0xD, 0xE, 0xF, 0x1, 0x2}));  // spans
    co_await pm.FlushLines(self, 60, 4);  // only the first line
  });
  pm.PowerFail();
  std::vector<std::byte> out(8);
  pm.Load(60, out);
  EXPECT_EQ(out[0], std::byte{0xA}) << "first line flushed";
  EXPECT_EQ(out[4], std::byte{0}) << "second line lost: torn update";
}

TEST_F(DirectFixture, LoadSeesProgramOrderBeforeDurability) {
  DirectPm pm;
  Run([&](sim::Process&) -> Task<void> {
    pm.Store(0, Bytes({9}));
    std::vector<std::byte> out(1);
    pm.Load(0, out);
    EXPECT_EQ(out[0], std::byte{9})
        << "the CPU sees its own stores immediately";
    co_return;
  });
}

TEST_F(DirectFixture, FlushOnlyTouchedLinesCharged) {
  DirectPm pm;
  sim::SimTime done{};
  Run([&](sim::Process& self) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      pm.Store(static_cast<std::uint64_t>(i) * 64, Bytes({1}));
    }
    co_await pm.PersistBarrier(self);
    done = self.sim().Now();
  });
  // 10 lines * 100ns + 200ns barrier.
  EXPECT_EQ(done.ns, 10 * 100 + 200);
  EXPECT_EQ(pm.dirty_lines(), 0u);
}

}  // namespace
}  // namespace ods::pm
