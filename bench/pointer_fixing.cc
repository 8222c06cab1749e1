// Experiment E6 — §3.4 "Efficient data movement between address spaces":
// persisting a pointer-rich structure (an order book such as a database
// index / lock table) by
//   (a) classic marshalling: CPU-serialize the graph into a contiguous
//       buffer, write it, and unmarshal on recovery;
//   (b) bulk write - selective read: write the heap image as-is (offsets
//       are address-space independent, no marshalling);
//   (c) incremental update - bulk read: write only the dirty nodes.
// The paper: "Marshalling-unmarshalling of data structures, whether for
// check-pointing between process pairs or for the purpose of saving on
// durable media, can be drastically reduced or eliminated."
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "pm/client.h"
#include "pm/heap.h"
#include "pm/plane.h"

using namespace ods;
using namespace ods::bench;
using sim::Task;

namespace {

// Serialization costs ~1 byte/ns on a 2004-class CPU (defensible for
// pointer chasing + copying); unmarshalling costs the same.
constexpr auto kMarshalPerByte = sim::Nanoseconds(1);

struct Order {
  std::uint64_t id = 0;
  std::uint64_t price = 0;
  std::uint64_t quantity = 0;
  pm::PmPtr<Order> next;
};

using App = nsk::AppProcess;

}  // namespace

int main() {
  constexpr int kOrders = 4096;
  constexpr int kTouched = 64;  // updates between persists

  sim::Simulation sim(53);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair);
  plane.Start();

  double marshal_us = 0, bulk_us = 0, incr_us = 0;
  double unmarshal_us = 0, reload_us = 0;
  std::uint64_t marshal_bytes = 0, bulk_bytes = 0, incr_bytes = 0;

  sim.Adopt<App>(cluster, 2, "app", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("book", 2 << 20);
    auto scratch = co_await client.Create("scratch", 2 << 20);
    if (!region.ok() || !scratch.ok()) co_return;
    pm::PmHeap heap(std::move(*region));
    (void)co_await heap.Format();

    // Build the order book.
    pm::PmPtr<Order> head;
    std::vector<pm::PmPtr<Order>> all;
    for (int i = 0; i < kOrders; ++i) {
      auto node = heap.New<Order>();
      if (!node.ok()) co_return;
      Order* o = heap.Resolve(*node);
      o->id = static_cast<std::uint64_t>(i);
      o->price = 100 + static_cast<std::uint64_t>(i % 97);
      o->quantity = 10;
      o->next = head;
      head = *node;
      all.push_back(*node);
    }
    heap.SetRoot(head.offset);
    (void)co_await heap.FlushAll();

    // Touch kTouched random-ish nodes.
    auto touch = [&] {
      for (int i = 0; i < kTouched; ++i) {
        auto ptr = all[static_cast<std::size_t>((i * 61) % kOrders)];
        heap.Resolve(ptr)->quantity += 1;
        heap.Dirty(ptr);
      }
    };

    // (a) Marshal: walk + serialize the WHOLE structure (that is the
    // point of the comparison: a pickled format has no stable offsets to
    // patch, so the checkpoint is monolithic), then one write.
    touch();
    {
      const sim::SimTime t0 = self.sim().Now();
      const std::uint64_t graph_bytes = kOrders * sizeof(Order);
      co_await self.Compute(kMarshalPerByte *
                            static_cast<std::int64_t>(graph_bytes));
      std::vector<std::byte> pickled(graph_bytes, std::byte{1});
      (void)co_await scratch->Write(0, std::move(pickled));
      marshal_us = sim::ToMicrosD(self.sim().Now() - t0);
      marshal_bytes = graph_bytes;
      const sim::SimTime t1 = self.sim().Now();
      auto back = co_await scratch->Read(0, graph_bytes);
      if (back.ok()) {
        co_await self.Compute(kMarshalPerByte *
                              static_cast<std::int64_t>(graph_bytes));
      }
      unmarshal_us = sim::ToMicrosD(self.sim().Now() - t1);
    }

    // (b) Bulk write - selective read.
    {
      heap.MarkDirty(0, 0);  // ranges already dirty from touch()
      const sim::SimTime t0 = self.sim().Now();
      const std::uint64_t before = heap.bytes_flushed();
      (void)co_await heap.FlushAll();
      bulk_us = sim::ToMicrosD(self.sim().Now() - t0);
      bulk_bytes = heap.bytes_flushed() - before;
    }

    // (c) Incremental update - bulk read.
    touch();
    {
      const sim::SimTime t0 = self.sim().Now();
      const std::uint64_t before = heap.bytes_flushed();
      (void)co_await heap.FlushDirty();
      incr_us = sim::ToMicrosD(self.sim().Now() - t0);
      incr_bytes = heap.bytes_flushed() - before;
    }

    // Recovery into a fresh address space: bulk read + direct traversal.
    {
      auto reopened = co_await client.Open("book");
      if (!reopened.ok()) co_return;
      pm::PmHeap fresh(std::move(*reopened));
      const sim::SimTime t0 = self.sim().Now();
      (void)co_await fresh.Load();
      std::uint64_t count = 0;
      for (pm::PmPtr<Order> cur{fresh.root()}; cur;
           cur = fresh.Resolve(cur)->next) {
        ++count;
      }
      reload_us = sim::ToMicrosD(self.sim().Now() - t0);
      if (count != kOrders) std::printf("TRAVERSAL MISCOUNT %llu\n",
                                        static_cast<unsigned long long>(count));
    }
  });
  sim.Run();

  std::printf("E6: persisting a pointer-rich order book "
              "(%d nodes, %d updated)\n\n", kOrders, kTouched);
  std::printf("%-38s %12s %14s\n", "scheme", "bytes moved", "latency (us)");
  PrintRule(70);
  std::printf("%-38s %12llu %14.1f\n",
              "marshal + write (classic checkpoint)",
              static_cast<unsigned long long>(marshal_bytes), marshal_us);
  std::printf("%-38s %12llu %14.1f\n", "bulk write - selective read",
              static_cast<unsigned long long>(bulk_bytes), bulk_us);
  std::printf("%-38s %12llu %14.1f\n", "incremental update - bulk read",
              static_cast<unsigned long long>(incr_bytes), incr_us);
  PrintRule(70);
  std::printf("recovery: read + unmarshal = %.1fus ; PM bulk read + direct\n"
              "traversal (pointer fixing) = %.1fus\n",
              unmarshal_us, reload_us);
  std::printf("paper: PM eliminates marshalling for indices, lock tables "
              "and TCBs.\n");
  return 0;
}
