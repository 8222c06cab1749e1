// Fine-grained persistence of pointer-rich data (§3.4): an exchange
// order book kept directly in persistent memory via PmHeap. Orders link
// to each other with region-relative pointers, updates flush
// incrementally, and after a crash a brand-new process maps the region
// and walks the book — no unmarshalling, no log replay.
#include <cstdio>
#include <functional>

#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/heap.h"
#include "pm/plane.h"
#include "sim/simulation.h"

using namespace ods;
using sim::Task;

namespace {

struct Order {
  std::uint64_t id = 0;
  char side = '?';  // 'B'uy / 'S'ell
  std::uint64_t price = 0;
  std::uint64_t quantity = 0;
  pm::PmPtr<Order> next;
};
static_assert(std::is_trivially_copyable_v<Order>);

using App = nsk::AppProcess;

}  // namespace

int main() {
  std::printf("== persistent order book ==\n\n");

  sim::Simulation sim(11);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair);
  plane.Start();

  // Session 1: build the book and update it.
  sim.Adopt<App>(cluster, 2, "exchange", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("orderbook", 1 << 20);
    if (!region.ok()) co_return;
    pm::PmHeap heap(std::move(*region));
    (void)co_await heap.Format();

    pm::PmPtr<Order> head;
    for (std::uint64_t i = 1; i <= 8; ++i) {
      auto node = heap.New<Order>();
      if (!node.ok()) co_return;
      Order* o = heap.Resolve(*node);
      o->id = i;
      o->side = (i % 2 != 0) ? 'B' : 'S';
      o->price = 100 + i;
      o->quantity = 10 * i;
      o->next = head;
      head = *node;
      heap.Dirty(*node);
    }
    heap.SetRoot(head.offset);
    Status st = co_await heap.FlushDirty();
    std::printf("built 8-order book, flushed %llu bytes: %s\n",
                static_cast<unsigned long long>(heap.bytes_flushed()),
                st.ToString().c_str());

    // A partial fill touches one node: incremental flush moves only it.
    Order* top = heap.Resolve(head);
    top->quantity -= 5;
    heap.Dirty(head);
    const std::uint64_t before = heap.bytes_flushed();
    (void)co_await heap.FlushDirty();
    std::printf("partial fill of order %llu: flushed only %llu bytes\n",
                static_cast<unsigned long long>(top->id),
                static_cast<unsigned long long>(heap.bytes_flushed() - before));
  });
  sim.RunFor(sim::Seconds(2));

  // Crash: the exchange process dies (its address space is gone).
  std::printf("\n-- exchange process crashes --\n\n");

  // Session 2: a recovery process maps the region and walks the book.
  int recovered = 0;
  sim.Adopt<App>(cluster, 3, "recovery", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("orderbook");
    if (!region.ok()) co_return;
    pm::PmHeap heap(std::move(*region));
    const sim::SimTime t0 = self.sim().Now();
    Status st = co_await heap.Load();
    if (!st.ok()) {
      std::printf("load failed: %s\n", st.ToString().c_str());
      co_return;
    }
    std::printf("book recovered in %.1fus (bulk read + pointer fixing):\n",
                sim::ToMicrosD(self.sim().Now() - t0));
    for (pm::PmPtr<Order> cur{heap.root()}; cur;
         cur = heap.Resolve(cur)->next) {
      const Order* o = heap.Resolve(cur);
      std::printf("  order %llu: %c %llu @ %llu\n",
                  static_cast<unsigned long long>(o->id), o->side,
                  static_cast<unsigned long long>(o->quantity),
                  static_cast<unsigned long long>(o->price));
      ++recovered;
    }
  });
  sim.Run();
  return recovered == 8 ? 0 : 1;
}
