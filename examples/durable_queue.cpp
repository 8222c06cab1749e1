// Durable order queue (§2): "Streams of buy and sell orders arrive from
// brokerage systems and must be queued and matched to generate trades."
// Orders are durable the instant the enqueue returns (one chained RDMA
// write), so a crashed matcher process resumes exactly where the durable
// head says — no orders lost, none double-matched after the durable
// dequeue.
#include <cstdio>
#include <functional>
#include <set>
#include <vector>

#include "common/serialize.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/plane.h"
#include "pm/queue.h"
#include "sim/simulation.h"

using namespace ods;
using sim::Task;

namespace {

using App = nsk::AppProcess;

std::vector<std::byte> MakeOrder(std::uint64_t id, char side,
                                 std::uint64_t qty) {
  Serializer s;
  s.PutU64(id);
  s.PutU8(static_cast<std::uint8_t>(side));
  s.PutU64(qty);
  return std::move(s).Take();
}

// Prints one order; returns its id.
std::uint64_t PrintOrder(const std::vector<std::byte>& bytes,
                         const char* prefix) {
  Deserializer d(bytes);
  std::uint64_t id = 0, qty = 0;
  std::uint8_t side = 0;
  d.GetU64(id);
  d.GetU8(side);
  d.GetU64(qty);
  std::printf("%s order %llu: %c %llu\n", prefix,
              static_cast<unsigned long long>(id), static_cast<char>(side),
              static_cast<unsigned long long>(qty));
  return id;
}

}  // namespace

int main() {
  std::printf("== durable order queue ==\n\n");

  sim::Simulation sim(3117);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair);
  plane.Start();

  // A brokerage feed enqueues orders; a matcher consumes two at a time.
  // The matcher crashes mid-stream; its replacement resumes at the
  // durable head.
  sim.Adopt<App>(cluster, 2, "feed", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("orders", 64 * 1024);
    if (!region.ok()) co_return;
    pm::PmQueue q(std::move(*region));
    (void)co_await q.Format();
    const sim::SimTime t0 = self.sim().Now();
    for (std::uint64_t id = 1; id <= 8; ++id) {
      (void)co_await q.Enqueue(
          MakeOrder(id, id % 2 != 0 ? 'B' : 'S', id * 100));
    }
    std::printf("feed: 8 orders durable in %.0fus total\n",
                sim::ToMicrosD(self.sim().Now() - t0));
  });
  sim.RunFor(sim::Seconds(1));

  std::vector<std::uint64_t> matched;  // order ids, both matchers
  App* matcher1 = &sim.Adopt<App>(cluster, 3, "matcher-1",
                                  [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("orders");
    if (!region.ok()) co_return;
    pm::PmQueue q(std::move(*region));
    if (!(co_await q.Open()).ok()) co_return;
    std::printf("\nmatcher-1 starts matching...\n");
    for (int i = 0; i < 3; ++i) {
      auto order = co_await q.Dequeue();
      if (!order.ok()) break;
      matched.push_back(PrintOrder(*order, "  matcher-1 matched"));
    }
    // ...and then it crashes (kill below), mid-stream.
    co_await self.Sleep(sim::Seconds(3600));
  });
  sim.RunFor(sim::Seconds(1));
  std::printf("matcher-1 crashes!\n");
  matcher1->Kill();
  sim.RunFor(sim::Seconds(1));

  sim.Adopt<App>(cluster, 3, "matcher-2", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("orders");
    if (!region.ok()) co_return;
    pm::PmQueue q(std::move(*region));
    if (!(co_await q.Open()).ok()) co_return;
    std::printf("\nmatcher-2 resumes at the durable head:\n");
    while (true) {
      auto order = co_await q.Dequeue();
      if (!order.ok()) break;
      matched.push_back(PrintOrder(*order, "  matcher-2 matched"));
    }
    std::printf("queue drained — every order matched exactly once.\n");
  });
  sim.Run();
  const std::set<std::uint64_t> distinct(matched.begin(), matched.end());
  return matched.size() == 8 && distinct.size() == 8 ? 0 : 1;
}
