// Quickstart: the persistent memory API in one sitting.
//
//   1. stand up a NonStop-style cluster with a mirrored pair of NPMUs
//      managed by a PMM process pair,
//   2. create a PM region and write to it synchronously ("when the call
//      returns the data is either persistent or the call will return in
//      error"),
//   3. lose power to the whole node,
//   4. restart and read the data back through a fresh handle.
//
// Build: cmake --build build && ./build/examples/quickstart
#include <cstdio>
#include <functional>
#include <string>

#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/plane.h"
#include "sim/simulation.h"

using namespace ods;
using sim::Task;

using App = nsk::AppProcess;

int main() {
  std::printf("== persistent memory quickstart ==\n\n");

  // A 4-CPU node with a ServerNet-class fabric.
  sim::Simulation sim(/*seed=*/2026);
  nsk::ClusterConfig cluster_cfg;
  cluster_cfg.num_cpus = 4;
  nsk::Cluster cluster(sim, cluster_cfg);

  // The persistence plane: a mirrored pair of hardware NPMUs on the
  // fabric and the PMM process pair that manages them.
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair);
  plane.Start();

  // Phase 1: create a region and write.
  sim.Adopt<App>(cluster, 2, "writer", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("greetings", 64 * 1024);
    if (!region.ok()) {
      std::printf("create failed: %s\n", region.status().ToString().c_str());
      co_return;
    }
    std::printf("created region '%s': %llu bytes at nva 0x%llx, "
                "mirrored on endpoints %u and %u\n",
                region->handle().name.c_str(),
                static_cast<unsigned long long>(region->size()),
                static_cast<unsigned long long>(region->handle().nva),
                region->handle().primary_endpoint,
                region->handle().mirror_endpoint);

    const char* message = "hello, durable world";
    std::vector<std::byte> bytes(
        reinterpret_cast<const std::byte*>(message),
        reinterpret_cast<const std::byte*>(message) + 21);
    const sim::SimTime t0 = self.sim().Now();
    Status st = co_await region->Write(0, std::move(bytes));
    std::printf("synchronous mirrored write: %s in %.1fus\n",
                st.ok() ? "durable" : st.ToString().c_str(),
                sim::ToMicrosD(self.sim().Now() - t0));
  });
  sim.RunFor(sim::Seconds(2));

  // Phase 2: power loss. Every process dies; NPMU address translation
  // tables (volatile NIC state) are wiped; NPMU *memory* survives.
  std::printf("\n-- power loss --\n\n");
  plane.PowerLoss();
  sim.RunFor(sim::Seconds(1));

  // Phase 3: restart the PMM pair; it recovers the region table from the
  // NPMUs' self-consistent metadata, reprograms the ATTs, and serves.
  plane.RestartAfterPowerLoss();
  sim.RunFor(sim::Seconds(2));

  bool recovered = false;
  sim.Adopt<App>(cluster, 3, "reader", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("greetings");
    if (!region.ok()) {
      std::printf("open failed: %s\n", region.status().ToString().c_str());
      co_return;
    }
    auto data = co_await region->Read(0, 21);
    if (!data.ok()) {
      std::printf("read failed: %s\n", data.status().ToString().c_str());
      co_return;
    }
    std::string text(reinterpret_cast<const char*>(data->data()),
                     data->size());
    std::printf("recovered after power loss: \"%s\"\n", text.c_str());
    recovered = text == std::string("hello, durable world", 21);
  });
  sim.Run();

  std::printf("\ndone.\n");
  return recovered ? 0 : 1;
}
