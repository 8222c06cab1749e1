// Ablation (§5.1 future work) — direct-attached PM vs fabric-attached
// NPMU for a log-append pattern. The paper ruled direct attachment out of
// its first generation because the memory "falls in the same fault domain
// as the CPU" and store semantics endanger durability; the long-term
// payoff it anticipated is the latency gap this harness measures.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "pm/client.h"
#include "pm/direct.h"
#include "pm/plane.h"

using namespace ods;
using namespace ods::bench;
using sim::Task;

using App = nsk::AppProcess;

int main() {
  sim::Simulation sim(67);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair);
  plane.Start();

  struct Row {
    std::uint64_t bytes;
    double fabric_us;
    double direct_us;
  };
  std::vector<Row> rows;

  sim.Adopt<App>(cluster, 2, "app", [&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("log", 1 << 20);
    if (!region.ok()) co_return;
    pm::DirectPm direct(pm::DirectPmConfig{.size_bytes = 1 << 20});

    for (std::uint64_t size : {64ull, 512ull, 4096ull, 65536ull}) {
      Row row{size, 0, 0};
      {
        const sim::SimTime t0 = self.sim().Now();
        (void)co_await region->Write(
            0, std::vector<std::byte>(size, std::byte{1}));
        row.fabric_us = sim::ToMicrosD(self.sim().Now() - t0);
      }
      {
        const sim::SimTime t0 = self.sim().Now();
        direct.Store(0, std::vector<std::byte>(size, std::byte{2}));
        co_await direct.PersistBarrier(self);
        row.direct_us = sim::ToMicrosD(self.sim().Now() - t0);
      }
      rows.push_back(row);
    }
  });
  sim.Run();

  std::printf("Ablation / §5.1: fabric-attached NPMU vs direct-attached PM\n"
              "(synchronous persist of one log record)\n\n");
  std::printf("%10s %18s %18s %10s\n", "bytes", "fabric NPMU (us)",
              "direct PM (us)", "ratio");
  PrintRule(60);
  for (const Row& r : rows) {
    std::printf("%10llu %18.1f %18.2f %9.0fx\n",
                static_cast<unsigned long long>(r.bytes), r.fabric_us,
                r.direct_us,
                r.direct_us > 0 ? r.fabric_us / r.direct_us : 0);
  }
  PrintRule(60);
  std::printf(
      "direct attachment is 1-2 orders of magnitude faster — but the\n"
      "memory shares the CPU's fault domain, store durability needs\n"
      "explicit barriers (see pm/direct.h tests for the torn-store\n"
      "hazards), and a mirrored fabric device survives failures the\n"
      "direct module cannot. Hence the paper's first generation chose\n"
      "the NPMU, leaving this as the long-term option.\n");
  return rows.empty() ? 1 : 0;  // the PM region could not be created
}
