// Experiment E10 — data integrity (§1.3, §4.1): link CRCs catch in-flight
// corruption ("when ServerNet transfer completes without error, the
// packet is guaranteed to have arrived in the remote NIC with a correct
// CRC"), mirrored NPMUs survive device loss, and duplicate-and-compare
// detects silent corruption of stored data. Exits 1 when a mechanism
// fails: a corrupted packet slips past the CRC, the device loss loses
// data, or the scrub misses the injected flip.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "pm/client.h"
#include "pm/npmu.h"
#include "pm/plane.h"

using namespace ods;
using namespace ods::bench;
using sim::Task;

namespace {

using App = nsk::AppProcess;

struct PmRigLite {
  explicit PmRigLite(std::uint64_t seed)
      : sim(seed), cluster(sim, Cfg()),
        plane(cluster, pm::PmDeviceKind::kNpmuPair) {
    plane.Start();
  }
  ~PmRigLite() { sim.Shutdown(); }
  static nsk::ClusterConfig Cfg() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }
  sim::Simulation sim;
  nsk::Cluster cluster;
  pm::PmPlane plane;
  pm::Npmu& npmu_a = plane.npmu_a();
  pm::Npmu& npmu_b = plane.npmu_b();
};

}  // namespace

int main() {
  std::printf("E10: data-integrity mechanisms\n\n");
  bool failed = false;

  // (a) Link CRC detection under injected packet corruption.
  {
    std::printf("(a) in-flight corruption vs NIC CRC check\n");
    std::printf("%-16s %12s %12s %12s %12s\n", "corruption p", "packets",
                "corrupted", "detected", "undetected");
    PrintRule(70);
    for (double p : {1e-4, 1e-3, 1e-2}) {
      PmRigLite rig(101);
      rig.cluster.fabric().SetCorruptionRate(p);
      int write_errors = 0, writes = 0;
      rig.sim.Adopt<App>(rig.cluster, 2, "app", [&](App& self) -> Task<void> {
        pm::PmClient client(self, "$PMM");
        auto region = co_await client.Create("r", 1 << 20);
        if (!region.ok()) co_return;
        for (int i = 0; i < 500; ++i) {
          ++writes;
          auto st = co_await region->Write(
              0, std::vector<std::byte>(4096, std::byte{1}));
          if (!st.ok()) ++write_errors;
        }
      });
      rig.sim.Run();
      auto& fab = rig.cluster.fabric();
      std::printf("%-16g %12llu %12llu %12llu %12llu\n", p,
                  static_cast<unsigned long long>(fab.packets_sent()),
                  static_cast<unsigned long long>(fab.packets_corrupted()),
                  static_cast<unsigned long long>(fab.crc_detections()),
                  static_cast<unsigned long long>(fab.packets_corrupted() -
                                                  fab.crc_detections()));
      failed = failed || fab.crc_detections() != fab.packets_corrupted();
    }
    PrintRule(70);
    std::printf("every corrupted packet is caught by the receiving NIC's "
                "CRC.\n\n");
  }

  // (b) Mirrored NPMUs: device loss without data loss.
  {
    std::printf("(b) mirrored NPMU failure\n");
    PmRigLite rig(103);
    bool survived = false;
    rig.sim.Adopt<App>(rig.cluster, 2, "app", [&](App& self) -> Task<void> {
      pm::PmClient client(self, "$PMM");
      auto region = co_await client.Create("r", 1 << 20);
      if (!region.ok()) co_return;
      (void)co_await region->Write(0, std::vector<std::byte>(4096,
                                                             std::byte{0x5A}));
      rig.npmu_a.Fail();  // lose the primary device
      auto back = co_await region->Read(0, 4096);
      survived = back.ok() && (*back)[0] == std::byte{0x5A};
      // And writes continue on the survivor.
      survived = survived &&
                 (co_await region->Write(4096, std::vector<std::byte>(
                                                   64, std::byte{1})))
                     .ok();
    });
    rig.sim.Run();
    std::printf("primary NPMU failed mid-run: %s\n\n",
                survived ? "no data loss, service continued on mirror"
                         : "DATA LOST");
    failed = failed || !survived;
  }

  // (c) Duplicate-and-compare on stored data (§1.3's D&C approach),
  //     reading both mirrors and comparing.
  {
    std::printf("(c) duplicate-and-compare scrub\n");
    PmRigLite rig(107);
    int scrubbed = 0, mismatches_found = 0;
    rig.sim.Adopt<App>(rig.cluster, 2, "app", [&](App& self) -> Task<void> {
      pm::PmClient client(self, "$PMM");
      auto region = co_await client.Create("r", 1 << 20);
      if (!region.ok()) co_return;
      for (int i = 0; i < 16; ++i) {
        (void)co_await region->Write(
            static_cast<std::uint64_t>(i) * 4096,
            std::vector<std::byte>(4096, static_cast<std::byte>(i)));
      }
      // Silently corrupt one mirror (cosmic ray in device memory).
      rig.npmu_b.data_memory()[5 * 4096 + 17] ^= std::byte{0x80};
      // Scrub: read both mirrors directly and compare.
      net::Endpoint& ep = self.cpu().endpoint();
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t nva =
            region->handle().nva + static_cast<std::uint64_t>(i) * 4096;
        auto a = co_await ep.Read(self, rig.npmu_a.id(), nva, 4096);
        auto b = co_await ep.Read(self, rig.npmu_b.id(), nva, 4096);
        ++scrubbed;
        if (a.status.ok() && b.status.ok() && a.data != b.data) {
          ++mismatches_found;
        }
      }
    });
    rig.sim.Run();
    std::printf("scrubbed %d blocks, injected 1 silent flip, detected %d "
                "mismatch(es)\n",
                scrubbed, mismatches_found);
    failed = failed || scrubbed != 16 || mismatches_found != 1;
  }
  return failed ? 1 : 0;
}
