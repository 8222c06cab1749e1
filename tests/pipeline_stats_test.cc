// Cross-checks the PM ring commit's own accounting (the
// "pm.log.piggybacked" counter kept by tp::PmLogStream) against the
// fabric's observed packet counters. The two are maintained in different
// layers — the log stream counts the commits it made, the fabric counts
// what actually hit the wire — so agreement here means the bench numbers
// built from either source describe the same traffic.
//
// The arithmetic being verified (FabricConfig defaults, mtu = 512):
//   * every mirrored write is TWO chained RDMA ops (primary + mirror),
//     each counting once in rdma_write_ops;
//   * a chain's packet count is the sum over its segments of
//     ceil(len/mtu);
//   * an append is one chain of [data, 16B control], so
//     2 * (ceil(n/mtu) + 1) packets per append; an append that wraps at
//     the ring end is one chain of [extent A, extent B, 16B control];
//   * ops round-robin over the two healthy rails, so mirror pairs split
//     evenly and the per-rail packet counters balance exactly.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "net/fabric.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/plane.h"
#include "sim/simulation.h"
#include "tp/log_device.h"

namespace ods {
namespace {

using sim::Task;

using TestProcess = nsk::AppProcess;

struct FabricSnapshot {
  std::uint64_t write_ops = 0;
  std::uint64_t write_packets = 0;
  std::uint64_t read_packets = 0;
  std::uint64_t rail0 = 0;
  std::uint64_t rail1 = 0;

  static FabricSnapshot Take(const net::Fabric& f) {
    return {f.rdma_write_ops(), f.write_packets(), f.read_packets(),
            f.rail_packets(0), f.rail_packets(1)};
  }
};

// Packets for one leg of `n` bytes at the default 512-byte MTU.
constexpr std::uint64_t Pkts(std::uint64_t n) { return (n + 511) / 512; }

std::vector<std::byte> Fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// PMM pair + mirrored NPMUs, probe process on CPU 2 (pm_test's rig).
struct PipelineStatsFixture : ::testing::Test {
  PipelineStatsFixture()
      : sim(23), cluster(sim, MakeConfig()),
        plane(cluster, pm::PmDeviceKind::kNpmuPair) {
    plane.Start();
  }

  ~PipelineStatsFixture() override { sim.Shutdown(); }

  static nsk::ClusterConfig MakeConfig() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  pm::PmPlane plane;
};

TEST_F(PipelineStatsFixture, PiggybackedAppendsMatchFabricPacketCounts) {
  const std::uint64_t sizes[] = {100, 512, 513, 4096, 8000};
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-piggy";
    cfg.region_bytes = 1 << 20;
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());

    const auto before = FabricSnapshot::Take(cluster.fabric());
    std::uint64_t expect_packets = 0;
    for (std::uint64_t n : sizes) {
      EXPECT_TRUE((co_await dev.Append(self, Fill(n, 0x5A))).ok());
      // One chain per mirror: data segment + 16-byte control segment.
      expect_packets += 2 * (Pkts(n) + 1);
    }
    const auto after = FabricSnapshot::Take(cluster.fabric());

    EXPECT_EQ(sim.metrics().CounterValue("pm.log.piggybacked"),
              std::size(sizes));

    EXPECT_EQ(after.write_ops - before.write_ops, 2 * std::size(sizes));
    EXPECT_EQ(after.write_packets - before.write_packets, expect_packets);
    EXPECT_EQ(after.read_packets, before.read_packets);  // write-only phase
    // Primary and mirror chains of one append are the same size and land
    // on alternating rails, so the rail counters advance in lockstep.
    EXPECT_EQ(after.rail0 - before.rail0, expect_packets / 2);
    EXPECT_EQ(after.rail1 - before.rail1, expect_packets / 2);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(PipelineStatsFixture, RingWrapCommitsOneChainPerMirror) {
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-wrap";
    cfg.region_bytes = 4096;  // tiny ring so the second append wraps
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());

    const auto before = FabricSnapshot::Take(cluster.fabric());
    EXPECT_TRUE((co_await dev.Append(self, Fill(3000, 1))).ok());
    // Wraps (3000 + 2000 > 4096): extents of 1096 and 904 bytes, then the
    // control block, all in the same chain.
    EXPECT_TRUE((co_await dev.Append(self, Fill(2000, 2))).ok());
    const auto after = FabricSnapshot::Take(cluster.fabric());
    EXPECT_EQ(dev.tail(), 5000u);
    EXPECT_EQ(sim.metrics().CounterValue("pm.log.piggybacked"), 2u);

    // One chain per mirror per append.
    EXPECT_EQ(after.write_ops - before.write_ops, 2u + 2u);
    const std::uint64_t expect_packets =
        2 * (Pkts(3000) + 1) +            // append 1
        2 * (Pkts(1096) + Pkts(904) + 1);  // append 2, wrapped
    EXPECT_EQ(after.write_packets - before.write_packets, expect_packets);
    EXPECT_EQ(after.rail0 - before.rail0, expect_packets / 2);
    EXPECT_EQ(after.rail1 - before.rail1, expect_packets / 2);

    // Extent A fills the ring end; extent B overwrites the ring start.
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("audit-wrap");
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    if (!region.ok()) co_return;
    auto ring = co_await region->Read(tp::PmLogStream::kDataBase, 4096);
    EXPECT_TRUE(ring.ok());
    if (!ring.ok()) co_return;
    const auto at = [&](std::size_t i) { return static_cast<int>((*ring)[i]); };
    EXPECT_EQ(at(0), 2);
    EXPECT_EQ(at(903), 2);
    EXPECT_EQ(at(904), 1);
    EXPECT_EQ(at(2999), 1);
    EXPECT_EQ(at(3000), 2);
    EXPECT_EQ(at(4095), 2);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace ods
