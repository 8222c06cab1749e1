// Cross-checks the PM write engine's own accounting (the "pm.pipeline.*"
// and "pm.log.piggybacked" metrics kept by pm::PmWritePipeline and
// tp::PmLogStream) against the fabric's observed packet counters. The
// two are maintained in different layers — the write engine counts what
// it decided to do (issue, coalesce, piggyback), the fabric counts what
// actually hit the wire — so agreement here means the bench numbers
// built from either source describe the same traffic.
//
// The arithmetic being verified (FabricConfig defaults, mtu = 512):
//   * every mirrored write is TWO chained RDMA ops (primary + mirror),
//     each counting once in rdma_write_ops;
//   * a chain's packet count is the sum over its segments of
//     ceil(len/mtu);
//   * the piggybacked append is one chain of [data, 16B control], so
//     2 * (ceil(n/mtu) + 1) packets per append;
//   * the ablation/wrap path issues data through the pipeline and then
//     writes the control block separately: 2*ceil(n/mtu) + 2 packets;
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

// The write engine's counters, read from the run's metrics registry.
struct EngineCounts {
  std::uint64_t piggybacked = 0;
  std::uint64_t issued = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t depth_samples = 0;

  static EngineCounts Take(const MetricsRegistry& m) {
    const LatencyHistogram* depth = m.FindHistogram("pm.pipeline.depth");
    return {m.CounterValue("pm.log.piggybacked"),
            m.CounterValue("pm.pipeline.issued"),
            m.CounterValue("pm.pipeline.coalesced"),
            depth == nullptr ? 0 : depth->count()};
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
    cfg.piggyback_control = true;
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

    const auto stats = EngineCounts::Take(sim.metrics());
    EXPECT_EQ(stats.piggybacked, std::size(sizes));
    EXPECT_EQ(stats.issued, 0u);  // pipeline never engaged
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.depth_samples, 0u);

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

TEST_F(PipelineStatsFixture, AblationPathIssuesDataThenControlSeparately) {
  const std::uint64_t sizes[] = {100, 4096};
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-ablate";
    cfg.region_bytes = 1 << 20;
    cfg.piggyback_control = false;  // the seed's serialized ordering
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());

    const auto before = FabricSnapshot::Take(cluster.fabric());
    std::uint64_t expect_packets = 0;
    for (std::uint64_t n : sizes) {
      EXPECT_TRUE((co_await dev.Append(self, Fill(n, 0x6B))).ok());
      // Data via the pipeline (one issue, both mirrors), then the control
      // block as its own mirrored write.
      expect_packets += 2 * Pkts(n) + 2;
    }
    const auto after = FabricSnapshot::Take(cluster.fabric());

    const auto stats = EngineCounts::Take(sim.metrics());
    EXPECT_EQ(stats.piggybacked, 0u);
    EXPECT_EQ(stats.issued, std::size(sizes));
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.depth_samples, std::size(sizes));

    // Per append: 2 data ops + 2 control ops.
    EXPECT_EQ(after.write_ops - before.write_ops, 4 * std::size(sizes));
    EXPECT_EQ(after.write_packets - before.write_packets, expect_packets);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(PipelineStatsFixture, RingWrapFallsBackToPipelinedExtents) {
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-wrap";
    cfg.region_bytes = 4096;  // tiny ring so the second append wraps
    cfg.piggyback_control = true;
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());

    const auto before = FabricSnapshot::Take(cluster.fabric());
    // Fits: piggybacked single chain.
    EXPECT_TRUE((co_await dev.Append(self, Fill(3000, 1))).ok());
    // Wraps (3000 + 2000 > 4096): extents of 1096 and 904 bytes go
    // through the pipeline (non-adjacent physical offsets, so two
    // issues), then the control block is written separately.
    EXPECT_TRUE((co_await dev.Append(self, Fill(2000, 2))).ok());
    const auto after = FabricSnapshot::Take(cluster.fabric());
    EXPECT_EQ(dev.tail(), 5000u);

    const auto stats = EngineCounts::Take(sim.metrics());
    EXPECT_EQ(stats.piggybacked, 1u);
    EXPECT_EQ(stats.issued, 2u);
    EXPECT_EQ(stats.coalesced, 0u);

    // Append 1: one chain per mirror. Append 2: two pipeline issues plus
    // the control write, each mirrored.
    EXPECT_EQ(after.write_ops - before.write_ops, 2u + 6u);
    const std::uint64_t expect_packets = 2 * (Pkts(3000) + 1) +  // piggyback
                                         2 * Pkts(1096) +        // extent A
                                         2 * Pkts(904) +         // extent B
                                         2;                      // control
    EXPECT_EQ(after.write_packets - before.write_packets, expect_packets);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(PipelineStatsFixture, CoalescedSubmitsCollapseIntoOneFabricOp) {
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("coalesce", 64 * 1024);
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    if (!region.ok()) co_return;

    pm::PmWritePipeline pipe(*region);
    const auto before = FabricSnapshot::Take(cluster.fabric());
    // Three adjacent submits merge into one staged 768-byte op...
    EXPECT_TRUE((co_await pipe.Submit(0, Fill(256, 1))).ok());
    EXPECT_TRUE((co_await pipe.Submit(256, Fill(256, 2))).ok());
    EXPECT_TRUE((co_await pipe.Submit(512, Fill(256, 3))).ok());
    // ...which a non-adjacent submit flushes to the wire.
    EXPECT_TRUE((co_await pipe.Submit(4096, Fill(100, 4))).ok());
    EXPECT_TRUE((co_await pipe.Drain()).ok());
    const auto after = FabricSnapshot::Take(cluster.fabric());

    const auto stats = EngineCounts::Take(sim.metrics());
    EXPECT_EQ(stats.coalesced, 2u);
    EXPECT_EQ(stats.issued, 2u);
    EXPECT_EQ(stats.depth_samples, 2u);

    EXPECT_EQ(after.write_ops - before.write_ops, 4u);  // 2 issues x mirrors
    EXPECT_EQ(after.write_packets - before.write_packets,
              2 * Pkts(768) + 2 * Pkts(100));
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace ods
