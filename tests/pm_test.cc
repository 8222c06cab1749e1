// Integration tests for the persistent memory system: PMM pair + mirrored
// NPMUs + client library. Covers the region lifecycle, synchronous
// mirrored writes, access control end-to-end, PMM failover, NPMU failure,
// power-loss recovery, the PMP prototype's volatility, and the device
// memory model (lazy zero pages, guard pages).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "pm/offload.h"
#include "pm/plane.h"
#include "sim/simulation.h"

namespace ods::pm {
namespace {

using sim::Microseconds;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

using TestProcess = nsk::AppProcess;

std::vector<std::byte> Fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// Host pages of [p, p + len) that are resident (mincore). Reading an
// untouched page maps the shared zero page, which mincore also reports,
// so callers count before they read.
std::size_t ResidentPages(const std::byte* p, std::uint64_t len) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(p) / page * page;
  const auto last = (reinterpret_cast<std::uintptr_t>(p) + len + page - 1) /
                    page * page;
  std::vector<unsigned char> pages((last - first) / page);
  EXPECT_EQ(::mincore(reinterpret_cast<void*>(first), last - first,
                      pages.data()),
            0);
  return static_cast<std::size_t>(std::count_if(
      pages.begin(), pages.end(), [](unsigned char c) { return c & 1; }));
}

// Full PM rig: 4-CPU cluster, two hardware NPMUs, PMM pair on CPUs 0/1.
struct PmFixture : ::testing::Test {
  explicit PmFixture(NpmuConfig device = {})
      : sim(11), cluster(sim, MakeConfig()),
        plane(cluster, PmDeviceKind::kNpmuPair, 1, device) {
    plane.Start();
  }

  // Unwind all processes while the cluster and devices are still alive.
  ~PmFixture() override { sim.Shutdown(); }

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
  PmManager* pmm_p = plane.pmm();
  PmManager* pmm_b = plane.pmm_backup();
};

// ------------------------------------------------------- region lifecycle

TEST_F(PmFixture, CreateWriteReadBack) {
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 64 * 1024);
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    auto st = co_await region->Write(100, Fill(4096, 0xAB));
    EXPECT_TRUE(st.ok()) << st.ToString();
    auto back = co_await region->Read(100, 4096);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ((*back)[0], std::byte{0xAB});
    EXPECT_EQ((*back)[4095], std::byte{0xAB});
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(PmFixture, WritesAreMirroredToBothNpmus) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(512, 0x3C))).ok());
  });
  sim.Run();
  // Find the region's offset via either device's data area content.
  EXPECT_EQ(npmu_a.data_memory()[0], std::byte{0x3C});
  EXPECT_EQ(npmu_b.data_memory()[0], std::byte{0x3C});
}

TEST_F(PmFixture, SynchronousWriteLatencyTensOfMicroseconds) {
  // §3.3: PM access "incurs only 10s of microseconds of latency".
  SimTime t0{}, t1{};
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 64 * 1024);
    EXPECT_TRUE(region.ok());
    t0 = self.sim().Now();
    EXPECT_TRUE((co_await region->Write(0, Fill(4096, 1))).ok());
    t1 = self.sim().Now();
  });
  sim.Run();
  const double us = sim::ToMicrosD(t1 - t0);
  EXPECT_GT(us, 10.0);
  EXPECT_LT(us, 100.0);
}

TEST_F(PmFixture, OpenExistingRegionFromAnotherProcess) {
  sim.Adopt<TestProcess>(cluster, 2, "writer",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("shared", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(64, 0x99))).ok());
  });
  std::vector<std::byte> got;
  sim.Adopt<TestProcess>(cluster, 3, "reader",
                         [&](TestProcess& self) -> Task<void> {
    co_await self.Sleep(Milliseconds(50));
    PmClient client(self, "$PMM");
    auto region = co_await client.Open("shared");
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    auto r = co_await region->Read(0, 64);
    EXPECT_TRUE(r.ok());
    got = *r;
  });
  sim.Run();
  ASSERT_EQ(got.size(), 64u);
  EXPECT_EQ(got[0], std::byte{0x99});
}

TEST_F(PmFixture, OpenUnknownRegionFails) {
  Status st;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Open("ghost");
    st = region.status();
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kNotFound);
}

TEST_F(PmFixture, CreateDuplicateReturnsExisting) {
  bool both_ok = false;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto r1 = co_await client.Create("dup", 4096);
    auto r2 = co_await client.Create("dup", 4096);
    both_ok = r1.ok() && r2.ok() &&
              r1->handle().nva == r2->handle().nva;
  });
  sim.Run();
  EXPECT_TRUE(both_ok) << "create must be retry-idempotent";
}

TEST_F(PmFixture, DeleteFreesSpace) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto info0 = co_await client.Info();
    EXPECT_TRUE(info0.ok());
    auto region = co_await client.Create("temp", 1 << 20);
    EXPECT_TRUE(region.ok());
    auto info1 = co_await client.Info();
    EXPECT_TRUE(info1.ok());
    EXPECT_EQ(info1->free_bytes, info0->free_bytes - (1 << 20));
    EXPECT_TRUE((co_await client.Delete("temp")).ok());
    auto info2 = co_await client.Info();
    EXPECT_TRUE(info2.ok());
    EXPECT_EQ(info2->free_bytes, info0->free_bytes);
    // Deleted region is gone.
    auto reopen = co_await client.Open("temp");
    EXPECT_EQ(reopen.status().code(), ErrorCode::kNotFound);
  });
  sim.Run();
}

TEST_F(PmFixture, ExhaustionReported) {
  Status st;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto big = co_await client.Create("big", 60ull << 20);
    EXPECT_TRUE(big.ok());
    auto too_big = co_await client.Create("more", 10ull << 20);
    st = too_big.status();
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);
}

TEST_F(PmFixture, OutOfRegionBoundsRejected) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    auto st = co_await region->Write(4000, Fill(200, 1));
    EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
    auto rd = co_await region->Read(4090, 100);
    EXPECT_EQ(rd.status().code(), ErrorCode::kOutOfRange);
  });
  sim.Run();
}

TEST_F(PmFixture, AccessControlBlocksOtherCpus) {
  // Region restricted to CPU 2's endpoint; CPU 3 must be denied at BOTH
  // the control path (open) and the data path (raw RDMA).
  sim.Adopt<TestProcess>(cluster, 2, "owner",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    std::vector<std::uint32_t> acl = {self.cpu().endpoint().id().value};
    auto region = co_await client.Create("private", 4096, std::move(acl));
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(64, 1))).ok());
  });
  Status open_status;
  Status raw_status;
  sim.Adopt<TestProcess>(cluster, 3, "intruder",
                         [&](TestProcess& self) -> Task<void> {
    co_await self.Sleep(Milliseconds(50));
    PmClient client(self, "$PMM");
    auto region = co_await client.Open("private");
    open_status = region.status();
    // Bypass the PMM: raw RDMA against the device window.
    raw_status = co_await self.cpu().endpoint().Write(
        self, npmu_a.id(), kDataBase + 0, Fill(64, 2));
  });
  sim.Run();
  EXPECT_EQ(open_status.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(raw_status.code(), ErrorCode::kPermissionDenied)
      << "the NPMU ATT must enforce access control in hardware";
}

TEST_F(PmFixture, WriteChainGathersAdjacentSegments) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    const std::uint64_t ops_before = cluster.fabric().rdma_write_ops();
    std::vector<PmRegion::ScatterOp> segs;
    segs.push_back({0, Fill(10, 0x01)});
    segs.push_back({10, Fill(20, 0x02)});
    segs.push_back({30, Fill(30, 0x03)});
    EXPECT_TRUE((co_await region->WriteChain(std::move(segs))).ok());
    EXPECT_EQ(cluster.fabric().rdma_write_ops() - ops_before, 2u)
        << "the chain rides one RDMA op per mirror";
    auto back = co_await region->Read(0, 60);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ((*back)[0], std::byte{0x01});
    EXPECT_EQ((*back)[10], std::byte{0x02});
    EXPECT_EQ((*back)[30], std::byte{0x03});
    EXPECT_EQ((*back)[59], std::byte{0x03});
  });
  sim.Run();
}

// ----------------------------------------------------------- PMM failover

TEST_F(PmFixture, PmmFailoverPreservesRegions) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("durable", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(64, 0x42))).ok());
    pmm_p->Kill();
    // Re-open through the service name after takeover; data path still
    // works and metadata survived.
    auto reopened = co_await client.Open("durable");
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto back = co_await reopened->Read(0, 64);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ((*back)[0], std::byte{0x42});
  });
  sim.RunUntil(SimTime{Seconds(10).ns});
  EXPECT_TRUE(pmm_b->is_primary());
}

TEST_F(PmFixture, DataPathUnaffectedByPmmDeath) {
  // The PMM is control-path only: with the handle in hand, RDMA continues
  // even while no PMM is alive at all.
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    pmm_p->Kill();
    pmm_b->Kill();
    auto st = co_await region->Write(0, Fill(64, 0x7A));
    EXPECT_TRUE(st.ok()) << "data path must not involve the PMM";
    auto back = co_await region->Read(0, 64);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ((*back)[0], std::byte{0x7A});
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
}

// ----------------------------------------------------------- NPMU failure

TEST_F(PmFixture, MirrorFailureSurvivedWithoutDataLoss) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(64, 0x11))).ok());
    npmu_b.Fail();  // mirror dies
    auto st = co_await region->Write(64, Fill(64, 0x22));
    EXPECT_TRUE(st.ok()) << "writes must continue on the survivor: "
                         << st.ToString();
    auto back = co_await region->Read(0, 128);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ((*back)[0], std::byte{0x11});
    EXPECT_EQ((*back)[64], std::byte{0x22});
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_FALSE(pmm_p->mirror_up());
}

TEST_F(PmFixture, PrimaryNpmuFailureFailsOverToMirror) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(64, 0x33))).ok());
    npmu_a.Fail();  // the PRIMARY device dies
    auto back = co_await region->Read(0, 64);
    EXPECT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ((*back)[0], std::byte{0x33});
    // Writes continue on the surviving device.
    EXPECT_TRUE((co_await region->Write(64, Fill(64, 0x44))).ok());
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
}

TEST_F(PmFixture, ResilverRebuildsRepairedMirror) {
  // Lose the mirror, keep writing (unprotected), repair + resilver, then
  // lose the PRIMARY: the resilvered mirror must serve the latest data.
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 64 * 1024);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(4096, 0x11))).ok());
    npmu_b.Fail();
    // Written while the mirror is down — the mirror misses this.
    EXPECT_TRUE((co_await region->Write(4096, Fill(4096, 0x22))).ok());
    npmu_b.Repair();
    auto copied = co_await client.Resilver();
    EXPECT_TRUE(copied.ok()) << copied.status().ToString();
    EXPECT_GE(*copied, 8192u);
    // Refresh the handle (mirror_up flipped back on).
    auto refreshed = co_await client.Open("r1");
    EXPECT_TRUE(refreshed.ok());
    npmu_a.Fail();  // primary gone: reads fail over to the rebuilt mirror
    auto v1 = co_await refreshed->Read(0, 4096);
    auto v2 = co_await refreshed->Read(4096, 4096);
    EXPECT_TRUE(v1.ok()) << v1.status().ToString();
    EXPECT_TRUE(v2.ok()) << v2.status().ToString();
    if (v1.ok()) {
      EXPECT_EQ((*v1)[0], std::byte{0x11});
    }
    if (v2.ok()) {
      EXPECT_EQ((*v2)[0], std::byte{0x22})
          << "data written while the mirror was down must be resilvered";
    }
  });
  sim.RunUntil(SimTime{Seconds(10).ns});
}

TEST_F(PmFixture, ResilverOnHealthyVolumeIsNoOp) {
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    auto copied = co_await client.Resilver();
    EXPECT_TRUE(copied.ok());
    EXPECT_EQ(*copied, 0u);
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
}

TEST_F(PmFixture, BothNpmusDeadIsAnError) {
  Status st;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    npmu_a.Fail();
    npmu_b.Fail();
    st = co_await region->Write(0, Fill(64, 1));
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_FALSE(st.ok());
}

// ------------------------------------------------------------- power loss

TEST_F(PmFixture, PowerLossRecoveryKeepsDataAndMetadata) {
  // Phase 1: create a region and write a pattern. Phase 2: power loss —
  // every process dies, NPMU ATTs are wiped, but NPMU memory survives.
  // Phase 3: restart the PMM pair; a fresh client must reopen the region
  // and read the pattern back.
  sim.Adopt<TestProcess>(cluster, 2, "phase1",
                         [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("persistent", 8192);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(4096, 0xEE))).ok());
  });
  sim.RunUntil(SimTime{Seconds(1).ns});

  // Power loss.
  pmm_p->Kill();
  pmm_b->Kill();
  npmu_a.PowerFail();
  npmu_b.PowerFail();
  sim.RunUntil(SimTime{Seconds(2).ns});

  // Restart: the old primary comes back first.
  pmm_p->Restart();
  pmm_b->Restart();
  bool verified = false;
  sim.Schedule(SimTime{Seconds(3).ns}, [&] {
    sim.Adopt<TestProcess>(cluster, 3, "phase3",
                           [&](TestProcess& self) -> Task<void> {
      PmClient client(self, "$PMM");
      auto region = co_await client.Open("persistent");
      EXPECT_TRUE(region.ok()) << region.status().ToString();
      auto back = co_await region->Read(0, 4096);
      EXPECT_TRUE(back.ok()) << back.status().ToString();
      if (back.ok()) {
        EXPECT_EQ((*back)[0], std::byte{0xEE});
        EXPECT_EQ((*back)[4095], std::byte{0xEE});
        verified = true;
      }
    });
  });
  sim.RunUntil(SimTime{Seconds(10).ns});
  EXPECT_TRUE(verified) << "NPMU contents must survive power loss";
}

TEST_F(PmFixture, PmRecoveryIsFast) {
  // §3.4: fine-grained durable metadata avoids "costly heuristic
  // searching", giving short MTTR. PMM recovery = two metadata reads.
  sim.RunUntil(SimTime{Seconds(1).ns});
  pmm_p->Kill();
  sim.RunUntil(SimTime{Seconds(5).ns});
  ASSERT_TRUE(pmm_b->is_primary());
  EXPECT_LT(sim::ToMillisD(pmm_b->last_recovery_time()), 1.0)
      << "metadata recovery must be RDMA-fast (sub-millisecond)";
}

// ----------------------------------------------------------- PMP prototype

struct PmpFixture : ::testing::Test {
  // PMP on CPU 4 (the paper ran the PMP on a 5th CPU).
  PmpFixture()
      : sim(13), cluster(sim, MakeConfig()),
        plane(cluster, PmDeviceKind::kPmp, 1,
              NpmuConfig{.capacity_bytes = 8 << 20}) {
    plane.Start();
  }

  ~PmpFixture() override { sim.Shutdown(); }

  static nsk::ClusterConfig MakeConfig() {
    nsk::ClusterConfig c;
    c.num_cpus = 5;
    return c;
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  PmPlane plane;
  Pmp* pmp = plane.pmp();
  PmManager* pmm_p = plane.pmm();
  PmManager* pmm_b = plane.pmm_backup();
};

TEST_F(PmpFixture, PmpBehavesLikeNpmuOnTheWire) {
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    const SimTime t0 = self.sim().Now();
    EXPECT_TRUE((co_await region->Write(0, Fill(4096, 0x5D))).ok());
    const double us = sim::ToMicrosD(self.sim().Now() - t0);
    EXPECT_LT(us, 100.0) << "PMP must have NPMU-class latency";
    auto back = co_await region->Read(0, 4096);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ((*back)[0], std::byte{0x5D});
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

// ------------------------------------------------- concurrent writes

TEST_F(PmFixture, WriteScatterReportsDeadMirrorAndSucceedsOnSurvivor) {
  // Regression: WriteScatter used to swallow per-op mirror failures —
  // the PMM was never told and the whole scatter returned the error even
  // though every byte was durable on the survivor.
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 64 * 1024);
    EXPECT_TRUE(region.ok());
    npmu_b.Fail();
    std::vector<PmRegion::ScatterOp> ops;
    ops.push_back({0, Fill(64, 0x5A)});
    ops.push_back({4096, Fill(64, 0x5B)});
    ops.push_back({8192, Fill(64, 0x5C)});
    auto st = co_await region->WriteScatter(std::move(ops));
    EXPECT_TRUE(st.ok()) << "every op is durable on the survivor: "
                         << st.ToString();
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_FALSE(pmm_p->mirror_up()) << "dead mirror must be reported";
  EXPECT_EQ(npmu_a.data_memory()[8192], std::byte{0x5C});
}

TEST_F(PmFixture, AsyncTokenResolvingAfterADemotionReportsNothingMore) {
  // Two writes run concurrently in spawned fibers, as overlapping log
  // appends do, each awaited through its future. Both are posted under
  // the same roles to a primary that has died. The first resolves and
  // reports it; the second is posted once the PMM has committed that
  // demotion, before its reply refreshes the handle, and resolves after
  // the refresh — against a handle that already names the survivor as
  // primary. It must count the recorded demotion, not report the survivor
  // dead (which the PMM refuses, still committing).
  std::uint64_t commits = 0;
  std::uint32_t primary = 0;
  Status first, second;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 128 * 1024);
    EXPECT_TRUE(region.ok());
    auto committed = [&] {
      return sim.metrics().CounterValue("pmm.metadata_commits");
    };
    const std::uint64_t before = committed();
    npmu_a.Fail();  // the primary
    sim::Future<Status> small =
        sim::SpawnTask(self, region->Write(0, Fill(64, 0x01)));
    while (committed() == before) co_await self.Sleep(Microseconds(1));
    EXPECT_EQ(region->handle().primary_endpoint, npmu_a.id().value)
        << "posted under the old roles";
    sim::Future<Status> large =
        sim::SpawnTask(self, region->Write(4096, Fill(64 * 1024, 0x02)));
    first = co_await small.Wait(self);
    EXPECT_FALSE(large.ready()) << "the large write must resolve second";
    second = co_await large.Wait(self);
    commits = committed() - before;
    auto reopened = co_await client.Open("r1");  // the PMM's roles
    EXPECT_TRUE(reopened.ok());
    if (reopened.ok()) primary = reopened->handle().primary_endpoint;
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(primary, npmu_b.id().value) << "the survivor stays primary";
  EXPECT_FALSE(pmm_p->mirror_up());
  EXPECT_EQ(commits, 1u) << "one demotion, committed once";
  EXPECT_EQ(npmu_b.data_memory()[4096 + 64 * 1024 - 1], std::byte{0x02});
}

TEST_F(PmFixture, TokensResolvingBeforeTheFirstReportAcksReportOnce) {
  // Two concurrent writes in spawned fibers both resolve against a dead
  // primary before the first one's report is acked. The second awaits
  // that report instead of sending its own: one demotion, one metadata
  // commit.
  std::uint64_t commits = 0;
  Status first, second;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 128 * 1024);
    EXPECT_TRUE(region.ok());
    const std::uint64_t before =
        sim.metrics().CounterValue("pmm.metadata_commits");
    npmu_a.Fail();  // the primary
    sim::Future<Status> a =
        sim::SpawnTask(self, region->Write(0, Fill(64, 0x01)));
    sim::Future<Status> b =
        sim::SpawnTask(self, region->Write(4096, Fill(64, 0x02)));
    first = co_await a.Wait(self);
    second = co_await b.Wait(self);
    commits = sim.metrics().CounterValue("pmm.metadata_commits") - before;
  });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_FALSE(pmm_p->mirror_up());
  EXPECT_EQ(commits, 1u) << "one demotion, committed once";
  EXPECT_EQ(npmu_b.data_memory()[4096], std::byte{0x02});
}

// ------------------------------------------------- mirrored-write failover

// Every mirrored entry point resolves a dead device through the one
// write-failover rule (pm/client.h): the same status, survivor bytes and
// PMM role change, whichever call carried the write.
enum class Entry { kWrite, kWriteChain, kWriteScatter, kCommand };
enum class Failure { kMirrorDown, kPrimaryDown, kBothDown };

struct MirroredWriteFailover
    : PmFixture,
      ::testing::WithParamInterface<std::tuple<Entry, Failure>> {
  MirroredWriteFailover() : PmFixture(NpmuConfig{.active_commands = true}) {}
};

// Puts 0x5A on region bytes [0, 128) through `entry`. The device command
// moves a copy staged at [1024, 1152) down to 0.
Task<Status> WriteThrough(Entry entry, PmRegion& region) {
  std::vector<PmRegion::ScatterOp> halves;
  halves.push_back({0, Fill(64, 0x5A)});
  halves.push_back({64, Fill(64, 0x5A)});
  const std::uint64_t nva = region.handle().nva;
  switch (entry) {
    case Entry::kWrite:
      co_return co_await region.Write(0, Fill(128, 0x5A));
    case Entry::kWriteChain:
      co_return co_await region.WriteChain(std::move(halves));
    case Entry::kWriteScatter:
      co_return co_await region.WriteScatter(std::move(halves));
    case Entry::kCommand:
      co_return (co_await region.DeviceCommand(
                     kCmdCompactTo,
                     BuildCompactRequest(nva + 1024, nva, 128, nva + 2048,
                                         Fill(8, 0x01)),
                     /*mirrored=*/true))
          .status();
  }
  co_return Status(ErrorCode::kInternal, "unknown entry point");
}

TEST_P(MirroredWriteFailover, ResolvesThroughOneRule) {
  const auto [entry, failure] = GetParam();
  Status st;
  std::uint64_t commits = 0;
  RegionHandle roles;
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(1024, Fill(128, 0x5A))).ok());
    if (failure != Failure::kPrimaryDown) npmu_b.Fail();
    if (failure != Failure::kMirrorDown) npmu_a.Fail();
    const std::uint64_t before = sim.metrics().CounterValue("pmm.metadata_commits");
    st = co_await WriteThrough(entry, *region);
    commits = sim.metrics().CounterValue("pmm.metadata_commits") - before;
    auto reopened = co_await client.Open("r1");  // the PMM's roles
    EXPECT_TRUE(reopened.ok());
    if (reopened.ok()) roles = reopened->handle();
  });
  sim.RunUntil(SimTime{Seconds(5).ns});

  if (failure == Failure::kBothDown) {
    EXPECT_EQ(st.code(), ErrorCode::kUnavailable) << st.ToString();
    EXPECT_EQ(commits, 0u) << "a failed write must not demote anything";
    EXPECT_TRUE(pmm_p->mirror_up());
    EXPECT_EQ(roles.primary_endpoint, npmu_a.id().value);
    return;
  }
  Npmu& survivor = failure == Failure::kMirrorDown ? npmu_a : npmu_b;
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(commits, 1u) << "the dead device is reported exactly once";
  EXPECT_FALSE(pmm_p->mirror_up());
  EXPECT_EQ(roles.primary_endpoint, survivor.id().value);
  EXPECT_TRUE(std::all_of(survivor.data_memory(), survivor.data_memory() + 128,
                          [](std::byte b) { return b == std::byte{0x5A}; }));
}

std::string CellName(
    const ::testing::TestParamInfo<std::tuple<Entry, Failure>>& info) {
  static const char* const kEntries[] = {"Write", "WriteChain", "WriteScatter",
                                         "DeviceCommand"};
  static const char* const kFailures[] = {"MirrorDown", "PrimaryDown",
                                          "BothDown"};
  return std::string(kEntries[static_cast<int>(std::get<0>(info.param))]) +
         kFailures[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    EntryPointsByFailure, MirroredWriteFailover,
    ::testing::Combine(::testing::Values(Entry::kWrite, Entry::kWriteChain,
                                         Entry::kWriteScatter, Entry::kCommand),
                       ::testing::Values(Failure::kMirrorDown,
                                         Failure::kPrimaryDown,
                                         Failure::kBothDown)),
    CellName);

TEST_F(PmpFixture, PmpLosesContentsWhenItsProcessDies) {
  // The prototype gives "all of the performance characteristics of a
  // hardware NPMU except for the non-volatility" (§4.2).
  const std::uint64_t device_bytes = kMetadataBytes + pmp->capacity();
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    // Only the PMM's metadata has been written so far.
    EXPECT_EQ(ResidentPages(pmp->data_memory(), pmp->capacity()), 0u);
    EXPECT_LE(ResidentPages(pmp->metadata_memory(), device_bytes), 2u);
    PmClient client(self, "$PMM");
    auto region = co_await client.Create("r1", 4096);
    EXPECT_TRUE(region.ok());
    EXPECT_TRUE((co_await region->Write(0, Fill(4096, 0xAF))).ok());
    const std::size_t written =
        ResidentPages(pmp->data_memory(), pmp->capacity());
    EXPECT_GE(written, 1u);
    EXPECT_LE(written, 2u) << "a 4 KiB write straddles at most two pages";
    EXPECT_EQ(pmp->data_memory()[0], std::byte{0xAF});
    pmp->Kill();
    co_await self.Sleep(Milliseconds(10));
    EXPECT_EQ(ResidentPages(pmp->metadata_memory(), device_bytes), 0u)
        << "the wipe discards the pages instead of zero-filling them";
    EXPECT_TRUE(std::all_of(pmp->data_memory(), pmp->data_memory() + 4096,
                            [](std::byte b) { return b == std::byte{0}; }))
        << "PMP memory is volatile — contents die with the process";
  });
  sim.RunUntil(SimTime{Seconds(2).ns});
}

// ---------------------------------------------------------- device memory

// Device memory is zero-on-demand: a device sized far beyond what the
// logs touch costs host memory only for the pages actually written.
TEST(DeviceMemory, GibibyteNpmuCostsOnlyThePagesWritten) {
  sim::Simulation sim(17);
  nsk::Cluster cluster(sim, PmFixture::MakeConfig());
  Npmu npmu(cluster.fabric(), "npmu-big",
            NpmuConfig{.capacity_bytes = 1ull << 30});
  const std::uint64_t device_bytes = kMetadataBytes + npmu.capacity();
  EXPECT_EQ(ResidentPages(npmu.metadata_memory(), device_bytes), 0u);

  const std::uint64_t offset = 512ull << 20;
  net::AttWindow w;
  w.nva_base = kDataBase;
  w.length = npmu.capacity();
  w.memory = npmu.data_memory();
  ASSERT_TRUE(npmu.endpoint().MapWindow(std::move(w)).ok());
  sim.Adopt<TestProcess>(cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
    EXPECT_TRUE((co_await self.cpu().endpoint().Write(
                     self, npmu.id(), kDataBase + offset, Fill(4096, 0x3C)))
                    .ok());
  });
  sim.Run();
  sim.Shutdown();

  const std::size_t resident =
      ResidentPages(npmu.metadata_memory(), device_bytes);
  EXPECT_GE(resident, 1u);
  EXPECT_LE(resident, 2u);
  EXPECT_EQ(npmu.data_memory()[offset], std::byte{0x3C});
  EXPECT_EQ(npmu.data_memory()[offset + 4095], std::byte{0x3C});
}

// Device memory lives off the malloc heap, where ASan's redzones do not
// reach; guard pages make an off-by-one access fault in every build.
struct DeviceMemoryDeathTest : ::testing::Test {
  DeviceMemoryDeathTest()
      : sim(19), fabric(sim, net::FabricConfig{}),
        npmu(fabric, "npmu", NpmuConfig{.capacity_bytes = 1 << 20}) {}

  sim::Simulation sim;
  net::Fabric fabric;
  Npmu npmu;
};

TEST_F(DeviceMemoryDeathTest, WritePastDataAreaFaults) {
  volatile std::byte* past_end = npmu.data_memory() + npmu.capacity();
  EXPECT_DEATH(*past_end = std::byte{1}, "");
}

TEST_F(DeviceMemoryDeathTest, WriteBeforeMetadataAreaFaults) {
  volatile std::byte* before = npmu.metadata_memory() - 1;
  EXPECT_DEATH(*before = std::byte{1}, "");
}

}  // namespace
}  // namespace ods::pm
