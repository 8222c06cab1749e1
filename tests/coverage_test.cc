// Tests for paths not covered by the module suites: catalog routing,
// Halt/fiber primitives, rail restoration, rig persistence accounting,
// resilver error paths, and client-API bounds.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "db/catalog.h"
#include "db/txn_client.h"
#include "net/fabric.h"
#include "pm/client.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace ods {
namespace {

using sim::Microseconds;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

// ---------------------------------------------------------------- catalog

TEST(CatalogTest, RoutingIsStableAndCoversAllPartitions) {
  db::Catalog catalog(4, 4);
  for (int f = 0; f < 4; ++f) {
    for (int p = 0; p < 4; ++p) {
      catalog.SetRoute(f, p, db::PartitionRoute{db::Catalog::Dp2Name(f, p),
                                                db::Catalog::AdpName(p)});
    }
  }
  // Stability: the same key always routes to the same partition.
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(catalog.Route(1, key).dp2_service,
              catalog.Route(1, key).dp2_service);
  }
  // Coverage: sequential keys spread across every partition of a file.
  std::set<std::string> hit;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    hit.insert(catalog.Route(2, key).dp2_service);
  }
  EXPECT_EQ(hit.size(), 4u) << "hash must use all partitions";
  // Different files route independently (names differ).
  EXPECT_NE(catalog.Route(0, 5).dp2_service, catalog.Route(1, 5).dp2_service);
}

TEST(CatalogTest, CanonicalNames) {
  EXPECT_EQ(db::Catalog::Dp2Name(2, 3), "$DP-F2-P3");
  EXPECT_EQ(db::Catalog::AdpName(1), "$ADP1");
}

// ------------------------------------------------------------- sim extras

class LambdaProcess : public sim::Process {
 public:
  using Body = std::function<Task<void>(LambdaProcess&)>;
  LambdaProcess(sim::Simulation& sim, std::string name, Body body)
      : Process(sim, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

TEST(SimExtrasTest, HaltSuspendsUntilKill) {
  sim::Simulation sim;
  bool unwound = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  auto& p = sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    Sentinel s{&unwound};
    co_await self.Halt();
  });
  sim.RunUntil(SimTime{Seconds(100).ns});
  EXPECT_TRUE(p.alive()) << "Halt must not exit on its own";
  EXPECT_EQ(sim.Now(), SimTime{Seconds(100).ns});
  p.Kill();
  sim.RunUntil(SimTime{Seconds(101).ns});
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(p.finished());
}

TEST(SimExtrasTest, HaltSchedulesNoEvents) {
  // A halted process must leave the event queue empty (unlike a sleep
  // loop, which would tick forever).
  sim::Simulation sim;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    co_await self.Halt();
  });
  EXPECT_EQ(sim.Run(), 0u) << "no events should be pending";
}

TEST(SimExtrasTest, SpawnStoppedDoesNotRunUntilStart) {
  sim::Simulation sim;
  bool ran = false;
  auto& p = sim.SpawnStopped<LambdaProcess>(
      "s", [&](LambdaProcess&) -> Task<void> {
        ran = true;
        co_return;
      });
  sim.Run();
  EXPECT_FALSE(ran);
  p.Start();
  sim.Run();
  EXPECT_TRUE(ran);
}

// ---------------------------------------------------------------- fabric

TEST(FabricExtrasTest, RailRestorationResumesPreferredPath) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  EXPECT_EQ(fabric.FirstHealthyRail(), 0);
  fabric.SetRailDown(0, true);
  EXPECT_EQ(fabric.FirstHealthyRail(), 1);
  fabric.SetRailDown(1, true);
  EXPECT_EQ(fabric.FirstHealthyRail(), -1);
  fabric.SetRailDown(0, false);
  EXPECT_EQ(fabric.FirstHealthyRail(), 0);
  EXPECT_TRUE(fabric.RailUp(0));
  EXPECT_FALSE(fabric.RailUp(1));
}

TEST(FabricExtrasTest, TransferTimeScalesWithSize) {
  sim::Simulation sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  const auto t1 = fabric.TransferTime(512);
  const auto t64 = fabric.TransferTime(64 * 1024);
  EXPECT_GT(t64.ns, t1.ns * 50);
  EXPECT_GT(fabric.TransferTime(0).ns, 0) << "even empty transfers packetize";
}

TEST(FabricExtrasTest, BytesAccountingTracksCompletedTransfers) {
  sim::Simulation sim(5);
  net::Fabric fabric(sim, net::FabricConfig{});
  std::vector<std::byte> mem(8192);
  net::Endpoint& dev = fabric.CreateEndpoint("dev");
  net::AttWindow w;
  w.nva_base = 0;
  w.length = mem.size();
  w.memory = mem.data();
  ASSERT_TRUE(dev.MapWindow(std::move(w)).ok());
  net::Endpoint& host = fabric.CreateEndpoint("host");
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await host.Write(self, dev.id(), 0,
                              std::vector<std::byte>(4096, std::byte{1}));
    (void)co_await host.Read(self, dev.id(), 0, 2048);
  });
  sim.Run();
  EXPECT_EQ(fabric.bytes_transferred(), 4096u + 2048u);
  EXPECT_GT(fabric.packets_sent(), 8u);  // 4096/512 + 2048/512 at least
}

// --------------------------------------------------------- rig accounting

TEST(RigAccountingTest, PmModeShiftsAuditBytesOffDisk) {
  auto run = [](bool pm) {
    sim::Simulation sim(7);
    workload::RigConfig cfg;
    cfg.num_files = 2;
    cfg.partitions_per_file = 2;
    cfg.num_adps = 2;
    if (pm) {
      cfg.log_medium = tp::LogMedium::kPm;
      cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
    }
    workload::Rig rig(sim, cfg);
    sim.RunFor(Seconds(1));
    workload::HotStockConfig hs;
    hs.drivers = 1;
    hs.inserts_per_txn = 4;
    hs.records_per_driver = 100;
    (void)workload::RunHotStock(rig, hs);
    sim.RunFor(Seconds(2));  // drain background flushers
    return rig.Account();
  };
  const auto disk = run(false);
  const auto pm = run(true);
  const std::uint64_t user_bytes = 100 * 4096;
  EXPECT_GT(disk.disk_bytes_written, user_bytes * 3 / 2)
      << "disk mode writes data AND audit to disk";
  EXPECT_EQ(disk.pm_bytes_written, 0u);
  EXPECT_GT(pm.pm_bytes_written, user_bytes)
      << "PM mode carries the audit (mirrored)";
  EXPECT_LT(pm.disk_bytes_written, disk.disk_bytes_written);
  EXPECT_GT(disk.checkpoint_bytes, user_bytes)
      << "process pairs checkpoint every insert";
  EXPECT_GT(disk.audit_flushes, 0u);
}

// ------------------------------------------------------------- pm client

class AppProcess : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(AppProcess&)>;
  AppProcess(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

TEST(PmClientExtrasTest, ResilverOnUnmirroredVolumeRejected) {
  // The PMP prototype is a single device: resilvering is meaningless.
  sim::Simulation sim(9);
  workload::RigConfig cfg;
  cfg.num_files = 1;
  cfg.partitions_per_file = 1;
  cfg.num_adps = 1;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kPmp;
  workload::Rig rig(sim, cfg);
  sim.RunFor(Seconds(1));
  Status st;
  bool done = false;
  sim.Adopt<AppProcess>(rig.cluster(), 2, "app",
                        [&](AppProcess& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto r = co_await client.Resilver();
    st = r.status();
    done = true;
  });
  sim.RunFor(Seconds(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
}

TEST(PmClientExtrasTest, WriteScatterRejectsOutOfBounds) {
  sim::Simulation sim(11);
  workload::RigConfig cfg;
  cfg.num_files = 1;
  cfg.partitions_per_file = 1;
  cfg.num_adps = 1;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  workload::Rig rig(sim, cfg);
  sim.RunFor(Seconds(1));
  bool done = false;
  sim.Adopt<AppProcess>(rig.cluster(), 2, "app",
                        [&](AppProcess& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("r", 4096);
    EXPECT_TRUE(region.ok());
    std::vector<pm::PmRegion::ScatterOp> ops;
    ops.push_back({0, std::vector<std::byte>(64, std::byte{1})});
    ops.push_back({4090, std::vector<std::byte>(64, std::byte{2})});  // over
    auto st = co_await region->WriteScatter(std::move(ops));
    EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
    // Every op is validated before any is posted: the in-range op 0 must
    // not land on either NPMU behind the rejected call.
    co_await self.Sleep(Milliseconds(1));
    net::Endpoint& ep = self.cpu().endpoint();
    for (std::uint32_t dev : {region->handle().primary_endpoint,
                              region->handle().mirror_endpoint}) {
      auto back = co_await ep.Read(self, net::EndpointId{dev},
                                   region->handle().nva, 64);
      EXPECT_TRUE(back.status.ok()) << back.status.ToString();
      EXPECT_EQ(back.data, std::vector<std::byte>(64)) << "device " << dev;
    }
    done = true;
  });
  sim.RunFor(Seconds(30));
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------- channel

TEST(ChannelExtrasTest, ReceiveForGetsValueArrivingJustInTime) {
  sim::Simulation sim;
  sim::Channel<int> ch(sim);
  std::optional<int> got;
  sim.Spawn<LambdaProcess>("r", [&](LambdaProcess& self) -> Task<void> {
    got = co_await ch.ReceiveFor(self, Milliseconds(10));
  });
  sim.Schedule(SimTime{Milliseconds(10).ns - 1}, [&] { ch.Send(5); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
}

TEST(ChannelExtrasTest, SizeAndEmptyReflectBuffering) {
  sim::Simulation sim;
  sim::Channel<int> ch(sim);
  EXPECT_TRUE(ch.empty());
  ch.Send(1);
  ch.Send(2);
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_FALSE(ch.empty());
}

}  // namespace
}  // namespace ods
