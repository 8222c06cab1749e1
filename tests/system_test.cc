// Full-stack integration tests on the assembled Rig: ACID properties
// end-to-end, commit-latency structure (disk vs PM), failover during
// load, and whole-node power-loss recovery — the behaviours the paper's
// evaluation rests on.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "db/txn_client.h"
#include "sim/simulation.h"
#include "tp/kinds.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace ods::workload {
namespace {

using db::Transaction;
using db::TxnClient;
using sim::Microseconds;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

class App : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(App&)>;
  App(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

std::vector<std::byte> Value(std::uint8_t v, std::size_t n = 128) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

RigConfig DiskRig() {
  RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  return cfg;
}

RigConfig PmRig() {
  RigConfig cfg = DiskRig();
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  return cfg;
}

struct SystemTest : ::testing::Test {
  void Start(RigConfig cfg, std::uint64_t seed = 5) {
    rig.reset();  // the rig references the simulation; tear down in order
    sim.reset();
    sim = std::make_unique<sim::Simulation>(seed);
    rig = std::make_unique<Rig>(*sim, cfg);
    sim->RunFor(Seconds(1));  // let the stack come up
  }

  // Runs `body` inside a fresh app process and drives the sim until done.
  void RunApp(App::Body body, int cpu = 2) {
    done = false;
    sim->Adopt<App>(rig->cluster(), cpu, "app" + std::to_string(app_seq++),
                    [this, body = std::move(body)](App& self) -> Task<void> {
                      co_await body(self);
                      done = true;
                    });
    sim->RunFor(Seconds(300));
    EXPECT_TRUE(done) << "app did not finish";
  }

  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<Rig> rig;
  bool done = false;
  int app_seq = 0;
};

// ------------------------------------------------------------------- ACID

TEST_F(SystemTest, CommitThenReadBack) {
  Start(DiskRig());
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto txn = co_await client.Begin();
    EXPECT_TRUE(txn.ok()) << txn.status().ToString();
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 100, Value(0xAA))).ok());
    EXPECT_TRUE((co_await client.Insert(*txn, 1, 200, Value(0xBB))).ok());
    EXPECT_TRUE((co_await client.Commit(*txn)).ok());

    auto txn2 = co_await client.Begin();
    EXPECT_TRUE(txn2.ok());
    auto v = co_await client.Read(*txn2, 0, 100);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    if (v.ok()) {
      EXPECT_EQ((*v)[0], std::byte{0xAA});
    }
    auto v2 = co_await client.Read(*txn2, 1, 200);
    EXPECT_TRUE(v2.ok());
    if (v2.ok()) {
      EXPECT_EQ((*v2)[0], std::byte{0xBB});
    }
    EXPECT_TRUE((co_await client.Commit(*txn2)).ok());
  });
}

TEST_F(SystemTest, AbortUndoesAllWrites) {
  Start(DiskRig());
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    // Baseline value.
    auto setup = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*setup, 0, 1, Value(0x11))).ok());
    EXPECT_TRUE((co_await client.Commit(*setup)).ok());
    // Overwrite + fresh insert, then abort.
    auto txn = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 1, Value(0x22))).ok());
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 2, Value(0x33))).ok());
    EXPECT_TRUE((co_await client.Abort(*txn)).ok());
    // Old value restored; new key gone.
    auto check = co_await client.Begin();
    auto v = co_await client.Read(*check, 0, 1);
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ((*v)[0], std::byte{0x11});
    }
    auto missing = co_await client.Read(*check, 0, 2);
    EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
    EXPECT_TRUE((co_await client.Commit(*check)).ok());
  });
}

TEST_F(SystemTest, IsolationWriterBlocksWriter) {
  Start(DiskRig());
  SimTime t_second_commit{};
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 7, Value(0x01))).ok());
    // Second transaction in a sibling fiber contends on the same key.
    self.SpawnFiber([](App& app, Rig& r, SimTime& out) -> Task<void> {
      TxnClient c2(app, r.catalog());
      auto t2 = co_await c2.Begin();
      EXPECT_TRUE((co_await c2.Insert(*t2, 0, 7, Value(0x02))).ok());
      EXPECT_TRUE((co_await c2.Commit(*t2)).ok());
      out = app.sim().Now();
    }(self, *rig, t_second_commit));
    co_await self.Sleep(Milliseconds(100));  // hold the lock a while
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    co_await self.Sleep(Milliseconds(200));  // let t2 finish
    // Final value is t2's (it committed last).
    auto check = co_await client.Begin();
    auto v = co_await client.Read(*check, 0, 7);
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ((*v)[0], std::byte{0x02});
    }
    EXPECT_TRUE((co_await client.Commit(*check)).ok());
  });
  EXPECT_GE(t_second_commit.ns, Milliseconds(100).ns)
      << "the conflicting writer must wait for the lock";
}

TEST_F(SystemTest, LockConflictTimesOutAsAbort) {
  Start(DiskRig());
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 9, Value(1))).ok());
    // A second txn hits the same key and holds no patience: DP2's lock
    // timeout fires and the insert reports kAborted.
    auto t2 = co_await client.Begin();
    auto st = co_await client.Insert(*t2, 0, 9, Value(2));
    EXPECT_EQ(st.code(), ErrorCode::kAborted);
    (void)co_await client.Abort(*t2);
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
  });
}

// --------------------------------------------------- commit latency shape

TEST_F(SystemTest, DiskCommitIsMillisecondsPmCommitIsSubMillisecond) {
  auto measure = [&](RigConfig cfg) {
    Start(cfg);
    double commit_ms = 0;
    RunApp([&](App& self) -> Task<void> {
      TxnClient client(self, rig->catalog());
      auto txn = co_await client.Begin();
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE((co_await client.Insert(
                         *txn, static_cast<std::uint32_t>(i % 2),
                         static_cast<std::uint64_t>(1000 + i), Value(1, 4096)))
                        .ok());
      }
      const SimTime t0 = self.sim().Now();
      EXPECT_TRUE((co_await client.Commit(*txn)).ok());
      commit_ms = sim::ToMillisD(self.sim().Now() - t0);
    });
    return commit_ms;
  };
  const double disk_ms = measure(DiskRig());
  const double pm_ms = measure(PmRig());
  EXPECT_GT(disk_ms, 2.0) << "disk commit pays rotational latency";
  EXPECT_LT(pm_ms, 1.5) << "PM commit is RDMA-fast";
  EXPECT_GT(disk_ms, pm_ms * 3) << "the paper's headline effect";
}

// --------------------------------------------------------------- failover

TEST_F(SystemTest, AdpFailoverLosesNoCommittedData) {
  Start(PmRig());
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    // Commit a batch, kill an ADP primary mid-run, keep committing.
    for (int round = 0; round < 3; ++round) {
      auto txn = co_await client.Begin();
      EXPECT_TRUE(txn.ok());
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE((co_await client.Insert(
                         *txn, 0,
                         static_cast<std::uint64_t>(round * 10 + i),
                         Value(static_cast<std::uint8_t>(round + 1))))
                        .ok());
      }
      EXPECT_TRUE((co_await client.Commit(*txn)).ok());
      if (round == 0) rig->KillAdpPrimary(0);
    }
    // Everything committed must read back.
    auto check = co_await client.Begin();
    for (int round = 0; round < 3; ++round) {
      auto v = co_await client.Read(*check,
                                    0, static_cast<std::uint64_t>(round * 10));
      EXPECT_TRUE(v.ok()) << "round " << round << ": "
                          << v.status().ToString();
    }
    EXPECT_TRUE((co_await client.Commit(*check)).ok());
  });
}

TEST_F(SystemTest, TmfFailoverServiceContinues) {
  Start(DiskRig());
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1, Value(1))).ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    rig->KillTmfPrimary();
    // New transactions must work once the backup takes over.
    auto t2 = co_await client.Begin();
    EXPECT_TRUE(t2.ok()) << t2.status().ToString();
    EXPECT_TRUE((co_await client.Insert(*t2, 0, 2, Value(2))).ok());
    EXPECT_TRUE((co_await client.Commit(*t2)).ok());
  });
}

// ------------------------------------------------------------- durability

TEST_F(SystemTest, PowerLossKeepsCommittedDropsUncommittedPm) {
  Start(PmRig());
  // Phase 1: one committed txn, one left in flight.
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto committed = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*committed, 0, 500, Value(0xC0))).ok());
    EXPECT_TRUE((co_await client.Commit(*committed)).ok());
    auto in_flight = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*in_flight, 0, 600, Value(0xBD))).ok());
    // ... no commit: power fails now.
  });
  rig->PowerLoss();
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(20));

  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto check = co_await client.Begin();
    EXPECT_TRUE(check.ok()) << check.status().ToString();
    auto v = co_await client.Read(*check, 0, 500);
    EXPECT_TRUE(v.ok()) << "committed data lost: " << v.status().ToString();
    if (v.ok()) {
      EXPECT_EQ((*v)[0], std::byte{0xC0});
    }
    auto missing = co_await client.Read(*check, 0, 600);
    EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound)
        << "uncommitted data must not survive";
    EXPECT_TRUE((co_await client.Commit(*check)).ok());
  }, /*cpu=*/3);
}

TEST_F(SystemTest, PowerLossKeepsCommittedDropsUncommittedDisk) {
  Start(DiskRig());
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto committed = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*committed, 0, 500, Value(0xC0))).ok());
    EXPECT_TRUE((co_await client.Commit(*committed)).ok());
    auto in_flight = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*in_flight, 0, 600, Value(0xBD))).ok());
  });
  rig->PowerLoss();
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));

  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto check = co_await client.Begin();
    EXPECT_TRUE(check.ok());
    auto v = co_await client.Read(*check, 0, 500);
    EXPECT_TRUE(v.ok()) << "committed data lost: " << v.status().ToString();
    auto missing = co_await client.Read(*check, 0, 600);
    EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
    EXPECT_TRUE((co_await client.Commit(*check)).ok());
  }, /*cpu=*/3);
}

// ----------------------------------------- crash inside the flush window

// A DP2 writes committed records to its data volume only every
// flush_interval (250 ms). A crash inside that window must lose no acked
// commit: recovery redoes them from the durable trail, read off the log
// device. Each row commits kAcked transactions with one more left in
// flight, then crashes in the same sim instant the last commit acks.
enum class TrailRig { kDisk, kPm, kPmTwoShards };

RigConfig MakeTrailRig(TrailRig kind) {
  if (kind == TrailRig::kDisk) return DiskRig();
  RigConfig cfg = PmRig();
  if (kind == TrailRig::kPmTwoShards) cfg.num_pm_shards = 2;
  return cfg;
}

struct FlushWindowCrash : SystemTest,
                          ::testing::WithParamInterface<TrailRig> {
  static constexpr int kAcked = 6;
  static constexpr std::uint64_t kInFlightKey = 600;

  static std::uint32_t FileOf(int i) {
    return static_cast<std::uint32_t>(i % 2);
  }
  static std::uint64_t KeyOf(int i) {
    return 700 + static_cast<std::uint64_t>(i);
  }

  // Leaves one transaction in flight, commits kAcked more, and calls
  // `crash` the instant the last commit acks.
  void CommitThenCrash(std::function<void()> crash) {
    RunApp([&](App& self) -> Task<void> {
      TxnClient client(self, rig->catalog());
      auto in_flight = co_await client.Begin();
      EXPECT_TRUE((co_await client.Insert(*in_flight, 0, kInFlightKey,
                                          Value(0xBD)))
                      .ok());
      for (int i = 0; i < kAcked; ++i) {
        auto txn = co_await client.Begin();
        EXPECT_TRUE((co_await client.Insert(
                         *txn, FileOf(i), KeyOf(i),
                         Value(static_cast<std::uint8_t>(i + 1))))
                        .ok());
        EXPECT_TRUE((co_await client.Commit(*txn)).ok());
      }
      std::uint64_t flushed = 0;
      for (auto* v : rig->data_volumes()) flushed += v->bytes_written();
      EXPECT_EQ(flushed, 0u) << "the crash must land inside the flush window";
      crash();
    });
  }

  // Reads back every acked key served by `dp2_service` (every DP2 when
  // empty) and the in-flight key, which must not exist.
  void ExpectAckedOnly(const std::string& dp2_service = "") {
    RunApp([&](App& self) -> Task<void> {
      TxnClient client(self, rig->catalog());
      auto check = co_await client.Begin();
      EXPECT_TRUE(check.ok()) << check.status().ToString();
      int read = 0;
      for (int i = 0; i < kAcked; ++i) {
        if (!dp2_service.empty() &&
            rig->catalog().Route(FileOf(i), KeyOf(i)).dp2_service !=
                dp2_service) {
          continue;
        }
        ++read;
        auto v = co_await client.Read(*check, FileOf(i), KeyOf(i));
        EXPECT_TRUE(v.ok()) << "acked txn " << i << " lost: "
                            << v.status().ToString();
        if (v.ok()) {
          EXPECT_EQ((*v)[0], static_cast<std::byte>(i + 1));
        }
      }
      EXPECT_GT(read, 0) << dp2_service << " serves no acked key";
      if (dp2_service.empty() ||
          rig->catalog().Route(0, kInFlightKey).dp2_service == dp2_service) {
        auto missing = co_await client.Read(*check, 0, kInFlightKey);
        EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound)
            << "uncommitted data must not survive";
      }
      EXPECT_TRUE((co_await client.Commit(*check)).ok());
    }, /*cpu=*/3);
  }
};

TEST_P(FlushWindowCrash, PowerLossKeepsEveryAckedCommit) {
  Start(MakeTrailRig(GetParam()));
  CommitThenCrash([&] { rig->PowerLoss(); });
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));
  ExpectAckedOnly();
}

TEST_P(FlushWindowCrash, Dp2PairRestartRedoesFromTheLiveTrail) {
  // The ADPs stay up: the restarted DP2 pair redoes from the trail its
  // ADP reads off the live log device, with no cold recovery.
  Start(MakeTrailRig(GetParam()));
  tp::Dp2Process* primary = rig->dp2s().front();
  auto* backup = primary->peer();
  CommitThenCrash([&] {
    primary->Kill();
    backup->Kill();
  });
  primary->Restart();
  backup->Restart();
  sim->RunFor(Seconds(30));
  ExpectAckedOnly(primary->service_name());
}

INSTANTIATE_TEST_SUITE_P(
    Rigs, FlushWindowCrash,
    ::testing::Values(TrailRig::kDisk, TrailRig::kPm, TrailRig::kPmTwoShards),
    [](const ::testing::TestParamInfo<TrailRig>& cell) -> std::string {
      switch (cell.param) {
        case TrailRig::kDisk: return "Disk";
        case TrailRig::kPm: return "Pm";
        case TrailRig::kPmTwoShards: return "PmTwoShards";
      }
      return "";
    });

// ------------------------------------------------------------- hot stock

TEST_F(SystemTest, HotStockSmokePmBeatsDisk) {
  HotStockConfig hs;
  hs.drivers = 2;
  hs.inserts_per_txn = 8;
  hs.records_per_driver = 200;

  Start(DiskRig());
  auto disk_result = RunHotStock(*rig, hs);
  EXPECT_EQ(disk_result.TotalCommitted(), 2u * 200u / 8u);

  RigConfig pm_cfg = PmRig();
  pm_cfg.pm_device = PmDeviceKind::kPmp;  // the paper's prototype setup
  Start(pm_cfg);
  auto pm_result = RunHotStock(*rig, hs);
  EXPECT_EQ(pm_result.TotalCommitted(), 2u * 200u / 8u);

  EXPECT_LT(pm_result.elapsed_seconds, disk_result.elapsed_seconds)
      << "PM must beat disk on the hot-stock workload";
  EXPECT_GT(disk_result.MeanResponseUs(), pm_result.MeanResponseUs());
}

}  // namespace
}  // namespace ods::workload
