// Full-stack integration tests on the assembled Rig: ACID properties
// end-to-end, commit-latency structure (disk vs PM), failover during
// load, and whole-node power-loss recovery — the behaviours the paper's
// evaluation rests on.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "db/txn_client.h"
#include "sim/simulation.h"
#include "tp/audit.h"
#include "tp/kinds.h"
#include "workload/history.h"
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

using App = nsk::AppProcess;

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
  History history;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    // Commit a batch, kill an ADP primary mid-run, keep committing.
    for (int round = 0; round < 3; ++round) {
      auto txn = co_await client.Begin();
      EXPECT_TRUE(txn.ok());
      const std::size_t h = history.Begin();
      for (int i = 0; i < 4; ++i) {
        const auto key = static_cast<std::uint64_t>(round * 10 + i);
        const auto value = Value(static_cast<std::uint8_t>(round + 1));
        history.Write(h, 0, key, value);
        EXPECT_TRUE((co_await client.Insert(*txn, 0, key, value)).ok());
      }
      EXPECT_TRUE((co_await history.Commit(h, client, *txn)).ok());
      if (round == 0) rig->KillAdpPrimary(0);
    }
  });
  // Everything committed must read back.
  for (const std::string& v : history.Check(*rig)) ADD_FAILURE() << v;
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

// A DP2 writes committed records to its data volume only every
// flush_interval (250 ms). A crash inside that window must lose no acked
// commit: recovery redoes them from the durable trail, read off the log
// device. A crash after the flush is the volume-baseline case. Each row
// leaves one transaction in flight, aborts one, commits kAcked more and
// crashes either in the same sim instant the last commit acks or once the
// flush has landed; the history then checks every key.
enum class TrailRig : std::uint16_t { kDisk, kPm, kPmTwoShards };
enum class CrashPoint : std::uint16_t { kInFlushWindow, kAfterFlush };

// gtest names a row by its bytes: an in-window row prints exactly as its
// rig alone, so those ctest names stay put.
struct FlushRow {
  TrailRig rig;
  CrashPoint crash;
};

RigConfig MakeTrailRig(TrailRig kind) {
  if (kind == TrailRig::kDisk) return DiskRig();
  RigConfig cfg = PmRig();
  if (kind == TrailRig::kPmTwoShards) cfg.num_pm_shards = 2;
  return cfg;
}

struct FlushWindowCrash : SystemTest,
                          ::testing::WithParamInterface<FlushRow> {
  static constexpr int kAcked = 6;
  static constexpr std::uint64_t kInFlightKey = 600;
  static constexpr std::uint64_t kAbortedKey = 650;

  static std::uint32_t FileOf(int i) {
    return static_cast<std::uint32_t>(i % 2);
  }
  static std::uint64_t KeyOf(int i) {
    return 700 + static_cast<std::uint64_t>(i);
  }

  // Leaves one transaction in flight, aborts one (its update and abort
  // record ride the next commit's flush), commits kAcked more, and calls
  // `crash` at the row's crash point.
  void CommitThenCrash(const std::function<void()>& crash) {
    const bool in_window = GetParam().crash == CrashPoint::kInFlushWindow;
    auto flushed = [&] {
      std::uint64_t bytes = 0;
      for (auto* v : rig->data_volumes()) bytes += v->bytes_written();
      return bytes;
    };
    RunApp([&](App& self) -> Task<void> {
      TxnClient client(self, rig->catalog());
      auto in_flight = co_await client.Begin();
      history.Write(history.Begin(), 0, kInFlightKey, Value(0xBD));
      EXPECT_TRUE((co_await client.Insert(*in_flight, 0, kInFlightKey,
                                          Value(0xBD)))
                      .ok());
      auto aborted = co_await client.Begin();
      history.Write(history.Begin(), 1, kAbortedKey, Value(0xAB));
      EXPECT_TRUE(
          (co_await client.Insert(*aborted, 1, kAbortedKey, Value(0xAB))).ok());
      EXPECT_TRUE((co_await client.Abort(*aborted)).ok());
      for (int i = 0; i < kAcked; ++i) {
        auto txn = co_await client.Begin();
        const std::size_t h = history.Begin();
        const auto value = Value(static_cast<std::uint8_t>(i + 1));
        history.Write(h, FileOf(i), KeyOf(i), value);
        EXPECT_TRUE(
            (co_await client.Insert(*txn, FileOf(i), KeyOf(i), value)).ok());
        EXPECT_TRUE((co_await history.Commit(h, client, *txn)).ok());
      }
      if (in_window) {
        EXPECT_EQ(flushed(), 0u)
            << "the crash must land inside the flush window";
        crash();
      }
    });
    if (!in_window) {
      EXPECT_GT(flushed(), 0u) << "the crash must land after the flush";
      // Crash from an app, as in the window, so the victims have unwound
      // before a test restarts them.
      RunApp([&](App&) -> Task<void> {
        crash();
        co_return;
      });
    }
  }

  void ExpectHistoryHolds() {
    for (const std::string& v : history.Check(*rig)) ADD_FAILURE() << v;
  }

  History history;
};

TEST_P(FlushWindowCrash, PowerLossKeepsEveryAckedCommit) {
  Start(MakeTrailRig(GetParam().rig));
  CommitThenCrash([&] { rig->PowerLoss(); });
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));
  ExpectHistoryHolds();
}

TEST_P(FlushWindowCrash, Dp2PairRestartRedoesFromTheLiveTrail) {
  // The ADPs stay up: the restarted DP2 pair redoes from the trail its
  // ADP reads off the live log device, with no cold recovery.
  Start(MakeTrailRig(GetParam().rig));
  tp::Dp2Process* primary = rig->dp2s().front();
  auto* backup = primary->peer();
  int served = 0;
  for (int i = 0; i < kAcked; ++i) {
    served += rig->catalog().Route(FileOf(i), KeyOf(i)).dp2_service ==
              primary->service_name();
  }
  EXPECT_GT(served, 0) << primary->service_name() << " serves no acked key";
  CommitThenCrash([&] {
    primary->Kill();
    backup->Kill();
  });
  primary->Restart();
  backup->Restart();
  sim->RunFor(Seconds(30));
  ExpectHistoryHolds();
}

INSTANTIATE_TEST_SUITE_P(
    Rigs, FlushWindowCrash,
    ::testing::Values(FlushRow{TrailRig::kDisk, CrashPoint::kInFlushWindow},
                      FlushRow{TrailRig::kPm, CrashPoint::kInFlushWindow},
                      FlushRow{TrailRig::kPmTwoShards,
                               CrashPoint::kInFlushWindow},
                      FlushRow{TrailRig::kDisk, CrashPoint::kAfterFlush},
                      FlushRow{TrailRig::kPm, CrashPoint::kAfterFlush},
                      FlushRow{TrailRig::kPmTwoShards, CrashPoint::kAfterFlush}),
    [](const ::testing::TestParamInfo<FlushRow>& cell) -> std::string {
      std::string name;
      switch (cell.param.rig) {
        case TrailRig::kDisk: name = "Disk"; break;
        case TrailRig::kPm: name = "Pm"; break;
        case TrailRig::kPmTwoShards: name = "PmTwoShards"; break;
      }
      if (cell.param.crash == CrashPoint::kAfterFlush) name += "AfterFlush";
      return name;
    });

// Concurrent committers share log-writer appends: a commit's flush can
// arrive while an append that does not hold its records is in flight. It
// must be acked only once its own records are durable. Eight drivers
// commit on every trail rig, the driver that receives the last ack cuts
// the power in that instant, and then every acked commit must be in the
// master trail and every contract must hold.
struct ConcurrentCommitCrash : SystemTest,
                               ::testing::WithParamInterface<TrailRig> {
  static constexpr int kDrivers = 8;
  static constexpr int kTxnsPerDriver = 250;

  // Distinct txn ids with a commit record in the master trail's durable
  // log.
  std::size_t MasterTrailCommits() {
    std::set<std::uint64_t> committed;
    RunApp([&](App& self) -> Task<void> {
      auto log = co_await self.Call(db::Catalog::AdpName(0), tp::kAdpReadLog,
                                    {});
      EXPECT_TRUE(log.ok() && log->status.ok()) << "master trail unreadable";
      if (!log.ok()) co_return;
      tp::LogScanner scan(log->payload);
      while (auto rec = scan.Next()) {
        if (rec->type == tp::AuditType::kCommit) committed.insert(rec->txn);
      }
    });
    return committed.size();
  }
};

TEST_P(ConcurrentCommitCrash, PowerLossAtTheLastAckLosesNothing) {
  Start(MakeTrailRig(GetParam()));
  History history;
  int finished = 0;
  for (int d = 0; d < kDrivers; ++d) {
    sim->Adopt<App>(
        rig->cluster(), d % rig->config().num_cpus,
        "driver" + std::to_string(d), [&, d](App& self) -> Task<void> {
          TxnClient client(self, rig->catalog());
          const auto file = static_cast<std::uint32_t>(d % 2);
          for (int i = 0; i < kTxnsPerDriver; ++i) {
            auto txn = co_await client.Begin();
            EXPECT_TRUE(txn.ok()) << txn.status().ToString();
            if (!txn.ok()) continue;
            const std::size_t h = history.Begin();
            const auto key =
                static_cast<std::uint64_t>(d * kTxnsPerDriver + i);
            const auto value = Value(static_cast<std::uint8_t>(i + 1));
            history.Write(h, file, key, value);
            EXPECT_TRUE((co_await client.Insert(*txn, file, key, value)).ok());
            EXPECT_TRUE((co_await history.Commit(h, client, *txn)).ok());
          }
          // Every other driver has had its last reply: this ack was the
          // run's last.
          if (++finished == kDrivers) rig->PowerLoss();
        });
  }
  for (int s = 0; s < 300 && finished < kDrivers; ++s) sim->RunFor(Seconds(1));
  ASSERT_EQ(finished, kDrivers) << "drivers did not finish";
  EXPECT_EQ(history.acked(),
            static_cast<std::size_t>(kDrivers * kTxnsPerDriver));
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));
  EXPECT_EQ(MasterTrailCommits(), history.acked())
      << "the master trail misses acked commits";
  for (const std::string& v : history.Check(*rig)) ADD_FAILURE() << v;
}

INSTANTIATE_TEST_SUITE_P(
    Rigs, ConcurrentCommitCrash,
    ::testing::Values(TrailRig::kDisk, TrailRig::kPm, TrailRig::kPmTwoShards),
    [](const ::testing::TestParamInfo<TrailRig>& cell) -> std::string {
      switch (cell.param) {
        case TrailRig::kDisk: return "Disk";
        case TrailRig::kPm: return "Pm";
        case TrailRig::kPmTwoShards: return "PmTwoShards";
      }
      return "";
    });

// A failed append leaves its bytes buffered, to be re-written at the same
// offset by the next one. Here every RDMA packet is corrupt for a while:
// the append written behind a rider's update fails, and so does a commit
// on the same trail. Once the fabric is clean the rider and later
// transactions commit on that trail, and a power loss then loses none of
// them — the rider's update included, though the append it first rode
// failed. The refused commit's record is kept too and may land with the
// rider's, so the refusal must not be a definite abort: History counts a
// kAborted answer as one, and then its key may not show. On the sharded
// rig the next append also fills the hole the failed one left in the
// striped log.
struct FailedAppend : SystemTest, ::testing::WithParamInterface<TrailRig> {};

TEST_P(FailedAppend, KeepsItsRecordsForTheNext) {
  Start(MakeTrailRig(GetParam()));
  History history;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto record = [&](std::uint64_t key, std::uint8_t v) {
      const std::size_t h = history.Begin();
      history.Write(h, 0, key, Value(v));
      return h;
    };
    auto rider = co_await client.Begin();
    const std::size_t r = record(900, 0x71);
    net::Fabric& fabric = rig->cluster().fabric();
    fabric.SetCorruptionRate(1.0);
    EXPECT_TRUE((co_await client.Insert(*rider, 0, 900, Value(0x71))).ok());
    auto refused = co_await client.Begin();
    const std::size_t f = record(901, 0x72);
    EXPECT_TRUE((co_await client.Insert(*refused, 0, 901, Value(0x72))).ok());
    const Status st = co_await history.Commit(f, client, *refused);
    EXPECT_FALSE(st.ok()) << "a commit succeeded while every append failed";
    EXPECT_NE(st.code(), ErrorCode::kAborted)
        << "a commit whose record may still land was answered aborted";
    fabric.SetCorruptionRate(0);
    EXPECT_TRUE((co_await history.Commit(r, client, *rider)).ok());
    for (std::uint8_t i = 0x80; i < 0x83; ++i) {
      auto later = co_await client.Begin();
      const std::size_t h = record(1000 + i, i);
      EXPECT_TRUE((co_await client.Insert(*later, 0, 1000 + i, Value(i))).ok());
      EXPECT_TRUE((co_await history.Commit(h, client, *later)).ok());
    }
    rig->PowerLoss();
  });
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));
  for (const std::string& v : history.Check(*rig)) ADD_FAILURE() << v;
}

INSTANTIATE_TEST_SUITE_P(
    Rigs, FailedAppend,
    ::testing::Values(TrailRig::kPm, TrailRig::kPmTwoShards),
    [](const ::testing::TestParamInfo<TrailRig>& cell) -> std::string {
      return cell.param == TrailRig::kPm ? "Pm" : "PmTwoShards";
    });

// An append never exceeds the device: with a log ring smaller than what
// concurrent committers buffer while one append is in flight, the log
// writer cuts each append at the last record cohort that fits, and every
// commit succeeds. `kill_after` > 0 kills every log writer's primary once
// that many transactions have buffered their inserts: each backup takes
// over holding audit the primary buffered, coalesced into fewer
// checkpoints, and must still cut it where the primary would have.
constexpr int kRingCutDrivers = 8;
constexpr int kRingCutTxns = 10;  // per driver

int RunRingCut(SystemTest& t, int kill_after) {
  RigConfig cfg = PmRig();
  cfg.pm_log_region_bytes = 64 << 10;
  t.Start(cfg);
  Rig& rig = *t.rig;
  int inserted = 0;
  int committed = 0;
  int finished = 0;
  for (int d = 0; d < kRingCutDrivers; ++d) {
    t.sim->Adopt<App>(
        rig.cluster(), d % cfg.num_cpus, "driver" + std::to_string(d),
        [&, d](App& self) -> Task<void> {
          TxnClient client(self, rig.catalog());
          for (int i = 0; i < kRingCutTxns; ++i) {
            auto txn = co_await client.Begin();
            if (!txn.ok()) continue;
            std::vector<TxnClient::InsertOp> ops;
            for (int k = 0; k < 4; ++k) {
              ops.push_back(
                  {static_cast<std::uint32_t>(k % 2),
                   static_cast<std::uint64_t>((d * kRingCutTxns + i) * 4 + k),
                   Value(static_cast<std::uint8_t>(k), 16 << 10)});
            }
            if (!(co_await client.InsertMany(*txn, std::move(ops))).ok()) {
              continue;
            }
            if (++inserted == kill_after) {
              for (int a = 0; a < cfg.num_adps; ++a) rig.KillAdpPrimary(a);
            }
            committed += (co_await client.Commit(*txn)).ok() ? 1 : 0;
          }
          ++finished;
        });
  }
  for (int s = 0; s < 300 && finished < kRingCutDrivers; ++s) {
    t.sim->RunFor(Seconds(1));
  }
  EXPECT_EQ(finished, kRingCutDrivers) << "drivers did not finish";
  EXPECT_GT(t.sim->metrics().GetCounter("adp.flushed_bytes").value(),
            cfg.pm_log_region_bytes)
      << "the logs never wrapped";
  return committed;
}

TEST_F(SystemTest, AppendsLargerThanTheRingAreCut) {
  EXPECT_EQ(RunRingCut(*this, 0), kRingCutDrivers * kRingCutTxns);
}

TEST_F(SystemTest, APromotedBackupCutsWhereThePrimaryWould) {
  EXPECT_EQ(RunRingCut(*this, kRingCutDrivers * kRingCutTxns / 4),
            kRingCutDrivers * kRingCutTxns);
}

// An audit batch larger than the log ring could never be written, and
// the appends behind it would fail with it: the log writer refuses it at
// the door, and the trail goes on committing.
TEST_F(SystemTest, AuditLargerThanTheRingIsRefused) {
  RigConfig cfg = PmRig();
  cfg.pm_log_region_bytes = 64 << 10;
  Start(cfg);
  History history;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto huge = co_await client.Begin();
    EXPECT_FALSE(
        (co_await client.Insert(*huge, 0, 1, Value(0x11, 64 << 10))).ok())
        << "a record larger than the ring was buffered";
    EXPECT_TRUE((co_await client.Abort(*huge)).ok());
    // Later commits on the same trail.
    const std::string& trail = rig->catalog().Route(0, 1).adp_service;
    std::uint64_t key = 1;
    for (std::uint8_t i = 0; i < 3; ++i) {
      do {
        ++key;
      } while (rig->catalog().Route(0, key).adp_service != trail);
      auto txn = co_await client.Begin();
      const std::size_t h = history.Begin();
      history.Write(h, 0, key, Value(i));
      EXPECT_TRUE((co_await client.Insert(*txn, 0, key, Value(i))).ok());
      EXPECT_TRUE((co_await history.Commit(h, client, *txn)).ok());
    }
  });
  for (const std::string& v : history.Check(*rig)) ADD_FAILURE() << v;
}

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
