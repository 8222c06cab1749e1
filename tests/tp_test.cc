// Unit tests for the transaction-processing building blocks: audit
// records & framing, the lock manager, and the two log devices.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/plane.h"
#include "sim/simulation.h"
#include "storage/disk.h"
#include "tp/audit.h"
#include "tp/lock.h"
#include "tp/log_device.h"

namespace ods::tp {
namespace {

using sim::Microseconds;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

using TestProcess = nsk::AppProcess;

// ------------------------------------------------------------------ audit

AuditRecord SampleRecord(std::uint64_t lsn, std::uint64_t txn) {
  AuditRecord r;
  r.lsn = lsn;
  r.txn = txn;
  r.type = AuditType::kUpdate;
  r.file_id = 2;
  r.key = 0xDEAD;
  r.after_image = {std::byte{1}, std::byte{2}, std::byte{3}};
  r.before_image = {std::byte{9}};
  return r;
}

TEST(AuditTest, RecordRoundTrip) {
  const AuditRecord r = SampleRecord(7, 42);
  auto back = AuditRecord::Deserialize(r.Serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lsn, 7u);
  EXPECT_EQ(back->txn, 42u);
  EXPECT_EQ(back->type, AuditType::kUpdate);
  EXPECT_EQ(back->file_id, 2u);
  EXPECT_EQ(back->key, 0xDEADu);
  EXPECT_EQ(back->after_image, r.after_image);
  EXPECT_EQ(back->before_image, r.before_image);
}

TEST(AuditTest, ScannerWalksFrames) {
  std::vector<std::byte> log;
  for (std::uint64_t i = 1; i <= 5; ++i) FrameRecord(SampleRecord(i, i), log);
  LogScanner scan(log);
  std::uint64_t expect = 1;
  while (auto rec = scan.Next()) {
    EXPECT_EQ(rec->lsn, expect++);
  }
  EXPECT_EQ(expect, 6u);
  EXPECT_EQ(scan.offset(), log.size());
}

TEST(AuditTest, ScannerStopsAtTornTail) {
  std::vector<std::byte> log;
  FrameRecord(SampleRecord(1, 1), log);
  const std::size_t valid = log.size();
  FrameRecord(SampleRecord(2, 2), log);
  log.resize(valid + 10);  // second frame torn mid-write
  LogScanner scan(log);
  EXPECT_TRUE(scan.Next().has_value());
  EXPECT_FALSE(scan.Next().has_value());
  EXPECT_EQ(scan.offset(), valid);
}

TEST(AuditTest, ScannerRejectsCorruptPayload) {
  std::vector<std::byte> log;
  FrameRecord(SampleRecord(1, 1), log);
  log[10] ^= std::byte{0xFF};
  LogScanner scan(log);
  EXPECT_FALSE(scan.Next().has_value());
}

TEST(AuditTest, EmptyLogScansClean) {
  std::vector<std::byte> log(256, std::byte{0});
  LogScanner scan(log);
  EXPECT_FALSE(scan.Next().has_value());
  EXPECT_EQ(scan.offset(), 0u);
}

// ------------------------------------------------------------------ locks

struct LockFixture : ::testing::Test {
  LockFixture() : sim(3), mgr(sim) {}
  sim::Simulation sim;
  LockManager mgr;

  // Helper process factory (lock tests need fibers).
  template <typename Body>
  void Run(Body body) {
    struct P : sim::Process {
      Body body;
      LockFixture* fix;
      P(sim::Simulation& s, Body b, LockFixture* f)
          : Process(s, "p"), body(std::move(b)), fix(f) {}
      Task<void> Main() override { return body(*this); }
    };
    sim.Spawn<P>(std::move(body), this);
    sim.Run();
  }
};

TEST_F(LockFixture, SharedLocksCoexist) {
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kShared,
                                      Seconds(1))).ok());
    EXPECT_TRUE((co_await mgr.Acquire(self, 2, {0, 5}, LockMode::kShared,
                                      Seconds(1))).ok());
    EXPECT_EQ(sim.metrics().CounterValue("tp.lock.waits"), 0u);
  });
}

TEST_F(LockFixture, ExclusiveConflictsWithShared) {
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kShared,
                                      Seconds(1))).ok());
    auto st = co_await mgr.Acquire(self, 2, {0, 5}, LockMode::kExclusive,
                                   Milliseconds(20));
    EXPECT_EQ(st.code(), ErrorCode::kTimedOut);
  });
}

TEST_F(LockFixture, ReleaseGrantsWaiter) {
  SimTime granted_at{};
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    // Waiter in another fiber.
    self.SpawnFiber([](sim::Process& p, LockManager& m,
                       SimTime& out) -> Task<void> {
      EXPECT_TRUE((co_await m.Acquire(p, 2, {0, 5}, LockMode::kExclusive,
                                      Seconds(5))).ok());
      out = p.sim().Now();
    }(self, mgr, granted_at));
    co_await self.Sleep(Milliseconds(50));
    mgr.ReleaseAll(1);
  });
  EXPECT_GE(granted_at.ns, Milliseconds(50).ns);
}

TEST_F(LockFixture, ReentrantAndUpgrade) {
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kShared,
                                      Seconds(1))).ok());
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kShared,
                                      Seconds(1))).ok());
    // Sole holder may upgrade.
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 5}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    // Now exclusive: others blocked.
    auto st = co_await mgr.Acquire(self, 2, {0, 5}, LockMode::kShared,
                                   Milliseconds(10));
    EXPECT_EQ(st.code(), ErrorCode::kTimedOut);
  });
}

TEST_F(LockFixture, FifoOrderAmongWaiters) {
  std::vector<int> order;
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 9}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    for (int i = 2; i <= 4; ++i) {
      self.SpawnFiber([](sim::Process& p, LockManager& m, int txn,
                         std::vector<int>& log) -> Task<void> {
        EXPECT_TRUE((co_await m.Acquire(p, static_cast<std::uint64_t>(txn),
                                        {0, 9}, LockMode::kExclusive,
                                        Seconds(10))).ok());
        log.push_back(txn);
        m.ReleaseAll(static_cast<std::uint64_t>(txn));
      }(self, mgr, i, order));
      co_await self.Sleep(Milliseconds(1));  // enforce arrival order
    }
    mgr.ReleaseAll(1);
  });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST_F(LockFixture, DifferentKeysIndependent) {
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 1}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    EXPECT_TRUE((co_await mgr.Acquire(self, 2, {0, 2}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    EXPECT_TRUE((co_await mgr.Acquire(self, 3, {1, 1}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    EXPECT_EQ(sim.metrics().CounterValue("tp.lock.waits"), 0u);
  });
}

TEST_F(LockFixture, DeadlockBrokenByTimeout) {
  // txn1 holds A wants B; txn2 holds B wants A. One times out.
  int timeouts = 0;
  Run([&](sim::Process& self) -> Task<void> {
    EXPECT_TRUE((co_await mgr.Acquire(self, 1, {0, 1}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    EXPECT_TRUE((co_await mgr.Acquire(self, 2, {0, 2}, LockMode::kExclusive,
                                      Seconds(1))).ok());
    self.SpawnFiber([](sim::Process& p, LockManager& m, int& t) -> Task<void> {
      auto st = co_await m.Acquire(p, 1, {0, 2}, LockMode::kExclusive,
                                   Milliseconds(100));
      if (!st.ok()) {
        ++t;
        m.ReleaseAll(1);
      }
    }(self, mgr, timeouts));
    auto st = co_await mgr.Acquire(self, 2, {0, 1}, LockMode::kExclusive,
                                   Milliseconds(200));
    if (!st.ok()) {
      ++timeouts;
      mgr.ReleaseAll(2);
    }
  });
  EXPECT_GE(timeouts, 1);
  EXPECT_GE(sim.metrics().CounterValue("tp.lock.timeouts"), 1u);
}

// ------------------------------------------------------------ log devices

struct LogDeviceFixture : ::testing::Test {
  LogDeviceFixture() : sim(21), cluster(sim, MakeConfig()) {}
  ~LogDeviceFixture() override { sim.Shutdown(); }

  static nsk::ClusterConfig MakeConfig() {
    nsk::ClusterConfig c;
    c.num_cpus = 3;
    return c;
  }

  // PM rig on demand.
  void StartPm() {
    plane =
        std::make_unique<pm::PmPlane>(cluster, pm::PmDeviceKind::kNpmuPair);
    plane->Start();
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  std::unique_ptr<pm::PmPlane> plane;
};

std::vector<std::byte> FramedBatch(int n, std::uint64_t first_lsn) {
  std::vector<std::byte> out;
  for (int i = 0; i < n; ++i) {
    FrameRecord(SampleRecord(first_lsn + static_cast<std::uint64_t>(i), 1),
                out);
  }
  return out;
}

TEST_F(LogDeviceFixture, DiskAppendAndRecover) {
  storage::DiskVolume vol(sim, "audit0");
  DiskLogDevice dev(vol);
  std::vector<std::byte> recovered;
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    auto batch = FramedBatch(3, 1);
    EXPECT_TRUE((co_await dev.Append(self, batch)).ok());
    EXPECT_EQ(dev.tail(), batch.size());
    // Recover with a fresh device object (cold restart).
    DiskLogDevice fresh(vol);
    auto log = co_await fresh.RecoverLog(self);
    EXPECT_TRUE(log.ok());
    recovered = *log;
    EXPECT_EQ(fresh.tail(), batch.size());
  });
  sim.Run();
  LogScanner scan(recovered);
  int n = 0;
  while (scan.Next()) ++n;
  EXPECT_EQ(n, 3);
}

TEST_F(LogDeviceFixture, DiskAppendIsMillisecondClass) {
  storage::DiskVolume vol(sim, "audit0");
  DiskLogDevice dev(vol);
  sim::SimDuration append_time{};
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    const SimTime t0 = self.sim().Now();
    EXPECT_TRUE((co_await dev.Append(self, FramedBatch(8, 1))).ok());
    append_time = self.sim().Now() - t0;
  });
  sim.Run();
  EXPECT_GT(sim::ToMillisD(append_time), 2.0);
}

TEST_F(LogDeviceFixture, PmAppendAndRecover) {
  StartPm();
  PmLogConfig cfg;
  cfg.region_name = "audit-test";
  std::vector<std::byte> recovered;
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    auto batch = FramedBatch(3, 1);
    EXPECT_TRUE((co_await dev.Append(self, batch)).ok());
    // Cold recovery via a fresh device (reads the control block).
    PmLogDevice fresh(cfg);
    auto log = co_await fresh.RecoverLog(self);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (log.ok()) recovered = *log;
    EXPECT_EQ(fresh.tail(), batch.size());
  });
  sim.Run();
  LogScanner scan(recovered);
  int n = 0;
  while (scan.Next()) ++n;
  EXPECT_EQ(n, 3);
}

TEST_F(LogDeviceFixture, PmAppendIsMicrosecondClass) {
  StartPm();
  PmLogConfig cfg;
  cfg.region_name = "audit-test";
  sim::SimDuration append_time{};
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    const SimTime t0 = self.sim().Now();
    EXPECT_TRUE((co_await dev.Append(self, FramedBatch(8, 1))).ok());
    append_time = self.sim().Now() - t0;
  });
  sim.Run();
  EXPECT_LT(sim::ToMicrosD(append_time), 500.0)
      << "PM append must be orders of magnitude faster than disk";
  EXPECT_GT(sim::ToMicrosD(append_time), 10.0);
}

TEST_F(LogDeviceFixture, PmRecoveryMuchFasterThanDiskScan) {
  StartPm();
  storage::DiskVolume vol(sim, "audit0");
  sim::SimDuration disk_recovery{}, pm_recovery{};
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    // Write ~2MB of audit to each medium.
    DiskLogDevice disk(vol);
    PmLogConfig cfg;
    cfg.region_name = "audit-test";
    PmLogDevice pmdev(cfg);
    EXPECT_TRUE((co_await pmdev.Open(self)).ok());
    for (int i = 0; i < 16; ++i) {
      auto batch = FramedBatch(32, static_cast<std::uint64_t>(i) * 32 + 1);
      // Pad records to make the log big.
      EXPECT_TRUE((co_await disk.Append(self, batch)).ok());
      EXPECT_TRUE((co_await pmdev.Append(self, std::move(batch))).ok());
    }
    {
      DiskLogDevice fresh(vol);
      const SimTime t0 = self.sim().Now();
      EXPECT_TRUE((co_await fresh.RecoverLog(self)).ok());
      disk_recovery = self.sim().Now() - t0;
    }
    {
      PmLogDevice fresh(cfg);
      const SimTime t0 = self.sim().Now();
      EXPECT_TRUE((co_await fresh.RecoverLog(self)).ok());
      pm_recovery = self.sim().Now() - t0;
    }
  });
  sim.Run();
  EXPECT_GT(sim::ToMillisD(disk_recovery), 10.0) << "disk scan is slow";
  EXPECT_LT(sim::ToMillisD(pm_recovery), 5.0) << "PM recovery is direct";
  EXPECT_GT(disk_recovery.ns, pm_recovery.ns * 10);
}

TEST_F(LogDeviceFixture, PmLogRingWraps) {
  StartPm();
  PmLogConfig cfg;
  cfg.region_name = "tiny";
  cfg.region_bytes = 4096;
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    // Write 3x the capacity; appends must keep succeeding.
    for (int i = 0; i < 12; ++i) {
      EXPECT_TRUE(
          (co_await dev.Append(self, std::vector<std::byte>(1024,
                                                            std::byte{1})))
              .ok());
    }
    EXPECT_EQ(dev.tail(), 12u * 1024u);
  });
  sim.Run();
}

TEST_F(LogDeviceFixture, LiveReadReturnsTheDurableTrailAndChangesNothing) {
  StartPm();
  storage::DiskVolume vol(sim, "audit0");
  PmLogConfig cfg;
  cfg.region_name = "audit-test";
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    DiskLogDevice disk(vol);
    PmLogDevice pmdev(cfg);
    EXPECT_TRUE((co_await pmdev.Open(self)).ok());
    std::vector<std::byte> trail;
    for (int i = 0; i < 3; ++i) {
      auto batch = FramedBatch(4, static_cast<std::uint64_t>(i) * 4 + 1);
      trail.insert(trail.end(), batch.begin(), batch.end());
      EXPECT_TRUE((co_await disk.Append(self, batch)).ok());
      EXPECT_TRUE((co_await pmdev.Append(self, std::move(batch))).ok());
    }
    for (LogDevice* dev : {static_cast<LogDevice*>(&disk),
                           static_cast<LogDevice*>(&pmdev)}) {
      auto log = co_await dev->ReadLog(self);
      EXPECT_TRUE(log.ok()) << dev->kind() << ": " << log.status().ToString();
      if (log.ok()) {
        EXPECT_EQ(*log, trail) << dev->kind();
      }
      EXPECT_EQ(dev->tail(), trail.size()) << dev->kind();
      // Still appendable where it was: the read moved nothing.
      EXPECT_TRUE((co_await dev->Append(self, FramedBatch(1, 13))).ok());
    }
  });
  sim.Run();
}

// Appending past capacity wraps the ring over the oldest bytes: the live
// read must refuse rather than hand redo a log whose head was
// overwritten.
TEST_F(LogDeviceFixture, LiveReadRefusesAWrappedRing) {
  StartPm();
  storage::DiskVolume vol(sim, "audit0",
                          storage::DiskConfig{.capacity_bytes = 4096});
  PmLogConfig cfg;
  cfg.region_name = "tiny";
  cfg.region_bytes = 4096;
  sim.Adopt<TestProcess>(cluster, 2, "p", [&](TestProcess& self) -> Task<void> {
    DiskLogDevice disk(vol);
    PmLogDevice pmdev(cfg);
    EXPECT_TRUE((co_await pmdev.Open(self)).ok());
    for (LogDevice* dev : {static_cast<LogDevice*>(&disk),
                           static_cast<LogDevice*>(&pmdev)}) {
      for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(
            (co_await dev->Append(self,
                                  std::vector<std::byte>(1024, std::byte{1})))
                .ok());
      }
      EXPECT_EQ(dev->tail(), 5u * 1024u) << dev->kind();
      auto log = co_await dev->ReadLog(self);
      EXPECT_EQ(log.status().code(), ErrorCode::kFailedPrecondition)
          << dev->kind() << ": " << log.status().ToString();
    }
  });
  sim.Run();
}

}  // namespace
}  // namespace ods::tp
