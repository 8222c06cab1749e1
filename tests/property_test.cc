// Property-based and parameterized sweeps (TEST_P) over the invariants
// the paper's guarantees rest on:
//   * ACID under arbitrary crash points: committed data always survives
//     power loss, uncommitted data never does;
//   * PMM metadata survives arbitrarily torn writes;
//   * RDMA transfers deliver exact bytes at every size;
//   * the lock manager never grants conflicting locks under random
//     schedules;
//   * log framing round-trips arbitrary records and stops cleanly at any
//     truncation point.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "db/txn_client.h"
#include "net/fabric.h"
#include "pm/metadata.h"
#include "pm/npmu.h"
#include "sim/simulation.h"
#include "tp/audit.h"
#include "tp/lock.h"
#include "workload/history.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace ods {
namespace {

using sim::Milliseconds;
using sim::Seconds;
using sim::Task;

// ---------------------------------------------------------------------------
// Crash-point sweep: power loss at a parameterized instant during a
// running insert workload. Invariant (workload::History): after recovery,
// every transaction the application saw commit is fully readable, one
// left open or aborted is invisible, and one whose commit was in flight is
// all-or-nothing.

class CrashPointTest
    : public ::testing::TestWithParam<std::tuple<int /*crash_ms*/, bool /*pm*/>> {};

TEST_P(CrashPointTest, CommittedSurvivesUncommittedDoesNot) {
  const auto [crash_ms, pm] = GetParam();

  sim::Simulation sim(static_cast<std::uint64_t>(crash_ms) * 7919 + 13);
  workload::RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  if (pm) {
    cfg.log_medium = tp::LogMedium::kPm;
    cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
    cfg.pm_tcb = true;
  }
  workload::Rig rig(sim, cfg);
  sim.RunFor(Seconds(1));

  // The application records every transaction in the history.
  workload::History history;
  class Loader : public nsk::NskProcess {
   public:
    Loader(nsk::Cluster& cluster, workload::Rig& rig,
           workload::History& history)
        : NskProcess(cluster, 2, "loader"), rig_(&rig), history_(&history) {}

   protected:
    Task<void> Main() override {
      db::TxnClient client(*this, rig_->catalog());
      std::uint64_t key = 1;
      while (true) {
        auto txn = co_await client.Begin();
        if (!txn.ok()) continue;
        const std::size_t h = history_->Begin();
        bool ok = true;
        for (int i = 0; i < 3 && ok; ++i) {
          const auto file = static_cast<std::uint32_t>(key % 2);
          std::vector<std::byte> value(256, std::byte{0xD5});
          history_->Write(h, file, key, value);
          ok = (co_await client.Insert(*txn, file, key, std::move(value))).ok();
          ++key;
        }
        if (!ok) {
          (void)co_await client.Abort(*txn);
          continue;
        }
        (void)co_await history_->Commit(h, client, *txn);
      }
    }

   private:
    workload::Rig* rig_;
    workload::History* history_;
  };
  auto& loader = sim.Adopt<Loader>(rig.cluster(), rig, history);

  // Crash at the parameterized instant (mid-transaction with high
  // probability), then recover. The application dies with the node; a
  // commit acknowledged before the crash is the contract under test.
  sim.RunFor(Milliseconds(crash_ms));
  loader.Kill();
  rig.PowerLoss();
  sim.RunFor(Seconds(1));
  rig.RestartAfterPowerLoss();
  sim.RunFor(Seconds(30));

  for (const std::string& v : history.Check(rig)) {
    ADD_FAILURE() << "crash at " << crash_ms << "ms (" << (pm ? "pm" : "disk")
                  << "): " << v;
  }
  EXPECT_GT(history.acked(), 0u) << "workload never got going";
}

INSTANTIATE_TEST_SUITE_P(
    CrashSweep, CrashPointTest,
    ::testing::Combine(::testing::Values(1050, 1107, 1251, 1500, 1733),
                       ::testing::Bool()),
    [](const auto& p) {
      return (std::get<1>(p.param) ? std::string("pm_") : "disk_") +
             std::to_string(std::get<0>(p.param)) + "ms";
    });

// ---------------------------------------------------------------------------
// Torn metadata writes: whatever prefix of a new slot image lands over an
// old slot, recovery returns a valid epoch (the old one), never garbage.

class TornMetadataTest : public ::testing::TestWithParam<int> {};

TEST_P(TornMetadataTest, RecoveryNeverReturnsGarbage) {
  const int torn_bytes = GetParam();
  pm::VolumeMetadata meta;
  meta.volume_name = "$PM1";
  meta.data_capacity = 1 << 20;
  meta.regions.push_back(pm::RegionRecord{"r1", "$APP", 0, 4096, {}});
  meta.free_list = {pm::FreeExtent{4096, (1 << 20) - 4096}};

  auto old_slot = pm::EncodeSlot(pm::MetadataSlot{5, meta.Serialize()});
  meta.regions.push_back(pm::RegionRecord{"r2", "$APP", 4096, 4096, {}});
  auto new_slot = pm::EncodeSlot(pm::MetadataSlot{6, meta.Serialize()});
  old_slot.resize(pm::kMetadataCopyBytes);
  new_slot.resize(pm::kMetadataCopyBytes);

  // Slot A holds epoch 4 (older, valid); slot B is being rewritten from
  // epoch 5's image to epoch 6's and tears after `torn_bytes`.
  pm::VolumeMetadata old_meta = meta;
  old_meta.regions.pop_back();
  auto slot_a = pm::EncodeSlot(pm::MetadataSlot{4, old_meta.Serialize()});
  slot_a.resize(pm::kMetadataCopyBytes);
  auto slot_b = old_slot;
  std::copy_n(new_slot.begin(), torn_bytes, slot_b.begin());

  auto recovered = pm::RecoverSlots(slot_a, slot_b);
  ASSERT_TRUE(recovered.has_value())
      << "torn=" << torn_bytes << ": no valid slot found";
  // Either the tear happened to preserve a fully valid image (epoch 5
  // before the tear starts, 6 if everything landed) or we fall back to
  // epoch 4. Never anything else.
  EXPECT_TRUE(recovered->epoch == 4 || recovered->epoch == 5 ||
              recovered->epoch == 6)
      << "epoch " << recovered->epoch;
  auto m = pm::VolumeMetadata::Deserialize(recovered->payload);
  ASSERT_TRUE(m.has_value()) << "recovered payload must deserialize";
}

INSTANTIATE_TEST_SUITE_P(TearPoints, TornMetadataTest,
                         ::testing::Values(0, 1, 4, 15, 16, 17, 64, 100, 200,
                                           300, 512));

// ---------------------------------------------------------------------------
// RDMA size sweep: exact data delivery and monotone-ish latency.

class RdmaSizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RdmaSizeTest, ExactBytesAtEverySize) {
  const std::uint64_t size = GetParam();
  sim::Simulation sim(size);
  net::Fabric fabric(sim, net::FabricConfig{});
  std::vector<std::byte> mem(1 << 20);
  net::Endpoint& dev = fabric.CreateEndpoint("dev");
  net::AttWindow w;
  w.nva_base = 0;
  w.length = mem.size();
  w.memory = mem.data();
  ASSERT_TRUE(dev.MapWindow(std::move(w)).ok());
  net::Endpoint& host = fabric.CreateEndpoint("host");

  std::vector<std::byte> pattern(size);
  Rng rng(size + 1);
  for (auto& b : pattern) b = static_cast<std::byte>(rng.Next());

  class Driver : public sim::Process {
   public:
    Driver(sim::Simulation& s, std::function<Task<void>(Driver&)> body)
        : Process(s, "d"), body_(std::move(body)) {}

   protected:
    Task<void> Main() override { return body_(*this); }

   private:
    std::function<Task<void>(Driver&)> body_;
  };

  bool ok = false;
  sim.Spawn<Driver>([&](Driver& self) -> Task<void> {
    auto st = co_await host.Write(self, dev.id(), 100, pattern);
    EXPECT_TRUE(st.ok());
    auto back = co_await host.Read(self, dev.id(), 100, size);
    EXPECT_TRUE(back.status.ok());
    ok = back.data == pattern;
  });
  sim.Run();
  EXPECT_TRUE(ok) << "payload mismatch at size " << size;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RdmaSizeTest,
                         ::testing::Values(1, 7, 63, 64, 65, 511, 512, 513,
                                           4096, 65536, 262144));

// ---------------------------------------------------------------------------
// Lock manager random schedules: never two holders of an exclusive lock.

class LockScheduleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LockScheduleTest, NoConflictingGrants) {
  const std::uint64_t seed = GetParam();
  sim::Simulation sim(seed);
  tp::LockManager mgr(sim);

  // Shadow model of currently granted locks.
  struct Shadow {
    std::map<tp::LockKey, std::pair<int /*shared*/, int /*exclusive*/>> held;
    bool violated = false;
  };
  auto shadow = std::make_shared<Shadow>();

  class Worker : public sim::Process {
   public:
    Worker(sim::Simulation& s, tp::LockManager& mgr, std::uint64_t txn,
           std::uint64_t seed, std::shared_ptr<Shadow> shadow)
        : Process(s, "w" + std::to_string(txn)), mgr_(&mgr), txn_(txn),
          rng_(seed), shadow_(std::move(shadow)) {}

   protected:
    Task<void> Main() override {
      for (int round = 0; round < 30; ++round) {
        const tp::LockKey key{0, rng_.Below(4)};
        const bool exclusive = rng_.Bernoulli(0.5);
        auto st = co_await mgr_->Acquire(
            *this, txn_, key,
            exclusive ? tp::LockMode::kExclusive : tp::LockMode::kShared,
            Milliseconds(50));
        if (st.ok()) {
          auto& [s, x] = shadow_->held[key];
          if (exclusive) {
            if (s > 0 || x > 0) shadow_->violated = true;
            ++x;
          } else {
            if (x > 0) shadow_->violated = true;
            ++s;
          }
          co_await Sleep(sim::Microseconds(rng_.Below(500)));
          if (exclusive) {
            --x;
          } else {
            --s;
          }
        }
        mgr_->ReleaseAll(txn_);
        co_await Sleep(sim::Microseconds(rng_.Below(200)));
      }
    }

   private:
    tp::LockManager* mgr_;
    std::uint64_t txn_;
    Rng rng_;
    std::shared_ptr<Shadow> shadow_;
  };

  for (std::uint64_t t = 1; t <= 6; ++t) {
    sim.Spawn<Worker>(mgr, t, seed * 31 + t, shadow);
  }
  sim.Run();
  EXPECT_FALSE(shadow->violated) << "conflicting lock grant under seed "
                                 << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockScheduleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Audit framing: random records round-trip; truncation at any byte stops
// the scanner cleanly at a record boundary.

class AuditFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AuditFuzzTest, RoundTripAndCleanTruncation) {
  Rng rng(GetParam());
  std::vector<tp::AuditRecord> records;
  std::vector<std::byte> log;
  for (int i = 0; i < 50; ++i) {
    tp::AuditRecord r;
    r.lsn = static_cast<std::uint64_t>(i + 1);
    r.txn = rng.Below(10);
    r.type = static_cast<tp::AuditType>(1 + rng.Below(4));
    r.file_id = static_cast<std::uint32_t>(rng.Below(16));
    r.key = rng.Next();
    r.after_image.resize(rng.Below(300));
    for (auto& b : r.after_image) b = static_cast<std::byte>(rng.Next());
    r.before_image.resize(rng.Below(100));
    for (auto& b : r.before_image) b = static_cast<std::byte>(rng.Next());
    records.push_back(r);
    tp::FrameRecord(r, log);
  }
  // Full scan reproduces every field.
  {
    tp::LogScanner scan(log);
    std::size_t i = 0;
    while (auto rec = scan.Next()) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(rec->lsn, records[i].lsn);
      EXPECT_EQ(rec->txn, records[i].txn);
      EXPECT_EQ(rec->type, records[i].type);
      EXPECT_EQ(rec->after_image, records[i].after_image);
      EXPECT_EQ(rec->before_image, records[i].before_image);
      ++i;
    }
    EXPECT_EQ(i, records.size());
  }
  // Truncate at 20 random points: the scanner must stop at a boundary,
  // yielding a prefix of the original records.
  for (int cut = 0; cut < 20; ++cut) {
    const std::uint64_t n = rng.Below(log.size());
    tp::LogScanner scan(std::span<const std::byte>(log.data(), n));
    std::size_t i = 0;
    while (auto rec = scan.Next()) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(rec->lsn, records[i].lsn) << "prefix property violated";
      ++i;
    }
    EXPECT_LE(scan.offset(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Hot-stock determinism: identical seeds and configs give bit-identical
// results; the PM configuration is never slower than disk.

class HotStockParamTest
    : public ::testing::TestWithParam<std::tuple<int /*drivers*/, int /*boxcar*/>> {};

TEST_P(HotStockParamTest, PmNeverSlowerAndDeterministic) {
  const auto [drivers, boxcar] = GetParam();
  auto run = [&](bool pm, std::uint64_t seed) {
    sim::Simulation sim(seed);
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
    hs.drivers = drivers;
    hs.inserts_per_txn = boxcar;
    hs.records_per_driver = 160;
    return workload::RunHotStock(rig, hs);
  };
  const auto disk1 = run(false, 99);
  const auto disk2 = run(false, 99);
  const auto pm1 = run(true, 99);
  EXPECT_EQ(disk1.elapsed_seconds, disk2.elapsed_seconds)
      << "simulation must be deterministic";
  EXPECT_EQ(disk1.TotalCommitted(), disk2.TotalCommitted());
  EXPECT_LT(pm1.elapsed_seconds, disk1.elapsed_seconds)
      << drivers << " drivers, boxcar " << boxcar;
  EXPECT_EQ(pm1.TotalCommitted(), disk1.TotalCommitted());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HotStockParamTest,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Values(4, 8, 16)),
    [](const auto& p) {
      return "d" + std::to_string(std::get<0>(p.param)) + "_k" +
             std::to_string(std::get<1>(p.param));
    });

}  // namespace
}  // namespace ods
