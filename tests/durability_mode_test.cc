// Remote-durability primitive tests (common/durability.h).
//
// Unit layer: the NPMU's volatile staging buffer never survives a crash
// event, the persist primitives drain it, and a loss in the window
// between landing and persisting fails the write instead of falsely
// acking it. Latency ordering across the four modes matches the model
// (posted < native-flush < read-after-write < device-ack).
//
// Property layer: mode equivalence under crash — write+read-after-write
// and write+device-ack produce IDENTICAL durable log prefixes when the
// staging buffers are lost at the m-th data write-ack site, for every m
// the scenario reaches, and every recovered prefix ends on a record
// boundary. The two correct round-trip primitives may cost differently
// but must never differ in what survives.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/durability.h"
#include "net/fabric.h"
#include "nsk/cluster.h"
#include "pm/npmu.h"
#include "pm/plane.h"
#include "sim/fault_plan.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "tp/audit.h"
#include "tp/log_device.h"

namespace ods {
namespace {

using sim::Task;

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

class ClusterProcess : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(ClusterProcess&)>;
  ClusterProcess(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

std::vector<std::byte> MakePattern(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xFF);
  }
  return v;
}

// Raw fabric + one staging NPMU with its data area mapped, the way the
// PMM would program the ATT.
struct StagingFixture : ::testing::Test {
  StagingFixture()
      : sim(42), fabric(sim, net::FabricConfig{}),
        npmu(fabric, "npmu", StagingConfig()),
        host(fabric.CreateEndpoint("host")) {
    net::AttWindow w;
    w.nva_base = pm::kDataBase;
    w.length = 1 << 20;
    w.memory = npmu.data_memory();
    EXPECT_TRUE(npmu.endpoint().MapWindow(std::move(w)).ok());
  }

  static pm::NpmuConfig StagingConfig() {
    pm::NpmuConfig c;
    c.volatile_staging = true;
    return c;
  }

  sim::Simulation sim;
  net::Fabric fabric;
  pm::Npmu npmu;
  net::Endpoint& host;
};

// ---------------------------------------------------- names and parsing

TEST(DurabilityModeTest, NamesRoundTripThroughParser) {
  for (DurabilityMode m : AllDurabilityModes()) {
    auto parsed = ParseDurabilityMode(DurabilityModeName(m));
    ASSERT_TRUE(parsed.has_value()) << DurabilityModeName(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_EQ(ParseDurabilityMode("raw"), DurabilityMode::kReadAfterWrite);
  EXPECT_EQ(ParseDurabilityMode("device-ack"), DurabilityMode::kDeviceAck);
  EXPECT_EQ(ParseDurabilityMode("flush"), DurabilityMode::kNativeFlush);
  EXPECT_EQ(ParseDurabilityMode("posted"), DurabilityMode::kPostedWriteOnly);
  EXPECT_FALSE(ParseDurabilityMode("bogus").has_value());
}

// ----------------------------------------------- staging buffer basics

// With posted-write-only nothing ever drains the staging buffer, so a
// crash event loses the acked write: the bytes revert to media contents.
TEST_F(StagingFixture, StagedBufferNeverSurvivesCrash) {
  const auto pattern = MakePattern(256);
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    Status st = co_await host.Write(self, npmu.id(), pm::kDataBase, pattern);
    EXPECT_TRUE(st.ok());
  });
  sim.Run();

  // The write acked, the NIC-visible view has the bytes, but they are
  // only staged — posted-write-only never persisted them.
  EXPECT_EQ(npmu.staged_bytes(), pattern.size());
  EXPECT_EQ(std::memcmp(npmu.data_memory(), pattern.data(), pattern.size()),
            0);

  npmu.PowerFail();

  // Crash: the staging buffer is gone and the data reverted to media
  // (never written), no matter that the fabric acked the write.
  EXPECT_EQ(npmu.staged_bytes(), 0u);
  EXPECT_EQ(npmu.staging_losses(), 1u);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    EXPECT_EQ(npmu.data_memory()[i], std::byte{0}) << "offset " << i;
  }
}

// Any correct persist primitive drains staging before the ack, so the
// same crash loses nothing.
TEST_F(StagingFixture, PersistedWriteSurvivesCrash) {
  const auto pattern = MakePattern(256, 9);
  fabric.set_durability_mode(DurabilityMode::kNativeFlush);
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    Status st = co_await host.Write(self, npmu.id(), pm::kDataBase, pattern);
    EXPECT_TRUE(st.ok());
  });
  sim.Run();

  EXPECT_EQ(npmu.staged_bytes(), 0u) << "persist must drain staging";

  npmu.PowerFail();

  EXPECT_EQ(npmu.staging_losses(), 0u) << "empty staging buffer, no loss";
  EXPECT_EQ(std::memcmp(npmu.data_memory(), pattern.data(), pattern.size()),
            0)
      << "drained bytes are on media and survive the crash";
}

// A loss in the window between landing and persisting must FAIL the
// write (kDataLoss), never ack it: the generation ticket detects the
// intervening LoseStaged.
TEST_F(StagingFixture, MidFlightLossFailsTheWriteInsteadOfAcking) {
  const auto pattern = MakePattern(512, 3);
  Status result = OkStatus();
  fabric.set_durability_mode(DurabilityMode::kDeviceAck);
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    auto fut = host.StartWrite(npmu.id(), pm::kDataBase, pattern);
    // Wait for the payload to land (stage), then lose the buffer before
    // the device-ack persist round trip completes.
    while (npmu.staged_bytes() == 0) {
      co_await self.Sleep(sim::Nanoseconds(200));
    }
    npmu.LoseStaged();
    result = co_await fut.Wait(self);
  });
  sim.Run();

  EXPECT_EQ(result.code(), ErrorCode::kDataLoss) << result.ToString();
  EXPECT_EQ(npmu.staging_losses(), 1u);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    EXPECT_EQ(npmu.data_memory()[i], std::byte{0}) << "offset " << i;
  }
}

// ------------------------------------------------------ latency model

// posted < native-flush < read-after-write < device-ack, per the
// persist-phase cost model (packets + per-mode latency knob).
TEST(DurabilityModeTest, PersistPrimitiveLatencyOrdering) {
  sim::Simulation sim(7);
  net::Fabric fabric(sim, net::FabricConfig{});
  std::vector<std::byte> mem(1 << 16);
  net::Endpoint& dev = fabric.CreateEndpoint("device");
  net::AttWindow w;
  w.nva_base = 0x1000;
  w.length = mem.size();
  w.memory = mem.data();
  ASSERT_TRUE(dev.MapWindow(std::move(w)).ok());
  net::Endpoint& host = fabric.CreateEndpoint("host");

  double us[4] = {};
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    const auto modes = AllDurabilityModes();
    for (std::size_t i = 0; i < modes.size(); ++i) {
      fabric.set_durability_mode(modes[i]);
      const sim::SimTime t0 = self.sim().Now();
      Status st = co_await host.Write(self, dev.id(), 0x1000,
                                      MakePattern(4096));
      EXPECT_TRUE(st.ok());
      us[i] = sim::ToMicrosD(self.sim().Now() - t0);
    }
  });
  sim.Run();

  // AllDurabilityModes() order: posted, flush, raw, devack.
  EXPECT_LT(us[0], us[1]) << "posted must be cheapest (and broken)";
  EXPECT_LT(us[1], us[2]) << "native flush beats read-after-write";
  EXPECT_LT(us[2], us[3]) << "device-ack is the most expensive primitive";
}

// --------------------------------------- mode equivalence under crash

// One PM log scenario on mirrored staging NPMUs: open, append batches,
// lose both staging buffers at the `crash_ack_index`-th data-area
// write-ack site, recover cold.
struct LogCrashOutcome {
  std::size_t data_acks = 0;       // data write-ack sites reached
  std::size_t appends_ok = 0;      // appends acked before the failure
  bool recover_ok = false;
  std::vector<std::byte> recovered;
};

LogCrashOutcome RunLogCrashScenario(
    DurabilityMode mode, std::optional<std::size_t> crash_ack_index) {
  LogCrashOutcome out;
  sim::Simulation sim(42);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 3;
  nsk::Cluster cluster(sim, ccfg);
  cluster.fabric().set_durability_mode(mode);

  pm::NpmuConfig ncfg;
  ncfg.volatile_staging = true;
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair, 1, ncfg);
  plane.Start();

  // Count data-area RDMA acks (metadata commits stay below kDataBase);
  // the crash fires synchronously at the m-th one, losing whatever is
  // still parked in BOTH devices' staging buffers at that instant.
  sim::FaultPlan plan;
  bool fired = false;
  plan.SetObserver([&](const sim::FaultSite& s) {
    if (s.label.rfind("write-ack:", 0) != 0) return;
    if (s.args.empty() || s.args[0] < pm::kDataBase) return;
    if (crash_ack_index.has_value() && out.data_acks == *crash_ack_index &&
        !fired) {
      fired = true;
      plane.npmu_a().LoseStaged();
      plane.npmu_b().LoseStaged();
    }
    ++out.data_acks;
  });
  sim.set_fault_plan(&plan);

  tp::PmLogConfig cfg;
  cfg.region_name = "audit-equiv";
  sim.Adopt<ClusterProcess>(
      cluster, 2, "writer", [&](ClusterProcess& self) -> Task<void> {
        tp::PmLogDevice dev(cfg);
        if (!(co_await dev.Open(self)).ok()) co_return;
        for (int batch = 0; batch < 6; ++batch) {
          std::vector<std::byte> bytes;
          for (int r = 0; r < 4; ++r) {
            tp::AuditRecord rec;
            rec.lsn = static_cast<std::uint64_t>(batch * 4 + r + 1);
            rec.txn = rec.lsn;
            rec.type = tp::AuditType::kUpdate;
            rec.file_id = 2;
            rec.key = 0xBEEF + rec.lsn;
            rec.after_image = MakePattern(64, static_cast<std::uint8_t>(rec.lsn));
            tp::FrameRecord(rec, bytes);
          }
          if (!(co_await dev.Append(self, std::move(bytes))).ok()) break;
          ++out.appends_ok;
        }
        // Cold recovery with a fresh device object: read the control
        // block, return the retained (durable) log image.
        tp::PmLogDevice fresh(cfg);
        auto log = co_await fresh.RecoverLog(self);
        out.recover_ok = log.ok();
        if (log.ok()) out.recovered = *log;
      });
  sim.Run();
  sim.set_fault_plan(nullptr);
  return out;
}

// The two correct round-trip primitives must agree byte-for-byte on what
// is durable at EVERY data-ack crash site, and every durable prefix must
// end on a record boundary (no torn records: chain legs stage and lose
// atomically).
TEST(DurabilityModeTest, RawAndDeviceAckAgreeOnDurablePrefixAtEveryCrashSite) {
  // Record pass (no crash): both modes must ack the full log and agree
  // on the site count, or the sweep below compares different scenarios.
  LogCrashOutcome record_raw =
      RunLogCrashScenario(DurabilityMode::kReadAfterWrite, std::nullopt);
  LogCrashOutcome record_ack =
      RunLogCrashScenario(DurabilityMode::kDeviceAck, std::nullopt);
  ASSERT_TRUE(record_raw.recover_ok);
  ASSERT_TRUE(record_ack.recover_ok);
  ASSERT_EQ(record_raw.appends_ok, 6u);
  ASSERT_EQ(record_ack.appends_ok, 6u);
  ASSERT_EQ(record_raw.recovered, record_ack.recovered);
  ASSERT_EQ(record_raw.data_acks, record_ack.data_acks);
  ASSERT_GT(record_raw.data_acks, 0u);

  std::size_t truncated_sites = 0;
  for (std::size_t m = 0; m < record_raw.data_acks; ++m) {
    LogCrashOutcome raw =
        RunLogCrashScenario(DurabilityMode::kReadAfterWrite, m);
    LogCrashOutcome ack = RunLogCrashScenario(DurabilityMode::kDeviceAck, m);
    if (raw.recovered.size() < record_raw.recovered.size()) {
      ++truncated_sites;
    }

    EXPECT_EQ(raw.recover_ok, ack.recover_ok) << "crash site " << m;
    EXPECT_EQ(raw.recovered, ack.recovered)
        << "durable prefixes diverge at crash site " << m << " (raw "
        << raw.recovered.size() << "B, ack " << ack.recovered.size() << "B)";

    // Record-boundary prefix: the scanner consumes the entire recovered
    // image — a crash can shorten the log but never tear a record.
    for (const LogCrashOutcome* o : {&raw, &ack}) {
      tp::LogScanner scan(o->recovered);
      std::uint64_t expect_lsn = 1;
      while (auto rec = scan.Next()) {
        EXPECT_EQ(rec->lsn, expect_lsn) << "crash site " << m;
        ++expect_lsn;
      }
      EXPECT_EQ(scan.offset(), o->recovered.size())
          << "torn record in recovered image at crash site " << m;
    }
  }
  // The property must not hold vacuously: some crash site has to lose
  // in-flight staged bytes and shorten the durable log.
  EXPECT_GT(truncated_sites, 0u);
}

}  // namespace
}  // namespace ods
