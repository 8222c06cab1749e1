// Scale-out placement and multi-log recovery tests.
//
// Part 1 pins the three ShardMap placement properties the sharded
// persistence plane is built on (pm/shard_map.h): the map is a pure
// function of (name, shard_count); load spreads within 20% of even; and
// growing the shard count moves only the regions the new shard wins —
// everything else keeps its owner, so a scale-out event does not
// reshuffle the plane.
//
// Part 2 is a crash sweep over the multi-log device (ShardedPmLogDevice):
// a writer stripes flushes over four shard pairs and is killed at every
// instrumented site of the final, unacked flush — the per-shard epoch
// commit boundaries ("shardlog:commit:s<k>") and the RDMA write acks the
// stripes ride on. Recovery must merge the per-shard streams and truncate
// at the first hole: the recovered image is a byte-exact prefix of the
// logical log, ends on a record boundary, and never loses an acked byte
// (the cross-shard form of invariants I1/I2/I4). Recovery is also durably
// idempotent, and the log must accept appends again afterwards. The
// same sweep on active NPMUs runs the offloaded RecoverSummary (device
// stripe scans plus the shared merge) first; its tail and next LSN must
// agree with the image-based recovery.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "nsk/cluster.h"
#include "pm/npmu.h"
#include "pm/plane.h"
#include "pm/shard_map.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "tp/audit.h"
#include "tp/log_device.h"

namespace ods {
namespace {

using sim::Task;

// ------------------------------------------------------------ placement

std::string RegionName(int i) {
  // Shaped like the rig's real stream names so the balance numbers are
  // representative, not an artifact of toy keys.
  return "audit-$A" + std::to_string(i) + "-s0";
}

TEST(ShardMapPlacement, PureFunctionOfNameAndCount) {
  const pm::ShardMap a("$PMM", 4);
  const pm::ShardMap b("$PMM", 4);
  for (int i = 0; i < 1000; ++i) {
    const std::string name = RegionName(i);
    const int owner = a.ShardFor(name);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    EXPECT_EQ(owner, b.ShardFor(name)) << name;
    // The owner is derivable from the statics alone — no map state.
    const std::uint64_t h = pm::ShardMap::HashName(name);
    int best = 0;
    for (int s = 1; s < 4; ++s) {
      if (pm::ShardMap::Weight(h, s) > pm::ShardMap::Weight(h, best)) best = s;
    }
    EXPECT_EQ(owner, best) << name;
  }
}

TEST(ShardMapPlacement, ServiceNamingKeepsSingleShardLegacy) {
  const pm::ShardMap one("$PMM", 1);
  EXPECT_EQ(one.ServiceForShard(0), "$PMM");  // goldens depend on this
  EXPECT_EQ(one.ServiceFor("audit-$A0"), "$PMM");
  const pm::ShardMap four("$PMM", 4);
  EXPECT_EQ(four.ServiceForShard(0), "$PMM0");
  EXPECT_EQ(four.ServiceForShard(3), "$PMM3");
  const std::string name = RegionName(7);
  EXPECT_EQ(four.ServiceFor(name),
            four.ServiceForShard(four.ShardFor(name)));
}

TEST(ShardMapPlacement, BalancedWithinTwentyPercent) {
  constexpr int kNames = 10000;
  for (int shards : {2, 4, 8}) {
    const pm::ShardMap map("$PMM", shards);
    std::vector<int> count(static_cast<std::size_t>(shards), 0);
    for (int i = 0; i < kNames; ++i) {
      ++count[static_cast<std::size_t>(map.ShardFor(RegionName(i)))];
    }
    const double mean = static_cast<double>(kNames) / shards;
    for (int s = 0; s < shards; ++s) {
      EXPECT_GE(count[static_cast<std::size_t>(s)], mean * 0.8)
          << "shard " << s << "/" << shards << " underloaded";
      EXPECT_LE(count[static_cast<std::size_t>(s)], mean * 1.2)
          << "shard " << s << "/" << shards << " overloaded";
    }
  }
}

TEST(ShardMapPlacement, GrowthMovesOnlyWinnersOfTheNewShard) {
  constexpr int kNames = 10000;
  for (int n = 1; n < 8; ++n) {
    const pm::ShardMap old_map("$PMM", n);
    const pm::ShardMap new_map("$PMM", n + 1);
    int moved = 0;
    for (int i = 0; i < kNames; ++i) {
      const std::string name = RegionName(i);
      const int before = old_map.ShardFor(name);
      const int after = new_map.ShardFor(name);
      if (before != after) {
        // A region only ever moves TO the shard that joined; the old
        // shards' pairwise weight order is unchanged by growth.
        EXPECT_EQ(after, n) << name << " moved " << before << "->" << after
                            << " at " << n << "->" << n + 1;
        ++moved;
      }
    }
    // Rendezvous moves ~1/(n+1) of regions on growth. With 10k samples
    // the deviation is small; bound it loosely so the test pins the
    // property, not the hash.
    const double frac = static_cast<double>(moved) / kNames;
    const double want = 1.0 / (n + 1);
    EXPECT_GT(frac, want * 0.6) << n << "->" << n + 1;
    EXPECT_LT(frac, want * 1.5) << n << "->" << n + 1;
  }
}

// ---------------------------------------------- multi-log crash recovery

using TestProcess = nsk::AppProcess;

// One framed audit record big enough that an 8-record flush stripes
// across all four streams (cuts need >= kMinStripeBytes per stripe).
std::vector<std::byte> BigChunk(std::uint64_t lsn) {
  tp::AuditRecord r;
  r.lsn = lsn;
  r.txn = lsn;
  r.type = tp::AuditType::kUpdate;
  r.file_id = 1;
  r.key = lsn * 7;
  r.after_image.assign(63u << 10,
                       std::byte{static_cast<unsigned char>(lsn & 0xFF)});
  std::vector<std::byte> out;
  tp::FrameRecord(r, out);
  return out;
}

// gtest's ASSERT_* need a void function; inside a Task<void> coroutine we
// want "record the failure and bail" semantics instead.
#define ASSERT_CO(expr)                       \
  do {                                        \
    const Status _st = (expr);                \
    EXPECT_TRUE(_st.ok()) << _st.ToString();  \
    if (!_st.ok()) co_return;                 \
  } while (0)

struct TornFlushResult {
  std::vector<sim::FaultSite> trace;  // writer-phase fault sites
  std::optional<std::size_t> fired_at;
  std::size_t pre_final_sites = 0;  // sites reached before the torn flush
  std::uint64_t acked_tail = 0;     // bytes acked before the final flush
  bool final_acked = false;
  std::vector<std::byte> expected;          // full logical log, incl. final
  std::vector<std::uint64_t> boundaries;    // global record-end offsets
  bool recover_ok = false;
  std::string recover_err;
  std::vector<std::byte> recovered;
  bool idempotent = false;      // a second cold recovery returned the same
  bool post_append_ok = false;  // the log accepts appends again afterwards
  // Offloaded runs only: the device-side RecoverSummary taken before the
  // image-based recovery, and how many stripe scans the NPMUs executed.
  std::optional<Result<tp::LogDevice::RecoverySummary>> summary;
  std::uint64_t device_scans = 0;
};

// Builds a 4-shard persistence plane (four PMM pairs, each on its own
// NPMU pair), streams four 8-record flushes through a ShardedPmLogDevice,
// and — when `crash_index` is set — kills the writer at that fault site.
// A second process then cold-recovers the multi-log from the surviving
// NPMUs. With `offload` the NPMUs execute device commands and a fresh
// device first runs the offloaded RecoverSummary (stripe scans plus the
// merge). Fully deterministic: a given crash_index replays
// byte-identically.
TornFlushResult RunTornFlushScenario(std::optional<std::size_t> crash_index,
                                     bool offload = false) {
  constexpr int kShards = 4;
  constexpr int kFlushes = 4;  // the last one is the torn candidate
  TornFlushResult out;

  sim::Simulation sim(17);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::NpmuConfig ncfg;
  ncfg.active_commands = offload;
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair, kShards, ncfg);
  plane.Start();

  sim::FaultPlan plan;
  sim.set_fault_plan(&plan);

  tp::ShardedPmLogConfig dcfg;
  dcfg.map = plane.shard_map();
  dcfg.region_prefix = "audit-T-s";
  dcfg.region_bytes = 2ull << 20;
  dcfg.offload = offload;

  // The flush's bytes and record ends, and its contribution to the
  // logical log.
  auto build_flush = [&](int f) {
    std::pair<std::vector<std::byte>, std::vector<std::uint64_t>> flush;
    auto& [bytes, marks] = flush;
    for (int c = 0; c < 8; ++c) {
      const std::vector<std::byte> chunk =
          BigChunk(1 + static_cast<std::uint64_t>(f) * 8 +
                   static_cast<std::uint64_t>(c));
      bytes.insert(bytes.end(), chunk.begin(), chunk.end());
      marks.push_back(bytes.size());
      out.expected.insert(out.expected.end(), chunk.begin(), chunk.end());
      out.boundaries.push_back(out.expected.size());
    }
    return flush;
  };

  TestProcess& writer = sim.Adopt<TestProcess>(
      cluster, 0, "writer", [&](TestProcess& self) -> Task<void> {
        tp::ShardedPmLogDevice dev(dcfg);
        ASSERT_CO(co_await dev.Open(self));
        for (int f = 0; f < kFlushes - 1; ++f) {
          auto [bytes, marks] = build_flush(f);
          ASSERT_CO(co_await dev.Append(self, std::move(bytes),
                                        std::move(marks)));
          out.acked_tail = dev.tail();
        }
        out.pre_final_sites = plan.sites_reached();
        auto [bytes, marks] = build_flush(kFlushes - 1);
        const Status st =
            co_await dev.Append(self, std::move(bytes), std::move(marks));
        out.final_acked = st.ok();
      });
  if (crash_index.has_value()) {
    plan.ArmAt(*crash_index,
               [&writer](const sim::FaultSite&) { writer.Kill(); });
  }
  sim.Run();
  out.trace = plan.trace();
  out.fired_at = plan.fired_at();
  sim.set_fault_plan(nullptr);

  // Cold recovery against the surviving NPMUs/PMMs, three times over:
  // recover, recover again (durable idempotence — the truncation was
  // written back), then append and recover once more (the erased stale
  // stripes cannot conflict with the new bytes).
  sim.Adopt<TestProcess>(
      cluster, 1, "recover", [&](TestProcess& self) -> Task<void> {
        if (offload) {
          tp::ShardedPmLogDevice summarized(dcfg);
          out.summary = co_await summarized.RecoverSummary(self);
        }
        tp::ShardedPmLogDevice fresh(dcfg);
        auto log = co_await fresh.RecoverLog(self);
        if (!log.ok()) {
          out.recover_err = log.status().ToString();
          co_return;
        }
        out.recover_ok = true;
        out.recovered = *log;

        tp::ShardedPmLogDevice again(dcfg);
        auto log2 = co_await again.RecoverLog(self);
        out.idempotent = log2.ok() && *log2 == out.recovered;
        if (!out.idempotent) co_return;

        const std::vector<std::byte> extra = BigChunk(999);
        if (!(co_await again.Append(self, extra)).ok()) co_return;
        tp::ShardedPmLogDevice third(dcfg);
        auto log3 = co_await third.RecoverLog(self);
        std::vector<std::byte> want = out.recovered;
        want.insert(want.end(), extra.begin(), extra.end());
        out.post_append_ok = log3.ok() && *log3 == want;
      });
  sim.Run();
  if (const Counter* c = sim.metrics().FindCounter("pm.offload.verify_scans")) {
    out.device_scans = c->value();
  }
  sim.Shutdown();
  return out;
}

// The offloaded summary agrees with the image-based recovery that
// follows it: same durable tail, and the LSN after the last recovered
// record.
void ExpectSummaryMatchesRecovery(const TornFlushResult& r) {
  ASSERT_TRUE(r.summary.has_value());
  ASSERT_TRUE(r.summary->ok()) << r.summary->status().ToString();
  EXPECT_EQ((*r.summary)->durable_tail, r.recovered.size());
  std::uint64_t last_lsn = 0;
  tp::LogScanner scan(r.recovered);
  while (auto rec = scan.Next()) last_lsn = rec->lsn;
  EXPECT_EQ((*r.summary)->next_lsn, last_lsn + 1);
}

TEST(ShardedLogRecovery, RecordPassRecoversTheFullLog) {
  TornFlushResult r = RunTornFlushScenario(std::nullopt);
  ASSERT_TRUE(r.final_acked);
  ASSERT_TRUE(r.recover_ok) << r.recover_err;
  EXPECT_EQ(r.recovered, r.expected);
  EXPECT_TRUE(r.idempotent);
  EXPECT_TRUE(r.post_append_ok);
  EXPECT_FALSE(r.fired_at.has_value());
  // The epoch-commit boundary of every stream is instrumented — the
  // sweep below gets real cross-shard coverage.
  std::set<std::string> labels;
  for (const auto& s : r.trace) labels.insert(s.label);
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(labels.count("shardlog:commit:s" + std::to_string(s)))
        << "stream " << s << " never committed a stripe";
  }
  // The torn-candidate window must contain sites to sweep.
  ASSERT_GT(r.trace.size(), r.pre_final_sites);
}

TEST(ShardedLogRecovery, RecordPassIsDeterministic) {
  TornFlushResult a = RunTornFlushScenario(std::nullopt);
  TornFlushResult b = RunTornFlushScenario(std::nullopt);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.recovered, b.recovered);
}

TEST(ShardedLogRecovery, TornFlushSweepHoldsInvariants) {
  const TornFlushResult record = RunTornFlushScenario(std::nullopt);
  ASSERT_TRUE(record.recover_ok) << record.recover_err;
  ASSERT_GT(record.trace.size(), record.pre_final_sites);

  const std::set<std::uint64_t> boundaries(record.boundaries.begin(),
                                           record.boundaries.end());
  // Kill the writer at a stride of sites across the final flush: the
  // per-shard epoch-commit boundaries and the RDMA acks between them.
  // (Earlier sites would tear an *acked* flush, which the serial flush
  // loop makes impossible in the real ADP.)
  const std::size_t stride = 5;
  for (std::size_t i = record.pre_final_sites; i < record.trace.size();
       i += stride) {
    TornFlushResult r = RunTornFlushScenario(i);
    SCOPED_TRACE("crash @ site " + std::to_string(i) + " (" +
                 record.trace[i].ToString() + ")");
    // The pre-crash prefix replays the record pass exactly.
    ASSERT_TRUE(r.fired_at.has_value());
    EXPECT_EQ(*r.fired_at, i);
    for (std::size_t k = 0; k <= i && k < r.trace.size(); ++k) {
      ASSERT_EQ(r.trace[k], record.trace[k]) << "diverged at site " << k;
    }
    // I1 holds inside RecoverLog (stream epoch == committed frame
    // count per shard, else it returns kDataLoss) — so ok() is itself
    // the cross-shard epoch consistency check.
    ASSERT_TRUE(r.recover_ok) << r.recover_err;
    // I4: every byte acked before the torn flush survives.
    EXPECT_GE(r.recovered.size(), r.acked_tail);
    // The merge is a byte-exact prefix of the logical log...
    ASSERT_LE(r.recovered.size(), record.expected.size());
    EXPECT_TRUE(std::equal(r.recovered.begin(), r.recovered.end(),
                           record.expected.begin()))
        << "recovered image is not a prefix of the logical log";
    // ...that ends on a record boundary (stripe cuts snap to record
    // cohorts, and truncation lands on a stripe edge or the acked tail).
    EXPECT_TRUE(r.recovered.empty() || boundaries.count(r.recovered.size()))
        << "recovered tail " << r.recovered.size()
        << " is not a record boundary";
    // Every whole record in the image parses back.
    tp::LogScanner scan(r.recovered);
    std::size_t n = 0;
    while (scan.Next().has_value()) ++n;
    EXPECT_EQ(scan.offset(), r.recovered.size());
    EXPECT_EQ(n * (BigChunk(1).size()), r.recovered.size());
    // Truncation was written back durably, and the log is writable again.
    EXPECT_TRUE(r.idempotent);
    EXPECT_TRUE(r.post_append_ok);
  }
}

TEST(ShardedLogRecovery, OffloadedSummaryMatchesRecordPass) {
  const TornFlushResult r = RunTornFlushScenario(std::nullopt, true);
  ASSERT_TRUE(r.final_acked);
  ASSERT_TRUE(r.recover_ok) << r.recover_err;
  EXPECT_EQ(r.recovered, r.expected);
  ExpectSummaryMatchesRecovery(r);
  // The stripe scans ran on the devices, not through the host fallback.
  EXPECT_GT(r.device_scans, 0u);
}

TEST(ShardedLogRecovery, OffloadedSummaryTornFlushSweep) {
  const TornFlushResult record = RunTornFlushScenario(std::nullopt, true);
  ASSERT_TRUE(record.recover_ok) << record.recover_err;
  ASSERT_GT(record.trace.size(), record.pre_final_sites);
  // Every site of the final flush: the stride-5 sweep above misses the
  // crashes that leave a partly landed flush.
  for (std::size_t i = record.pre_final_sites; i < record.trace.size(); ++i) {
    const TornFlushResult r = RunTornFlushScenario(i, true);
    SCOPED_TRACE("crash @ site " + std::to_string(i) + " (" +
                 record.trace[i].ToString() + ")");
    ASSERT_TRUE(r.fired_at.has_value());
    ASSERT_TRUE(r.recover_ok) << r.recover_err;
    EXPECT_GE(r.recovered.size(), r.acked_tail);
    ASSERT_LE(r.recovered.size(), record.expected.size());
    EXPECT_TRUE(std::equal(r.recovered.begin(), r.recovered.end(),
                           record.expected.begin()));
    ExpectSummaryMatchesRecovery(r);
    EXPECT_GT(r.device_scans, 0u);
  }
}

}  // namespace
}  // namespace ods
