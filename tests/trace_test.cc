// End-to-end tests for the observability layer on the full stack:
//
//   * byte-determinism — two identically-seeded hot-stock runs (and two
//     identical crash-rig schedules) export byte-identical Chrome trace
//     JSON. Sim-time stamping makes any nondeterminism in the stack show
//     up as a trace diff, so this doubles as a regression net;
//   * op-id threading — one committed boxcar transaction is followable
//     across every lane (workload -> TMF -> ADP -> PM client -> fabric)
//     by the op id stamped into the exported events;
//   * metrics plane — registry counters agree with the trace of the same
//     run;
//   * BenchJson — the bench harness writes a nested document that parses
//     back with the registry snapshot and latency summaries intact.
#include "common/trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>

#include "common/crc32.h"

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "sim/simulation.h"
#include "workload/crash_rig.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace ods {
namespace {

workload::RigConfig SmallPmRig() {
  workload::RigConfig cfg;
  cfg.num_cpus = 4;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  return cfg;
}

workload::HotStockConfig SmallHotStock() {
  workload::HotStockConfig hs;
  hs.drivers = 2;
  hs.inserts_per_txn = 8;
  hs.records_per_driver = 64;
  hs.record_bytes = 512;
  return hs;
}

// Runs a small PM-backed hot-stock workload with tracing on and returns
// the exported Chrome trace. Everything inside is seeded from `seed`.
std::string RunTracedHotStock(std::uint64_t seed) {
  sim::Simulation sim(seed);
  Tracer tracer;
  tracer.Enable(1u << 15);
  sim.set_tracer(&tracer);
  {
    workload::Rig rig(sim, SmallPmRig());
    sim.RunFor(sim::Seconds(1));
    (void)workload::RunHotStock(rig, SmallHotStock());
  }
  sim.set_tracer(nullptr);
  return tracer.ToChromeJson();
}

TEST(TraceDeterminism, SeededHotStockRunsExportIdenticalBytes) {
  const std::string a = RunTracedHotStock(42);
  const std::string b = RunTracedHotStock(42);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_TRUE(JsonValue::Parse(a).has_value());
}

// Cross-engine golden: the calendar-queue engine must export the same
// bytes the seed (std::priority_queue) engine did. The values below
// were captured from BOTH engine generations on the SmallPmRig hot-stock
// config — trace and metrics agree to the byte, so any future engine
// change that perturbs dispatch order shows up here as a CRC diff, not
// just as "two runs of the same binary agree".
//
// events_executed is pinned to the current engine: the seed executed
// 5738 events on this config, the calendar engine 5354, because batched
// fabric delivery applies a boxcar's packets in one event instead of N.
// It is 5378 since DP2 cold recovery asks its ADP for a replay source
// before reading the trail: each of the 4 DP2s' start-up recoveries
// adds one refused round trip (6 events), before the traced load.
// It is 6889 since the PM log writer writes behind: each ADP starts an
// append as audit arrives instead of one at each commit, so the 16
// commits take 102 appends instead of 16 (pm.log.piggybacked 64 -> 150
// with the TCB log's, fabric packets 555 -> 899) and the trace holds
// 699 events instead of 355 (trace bytes and CRC re-pinned on the
// calendar engine alone). The count is asserted so the event budget
// can't silently drift.
//
// The metrics snapshot is pinned apart from the trace: it changes when
// the metric catalogue (DESIGN.md §5c) gains or loses a name, which
// moves no simulated event. It is 806 B since write-behind: the counters
// above moved, and a commit's flush latency is now timed from the
// request's arrival, since its records are written while the log writer
// checkpoints them: each trail's histogram holds 16 samples of 54-98 us
// instead of 8 of 63-96 us timed from after that checkpoint.
TEST(TraceDeterminism, GoldenBytesMatchSeedEngine) {
  for (std::uint64_t seed : {42ull, 11ull}) {
    sim::Simulation sim(seed);
    Tracer tracer;
    tracer.Enable(1u << 15);
    sim.set_tracer(&tracer);
    std::string metrics;
    {
      workload::Rig rig(sim, SmallPmRig());
      sim.RunFor(sim::Seconds(1));
      (void)workload::RunHotStock(rig, SmallHotStock());
      metrics = sim.metrics().Snapshot().Serialize();
    }
    sim.set_tracer(nullptr);
    const std::string trace = tracer.ToChromeJson();
    EXPECT_EQ(sim.events_executed(), 6889u) << "seed " << seed;
    EXPECT_EQ(trace.size(), 79729u) << "seed " << seed;
    EXPECT_EQ(Crc32c(std::as_bytes(std::span(trace.data(), trace.size()))),
              0x4b6dd160u)
        << "seed " << seed;
    EXPECT_EQ(metrics.size(), 806u) << "seed " << seed;
    EXPECT_EQ(
        Crc32c(std::as_bytes(std::span(metrics.data(), metrics.size()))),
        0x6a70e28au)
        << "seed " << seed;
  }
}

TEST(TraceDeterminism, CrashRigSchedulesExportIdenticalBytes) {
  // Record pass (no fault armed).
  auto r1 = workload::RunCrashScenario(7, workload::CrashMode::kNone,
                                       std::nullopt, /*capture_trace=*/true);
  auto r2 = workload::RunCrashScenario(7, workload::CrashMode::kNone,
                                       std::nullopt, /*capture_trace=*/true);
  EXPECT_TRUE(r1.violations.empty());
  ASSERT_FALSE(r1.trace_json.empty());
  EXPECT_EQ(r1.trace_json, r2.trace_json);
  EXPECT_TRUE(JsonValue::Parse(r1.trace_json).has_value());

  // One armed schedule: the crash + recovery path must replay
  // identically too. (Site 10 is a mid-scenario write-ack the halt mode
  // actually fires at — the earliest sites precede the armable window.)
  auto c1 = workload::RunCrashScenario(7, workload::CrashMode::kHaltPrimaryPmm,
                                       10, /*capture_trace=*/true);
  auto c2 = workload::RunCrashScenario(7, workload::CrashMode::kHaltPrimaryPmm,
                                       10, /*capture_trace=*/true);
  ASSERT_TRUE(c1.fired_at.has_value());
  EXPECT_TRUE(c1.violations.empty());
  ASSERT_FALSE(c1.trace_json.empty());
  EXPECT_EQ(c1.trace_json, c2.trace_json);
  // The armed run diverges from the record pass after the fired site.
  EXPECT_NE(c1.trace_json, r1.trace_json);
}

// The open-loop fleet and the sharded plane both key their randomness
// off Rng::ForStream(master, k). These pin the property the scale-out
// sweep depends on: stream k is a pure function of (master, k), so
// growing a rig from 4 drivers to 1000 — or 1 shard to 8 — never
// perturbs the draws of the streams that were already there (which is
// also what keeps the 1-shard/4-driver goldens above byte-identical).
TEST(RngStreams, StreamIsAPureFunctionOfSeedAndIndex) {
  Rng small_fleet[4] = {Rng::ForStream(42, 0), Rng::ForStream(42, 1),
                        Rng::ForStream(42, 2), Rng::ForStream(42, 3)};
  // Derive the same four streams "inside" a 1000-stream fleet, in
  // reverse order, after draining an unrelated stream — none of which
  // may matter.
  Rng noise = Rng::ForStream(42, 999);
  for (int i = 0; i < 17; ++i) (void)noise.Next();
  for (int k = 3; k >= 0; --k) {
    Rng again = Rng::ForStream(42, static_cast<std::uint64_t>(k));
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(small_fleet[k].Next(), again.Next()) << "stream " << k;
    }
  }
}

TEST(RngStreams, NeighboringStreamsAndSeedsDiverge) {
  // Adjacent streams of one master and the same stream of adjacent
  // masters must all disagree from the first draw (the SplitMix64
  // finalizer decorrelates them despite the tiny input distance).
  std::set<std::uint64_t> firsts;
  for (std::uint64_t k = 0; k < 64; ++k) {
    firsts.insert(Rng::ForStream(7, k).Next());
    firsts.insert(Rng::ForStream(8, k).Next());
  }
  EXPECT_EQ(firsts.size(), 128u);
}

TEST(TraceOpId, OneCommitIsFollowableAcrossAllLanes) {
  const std::string json = RunTracedHotStock(11);
  auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Lanes seen per op id, from complete spans carrying args.op.
  std::map<std::uint64_t, std::set<int>> lanes_by_op;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const JsonValue* ph = e.Find("ph");
    if (ph == nullptr || ph->str() != "X") continue;
    const JsonValue* args = e.Find("args");
    if (args == nullptr) continue;
    const JsonValue* op = args->Find("op");
    if (op == nullptr || op->number() == 0.0) continue;
    lanes_by_op[static_cast<std::uint64_t>(op->number())].insert(
        static_cast<int>(e.Find("tid")->number()));
  }

  // At least one committed transaction's op id must cross every layer of
  // the durable-write path: workload (1), TMF (2), ADP (3), PM client
  // (4), fabric (5).
  const std::set<int> want = {1, 2, 3, 4, 5};
  bool found = false;
  for (const auto& [op, lanes] : lanes_by_op) {
    if (std::includes(lanes.begin(), lanes.end(), want.begin(), want.end())) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found) << "no op id spans all five trace lanes";
}

// The registry holds one tally per quantity; the trace is an independent
// record of the same run, so the two must agree. Every durable ADP flush
// is one adp.flush_io span with ok=1, and every commit a driver saw
// succeed is one tmf.commits increment.
TEST(MetricsPlane, RegistryAgreesWithTrace) {
  sim::Simulation sim(42);
  Tracer tracer;
  tracer.Enable(1u << 15);
  sim.set_tracer(&tracer);
  {
    workload::Rig rig(sim, SmallPmRig());
    sim.RunFor(sim::Seconds(1));
    const workload::HotStockResult result =
        workload::RunHotStock(rig, SmallHotStock());

    std::uint64_t durable_flush_spans = 0;
    tracer.ForEach([&](const TraceEvent& e) {
      if (std::strcmp(e.name, "adp.flush_io") == 0 &&
          e.arg_key[1] != nullptr && std::strcmp(e.arg_key[1], "ok") == 0 &&
          e.arg_val[1] == 1) {
        ++durable_flush_spans;
      }
    });
    ASSERT_EQ(tracer.dropped(), 0u) << "the ring must hold the whole run";
    const MetricsRegistry& m = sim.metrics();
    EXPECT_GT(durable_flush_spans, 0u);
    EXPECT_EQ(m.CounterValue("adp.flushes"), durable_flush_spans);
    EXPECT_EQ(rig.Account().audit_flushes, durable_flush_spans);

    EXPECT_GT(result.TotalCommitted(), 0u);
    EXPECT_EQ(m.CounterValue("tmf.commits"), result.TotalCommitted());
  }
  sim.set_tracer(nullptr);
}

TEST(BenchJson, WritesNestedDocumentThatRoundTrips) {
  bench::BenchJson json("ut_roundtrip");
  json.Set("elapsed_s", 1.5);

  LatencyHistogram h;
  for (std::uint64_t i = 1; i <= 100; ++i) h.Record(i * 1000);
  json.SetLatency("txn", h);
  json.SetOpsPerSec("txn", h);  // merges into the same nested object

  JsonValue rows = JsonValue::Array();
  for (int k : {1, 8}) {
    JsonValue row = JsonValue::Object();
    row.Set("boxcar", k);
    row.Set("label", "K=\"" + std::to_string(k) + "\"");  // needs escaping
    rows.Append(std::move(row));
  }
  json.Set("rows", std::move(rows));

  MetricsRegistry m;
  m.GetCounter("x.ops").Add(3);
  m.GetHistogram("x.lat").Record(500);
  json.AttachMetrics(m);
  ASSERT_TRUE(json.Write());

  std::FILE* f = std::fopen("BENCH_ut_roundtrip.json", "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove("BENCH_ut_roundtrip.json");

  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_EQ(doc->Find("bench")->str(), "ut_roundtrip");
  EXPECT_DOUBLE_EQ(doc->Find("elapsed_s")->number(), 1.5);

  const JsonValue* txn = doc->Find("txn");
  ASSERT_NE(txn, nullptr);
  EXPECT_EQ(txn->Find("count")->number(), 100.0);
  ASSERT_NE(txn->Find("p99_us"), nullptr);
  ASSERT_NE(txn->Find("ops_per_sec"), nullptr);

  const JsonValue* rows_back = doc->Find("rows");
  ASSERT_NE(rows_back, nullptr);
  ASSERT_EQ(rows_back->size(), 2u);
  EXPECT_EQ(rows_back->at(0).Find("label")->str(), "K=\"1\"");

  const JsonValue* counters = doc->Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("x.ops")->number(), 3.0);
}

}  // namespace
}  // namespace ods
