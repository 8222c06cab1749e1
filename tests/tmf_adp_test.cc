// Service-level tests for the transaction monitor (TMF) and log writer
// (ADP): transaction state machine, audit flush semantics, group commit,
// LSN continuity across failover, PM-resident TCB recovery, and failure
// behaviour when the audit trail is unavailable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/framescan.h"
#include "common/serialize.h"
#include "db/txn_client.h"
#include "nsk/cluster.h"
#include "pm/plane.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "tp/kinds.h"
#include "tp/log_device.h"
#include "tp/tmf.h"
#include "workload/rig.h"

namespace ods::tp {
namespace {

using db::TxnClient;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

using App = nsk::AppProcess;

struct TmfAdpFixture : ::testing::Test {
  void Start(bool pm, bool pm_tcb = false) {
    rig.reset();
    sim.reset();
    sim = std::make_unique<sim::Simulation>(19);
    workload::RigConfig cfg;
    cfg.num_files = 2;
    cfg.partitions_per_file = 2;
    cfg.num_adps = 2;
    if (pm) {
      cfg.log_medium = LogMedium::kPm;
      cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
      cfg.pm_tcb = pm_tcb;
    }
    rig = std::make_unique<workload::Rig>(*sim, cfg);
    sim->RunFor(Seconds(1));
  }

  void RunApp(App::Body body, int cpu = 2) {
    done = false;
    sim->Adopt<App>(rig->cluster(), cpu, "app" + std::to_string(seq++),
                    [this, body = std::move(body)](App& self) -> Task<void> {
                      co_await body(self);
                      done = true;
                    });
    sim->RunFor(Seconds(120));
    EXPECT_TRUE(done) << "app did not finish";
  }

  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<workload::Rig> rig;
  bool done = false;
  int seq = 0;
};

// ------------------------------------------------------------- TMF states

TEST_F(TmfAdpFixture, TxnStateMachine) {
  Start(false);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE(t1.ok());
    EXPECT_EQ(rig->tmf().StateOf(t1->id), TxnState::kActive);
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    EXPECT_EQ(rig->tmf().StateOf(t1->id), TxnState::kCommitted);

    auto t2 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t2, 0, 2,
                                        std::vector<std::byte>(16,
                                                               std::byte{2})))
                    .ok());
    EXPECT_TRUE((co_await client.Abort(*t2)).ok());
    EXPECT_EQ(rig->tmf().StateOf(t2->id), TxnState::kAborted);
  });
  EXPECT_EQ(sim->metrics().CounterValue("tmf.commits"), 1u);
  EXPECT_EQ(sim->metrics().CounterValue("tmf.aborts"), 1u);
}

TEST_F(TmfAdpFixture, CommitOfUnknownTxnRejected) {
  Start(false);
  Status st;
  RunApp([&](App& self) -> Task<void> {
    Serializer s;
    s.PutU64(0xDEAD);  // never begun
    s.PutU32(0);
    s.PutU32(0);
    auto r = co_await self.Call("$TMF", kTmfCommit, std::move(s).Take());
    st = r.ok() ? r->status : r.status();
  });
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(TmfAdpFixture, DoubleCommitRejected) {
  Start(false);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto txn = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*txn)).ok());
    auto again = co_await client.Commit(*txn);
    EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);
  });
}

TEST_F(TmfAdpFixture, TxnIdsAreMonotonic) {
  Start(false);
  std::vector<std::uint64_t> ids;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    for (int i = 0; i < 5; ++i) {
      auto txn = co_await client.Begin();
      EXPECT_TRUE(txn.ok());
      ids.push_back(txn->id);
      (void)co_await client.Abort(*txn);
    }
  });
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GT(ids[i], ids[i - 1]);
  }
}

TEST_F(TmfAdpFixture, CommitFailsCleanlyWhenAuditUnavailable) {
  // Kill BOTH members of an ADP pair: a transaction that logged there
  // cannot commit. Its commit record may be durable on the other trail,
  // so the TMF answers it in doubt and keeps it committing: it is neither
  // aborted nor undone, an abort is refused, and its writes stay locked.
  Start(false);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    // Find a key on each ADP: insert into both files to involve both.
    auto txn = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Insert(*txn, 1, 2,
                                        std::vector<std::byte>(16,
                                                               std::byte{2})))
                    .ok());
    // Kill one ADP pair entirely.
    rig->adps()[1]->Kill();
    if (auto* peer = rig->adps()[1]->peer(); peer != nullptr) peer->Kill();
    auto st = co_await client.Commit(*txn);
    EXPECT_FALSE(st.ok()) << "commit must not succeed without its audit";
    EXPECT_EQ(st.code(), ErrorCode::kUnavailable) << st.ToString();
    EXPECT_EQ(rig->tmf().StateOf(txn->id), TxnState::kCommitting);
    EXPECT_EQ((co_await client.Abort(*txn)).code(),
              ErrorCode::kFailedPrecondition);
    // A reader times out on the in-doubt transaction's lock.
    auto check = co_await client.Begin();
    EXPECT_TRUE(check.ok());
    auto cv = co_await client.Read(*check, 0, 1);
    EXPECT_EQ(cv.status().code(), ErrorCode::kAborted);
  });
}

// ---------------------------------------------------------- PM TCB / MTTR

TEST_F(TmfAdpFixture, PmTcbStateSurvivesPowerLoss) {
  Start(true, /*pm_tcb=*/true);
  std::uint64_t committed_id = 0, aborted_id = 0;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    committed_id = t1->id;
    auto t2 = co_await client.Begin();
    (void)co_await client.Abort(*t2);
    aborted_id = t2->id;
  });
  rig->PowerLoss();
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(20));

  // The recovered TMF must know both outcomes directly from the PM TCB
  // trail (no audit scan).
  EXPECT_EQ(rig->tmf().StateOf(committed_id), TxnState::kCommitted);
  EXPECT_EQ(rig->tmf().StateOf(aborted_id), TxnState::kAborted);
  EXPECT_LT(sim::ToMillisD(rig->tmf().last_recovery_time()), 5.0)
      << "PM TCB recovery is direct reads, not a scan";
}

TEST_F(TmfAdpFixture, ScanBasedTcbRecoveryAlsoWorksButSlower) {
  Start(false);
  std::uint64_t committed_id = 0;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    committed_id = t1->id;
  });
  rig->PowerLoss();
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));

  EXPECT_EQ(rig->tmf().StateOf(committed_id), TxnState::kCommitted);
  EXPECT_GT(sim::ToMillisD(rig->tmf().last_recovery_time()), 10.0)
      << "scan-based recovery pays the audit-trail search";
}

// ------------------------------------------------------------------- ADP

TEST_F(TmfAdpFixture, GroupCommitSharesFlushes) {
  // N concurrent committers against ONE audit trail must need far fewer
  // media flushes than N.
  Start(false);
  rig.reset();
  sim.reset();
  sim = std::make_unique<sim::Simulation>(19);
  workload::RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 1;  // one shared trail
  rig = std::make_unique<workload::Rig>(*sim, cfg);
  sim->RunFor(Seconds(1));

  constexpr int kApps = 8;
  constexpr int kTxns = 6;
  int finished = 0;
  for (int a = 0; a < kApps; ++a) {
    sim->Adopt<App>(rig->cluster(), a % 4, "app" + std::to_string(a),
                    [&, a](App& self) -> Task<void> {
                      TxnClient client(self, rig->catalog());
                      for (int t = 0; t < kTxns; ++t) {
                        auto txn = co_await client.Begin();
                        if (!txn.ok()) continue;
                        (void)co_await client.Insert(
                            *txn, 0,
                            static_cast<std::uint64_t>(a) * 1000 +
                                static_cast<std::uint64_t>(t),
                            std::vector<std::byte>(512, std::byte{1}));
                        (void)co_await client.Commit(*txn);
                      }
                      ++finished;
                    });
  }
  sim->RunFor(Seconds(120));
  EXPECT_EQ(finished, kApps);
  const std::uint64_t flushes = sim->metrics().CounterValue("adp.flushes");
  EXPECT_LT(flushes, static_cast<std::uint64_t>(kApps * kTxns))
      << "group commit must batch concurrent commit flushes";
  EXPECT_GT(flushes, 0u);
}

TEST_F(TmfAdpFixture, LsnsContinueAcrossFailover) {
  Start(true);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    for (int i = 0; i < 3; ++i) {
      auto txn = co_await client.Begin();
      EXPECT_TRUE((co_await client.Insert(
                       *txn, 0, static_cast<std::uint64_t>(i),
                       std::vector<std::byte>(64, std::byte{1})))
                      .ok());
      EXPECT_TRUE((co_await client.Commit(*txn)).ok());
    }
  });
  const std::uint64_t lsn_before = rig->adps()[0]->next_lsn();
  ASSERT_GT(lsn_before, 1u);
  auto* backup = static_cast<AdpProcess*>(rig->adps()[0]->peer());
  ASSERT_NE(backup, nullptr);
  rig->KillAdpPrimary(0);
  sim->RunFor(Seconds(2));
  ASSERT_TRUE(backup->is_primary());
  EXPECT_GE(backup->next_lsn(), lsn_before)
      << "the promoted backup must not reissue LSNs";
}

TEST_F(TmfAdpFixture, FlushLatencyMatchesMedium) {
  for (bool pm : {false, true}) {
    Start(pm);
    RunApp([&](App& self) -> Task<void> {
      TxnClient client(self, rig->catalog());
      for (int i = 0; i < 5; ++i) {
        auto txn = co_await client.Begin();
        EXPECT_TRUE((co_await client.Insert(
                         *txn, 0, static_cast<std::uint64_t>(i),
                         std::vector<std::byte>(1024, std::byte{1})))
                        .ok());
        EXPECT_TRUE((co_await client.Commit(*txn)).ok());
      }
    });
    double mean_us = 0;
    std::uint64_t n = 0;
    for (auto* adp : rig->adps()) {
      mean_us += adp->flush_latency().mean() *
                 static_cast<double>(adp->flush_latency().count());
      n += adp->flush_latency().count();
    }
    ASSERT_GT(n, 0u);
    mean_us = mean_us / static_cast<double>(n) / 1e3;
    if (pm) {
      EXPECT_LT(mean_us, 500.0) << "PM flush must be sub-millisecond";
    } else {
      EXPECT_GT(mean_us, 2000.0) << "disk flush pays rotational latency";
    }
  }
}

// ------------------------------------------------- torn-write durability

// A length/payload/crc frame exactly as the audit path lays them down.
std::vector<std::byte> MakeFrame(std::size_t payload_len, std::uint8_t fill) {
  std::vector<std::byte> payload(payload_len, static_cast<std::byte>(fill));
  Serializer s;
  s.PutU32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::byte> out = std::move(s).Take();
  out.insert(out.end(), payload.begin(), payload.end());
  Serializer c;
  c.PutU32(Crc32c(payload));
  std::vector<std::byte> crc = std::move(c).Take();
  out.insert(out.end(), crc.begin(), crc.end());
  return out;
}

// A PMM pair over a mirrored NPMU pair, for driving a PmLogDevice on
// CPUs 2 and 3.
struct PmLogRig {
  explicit PmLogRig(std::uint64_t seed = 23) : sim(seed) { plane.Start(); }

  sim::Simulation sim;
  nsk::Cluster cluster{sim, nsk::ClusterConfig{}};
  pm::PmPlane plane{cluster, pm::PmDeviceKind::kNpmuPair};
};

TEST(PmLogTornWrite, ControlBlockNeverDurableBeforeItsData) {
  // The §3.4 invariant under the piggybacked path: the control block rides
  // the SAME chained RDMA op as the data, and the chain aborts all later
  // segments when a packet fails its CRC check. Inject per-packet
  // corruption until an append tears mid-chain, then "power fail" (drop
  // all volatile state) and recover from the raw region: every byte the
  // durable tail covers must be a whole, valid frame.
  PmLogRig rig;
  sim::Simulation& sim = rig.sim;
  nsk::Cluster& cluster = rig.cluster;

  std::uint64_t acked = 0;  // bytes of appends acknowledged durable
  bool torn = false;
  sim.Adopt<App>(cluster, 2, "writer", [&](App& self) -> Task<void> {
    PmLogConfig cfg;
    cfg.region_name = "torn-log";
    cfg.region_bytes = 1ull << 20;
    PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    // Each ~600B frame is several packets (data + piggybacked control);
    // a corrupted packet anywhere tears the chain at that point.
    cluster.fabric().SetCorruptionRate(0.04);
    for (int i = 0; i < 400 && !torn; ++i) {
      std::vector<std::byte> frame =
          MakeFrame(600, static_cast<std::uint8_t>(i + 1));
      const std::uint64_t n = frame.size();
      auto st = co_await dev.Append(self, std::move(frame));
      if (st.ok()) {
        acked += n;
      } else {
        torn = true;  // power fails at the torn write
      }
    }
    cluster.fabric().SetCorruptionRate(0);
  });
  sim.RunFor(Seconds(30));
  ASSERT_TRUE(torn) << "corruption never tore an append";
  ASSERT_GT(acked, 0u);

  // Power loss: the writer's tail is volatile and gone. A fresh device
  // instance recovers purely from the durable control block
  // and ring contents.
  std::vector<std::byte> img;
  bool recovered = false;
  sim.Adopt<App>(cluster, 3, "recover", [&](App& self) -> Task<void> {
    PmLogConfig cfg;
    cfg.region_name = "torn-log";
    cfg.region_bytes = 1ull << 20;
    PmLogDevice dev(cfg);
    auto log = co_await dev.RecoverLog(self);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (log.ok()) {
      img = std::move(*log);
      recovered = true;
    }
  });
  sim.RunFor(Seconds(30));
  ASSERT_TRUE(recovered);
  // The invariant: the tail pointer is never durable before the data it
  // covers — the recovered prefix parses as whole valid frames, and no
  // acknowledged append is missing.
  EXPECT_EQ(FrameScanPrefix(img), img.size())
      << "durable tail covers bytes that never validly landed";
  EXPECT_GE(img.size(), acked) << "an acknowledged append was lost";
}

TEST(PmLogTornWrite, WrappedAppendTearsBeforeItsControlBlock) {
  // An append that wraps at the ring end is still one chain: [extent A at
  // the ring end, extent B at the ring start, control block]. Fill a
  // 4 KiB ring with acked frames, then post one wrapping append under
  // heavy packet corruption, power-fail, and look at what the primary
  // holds. Whenever its control block moved, the whole chain landed.
  // Whenever it did not and extent B left the ring start alone, a fresh
  // device recovers exactly the acked prefix. At least one trial must tear
  // after extent A landed whole.
  constexpr std::uint64_t kRing = 4096;
  constexpr std::uint64_t kDataBase = PmLogStream::kDataBase;
  PmLogConfig cfg;
  cfg.region_name = "torn-wrap";
  cfg.region_bytes = kRing;
  int torn_after_extent_a = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PmLogRig rig(seed);
    std::vector<std::byte> acked;  // the acked log, in order
    const std::vector<std::byte> wrap = MakeFrame(2000, 0xEE);
    Status wrap_st;
    rig.sim.Adopt<App>(rig.cluster, 2, "writer", [&](App& self) -> Task<void> {
      PmLogDevice dev(cfg);
      EXPECT_TRUE((co_await dev.Open(self)).ok());
      for (int i = 0; i < 6; ++i) {
        std::vector<std::byte> frame =
            MakeFrame(600, static_cast<std::uint8_t>(i + 1));
        EXPECT_TRUE((co_await dev.Append(self, frame)).ok());
        acked.insert(acked.end(), frame.begin(), frame.end());
      }
      rig.cluster.fabric().SetCorruptionRate(0.3);
      wrap_st = co_await dev.Append(self, wrap);
      rig.cluster.fabric().SetCorruptionRate(0);
    });
    rig.sim.RunFor(Seconds(5));
    ASSERT_EQ(acked.size(), 6u * 608);
    if (wrap_st.ok()) continue;

    // Power loss: read the primary's region as recovery will see it.
    const std::uint64_t first = kRing - acked.size();  // extent A
    std::vector<std::byte> ring;
    std::uint64_t tail = 0;
    rig.sim.Adopt<App>(rig.cluster, 3, "inspect", [&](App& self) -> Task<void> {
      pm::PmClient client(self, "$PMM");
      auto region = co_await client.Open(cfg.region_name);
      EXPECT_TRUE(region.ok()) << region.status().ToString();
      if (!region.ok()) co_return;
      auto raw = co_await region->Read(0, kDataBase + kRing);
      EXPECT_TRUE(raw.ok());
      if (!raw.ok()) co_return;
      Deserializer d(*raw);
      std::uint32_t magic = 0;
      EXPECT_TRUE(d.GetU32(magic) && d.GetU64(tail));
      ring.assign(raw->begin() + kDataBase, raw->end());
    });
    rig.sim.RunFor(Seconds(5));
    ASSERT_EQ(ring.size(), kRing);
    const auto matches = [&](std::uint64_t at,
                             std::span<const std::byte> want) {
      return std::equal(want.begin(), want.end(), ring.begin() + at);
    };
    const std::span<const std::byte> wrap_span(wrap);
    const bool a_landed = matches(acked.size(), wrap_span.first(first));
    if (tail != acked.size()) {
      // The primary's chain landed whole; only the mirror tore.
      EXPECT_EQ(tail, acked.size() + wrap.size());
      EXPECT_TRUE(a_landed);
      EXPECT_TRUE(matches(0, wrap_span.subspan(first)))
          << "the control block covers an extent that never landed";
      continue;
    }
    const std::uint64_t b_len = wrap.size() - first;
    if (!matches(0, std::span<const std::byte>(acked).first(b_len))) {
      continue;  // extent B overwrote the ring start: the history wrapped
    }
    if (a_landed) ++torn_after_extent_a;
    std::vector<std::byte> img;
    bool recovered = false;
    rig.sim.Adopt<App>(rig.cluster, 3, "recover", [&](App& self) -> Task<void> {
      PmLogDevice dev(cfg);
      auto log = co_await dev.RecoverLog(self);
      EXPECT_TRUE(log.ok()) << log.status().ToString();
      if (!log.ok()) co_return;
      img = std::move(*log);
      EXPECT_EQ(dev.tail(), acked.size()) << "the previous tail";
      recovered = true;
    });
    rig.sim.RunFor(Seconds(5));
    ASSERT_TRUE(recovered);
    EXPECT_EQ(img, acked) << "recovery must return exactly the acked prefix";
  }
  EXPECT_GE(torn_after_extent_a, 1)
      << "no trial tore after extent A landed whole";
}

TEST(PmLogTornWrite, NothingAckedLiesPastAFailedConcurrentAppend) {
  // The TMF appends control blocks from concurrent fibers. When the first
  // of two appends in flight tears and the second lands, the second's
  // control block covers the torn range and recovery stops at it: the
  // second must not be acked. Post pairs of appends under corruption
  // until the first of a pair fails, then power-fail and recover.
  PmLogRig rig;
  PmLogConfig cfg;
  cfg.region_name = "torn-pairs";
  cfg.region_bytes = 1ull << 20;
  std::uint64_t acked = 0;  // bytes of appends acknowledged durable
  bool first_failed = false;
  bool second_acked = false;
  rig.sim.Adopt<App>(rig.cluster, 2, "writer", [&](App& self) -> Task<void> {
    PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    rig.cluster.fabric().SetCorruptionRate(0.04);
    for (int i = 0; i < 400 && !first_failed; ++i) {
      sim::Latch both(self.sim(), 2);
      std::array<Status, 2> st;
      std::array<std::uint64_t, 2> n{};
      for (std::size_t k = 0; k < 2; ++k) {
        std::vector<std::byte> frame =
            MakeFrame(600, static_cast<std::uint8_t>(2 * i + k + 1));
        n[k] = frame.size();
        self.SpawnFiber([](PmLogDevice& d, App& host, std::vector<std::byte> f,
                           Status& out, sim::Latch& done) -> Task<void> {
          out = co_await d.Append(host, std::move(f));
          done.Arrive();
        }(dev, self, std::move(frame), st[k], both));
      }
      co_await both.Wait(self);
      for (std::size_t k = 0; k < 2; ++k) acked += st[k].ok() ? n[k] : 0;
      first_failed = !st[0].ok();
      second_acked = st[1].ok();
    }
    rig.cluster.fabric().SetCorruptionRate(0);
  });
  rig.sim.RunFor(Seconds(30));
  ASSERT_TRUE(first_failed) << "corruption never tore the first of a pair";

  std::vector<std::byte> img;
  rig.sim.Adopt<App>(rig.cluster, 3, "recover", [&](App& self) -> Task<void> {
    PmLogDevice dev(cfg);
    auto log = co_await dev.RecoverLog(self);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (log.ok()) img = std::move(*log);
  });
  rig.sim.RunFor(Seconds(30));
  const std::size_t valid = FrameScanPrefix(img);
  ASSERT_LT(valid, img.size())
      << "the second append never landed past the torn one";
  EXPECT_FALSE(second_acked) << "an append past a torn one was acked";
  EXPECT_GE(valid, acked) << "an acknowledged append lies past the hole";
}

}  // namespace
}  // namespace ods::tp
