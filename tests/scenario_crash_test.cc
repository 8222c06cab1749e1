// Crash sweeps under contended scenario traffic: the Zipfian read/write
// mix and the multi-tenant fleet run with a FaultPlan installed on the
// full PM rig, a record pass enumerates the commit/RDMA-ack fault sites
// the traffic reaches, and sweep passes re-run the identical schedule
// with a classic crash armed at selected sites — ADP primary kill, TMF
// primary kill, PMM primary kill, and whole-node power loss.
//
// The invariants asserted at this layer are the client-visible face of
// I1–I4 (crash_rig.h checks the PM-metadata face at device level): the
// Zipfian drivers record their ledger writes in a workload::History, and
// its Check after recovery asserts the three transaction contracts —
// acked commits durable, definite aborts invisible, in-doubt commits
// all-or-nothing — plus liveness (a fresh client can begin, write and
// commit). Any I1/I2/I3 violation underneath surfaces here as lost acked
// data, a torn transaction, or a dead system — the same teeth, one layer
// up.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/txn_client.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "workload/history.h"
#include "workload/rig.h"
#include "workload/scenario.h"

namespace ods::workload {
namespace {

using sim::FaultSite;
using sim::FaultSiteKind;
using sim::Seconds;
using sim::Task;

RigConfig CrashScenarioRig() {
  RigConfig cfg;
  cfg.num_cpus = 4;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  return cfg;
}

enum class FaultAction { kNone, kAdpPrimary, kTmfPrimary, kPmmPrimary,
                         kPowerLoss };

const char* ActionName(FaultAction a) {
  switch (a) {
    case FaultAction::kNone: return "none";
    case FaultAction::kAdpPrimary: return "kill-adp-primary";
    case FaultAction::kTmfPrimary: return "kill-tmf-primary";
    case FaultAction::kPmmPrimary: return "kill-pmm-primary";
    case FaultAction::kPowerLoss: return "power-loss";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// The contended mix driver: Zipfian hot traffic for contention, plus two
// unique "ledger" records per transaction, recorded in the history, whose
// presence/contents after recovery carry the transaction contracts.

constexpr std::uint64_t kLedgerBase = 1u << 20;  // clear of the hot keyspace
constexpr std::uint64_t kLedgerStride = 1u << 12;
constexpr std::size_t kLedgerBytes = 64;

struct MixStats {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
};

struct MixConfig {
  int drivers = 4;
  int txns_per_driver = 10;
  int hot_ops_per_txn = 3;
  std::uint64_t hot_keys = 50;
  double theta = 0.9;
  std::uint64_t seed = 77;
};

class MixDriver : public nsk::NskProcess {
 public:
  MixDriver(nsk::Cluster& cluster, int cpu, int driver_index,
            const db::Catalog& catalog, const MixConfig& config,
            const ZipfianGenerator& zipf, sim::Latch& done, MixStats& stats,
            History& history)
      : NskProcess(cluster, cpu, "mix" + std::to_string(driver_index)),
        driver_index_(driver_index), catalog_(&catalog), config_(&config),
        zipf_(&zipf), done_(&done), stats_(&stats), history_(&history) {}

 protected:
  Task<void> Main() override {
    Rng rng = Rng::ForStream(config_->seed,
                             static_cast<std::uint64_t>(driver_index_));
    db::TxnClient client(*this, *catalog_);
    const auto files = static_cast<std::uint64_t>(catalog_->num_files());
    for (int t = 0; t < config_->txns_per_driver; ++t) {
      struct Op {
        bool read;
        std::uint32_t file;
        std::uint64_t key;
      };
      std::vector<Op> hot;
      for (int i = 0; i < config_->hot_ops_per_txn; ++i) {
        hot.push_back(Op{rng.Bernoulli(0.5),
                         static_cast<std::uint32_t>(rng.Below(files)),
                         1 + zipf_->Next(rng)});
      }
      const auto file = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(driver_index_) % files);
      const std::uint64_t base =
          kLedgerBase +
          static_cast<std::uint64_t>(driver_index_) * kLedgerStride +
          2 * static_cast<std::uint64_t>(t);
      const auto fill = static_cast<std::uint8_t>(
          1 + (driver_index_ * 37 + t) % 200);

      auto txn = co_await client.Begin();
      if (!txn.ok()) {
        ++stats_->aborted;
        continue;
      }
      const std::size_t h = history_->Begin();
      bool failed = false;
      for (const Op& op : hot) {
        if (op.read) {
          auto r = co_await client.Read(*txn, op.file, op.key);
          failed = !r.ok() && r.status().code() != ErrorCode::kNotFound;
        } else {
          failed = !(co_await client.Insert(
                         *txn, op.file, op.key,
                         std::vector<std::byte>(kLedgerBytes,
                                                std::byte{0xEE})))
                        .ok();
        }
        if (failed) break;
      }
      if (!failed) {
        const std::uint64_t ledger_keys[2] = {base, base + 1};
        for (std::uint64_t k : ledger_keys) {
          std::vector<std::byte> value(kLedgerBytes,
                                       static_cast<std::byte>(fill));
          history_->Write(h, file, k, value);
          if (!(co_await client.Insert(*txn, file, k, std::move(value)))
                   .ok()) {
            failed = true;
            break;
          }
        }
      }
      if (failed) {
        (void)co_await client.Abort(*txn);
        ++stats_->aborted;
        continue;
      }
      if ((co_await history_->Commit(h, client, *txn)).ok()) {
        ++stats_->committed;
      } else {
        ++stats_->aborted;
      }
    }
    done_->Arrive();
  }

 private:
  int driver_index_;
  const db::Catalog* catalog_;
  const MixConfig* config_;
  const ZipfianGenerator* zipf_;
  sim::Latch* done_;
  MixStats* stats_;
  History* history_;
};

// ---------------------------------------------------------------------------
// One run = bring-up, traffic under the (possibly armed) plan, recovery
// settle, verify.

struct SweepRun {
  std::vector<FaultSite> trace;
  std::size_t bringup_sites = 0;  // sites fired before traffic started
  std::size_t traffic_sites = 0;  // sites fired by the end of driver traffic
  std::optional<std::size_t> fired_at;
  std::vector<std::string> violations;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
};

void FireAction(Rig& rig, FaultAction action) {
  switch (action) {
    case FaultAction::kNone:
      break;
    case FaultAction::kAdpPrimary:
      rig.KillAdpPrimary(0);
      break;
    case FaultAction::kTmfPrimary:
      rig.KillTmfPrimary();
      break;
    case FaultAction::kPmmPrimary:
      rig.KillPmmPrimary();
      break;
    case FaultAction::kPowerLoss: {
      rig.PowerLoss();
      sim::Simulation& sim = rig.sim();
      Rig* r = &rig;
      sim.After(Seconds(1), [r] { r->RestartAfterPowerLoss(); });
      break;
    }
  }
}

SweepRun RunZipfianMixUnderFault(std::uint64_t seed, FaultAction action,
                                 std::optional<std::size_t> site) {
  SweepRun out;
  sim::Simulation sim(seed);
  sim::FaultPlan plan;
  sim.set_fault_plan(&plan);
  {
    Rig rig(sim, CrashScenarioRig());
    sim.RunFor(Seconds(1));
    out.bringup_sites = plan.trace().size();

    MixConfig cfg;
    const ZipfianGenerator zipf(cfg.hot_keys, cfg.theta);
    std::vector<MixStats> stats(static_cast<std::size_t>(cfg.drivers));
    History history;
    sim::Latch done(sim, cfg.drivers);
    std::vector<MixDriver*> drivers;
    for (int d = 0; d < cfg.drivers; ++d) {
      drivers.push_back(&sim.Adopt<MixDriver>(
          rig.cluster(), d % rig.config().num_cpus, d, rig.catalog(), cfg,
          zipf, done, stats[static_cast<std::size_t>(d)], history));
    }
    // Arm after bring-up: the swept sites all lie past the bring-up
    // prefix, and arming here lets the callback capture the driver list.
    if (site.has_value() && action != FaultAction::kNone) {
      plan.ArmAt(*site, [&rig, &drivers, action](const FaultSite&) {
        if (action == FaultAction::kPowerLoss) {
          // The drivers share the node: power loss takes them down too
          // (property_test's contract — "the application dies with the
          // node"). The history keeps what they recorded up to the kill.
          for (MixDriver* d : drivers) d->Kill();
        }
        FireAction(rig, action);
      });
    }
    for (int spin = 0; spin < 10 && done.count() > 0; ++spin) {
      if (sim.RunFor(Seconds(60)) == 0) break;
    }
    if (done.count() > 0 && action != FaultAction::kPowerLoss) {
      out.violations.push_back("traffic stalled: drivers never finished");
    }
    out.traffic_sites = plan.trace().size();
    // Let takeover/redo finish before verifying.
    sim.RunFor(Seconds(25));

    for (std::string& v : history.Check(rig)) {
      out.violations.push_back(std::move(v));
    }
    for (const MixStats& d : stats) {
      out.committed += d.committed;
      out.aborted += d.aborted;
    }
  }
  sim.set_fault_plan(nullptr);
  out.trace = plan.trace();
  out.fired_at = plan.fired_at();
  return out;
}

// Picks sweep sites from a record trace: commit-points plus spread RDMA
// write-acks — the sites the ISSUE calls out — restricted to the window
// the DRIVER traffic fired, [bringup_sites, traffic_sites). A kill
// during bring-up is outside the takeover contract (the backup has not
// armed its peer watch yet; crash_sweep_test covers that window by
// restarting the victim), and a kill during the post-run verification
// would crash the verifier itself rather than the workload.
std::vector<std::size_t> PickSites(const std::vector<FaultSite>& trace,
                                   std::size_t bringup_sites,
                                   std::size_t traffic_sites) {
  std::vector<std::size_t> commits, acks;
  const std::size_t end = std::min(traffic_sites, trace.size());
  for (std::size_t i = bringup_sites; i < end; ++i) {
    if (trace[i].kind == FaultSiteKind::kCommitPoint) commits.push_back(i);
    if (trace[i].kind == FaultSiteKind::kRdmaWriteComplete) acks.push_back(i);
  }
  std::set<std::size_t> picks;
  if (!commits.empty()) {
    picks.insert(commits.front());
    picks.insert(commits[commits.size() / 2]);
    picks.insert(commits.back());
  }
  if (!acks.empty()) {
    picks.insert(acks.front());
    picks.insert(acks[acks.size() / 3]);
    picks.insert(acks[acks.size() / 2]);
    picks.insert(acks[2 * acks.size() / 3]);
    picks.insert(acks.back());
  }
  if (picks.empty() && end > bringup_sites) {
    picks.insert(bringup_sites + (end - bringup_sites) / 2);
  }
  return {picks.begin(), picks.end()};
}

// ---------------------------------------------------------------------------

TEST(ScenarioCrash, RecordPassIsDeterministicAndClean) {
  const SweepRun a =
      RunZipfianMixUnderFault(77, FaultAction::kNone, std::nullopt);
  const SweepRun b =
      RunZipfianMixUnderFault(77, FaultAction::kNone, std::nullopt);
  EXPECT_TRUE(a.violations.empty())
      << "record pass violated invariants: " << a.violations.front();
  EXPECT_GT(a.committed, 0u);
  ASSERT_FALSE(a.trace.empty()) << "traffic reached no fault sites";
  EXPECT_EQ(a.trace, b.trace) << "record trace is not deterministic";
  // The mix must reach both site kinds the sweep arms at.
  bool has_commit = false, has_ack = false;
  for (const FaultSite& s : a.trace) {
    has_commit |= s.kind == FaultSiteKind::kCommitPoint;
    has_ack |= s.kind == FaultSiteKind::kRdmaWriteComplete;
  }
  EXPECT_TRUE(has_ack) << "no RDMA-ack sites under PM commit traffic";
  EXPECT_TRUE(has_commit || has_ack);
}

TEST(ScenarioCrash, ZipfianMixSurvivesClassicCrashModes) {
  const SweepRun record =
      RunZipfianMixUnderFault(77, FaultAction::kNone, std::nullopt);
  ASSERT_FALSE(record.trace.empty());
  const std::vector<std::size_t> sites =
      PickSites(record.trace, record.bringup_sites, record.traffic_sites);
  ASSERT_FALSE(sites.empty());

  const FaultAction actions[] = {
      FaultAction::kAdpPrimary, FaultAction::kTmfPrimary,
      FaultAction::kPmmPrimary, FaultAction::kPowerLoss};
  int runs = 0;
  for (FaultAction action : actions) {
    for (std::size_t site : sites) {
      SCOPED_TRACE(std::string(ActionName(action)) + " at site " +
                   std::to_string(site) + " (" +
                   record.trace[site].ToString() + ")");
      const SweepRun run = RunZipfianMixUnderFault(77, action, site);
      EXPECT_TRUE(run.fired_at.has_value()) << "armed site never reached";
      for (const std::string& v : run.violations) {
        ADD_FAILURE() << v;
      }
      ++runs;
    }
  }
  EXPECT_GE(runs, 12);
}

// ---------------------------------------------------------------------------
// Multi-tenant traffic through the same sweep: mixed boxcar sizes keep
// several commit pipelines in flight when the fault lands. Assertions:
// every tenant still finishes its volume (closed-loop drivers retry
// through the outage), and the rig stays live.

SweepRun RunTenantsUnderFault(std::uint64_t seed, FaultAction action,
                              std::optional<std::size_t> site,
                              MultiTenantResult* tenants_out = nullptr) {
  SweepRun out;
  sim::Simulation sim(seed);
  sim::FaultPlan plan;
  sim.set_fault_plan(&plan);
  {
    Rig rig(sim, CrashScenarioRig());
    sim.RunFor(Seconds(1));
    out.bringup_sites = plan.trace().size();
    if (site.has_value() && action != FaultAction::kNone) {
      plan.ArmAt(*site, [&rig, action](const FaultSite&) {
        FireAction(rig, action);
      });
    }

    MultiTenantConfig cfg;
    cfg.tenants.clear();
    cfg.tenants.push_back(TenantSpec{1, 1, 24, 1024});
    cfg.tenants.push_back(TenantSpec{1, 8, 48, 512});
    cfg.tenants.push_back(TenantSpec{1, 16, 64, 256});
    MultiTenantResult result = RunMultiTenant(rig, cfg);
    out.traffic_sites = plan.trace().size();
    if (tenants_out != nullptr) *tenants_out = result;
    for (const TenantResult& t : result.tenants) {
      out.committed += t.committed;
      out.aborted += t.aborted;
      if (t.committed == 0) {
        out.violations.push_back("tenant " + std::to_string(t.tenant) +
                                 " committed nothing across the fault");
      }
    }
    sim.RunFor(Seconds(25));

    // Liveness probe: the check of an empty history.
    for (std::string& v : History{}.Check(rig)) {
      out.violations.push_back(std::move(v));
    }
  }
  sim.set_fault_plan(nullptr);
  out.trace = plan.trace();
  out.fired_at = plan.fired_at();
  return out;
}

TEST(ScenarioCrash, MultiTenantSurvivesClassicCrashModes) {
  MultiTenantResult record_tenants;
  const SweepRun record = RunTenantsUnderFault(88, FaultAction::kNone,
                                               std::nullopt, &record_tenants);
  ASSERT_FALSE(record.trace.empty());
  EXPECT_TRUE(record.violations.empty())
      << "record pass: " << record.violations.front();
  // Every tenant's full volume commits in the fault-free pass.
  for (const TenantResult& t : record_tenants.tenants) {
    EXPECT_GT(t.committed, 0u) << "tenant " << t.tenant;
    EXPECT_EQ(t.aborted, 0u) << "tenant " << t.tenant;
  }

  std::vector<std::size_t> sites =
      PickSites(record.trace, record.bringup_sites, record.traffic_sites);
  ASSERT_FALSE(sites.empty());
  if (sites.size() > 2) sites = {sites.front(), sites.back()};

  // Power loss is swept in the Zipfian leg: it takes the co-located
  // drivers down with the node, and this leg's closed-loop fleet lives
  // inside RunMultiTenant where it cannot be killed alongside the rig.
  const FaultAction actions[] = {
      FaultAction::kAdpPrimary, FaultAction::kTmfPrimary,
      FaultAction::kPmmPrimary};
  for (FaultAction action : actions) {
    for (std::size_t site : sites) {
      SCOPED_TRACE(std::string(ActionName(action)) + " at site " +
                   std::to_string(site));
      const SweepRun run = RunTenantsUnderFault(88, action, site);
      EXPECT_TRUE(run.fired_at.has_value()) << "armed site never reached";
      for (const std::string& v : run.violations) {
        ADD_FAILURE() << v;
      }
    }
  }
}

}  // namespace
}  // namespace ods::workload
