// Experiment E5 — MTTR (§3.4): "being able to update indices, lock tables
// and transaction control blocks at a fine grain reduces uncertainty
// regarding the state of the database, and eliminates costly heuristic
// searching of audit trail information, leading to shorter MTTR".
//
// Procedure: run the hot-stock load to populate the audit trails, then
// lose power to the whole node, restart, and measure:
//   * per-component recovery time (ADP tail location, TMF state, DP2 redo),
//   * end-to-end time until the system commits its first post-crash
//     transaction,
// for (a) disk audit trails + scan-based TMF recovery and (b) PM audit
// trails + PM-resident transaction control blocks. The PM column runs on
// the PMP prototype, whose memory dies with it: after the power loss it
// recovers an empty trail, so its DP2s redo nothing.
//
// The near-data section (BENCH_nearpm.json) compares passive against
// active NPMUs on the same mirrored-NPMU rig and seed: passive recovery
// pulls the whole audit image across the interconnect (one RDMA read by
// the ADP for its tail, one more that the DP2s' concurrent kAdpReadLog
// requests share, then one kAdpReadLog reply per DP2), while the active
// device answers VerifyScan with a 32-byte summary and ShipReplay with
// only each partition's committed updates. The bench reports the
// recovery-window interconnect bytes (RDMA + device commands + IPC
// payloads) and the MTTR for both, plus their ratios — gated by
// tools/validate_bench_json.py against bench/nearpm_baseline.json.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "db/txn_client.h"

using namespace ods;
using namespace ods::bench;
using sim::Task;

namespace {

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

struct RecoveryResult {
  double adp_ms = 0;   // worst ADP recovery
  double tmf_ms = 0;
  double dp2_ms = 0;   // worst DP2 recovery
  double first_commit_ms = 0;  // end-to-end time to first new commit
};

RecoveryResult Measure(bool pm) {
  sim::Simulation sim(17);
  auto cfg = PaperRig(pm);
  cfg.pm_tcb = pm;  // PM-resident TCBs (§3.4)
  workload::Rig rig(sim, cfg);
  sim.RunFor(sim::Seconds(1));

  // Populate: a few thousand records of committed audit.
  auto hs = PaperWorkload(/*drivers=*/2, /*boxcar=*/16);
  hs.records_per_driver = std::min(RecordsPerDriver(), 4000);
  (void)workload::RunHotStock(rig, hs);

  // Lights out.
  rig.PowerLoss();
  sim.RunFor(sim::Seconds(1));
  const sim::SimTime restart_at = sim.Now();
  rig.RestartAfterPowerLoss();

  // Drive one transaction to completion as soon as the stack answers.
  double first_commit_ms = -1;
  sim.Adopt<App>(rig.cluster(), 3, "prober", [&](App& self) -> Task<void> {
    db::TxnClient client(self, rig.catalog());
    while (first_commit_ms < 0) {
      auto txn = co_await client.Begin();
      if (!txn.ok()) continue;
      if (!(co_await client.Insert(*txn, 0, 0xFFFF0001ull,
                                   std::vector<std::byte>(128, std::byte{1})))
               .ok()) {
        (void)co_await client.Abort(*txn);
        continue;
      }
      if ((co_await client.Commit(*txn)).ok()) {
        first_commit_ms = sim::ToMillisD(self.sim().Now() - restart_at);
      }
    }
  });
  sim.RunFor(sim::Seconds(600));

  RecoveryResult r;
  for (auto* adp : rig.adps()) {
    r.adp_ms = std::max(r.adp_ms, sim::ToMillisD(adp->last_recovery_time()));
  }
  r.tmf_ms = sim::ToMillisD(rig.tmf().last_recovery_time());
  for (auto* dp2 : rig.dp2s()) {
    r.dp2_ms = std::max(r.dp2_ms, sim::ToMillisD(dp2->last_recovery_time()));
  }
  r.first_commit_ms = first_commit_ms;
  return r;
}

struct NearPmResult {
  RecoveryResult rec;
  double recovery_bytes = 0;  // interconnect bytes in the recovery window
  double cmd_ops = 0;         // device commands issued over the whole run
};

// Same rig, same seed, same load for both legs; only the offload knob
// differs. Mirrored hardware NPMUs (their media and command engines ride
// out the power loss), one master audit trail shared by every DP2 — the
// configuration where shipping whole log images hurts most.
NearPmResult MeasureNearPm(bool offload) {
  sim::Simulation sim(17);
  auto cfg = PaperRig(true);
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.num_adps = 1;
  cfg.pm_log_region_bytes = 64ull << 20;  // hold the full load without wrap
  cfg.pm_tcb = true;
  // Passive DP2 redo reads the trail through the ADP (kAdpReadLog); the
  // active device ships each partition's redo itself (ShipReplay).
  cfg.pm_offload = offload;
  workload::Rig rig(sim, cfg);
  sim.RunFor(sim::Seconds(1));

  auto hs = PaperWorkload(/*drivers=*/2, /*boxcar=*/16);
  hs.records_per_driver = std::min(RecordsPerDriver(), 4000);
  (void)workload::RunHotStock(rig, hs);

  rig.PowerLoss();
  sim.RunFor(sim::Seconds(1));
  const sim::SimTime restart_at = sim.Now();
  // Everything that crosses the interconnect: RDMA payloads, device
  // command request+response bytes, and IPC message payloads (the
  // kAdpReadLog image replies live there; the ADP's device reads behind
  // them are RDMA).
  auto interconnect = [&rig]() -> std::uint64_t {
    auto& f = rig.cluster().fabric();
    return f.bytes_transferred() + f.command_bytes() + f.message_bytes() +
           rig.cluster().message_bytes();
  };
  const std::uint64_t bytes_before = interconnect();
  std::uint64_t bytes_at_commit = bytes_before;
  rig.RestartAfterPowerLoss();

  double first_commit_ms = -1;
  sim.Adopt<App>(rig.cluster(), 3, "prober", [&](App& self) -> Task<void> {
    db::TxnClient client(self, rig.catalog());
    while (first_commit_ms < 0) {
      auto txn = co_await client.Begin();
      if (!txn.ok()) continue;
      if (!(co_await client.Insert(*txn, 0, 0xFFFF0001ull,
                                   std::vector<std::byte>(128, std::byte{1})))
               .ok()) {
        (void)co_await client.Abort(*txn);
        continue;
      }
      if ((co_await client.Commit(*txn)).ok()) {
        first_commit_ms = sim::ToMillisD(self.sim().Now() - restart_at);
        bytes_at_commit = interconnect();
      }
    }
  });
  sim.RunFor(sim::Seconds(600));

  NearPmResult r;
  for (auto* adp : rig.adps()) {
    r.rec.adp_ms =
        std::max(r.rec.adp_ms, sim::ToMillisD(adp->last_recovery_time()));
  }
  r.rec.tmf_ms = sim::ToMillisD(rig.tmf().last_recovery_time());
  for (auto* dp2 : rig.dp2s()) {
    r.rec.dp2_ms =
        std::max(r.rec.dp2_ms, sim::ToMillisD(dp2->last_recovery_time()));
  }
  r.rec.first_commit_ms = first_commit_ms;
  r.recovery_bytes = static_cast<double>(bytes_at_commit - bytes_before);
  r.cmd_ops = static_cast<double>(rig.cluster().fabric().command_ops());
  return r;
}

}  // namespace

int main() {
  const RecoveryResult disk = Measure(false);
  const RecoveryResult pm = Measure(true);

  std::printf("E5: recovery time after whole-node power loss\n");
  std::printf("(load: 2 drivers x %d records committed before the crash)\n\n",
              std::min(RecordsPerDriver(), 4000));
  std::printf("%-34s %14s %14s\n", "component", "disk audit", "PM audit+TCB");
  PrintRule(66);
  std::printf("%-34s %12.1fms %12.1fms\n", "ADP log-tail recovery (worst)",
              disk.adp_ms, pm.adp_ms);
  std::printf("%-34s %12.1fms %12.1fms\n", "TMF transaction-state recovery",
              disk.tmf_ms, pm.tmf_ms);
  std::printf("%-34s %12.1fms %12.1fms\n", "DP2 redo (worst)", disk.dp2_ms,
              pm.dp2_ms);
  std::printf("%-34s %12.1fms %12.1fms\n", "time to first new commit",
              disk.first_commit_ms, pm.first_commit_ms);
  PrintRule(66);
  std::printf("paper: PM's fine-grained durable state removes the heuristic\n"
              "audit-trail search from the recovery path (shorter MTTR =>\n"
              "better availability and data integrity).\n");

  // ---- near-data offload: passive vs active NPMU, same rig and seed ----
  const NearPmResult passive = MeasureNearPm(false);
  const NearPmResult active = MeasureNearPm(true);
  const double reduction =
      active.recovery_bytes > 0 ? passive.recovery_bytes / active.recovery_bytes
                                : 0.0;
  const double mttr_ratio =
      active.rec.first_commit_ms > 0
          ? passive.rec.first_commit_ms / active.rec.first_commit_ms
          : 0.0;

  std::printf("\nnear-data offload: recovery after power loss "
              "(mirrored NPMUs, 1 audit trail)\n\n");
  std::printf("%-34s %14s %14s\n", "metric", "passive NPMU", "active NPMU");
  PrintRule(66);
  std::printf("%-34s %12.1fms %12.1fms\n", "ADP log-tail recovery (worst)",
              passive.rec.adp_ms, active.rec.adp_ms);
  std::printf("%-34s %12.1fms %12.1fms\n", "DP2 redo (worst)",
              passive.rec.dp2_ms, active.rec.dp2_ms);
  std::printf("%-34s %12.1fms %12.1fms\n", "time to first new commit",
              passive.rec.first_commit_ms, active.rec.first_commit_ms);
  std::printf("%-34s %12.1fMB %12.1fMB\n", "recovery interconnect bytes",
              passive.recovery_bytes / 1e6, active.recovery_bytes / 1e6);
  std::printf("%-34s %14s %13.0f\n", "device commands issued", "0",
              active.cmd_ops);
  PrintRule(66);
  std::printf("fabric-byte reduction: %.1fx   MTTR improvement: %.2fx\n",
              reduction, mttr_ratio);

  BenchJson json("nearpm");
  json.Set("passive_recovery_bytes", passive.recovery_bytes);
  json.Set("offload_recovery_bytes", active.recovery_bytes);
  json.Set("fabric_bytes_reduction", reduction);
  json.Set("passive_mttr_ms", passive.rec.first_commit_ms);
  json.Set("offload_mttr_ms", active.rec.first_commit_ms);
  json.Set("mttr_improvement", mttr_ratio);
  json.Set("passive_adp_ms", passive.rec.adp_ms);
  json.Set("offload_adp_ms", active.rec.adp_ms);
  json.Set("passive_dp2_ms", passive.rec.dp2_ms);
  json.Set("offload_dp2_ms", active.rec.dp2_ms);
  json.Set("offload_cmd_ops", active.cmd_ops);
  json.Write();
  return 0;
}
