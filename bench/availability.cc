// Experiment E9 — availability (§1.3, §4): process pairs take over "in a
// second or less" with no loss of committed data. Under a continuous
// insert load, kill the primary of each critical service in turn and
// measure (a) the service-name outage window and (b) the workload pause
// observed by the application; then check the run's transaction history
// (workload::History): zero committed-transaction loss, and no failed
// attempt half-visible. Exits 1 if any row fails that check (prints LOST).
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "db/txn_client.h"
#include "workload/history.h"

using namespace ods;
using namespace ods::bench;
using sim::Task;

namespace {

using App = nsk::AppProcess;

struct Outcome {
  double name_outage_ms = 0;   // unregister -> re-register window
  double app_pause_ms = 0;     // longest commit-to-commit gap
  bool all_committed_readable = false;
};

Outcome KillUnderLoad(const char* service,
                      const std::function<void(workload::Rig&)>& kill,
                      bool offload = false) {
  sim::Simulation sim(41);
  auto cfg = PaperRig(/*pm=*/true);
  cfg.pm_offload = offload;
  workload::Rig rig(sim, cfg);
  sim.RunFor(sim::Seconds(1));

  const sim::SimTime kill_at = sim.Now() + sim::Seconds(2);
  bool finished = false;
  workload::History history;
  double longest_gap_ms = 0;
  sim.Adopt<App>(rig.cluster(), 3, "load", [&](App& self) -> Task<void> {
    db::TxnClient client(self, rig.catalog());
    sim::SimTime last_commit = self.sim().Now();
    std::uint64_t key = 1;
    bool killed = false;
    // Keep inserting until well past the takeover.
    while (self.sim().Now() < kill_at + sim::Seconds(8)) {
      if (!killed && self.sim().Now() >= kill_at) {
        kill(rig);
        killed = true;
      }
      auto txn = co_await client.Begin();
      if (!txn.ok()) continue;
      const std::size_t h = history.Begin();
      std::vector<std::byte> value(256, std::byte{7});
      history.Write(h, 0, key, value);
      if (!(co_await client.Insert(*txn, 0, key, std::move(value))).ok()) {
        (void)co_await client.Abort(*txn);
        continue;
      }
      if ((co_await history.Commit(h, client, *txn)).ok()) {
        longest_gap_ms = std::max(
            longest_gap_ms, sim::ToMillisD(self.sim().Now() - last_commit));
        last_commit = self.sim().Now();
        ++key;
      }
    }
    finished = true;
  });
  sim.RunFor(sim::Seconds(120));

  Outcome out;
  out.app_pause_ms = longest_gap_ms;
  out.all_committed_readable = finished && history.Check(rig).empty();
  // Name-service outage for the killed service.
  sim::SimTime down{}, up{};
  for (const auto& ev : rig.cluster().names().history()) {
    if (ev.name != service || ev.when < kill_at) continue;
    if (ev.registered && down.ns != 0 && up.ns == 0) up = ev.when;
  }
  // The name stays registered to the dead process until takeover; use
  // the re-registration after the kill as the recovery point.
  for (const auto& ev : rig.cluster().names().history()) {
    if (ev.name == service && ev.registered && ev.when > kill_at) {
      out.name_outage_ms = sim::ToMillisD(ev.when - kill_at);
      break;
    }
  }
  return out;
}

}  // namespace

int main() {
  struct Case {
    const char* label;
    const char* service;
    std::function<void(workload::Rig&)> kill;
  };
  const Case cases[] = {
      {"ADP (log writer) primary", "$ADP0",
       [](workload::Rig& r) { r.KillAdpPrimary(0); }},
      {"TMF (txn monitor) primary", "$TMF",
       [](workload::Rig& r) { r.KillTmfPrimary(); }},
      {"PMM (PM manager) primary", "$PMM",
       [](workload::Rig& r) { r.KillPmmPrimary(); }},
  };

  bool lost = false;
  std::printf("E9: process-pair takeover under load (PM configuration)\n\n");
  std::printf("%-28s %14s %14s %12s\n", "killed service", "takeover (ms)",
              "app pause(ms)", "data loss?");
  PrintRule(74);
  for (const Case& c : cases) {
    const Outcome o = KillUnderLoad(c.service, c.kill);
    lost = lost || !o.all_committed_readable;
    std::printf("%-28s %14.0f %14.0f %12s\n", c.label, o.name_outage_ms,
                o.app_pause_ms, o.all_committed_readable ? "none" : "LOST");
  }
  PrintRule(74);
  std::printf("paper: \"a backup process takes over from its primary in a\n"
              "second or less\" with \"no loss of committed data\".\n");

  // Same kills with the active-NPMU command path armed: takeover and
  // zero-loss guarantees must hold when recovery runs device-side.
  std::printf("\nsame, with near-data offload enabled (active NPMU commands)\n\n");
  std::printf("%-28s %14s %14s %12s\n", "killed service", "takeover (ms)",
              "app pause(ms)", "data loss?");
  PrintRule(74);
  for (const Case& c : cases) {
    const Outcome o = KillUnderLoad(c.service, c.kill, /*offload=*/true);
    lost = lost || !o.all_committed_readable;
    std::printf("%-28s %14.0f %14.0f %12s\n", c.label, o.name_outage_ms,
                o.app_pause_ms, o.all_committed_readable ? "none" : "LOST");
  }
  PrintRule(74);
  return lost ? 1 : 0;
}
