// Availability walkthrough: watch process pairs absorb failures while an
// application keeps committing. Narrates §1.3/§4: checkpointing, fault
// detection, takeover "in a second or less", and no committed-data loss.
// Exits 1 if the transaction history check finds any violation.
#include <cstdio>

#include "db/txn_client.h"
#include "workload/history.h"
#include "workload/rig.h"

using namespace ods;
using namespace ods::workload;
using sim::Task;
using App = nsk::AppProcess;

int main() {
  std::printf("== process-pair failover demo ==\n\n");

  sim::Simulation sim(404);
  RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = PmDeviceKind::kNpmuPair;
  Rig rig(sim, cfg);
  sim.RunFor(sim::Seconds(1));

  History history;
  bool finished = false;
  sim.Adopt<App>(rig.cluster(), 2, "app", [&](App& self) -> Task<void> {
    db::TxnClient client(self, rig.catalog());
    std::uint64_t key = 0;

    std::uint64_t txn_no = 0;
    auto commit_one = [&](const char* label) -> Task<void> {
      const sim::SimTime t0 = self.sim().Now();
      while (true) {
        auto txn = co_await client.Begin();
        if (!txn.ok()) continue;
        const std::size_t h = history.Begin();
        // Spread the writes over every file so all partitions (and hence
        // all audit trails) participate in the commit.
        bool inserted = true;
        for (std::uint32_t f = 0;
             f < static_cast<std::uint32_t>(rig.catalog().num_files()) &&
             inserted;
             ++f) {
          for (int i = 0; i < 2 && inserted; ++i) {
            std::vector<std::byte> value(128, std::byte{1});
            history.Write(h, f, ++key, value);
            inserted =
                (co_await client.Insert(*txn, f, key, std::move(value))).ok();
          }
        }
        if (!inserted) {
          (void)co_await client.Abort(*txn);
          continue;
        }
        if ((co_await history.Commit(h, client, *txn)).ok()) break;
      }
      ++txn_no;
      std::printf("  [%8.0fus] committed txn #%llu %s\n",
                  sim::ToMicrosD(self.sim().Now() - t0),
                  static_cast<unsigned long long>(txn_no), label);
    };

    std::printf("baseline:\n");
    co_await commit_one("(all primaries healthy)");
    co_await commit_one("(all primaries healthy)");

    std::printf("\nkilling the ADP (log writer) primary...\n");
    rig.KillAdpPrimary(0);
    co_await commit_one("(backup ADP promoted; audit intact)");

    std::printf("\nkilling the TMF (transaction monitor) primary...\n");
    rig.KillTmfPrimary();
    co_await commit_one("(backup TMF promoted; TCBs checkpointed)");

    std::printf("\nkilling the PMM (PM manager) primary...\n");
    rig.KillPmmPrimary();
    co_await commit_one("(data path never even noticed: RDMA is direct)");
    finished = true;
  });
  sim.RunFor(sim::Seconds(60));

  std::printf("\nchecking the history of all %llu committed transactions...\n",
              static_cast<unsigned long long>(history.acked()));
  std::vector<std::string> violations = history.Check(rig);
  if (!finished) violations.push_back("the app never finished committing");
  for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
  std::printf("  %s.\n", violations.empty() ? "no committed data lost"
                                            : "DATA LOSS");

  std::printf("\nThe first commit after each kill absorbs the takeover "
              "window\n(fault detection + promotion), then service returns "
              "to normal.\n");
  return violations.empty() ? 0 : 1;
}
