// Targeted crash-recovery regressions for the PMM metadata-commit
// protocol, driven by the FaultPlan (sim/fault_plan.h). Each test pins
// one of the recovery bugs the crash sweep exposed:
//
//  * delete rollback: a delete whose metadata commit fails must restore
//    the in-memory region record and re-reserve its extent, or a later
//    create re-allocates the extent and durably clobbers a region whose
//    delete the client was told FAILED;
//  * mid-commit promotion: when the volume primary dies during a commit,
//    the demotion must be re-committed at a fresh epoch before the
//    operation reports success, or recovery resurrects the stale device
//    as a live mirror and serves pre-promotion data;
//  * commit serialization: the background health commit spawned by
//    kPmMirrorDown must not interleave with a request handler's commit
//    at co_await points (same slot + epoch -> torn double-write);
//
// plus sweeps of create/delete/resilver interrupted (PMM halted and
// later restarted) at every commit/resilver co_await boundary.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/manager.h"
#include "pm/metadata.h"
#include "pm/npmu.h"
#include "pm/plane.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"

namespace ods::pm {
namespace {

using sim::Microseconds;
using sim::Milliseconds;
using sim::Seconds;
using sim::Task;

using TestProcess = nsk::AppProcess;

std::vector<std::byte> Fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// PM rig with a FaultPlan installed: 4-CPU cluster, two hardware NPMUs,
// PMM pair on CPUs 0/1. Plain struct (not a gtest fixture) so the
// interruption sweeps can build a fresh rig per injection label.
struct Rig {
  explicit Rig(nsk::ClusterConfig cfg = MakeConfig())
      : sim(11), cluster(sim, cfg), plane(cluster, PmDeviceKind::kNpmuPair) {
    sim.set_fault_plan(&plan);
    plane.Start();
  }

  ~Rig() {
    sim.Shutdown();
    sim.set_fault_plan(nullptr);
  }

  static nsk::ClusterConfig MakeConfig() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }

  // Halts whichever member is primary; it returns later as the backup.
  // Callable from a FaultPlan action (i.e. from inside the victim's own
  // commit fiber): Kill() unwinds at the current sim time, not inline.
  void KillPrimaryAndRestartLater(sim::SimDuration restart_after = Seconds(1)) {
    PmManager* victim = pmm_p->is_primary() ? pmm_p : pmm_b;
    victim->Kill();
    sim.After(restart_after, [victim] {
      if (!victim->alive()) victim->Restart();
    });
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  PmPlane plane;
  Npmu& npmu_a = plane.npmu_a();
  Npmu& npmu_b = plane.npmu_b();
  PmManager* pmm_p = plane.pmm();
  PmManager* pmm_b = plane.pmm_backup();
  sim::FaultPlan plan;
};

// ------------------------------------------------ bug A: delete rollback

TEST(PmCrashRecovery, FailedDeleteRollsBackAndLaterCreateCannotClobber) {
  Rig rig;
  bool done = false;
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
        PmClient client(self, "$PMM");
        auto r1 = co_await client.Create("r1", 16 * 1024);
        EXPECT_TRUE(r1.ok()) << r1.status().ToString();
        if (!r1.ok()) co_return;
        EXPECT_TRUE((co_await r1->Write(0, Fill(4096, 0xAA))).ok());

        // Transient dual-device outage: the delete's metadata commit can
        // land nowhere, so the PMM must fail the delete AND roll back.
        rig.npmu_a.Fail();
        rig.npmu_b.Fail();
        auto st = co_await client.Delete("r1");
        EXPECT_FALSE(st.ok());
        rig.npmu_a.Repair();
        rig.npmu_b.Repair();

        // The failed delete's extent must not be handed to a new region:
        // first-fit would reuse r1's bytes if the rollback forgot to
        // re-reserve them.
        auto r2 = co_await client.Create("r2", 16 * 1024);
        EXPECT_TRUE(r2.ok()) << r2.status().ToString();
        if (!r2.ok()) co_return;
        EXPECT_TRUE((co_await r2->Write(0, Fill(4096, 0xBB))).ok());

        auto r1b = co_await client.Open("r1");
        EXPECT_TRUE(r1b.ok())
            << "region with a FAILED delete vanished: "
            << r1b.status().ToString();
        if (r1b.ok()) {
          EXPECT_NE(r1b->handle().nva, r2->handle().nva);
          auto back = co_await r1b->Read(0, 4096);
          EXPECT_TRUE(back.ok());
          if (back.ok()) {
            EXPECT_EQ((*back)[0], std::byte{0xAA});
            EXPECT_EQ((*back)[4095], std::byte{0xAA});
          }
        }
        done = true;
      });
  rig.sim.Run();
  EXPECT_TRUE(done);
}

// --------------------------------------- bug B: mid-commit promotion

TEST(PmCrashRecovery, MidCommitPromotionIsDurableAndStaleMirrorStaysDead) {
  Rig rig;
  bool done = false;
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
        PmClient client(self, "$PMM");
        auto r1 = co_await client.Create("r1", 16 * 1024);
        EXPECT_TRUE(r1.ok());
        if (!r1.ok()) co_return;
        EXPECT_TRUE((co_await r1->Write(0, Fill(4096, 0xA1))).ok());

        // Fail the volume primary at the exact slot-write intent of the
        // next commit: the commit's survivor-side image was encoded with
        // the OLD roles and mirror_up=true.
        rig.plan.ArmAtNext("commit:pre-primary-write",
                           [&](const sim::FaultSite&) { rig.npmu_a.Fail(); });
        auto r2 = co_await client.Create("r2", 16 * 1024);
        EXPECT_TRUE(r2.ok()) << r2.status().ToString();

        auto info = co_await client.Info();
        EXPECT_TRUE(info.ok());
        if (info.ok()) {
          EXPECT_FALSE(info->mirror_up);
        }

        // Post-promotion write through a fresh handle: lands only on the
        // survivor. Deliberately no device-failure report here — nothing
        // else may commit between the promotion and the takeover below.
        auto r1b = co_await client.Open("r1");
        EXPECT_TRUE(r1b.ok());
        if (!r1b.ok()) co_return;
        EXPECT_FALSE(r1b->handle().mirror_up);
        EXPECT_TRUE((co_await r1b->Write(0, Fill(4096, 0xA2))).ok());

        // The dead device returns holding stale data, and the PMM pair
        // fails over, re-deriving truth from the durable slots.
        rig.npmu_a.Repair();
        rig.KillPrimaryAndRestartLater();

        auto info2 = co_await client.Info();
        EXPECT_TRUE(info2.ok());
        if (info2.ok()) {
          EXPECT_FALSE(info2->mirror_up)
              << "recovery resurrected the stale pre-promotion mirror";
        }

        // A read must never be served from the stale mirror: with the
        // survivor down it must fail rather than return pre-promotion
        // data.
        rig.npmu_b.Fail();
        auto r1c = co_await client.Open("r1");
        if (r1c.ok()) {
          auto back = co_await r1c->Read(0, 4096);
          if (back.ok()) {
            EXPECT_EQ((*back)[0], std::byte{0xA2})
                << "read served stale pre-promotion mirror data";
          }
        }
        rig.npmu_b.Repair();
        done = true;
      });
  rig.sim.Run();
  EXPECT_TRUE(done);
}

// ------------------------------------- bug C: commit serialization

TEST(PmCrashRecovery, BackgroundHealthCommitDoesNotInterleaveWithHandler) {
  // Slow write acks stretch the commit's in-flight window to 2ms so an
  // unserialized background commit deterministically overlaps the
  // handler's commit (encode + write of the same slot/epoch).
  nsk::ClusterConfig cfg = Rig::MakeConfig();
  cfg.fabric.ack_latency = Milliseconds(2);
  Rig rig(cfg);

  // Miniature invariant I1: every acked metadata-slot write must decode
  // and carry a strictly higher epoch than anything previously acked on
  // that device. An interleaved double-write acks one epoch twice (or
  // tears the slot).
  std::map<std::uint32_t, std::uint64_t> acked_epoch;
  std::vector<std::string> violations;
  rig.plan.SetObserver([&](const sim::FaultSite& s) {
    if (s.kind != sim::FaultSiteKind::kRdmaWriteComplete) return;
    if (s.args.size() < 2 || s.args[0] + s.args[1] > kMetadataBytes) return;
    const std::uint32_t ep = static_cast<std::uint32_t>(
        std::stoul(s.label.substr(std::strlen("write-ack:ep"))));
    Npmu* dev = ep == rig.npmu_a.id().value
                    ? &rig.npmu_a
                    : (ep == rig.npmu_b.id().value ? &rig.npmu_b : nullptr);
    if (dev == nullptr) return;
    const auto slot = s.args[0] / kMetadataCopyBytes;
    auto img = DecodeSlot(std::span<const std::byte>(
        dev->metadata_memory() + slot * kMetadataCopyBytes,
        kMetadataCopyBytes));
    if (!img) {
      violations.push_back("acked metadata write on " + dev->name() +
                           " does not decode (torn double-write)");
      return;
    }
    auto it = acked_epoch.find(ep);
    if (it != acked_epoch.end() && img->epoch <= it->second) {
      violations.push_back("epoch " + std::to_string(img->epoch) +
                           " acked on " + dev->name() + " after epoch " +
                           std::to_string(it->second));
      return;
    }
    acked_epoch[ep] = img->epoch;
  });

  bool created = false;
  // Reporter: sets up a region, then at the 1s barrier reports the
  // mirror down — HandleMirrorDown replies immediately and persists the
  // health change in a background fiber.
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 2, "reporter", [&](TestProcess& self) -> Task<void> {
        PmClient client(self, "$PMM");
        auto r1 = co_await client.Create("r1", 16 * 1024);
        EXPECT_TRUE(r1.ok());
        co_await self.Sleep(
            sim::SimDuration{Seconds(1).ns - self.sim().Now().ns});
        Serializer s;
        s.PutU32(rig.npmu_b.id().value);
        auto rep = co_await self.Call("$PMM", kPmMirrorDown,
                                      std::move(s).Take());
        EXPECT_TRUE(rep.ok());
      });
  // Creator: its request arrives right behind the report, so its
  // handler commit races the background health commit.
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 3, "creator", [&](TestProcess& self) -> Task<void> {
        co_await self.Sleep(sim::SimDuration{Seconds(1).ns +
                                             Microseconds(5).ns});
        PmClient client(self, "$PMM");
        auto r2 = co_await client.Create("r2", 16 * 1024);
        EXPECT_TRUE(r2.ok()) << r2.status().ToString();
        created = r2.ok();
      });
  rig.sim.Run();
  EXPECT_TRUE(created);
  EXPECT_EQ(violations, std::vector<std::string>{});
}

// ----------------- create/delete/resilver interrupted at each co_await

const char* const kCommitLabels[] = {
    "commit:begin",
    "commit:pre-primary-write",
    "commit:pre-mirror-write",
    "commit:post-writes",
};

void RunCreateInterruption(const std::string& label) {
  SCOPED_TRACE("halt at " + label);
  Rig rig;
  bool done = false;
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
        PmClient client(self, "$PMM");
        auto r1 = co_await client.Create("r1", 16 * 1024);
        EXPECT_TRUE(r1.ok());
        if (!r1.ok()) co_return;
        EXPECT_TRUE((co_await r1->Write(0, Fill(4096, 0x11))).ok());

        rig.plan.ArmAtNext(label, [&](const sim::FaultSite&) {
          rig.KillPrimaryAndRestartLater();
        });
        // The Call retries through takeover; the create must converge
        // (the retry either completes it or finds it already durable).
        auto r2 = co_await client.Create("r2", 16 * 1024);
        EXPECT_TRUE(r2.ok()) << r2.status().ToString();
        if (r2.ok()) {
          EXPECT_TRUE((co_await r2->Write(0, Fill(4096, 0x22))).ok());
        }

        auto r1b = co_await client.Open("r1");
        EXPECT_TRUE(r1b.ok());
        if (r1b.ok()) {
          auto back = co_await r1b->Read(0, 4096);
          EXPECT_TRUE(back.ok());
          if (back.ok()) {
            EXPECT_EQ((*back)[0], std::byte{0x11});
          }
        }
        done = true;
      });
  rig.sim.Run();
  EXPECT_TRUE(done);
}

TEST(PmCrashRecovery, CreateInterruptedAtEachCommitPoint) {
  for (const char* label : kCommitLabels) RunCreateInterruption(label);
}

void RunDeleteInterruption(const std::string& label) {
  SCOPED_TRACE("halt at " + label);
  Rig rig;
  bool done = false;
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
        PmClient client(self, "$PMM");
        auto r1 = co_await client.Create("r1", 16 * 1024);
        auto r2 = co_await client.Create("r2", 16 * 1024);
        EXPECT_TRUE(r1.ok() && r2.ok());
        if (!r1.ok() || !r2.ok()) co_return;
        EXPECT_TRUE((co_await r1->Write(0, Fill(4096, 0x11))).ok());
        EXPECT_TRUE((co_await r2->Write(0, Fill(4096, 0x22))).ok());

        rig.plan.ArmAtNext(label, [&](const sim::FaultSite&) {
          rig.KillPrimaryAndRestartLater();
        });
        auto st = co_await client.Delete("r2");
        auto r2b = co_await client.Open("r2");
        if (st.ok() || st.code() == ErrorCode::kNotFound) {
          // Committed (kNotFound = an earlier attempt's commit was
          // durable before the halt): the region must be gone.
          EXPECT_FALSE(r2b.ok());
        } else {
          // Hard failure: the rollback contract says it survives intact.
          EXPECT_TRUE(r2b.ok());
          if (r2b.ok()) {
            auto back = co_await r2b->Read(0, 4096);
            EXPECT_TRUE(back.ok());
            if (back.ok()) {
            EXPECT_EQ((*back)[0], std::byte{0x22});
          }
          }
        }

        // The bystander region is never affected.
        auto r1b = co_await client.Open("r1");
        EXPECT_TRUE(r1b.ok());
        if (r1b.ok()) {
          auto back = co_await r1b->Read(0, 4096);
          EXPECT_TRUE(back.ok());
          if (back.ok()) {
            EXPECT_EQ((*back)[0], std::byte{0x11});
          }
        }
        done = true;
      });
  rig.sim.Run();
  EXPECT_TRUE(done);
}

TEST(PmCrashRecovery, DeleteInterruptedAtEachCommitPoint) {
  for (const char* label : kCommitLabels) RunDeleteInterruption(label);
}

void RunResilverInterruption(const std::string& label) {
  SCOPED_TRACE("halt at " + label);
  Rig rig;
  bool done = false;
  rig.sim.Adopt<TestProcess>(
      rig.cluster, 2, "app", [&](TestProcess& self) -> Task<void> {
        PmClient client(self, "$PMM");
        auto r1 = co_await client.Create("r1", 64 * 1024);
        EXPECT_TRUE(r1.ok());
        if (!r1.ok()) co_return;
        EXPECT_TRUE((co_await r1->Write(0, Fill(4096, 0xA1))).ok());

        // Mirror outage + a write the mirror misses.
        rig.npmu_b.Fail();
        EXPECT_TRUE((co_await r1->Write(0, Fill(4096, 0xA2))).ok());
        rig.npmu_b.Repair();

        rig.plan.ArmAtNext(label, [&](const sim::FaultSite&) {
          rig.KillPrimaryAndRestartLater();
        });
        auto rs = co_await client.Resilver();
        if (!rs.ok()) {
          // The halt landed after takeover convergence gave up; a clean
          // retry must succeed.
          auto rs2 = co_await client.Resilver();
          EXPECT_TRUE(rs2.ok()) << rs2.status().ToString();
        }

        auto info = co_await client.Info();
        EXPECT_TRUE(info.ok());
        if (info.ok()) {
          EXPECT_TRUE(info->mirror_up);
        }

        auto r1b = co_await client.Open("r1");
        EXPECT_TRUE(r1b.ok());
        if (r1b.ok()) {
          auto back = co_await r1b->Read(0, 4096);
          EXPECT_TRUE(back.ok());
          if (back.ok()) {
            EXPECT_EQ((*back)[0], std::byte{0xA2});
          }
        }
        done = true;
      });
  rig.sim.Run();
  EXPECT_TRUE(done);
  // Mirror-consistency scrub: after a successful resilver both devices
  // hold identical bytes for the region (it is the first allocation, so
  // it sits at data offset 0).
  EXPECT_EQ(std::memcmp(rig.npmu_a.data_memory(), rig.npmu_b.data_memory(),
                        4096),
            0);
}

TEST(PmCrashRecovery, ResilverInterruptedAtEachStep) {
  const char* const kLabels[] = {
      "resilver:begin",
      "resilver:chunk",
      "resilver:metadata-clone",
      "resilver:commit",
  };
  for (const char* label : kLabels) RunResilverInterruption(label);
}

}  // namespace
}  // namespace ods::pm
