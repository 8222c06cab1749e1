// Tests for the NSK-style cluster substrate: CPUs, named processes,
// request/reply messaging with retry, CPU failure propagation, and
// process pairs (checkpointing, takeover, resync, no lost externalized
// state).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common/serialize.h"
#include "nsk/cluster.h"
#include "nsk/pair.h"
#include "nsk/process.h"
#include "sim/simulation.h"

namespace ods::nsk {
namespace {

using sim::Microseconds;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

using TestProcess = AppProcess;

// An echo server registered under a name.
class EchoServer : public NskProcess {
 public:
  EchoServer(Cluster& cluster, int cpu, std::string name)
      : NskProcess(cluster, cpu, std::move(name)) {}

  int handled = 0;

 protected:
  Task<void> Main() override {
    cluster().names().Register(name(), this);
    while (true) {
      Request req = co_await Mailbox().Receive(*this);
      ++handled;
      co_await Compute(Microseconds(5));
      req.Respond(OkStatus(), std::move(req.payload));
    }
  }
};

struct ClusterFixture : ::testing::Test {
  ClusterFixture() : sim(7), cluster(sim, MakeConfig()) {}

  static ClusterConfig MakeConfig() {
    ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }

  sim::Simulation sim;
  Cluster cluster;
};

// ----------------------------------------------------------- basic calls

TEST_F(ClusterFixture, CallRoundTrip) {
  sim.Adopt<EchoServer>(cluster, 0, "$echo");
  Result<Reply> result(Status(ErrorCode::kInternal, "unset"));
  sim.Adopt<TestProcess>(cluster, 1, "client",
                         [&](TestProcess& self) -> Task<void> {
                           std::vector<std::byte> payload(64, std::byte{0x5A});
                           result = co_await self.Call("$echo", 1, payload);
                         });
  sim.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->status.ok());
  EXPECT_EQ(result->payload.size(), 64u);
}

TEST_F(ClusterFixture, CallHasWireLatency) {
  sim.Adopt<EchoServer>(cluster, 0, "$echo");
  SimTime done{};
  sim.Adopt<TestProcess>(cluster, 1, "client",
                         [&](TestProcess& self) -> Task<void> {
                           (void)co_await self.Call("$echo", 1, {});
                           done = self.sim().Now();
                         });
  sim.Run();
  // At least two software latencies (request + reply legs).
  EXPECT_GT(done.ns, 2 * cluster.config().fabric.software_latency.ns);
  EXPECT_LT(done.ns, Milliseconds(1).ns);
}

TEST_F(ClusterFixture, CallToUnknownNameFails) {
  Result<Reply> result(Status(ErrorCode::kInternal, "unset"));
  sim.Adopt<TestProcess>(cluster, 0, "client",
                         [&](TestProcess& self) -> Task<void> {
                           CallOptions opts;
                           opts.max_attempts = 2;
                           opts.retry_backoff = Milliseconds(1);
                           result = co_await self.Call("$nobody", 1, {}, opts);
                         });
  sim.Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);
}

TEST_F(ClusterFixture, CallTimesOutAgainstDeafServer) {
  // A server that registers but never reads its mailbox.
  sim.Adopt<TestProcess>(cluster, 0, "$deaf",
                         [&](TestProcess& self) -> Task<void> {
                           self.cluster().names().Register("$deaf", &self);
                           co_await self.Sleep(Seconds(3600));
                         });
  Result<Reply> result(Status(ErrorCode::kInternal, "unset"));
  sim.Adopt<TestProcess>(cluster, 1, "client",
                         [&](TestProcess& self) -> Task<void> {
                           CallOptions opts;
                           opts.timeout = Milliseconds(20);
                           opts.max_attempts = 2;
                           opts.retry_backoff = Milliseconds(1);
                           result = co_await self.Call("$deaf", 1, {}, opts);
                         });
  sim.RunUntil(SimTime{Seconds(10).ns});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kTimedOut);
}

TEST_F(ClusterFixture, ManyClientsOneServer) {
  auto& server = sim.Adopt<EchoServer>(cluster, 0, "$echo");
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    sim.Adopt<TestProcess>(cluster, 1 + (i % 3), "c" + std::to_string(i),
                           [&](TestProcess& self) -> Task<void> {
                             for (int k = 0; k < 5; ++k) {
                               auto r = co_await self.Call("$echo", 1, {});
                               EXPECT_TRUE(r.ok());
                             }
                             ++completed;
                           });
  }
  sim.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(server.handled, 100);
}

TEST_F(ClusterFixture, ComputeSerializesOnCpu) {
  // Two processes on the same CPU each needing 10ms of compute: total
  // elapsed must be ~20ms, not ~10ms.
  SimTime t_done{};
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    sim.Adopt<TestProcess>(cluster, 0, "w" + std::to_string(i),
                           [&](TestProcess& self) -> Task<void> {
                             co_await self.Compute(Milliseconds(10));
                             if (++done == 2) t_done = self.sim().Now();
                           });
  }
  sim.Run();
  EXPECT_GE(t_done.ns, Milliseconds(20).ns);
}

TEST_F(ClusterFixture, CpuFailureKillsProcesses) {
  auto& server = sim.Adopt<EchoServer>(cluster, 2, "$echo");
  sim.Schedule(SimTime{1000}, [&] { cluster.cpu(2).Fail(); });
  sim.Run();
  EXPECT_FALSE(server.alive());
  EXPECT_TRUE(cluster.cpu(2).failed());
}

TEST_F(ClusterFixture, CastIsOneWay) {
  auto& server = sim.Adopt<EchoServer>(cluster, 0, "$echo");
  sim.Adopt<TestProcess>(cluster, 1, "client",
                         [&](TestProcess& self) -> Task<void> {
                           self.Cast("$echo", 9, {});
                           co_return;
                         });
  sim.Run();
  EXPECT_EQ(server.handled, 1);
}

// ------------------------------------------------------------ process pair

// A replicated counter service. kAdd adds the little-endian u64 payload
// to the counter; the primary checkpoints the new value to the backup
// BEFORE replying (externalization rule), so a committed add must never
// be lost across takeover. kGet returns the counter.
inline constexpr std::uint32_t kAdd = 1;
inline constexpr std::uint32_t kGet = 2;

class CounterPair : public PairMember {
 public:
  using PairMember::PairMember;

  std::uint64_t value = 0;

 protected:
  Task<void> HandleRequest(Request req) override {
    if (req.kind == kAdd) {
      Deserializer d(req.payload);
      std::uint64_t delta = 0;
      d.GetU64(delta);
      value += delta;
      Serializer s;
      s.PutU64(value);
      (void)co_await CheckpointToBackup(s.bytes());
      req.Respond(OkStatus());
    } else if (req.kind == kGet) {
      Serializer s;
      s.PutU64(value);
      req.Respond(OkStatus(), std::move(s).Take());
    } else {
      req.Respond(Status(ErrorCode::kInvalidArgument, "bad kind"));
    }
    co_return;
  }

  void ApplyCheckpoint(std::span<const std::byte> delta) override {
    Deserializer d(delta);
    d.GetU64(value);
  }

  std::vector<std::byte> SnapshotState() override {
    Serializer s;
    s.PutU64(value);
    return std::move(s).Take();
  }

  void InstallState(std::span<const std::byte> snapshot) override {
    Deserializer d(snapshot);
    d.GetU64(value);
  }
};

struct PairFixture : ClusterFixture {
  PairFixture() {
    std::tie(primary, backup) = SpawnPair<CounterPair>(cluster, "$ctr", 0, 1);
  }

  CounterPair* primary;
  CounterPair* backup;
};

TEST_F(PairFixture, RolesAssignedBySpawnOrder) {
  sim.RunUntil(SimTime{Milliseconds(10).ns});
  EXPECT_TRUE(primary->is_primary());
  EXPECT_FALSE(backup->is_primary());
}

TEST_F(PairFixture, CheckpointsReachBackup) {
  sim.Adopt<TestProcess>(cluster, 2, "client",
                         [&](TestProcess& self) -> Task<void> {
                           Serializer s;
                           s.PutU64(5);
                           for (int i = 0; i < 4; ++i) {
                             auto r = co_await self.Call("$ctr", kAdd, s.bytes());
                             EXPECT_TRUE(r.ok());
                           }
                         });
  sim.RunUntil(SimTime{Seconds(2).ns});
  EXPECT_EQ(primary->value, 20u);
  EXPECT_EQ(backup->value, 20u) << "backup must track checkpointed state";
  EXPECT_EQ(primary->checkpoints_sent(), 4u);
}

TEST_F(PairFixture, TakeoverPreservesExternalizedState) {
  std::uint64_t read_back = 0;
  sim.Adopt<TestProcess>(
      cluster, 2, "client", [&](TestProcess& self) -> Task<void> {
        Serializer s;
        s.PutU64(7);
        for (int i = 0; i < 3; ++i) {
          auto r = co_await self.Call("$ctr", kAdd, s.bytes());
          EXPECT_TRUE(r.ok());
        }
        // Kill the primary, then read through the service name. The
        // promoted backup must return the full committed value.
        primary->Kill();
        auto r = co_await self.Call("$ctr", kGet, {});
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) {
          Deserializer d(r->payload);
          d.GetU64(read_back);
        }
      });
  sim.RunUntil(SimTime{Seconds(10).ns});
  EXPECT_EQ(read_back, 21u) << "no externalized update may be lost";
  EXPECT_TRUE(backup->is_primary());
}

TEST_F(PairFixture, TakeoverWithinASecond) {
  // §4: "a backup process takes over from its primary in a second or
  // less". Measure the service-name outage window.
  sim.Schedule(SimTime{Milliseconds(100).ns}, [&] { primary->Kill(); });
  sim.RunUntil(SimTime{Seconds(5).ns});
  // Find re-registration of "$ctr" by the backup.
  SimTime reregistered{};
  for (const auto& ev : cluster.names().history()) {
    if (ev.name == "$ctr" && ev.registered &&
        ev.when > SimTime{Milliseconds(100).ns}) {
      reregistered = ev.when;
      break;
    }
  }
  ASSERT_NE(reregistered.ns, 0);
  const auto outage = reregistered - SimTime{Milliseconds(100).ns};
  EXPECT_LE(outage.ns, Seconds(1).ns);
  EXPECT_GT(outage.ns, 0);
}

TEST_F(PairFixture, BackupDeathLeavesServiceRunning) {
  std::uint64_t read_back = 0;
  sim.Adopt<TestProcess>(
      cluster, 2, "client", [&](TestProcess& self) -> Task<void> {
        Serializer s;
        s.PutU64(1);
        (void)co_await self.Call("$ctr", kAdd, s.bytes());
        backup->Kill();
        co_await self.Sleep(Milliseconds(300));
        // Service continues unprotected.
        (void)co_await self.Call("$ctr", kAdd, s.bytes());
        auto r = co_await self.Call("$ctr", kGet, {});
        EXPECT_TRUE(r.ok());
        if (r.ok()) {
          Deserializer d(r->payload);
          d.GetU64(read_back);
        }
      });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_EQ(read_back, 2u);
  EXPECT_TRUE(primary->is_primary());
}

TEST_F(PairFixture, RestartedMemberResyncsAsBackup) {
  sim.Adopt<TestProcess>(
      cluster, 2, "client", [&](TestProcess& self) -> Task<void> {
        Serializer s;
        s.PutU64(10);
        (void)co_await self.Call("$ctr", kAdd, s.bytes());
        backup->Kill();
        co_await self.Sleep(Milliseconds(200));
        (void)co_await self.Call("$ctr", kAdd, s.bytes());  // while unprotected
        backup->Restart();
        co_await self.Sleep(Milliseconds(500));
        // Backup must have resynced the full state (20), and new updates
        // must be checkpointed to it again.
        (void)co_await self.Call("$ctr", kAdd, s.bytes());
        co_await self.Sleep(Milliseconds(200));
      });
  sim.RunUntil(SimTime{Seconds(5).ns});
  EXPECT_FALSE(backup->is_primary());
  EXPECT_EQ(backup->value, 30u) << "resync + resumed checkpoints";
}

TEST_F(PairFixture, DoubleFailoverChain) {
  // Kill primary -> backup promotes; restart old primary -> it becomes
  // the new backup; kill the new primary -> old primary promotes again.
  std::uint64_t final_value = 0;
  sim.Adopt<TestProcess>(
      cluster, 2, "client", [&](TestProcess& self) -> Task<void> {
        Serializer s;
        s.PutU64(3);
        (void)co_await self.Call("$ctr", kAdd, s.bytes());
        primary->Kill();
        co_await self.Sleep(Seconds(1));
        (void)co_await self.Call("$ctr", kAdd, s.bytes());
        primary->Restart();
        co_await self.Sleep(Seconds(1));
        backup->Kill();
        co_await self.Sleep(Seconds(1));
        auto r = co_await self.Call("$ctr", kGet, {});
        EXPECT_TRUE(r.ok());
        if (r.ok()) {
          Deserializer d(r->payload);
          d.GetU64(final_value);
        }
      });
  sim.RunUntil(SimTime{Seconds(10).ns});
  EXPECT_EQ(final_value, 6u);
  EXPECT_TRUE(primary->is_primary());
  EXPECT_FALSE(backup->alive());
}

}  // namespace
}  // namespace ods::nsk
