// Tests for the ServerNet-like RDMA fabric: address translation, access
// control, latency model, packetized (torn) writes, CRC corruption
// detection, rail failover, link occupancy and messaging.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <vector>

#include "net/fabric.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace ods::net {
namespace {

using sim::Microseconds;
using sim::Milliseconds;
using sim::SimTime;
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

std::vector<std::byte> MakePattern(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + seed) & 0xFF);
  }
  return v;
}

struct FabricFixture : ::testing::Test {
  FabricFixture() : sim(42), fabric(sim, FabricConfig{}) {}

  // Creates a "device" endpoint exposing `mem` at nva 0x1000.
  Endpoint& MakeDevice(std::vector<std::byte>& mem,
                       std::vector<EndpointId> acl = {}) {
    Endpoint& dev = fabric.CreateEndpoint("device");
    AttWindow w;
    w.nva_base = 0x1000;
    w.length = mem.size();
    w.memory = mem.data();
    w.allowed_initiators = std::move(acl);
    EXPECT_TRUE(dev.MapWindow(std::move(w)).ok());
    return dev;
  }

  sim::Simulation sim;
  Fabric fabric;
};

// ------------------------------------------------------------ basic RDMA

TEST_F(FabricFixture, WriteLandsInDeviceMemory) {
  std::vector<std::byte> mem(4096);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  const auto data = MakePattern(1024);
  Status st;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    st = co_await host.Write(self, dev.id(), 0x1000 + 128, data);
  });
  sim.Run();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(std::equal(data.begin(), data.end(), mem.begin() + 128));
}

TEST_F(FabricFixture, ReadReturnsDeviceMemory) {
  std::vector<std::byte> mem = MakePattern(2048, 3);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  RdmaResult res;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    res = co_await host.Read(self, dev.id(), 0x1000 + 100, 512);
  });
  sim.Run();
  ASSERT_TRUE(res.status.ok());
  ASSERT_EQ(res.data.size(), 512u);
  EXPECT_TRUE(std::equal(res.data.begin(), res.data.end(), mem.begin() + 100));
}

TEST_F(FabricFixture, WriteLatencyIsTensOfMicroseconds) {
  // The paper's headline claim: PM access incurs only 10s of
  // microseconds, vs milliseconds for the storage stack.
  std::vector<std::byte> mem(8192);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  SimTime done{};
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await host.Write(self, dev.id(), 0x1000, MakePattern(4096));
    done = self.sim().Now();
  });
  sim.Run();
  EXPECT_GT(done.ns, Microseconds(10).ns);
  EXPECT_LT(done.ns, Microseconds(100).ns);
}

TEST_F(FabricFixture, LargerWritesTakeLonger) {
  std::vector<std::byte> mem(1 << 20);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  SimTime t_small{}, t_large{};
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    const SimTime t0 = self.sim().Now();
    (void)co_await host.Write(self, dev.id(), 0x1000, MakePattern(512));
    t_small = self.sim().Now();
    (void)co_await host.Write(self, dev.id(), 0x1000, MakePattern(512 * 1024));
    t_large = self.sim().Now();
    (void)t0;
  });
  sim.Run();
  const auto small_cost = t_small.ns;
  const auto large_cost = t_large.ns - t_small.ns;
  EXPECT_GT(large_cost, small_cost * 10);
}

// --------------------------------------------------- translation & ACLs

TEST_F(FabricFixture, OutOfWindowAccessRejected) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  Status st;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    // Crosses the end of the window.
    st = co_await host.Write(self, dev.id(), 0x1000 + 900, MakePattern(400));
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
}

TEST_F(FabricFixture, UnmappedAddressRejected) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  Status st;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    st = co_await host.Write(self, dev.id(), 0x9000, MakePattern(16));
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
}

TEST_F(FabricFixture, AccessControlEnforcedPerInitiator) {
  // The PMM "specifies which CPUs have access to a specific range" —
  // a host outside the ACL must be rejected.
  std::vector<std::byte> mem(1024);
  Endpoint& allowed = fabric.CreateEndpoint("allowed-host");
  Endpoint& dev = MakeDevice(mem, {allowed.id()});
  Endpoint& intruder = fabric.CreateEndpoint("intruder");

  Status st_allowed, st_intruder;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    st_allowed = co_await allowed.Write(self, dev.id(), 0x1000, MakePattern(64));
    st_intruder =
        co_await intruder.Write(self, dev.id(), 0x1000, MakePattern(64));
  });
  sim.Run();
  EXPECT_TRUE(st_allowed.ok());
  EXPECT_EQ(st_intruder.code(), ErrorCode::kPermissionDenied);
}

TEST_F(FabricFixture, ReadOnlyWindowRejectsWrites) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = fabric.CreateEndpoint("device");
  AttWindow w;
  w.nva_base = 0x1000;
  w.length = mem.size();
  w.memory = mem.data();
  w.writable = false;
  ASSERT_TRUE(dev.MapWindow(std::move(w)).ok());
  Endpoint& host = fabric.CreateEndpoint("host");

  Status wr;
  RdmaResult rd;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    wr = co_await host.Write(self, dev.id(), 0x1000, MakePattern(64));
    rd = co_await host.Read(self, dev.id(), 0x1000, 64);
  });
  sim.Run();
  EXPECT_EQ(wr.code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(rd.status.ok());
}

TEST_F(FabricFixture, OverlappingWindowsRejected) {
  std::vector<std::byte> mem(4096);
  Endpoint& dev = fabric.CreateEndpoint("device");
  AttWindow a;
  a.nva_base = 0x1000;
  a.length = 1024;
  a.memory = mem.data();
  ASSERT_TRUE(dev.MapWindow(std::move(a)).ok());
  AttWindow b;
  b.nva_base = 0x1200;  // inside a
  b.length = 1024;
  b.memory = mem.data() + 1024;
  EXPECT_EQ(dev.MapWindow(std::move(b)).code(), ErrorCode::kInvalidArgument);
  AttWindow c;
  c.nva_base = 0x1000 + 1024;  // adjacent is fine
  c.length = 1024;
  c.memory = mem.data() + 1024;
  EXPECT_TRUE(dev.MapWindow(std::move(c)).ok());
}

TEST_F(FabricFixture, UnmapStopsAccess) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");

  Status before, after;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    before = co_await host.Write(self, dev.id(), 0x1000, MakePattern(64));
    EXPECT_TRUE(dev.UnmapWindow(0x1000).ok());
    after = co_await host.Write(self, dev.id(), 0x1000, MakePattern(64));
  });
  sim.Run();
  EXPECT_TRUE(before.ok());
  EXPECT_EQ(after.code(), ErrorCode::kOutOfRange);
}

// ------------------------------------------------------ faults & rails

TEST_F(FabricFixture, DownEndpointUnavailable) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");
  dev.SetDown(true);

  Status st;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    st = co_await host.Write(self, dev.id(), 0x1000, MakePattern(64));
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
}

TEST_F(FabricFixture, SingleRailFailureSurvived) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");
  fabric.SetRailDown(0, true);

  Status st;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    st = co_await host.Write(self, dev.id(), 0x1000, MakePattern(64));
  });
  sim.Run();
  EXPECT_TRUE(st.ok()) << "dual-rail fabric must survive one rail failure";
}

TEST_F(FabricFixture, AllRailsDownFails) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");
  fabric.SetRailDown(0, true);
  fabric.SetRailDown(1, true);

  Status st;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    st = co_await host.Write(self, dev.id(), 0x1000, MakePattern(64));
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
}

TEST_F(FabricFixture, SingleRailFailureSurvivedByRead) {
  std::vector<std::byte> mem(1024);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");
  const std::vector<std::byte> pattern = MakePattern(64);
  std::copy(pattern.begin(), pattern.end(), mem.begin());
  fabric.SetRailDown(0, true);

  RdmaResult r;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    r = co_await host.Read(self, dev.id(), 0x1000, 64);
  });
  sim.Run();
  EXPECT_TRUE(r.status.ok()) << "dual-rail fabric must survive one rail failure";
  EXPECT_EQ(r.data, pattern);
}

TEST_F(FabricFixture, CorruptionDetectedByCrc) {
  std::vector<std::byte> mem(1 << 16);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");
  fabric.SetCorruptionRate(0.05);

  int failures = 0, successes = 0;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    for (int i = 0; i < 200; ++i) {
      Status st = co_await host.StartWrite(dev.id(), 0x1000, MakePattern(4096))
                      .Wait(self);
      if (st.ok()) {
        ++successes;
      } else {
        EXPECT_EQ(st.code(), ErrorCode::kDataLoss);
        ++failures;
      }
    }
  });
  sim.Run();
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
  EXPECT_EQ(fabric.crc_detections(), fabric.packets_corrupted())
      << "every corrupted packet must be caught by the NIC CRC";
}

TEST_F(FabricFixture, LinkOccupancySerializesConcurrentWrites) {
  std::vector<std::byte> mem(1 << 21);
  Endpoint& dev = MakeDevice(mem);
  Endpoint& a = fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");

  // Two 1MB writes in parallel to the same device: wall time must be
  // close to 2x single-transfer wire time, not 1x.
  SimTime t_a{}, t_b{};
  sim.Spawn<LambdaProcess>("pa", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await a.Write(self, dev.id(), 0x1000, MakePattern(1 << 20));
    t_a = self.sim().Now();
  });
  sim.Spawn<LambdaProcess>("pb", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await b.Write(self, dev.id(), 0x1000 + (1 << 20),
                           MakePattern(1 << 20));
    t_b = self.sim().Now();
  });
  sim.Run();
  const double wire_one = sim::ToSecondsD(fabric.TransferTime(1 << 20));
  const double finish = sim::ToSecondsD(std::max(t_a, t_b) - SimTime{0});
  EXPECT_GT(finish, 1.8 * wire_one);
}

// -------------------------------------------------------------- messaging

TEST_F(FabricFixture, MessageDelivered) {
  Endpoint& a = fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");

  std::optional<Endpoint::Packet> got;
  sim.Spawn<LambdaProcess>("recv", [&](LambdaProcess& self) -> Task<void> {
    got = co_await b.Incoming().Receive(self);
  });
  a.PostMessage(b.id(), 7, MakePattern(100));
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, a.id());
  EXPECT_EQ(got->kind, 7u);
  EXPECT_EQ(got->payload.size(), 100u);
}

TEST_F(FabricFixture, MessageToDownEndpointDropped) {
  Endpoint& a = fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  b.SetDown(true);

  bool got = false;
  sim.Spawn<LambdaProcess>("recv", [&](LambdaProcess& self) -> Task<void> {
    auto m = co_await b.Incoming().ReceiveFor(self, Milliseconds(10));
    got = m.has_value();
  });
  a.PostMessage(b.id(), 1, {});
  sim.Run();
  EXPECT_FALSE(got);
}

// Torn writes: a packetized transfer that fails mid-flight must have
// landed a strict prefix of its packets — this is the hazard the PMM
// metadata protocol defends against.
TEST_F(FabricFixture, FailedTransferIsTornNotAtomic) {
  std::vector<std::byte> mem(1 << 16, std::byte{0});
  Endpoint& dev = MakeDevice(mem);
  Endpoint& host = fabric.CreateEndpoint("host");
  fabric.SetCorruptionRate(0.10);

  bool saw_torn = false;
  sim.Spawn<LambdaProcess>("h", [&](LambdaProcess& self) -> Task<void> {
    for (int attempt = 0; attempt < 100 && !saw_torn; ++attempt) {
      std::fill(mem.begin(), mem.end(), std::byte{0});
      auto data = std::vector<std::byte>(16384, std::byte{0xAA});
      Status st = co_await host.StartWrite(dev.id(), 0x1000, data).Wait(self);
      if (!st.ok()) {
        const auto written = static_cast<std::size_t>(
            std::count(mem.begin(), mem.end(), std::byte{0xAA}));
        if (written > 0 && written < data.size()) saw_torn = true;
      }
    }
  });
  sim.Run();
  EXPECT_TRUE(saw_torn) << "mid-transfer failures should leave torn writes";
}

}  // namespace
}  // namespace ods::net
