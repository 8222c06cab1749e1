// Tests for the disk model: latency structure (the paper's baseline),
// FIFO arm queueing, sequential-vs-random positioning, mirroring, power
// failure semantics.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/process.h"
#include "sim/simulation.h"
#include "storage/disk.h"

namespace ods::storage {
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

std::vector<std::byte> Fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

TEST(DiskTest, WriteThenReadBack) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  Result<std::vector<std::byte>> got(Status(ErrorCode::kInternal, "unset"));
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    EXPECT_TRUE((co_await disk.Write(self, 4096, Fill(1024, 0xCD))).ok());
    got = co_await disk.Read(self, 4096, 1024);
  });
  sim.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 1024u);
  EXPECT_EQ((*got)[0], std::byte{0xCD});
}

TEST(DiskTest, ReadLeavesOffTheNeverWrittenTailButIsTimedInFull) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  Result<std::vector<std::byte>> spans(Status(ErrorCode::kInternal, "unset"));
  Result<std::vector<std::byte>> past(Status(ErrorCode::kInternal, "unset"));
  sim::SimDuration past_took{};
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    EXPECT_TRUE((co_await disk.Write(self, 4096, Fill(1024, 0xCD))).ok());
    spans = co_await disk.Read(self, 0, 1 << 20);
    const sim::SimDuration expected = disk.ServiceTime(8192, 1 << 20);
    const SimTime t0 = self.sim().Now();
    past = co_await disk.Read(self, 8192, 1 << 20);
    past_took = self.sim().Now() - t0;
    EXPECT_EQ(past_took.ns, expected.ns) << "timed for every byte asked";
  });
  sim.Run();
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 4096u + 1024u) << "stops at the written extent";
  EXPECT_EQ((*spans)[0], std::byte{0}) << "unwritten sectors below it read 0";
  EXPECT_EQ((*spans)[4096 + 1023], std::byte{0xCD});
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past->empty());
}

TEST(DiskTest, RandomWriteIsMillisecondClass) {
  // §3.2: the storage stack costs "100s of microseconds — usually
  // milliseconds". A random 4K write must land in that band.
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  SimTime done{};
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await disk.Write(self, 10 << 20, Fill(4096, 1));
    done = self.sim().Now();
  });
  sim.Run();
  EXPECT_GT(done.ns, Milliseconds(1).ns);
  EXPECT_LT(done.ns, Milliseconds(20).ns);
}

TEST(DiskTest, SequentialAppendsMuchCheaperThanRandom) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  // First op positions the head; subsequent appends continue from there.
  const auto t_random = disk.ServiceTime(50 << 20, 4096);
  Result<std::vector<std::byte>> unused(Status(ErrorCode::kInternal, "x"));
  (void)unused;
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await disk.Write(self, 0, Fill(4096, 1));
    co_return;
  });
  sim.Run();
  const auto t_seq = disk.ServiceTime(4096, 4096);  // continues at head
  EXPECT_GT(t_random.ns, t_seq.ns * 5);
}

TEST(DiskTest, FifoQueueingSerializesRequests) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  SimTime t1{}, t2{};
  // Both ops are random (offsets differ from the head position), so each
  // costs a full positioning; the second must additionally queue behind
  // the first on the single arm.
  sim.Spawn<LambdaProcess>("a", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await disk.Write(self, 50 << 20, Fill(4096, 1));
    t1 = self.sim().Now();
  });
  sim.Spawn<LambdaProcess>("b", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await disk.Write(self, 100 << 20, Fill(4096, 2));
    t2 = self.sim().Now();
  });
  sim.Run();
  EXPECT_GE((t2 - SimTime{0}).ns, 2 * disk.config().random_positioning.ns);
  EXPECT_NE(t1, t2);
}

TEST(DiskTest, OutOfRangeRejected) {
  sim::Simulation sim;
  DiskConfig cfg;
  cfg.capacity_bytes = 1 << 20;
  DiskVolume disk(sim, "d0", cfg);
  Status st;
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    st = co_await disk.Write(self, (1 << 20) - 100, Fill(4096, 1));
  });
  sim.Run();
  EXPECT_EQ(st.code(), ErrorCode::kOutOfRange);
}

TEST(DiskTest, AccountingTracksTraffic) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    (void)co_await disk.Write(self, 0, Fill(1000, 1));
    (void)co_await disk.Write(self, 1000, Fill(500, 2));
    (void)co_await disk.Read(self, 0, 1500);
  });
  sim.Run();
  EXPECT_EQ(disk.writes(), 2u);
  EXPECT_EQ(disk.reads(), 1u);
  EXPECT_EQ(disk.bytes_written(), 1500u);
  EXPECT_EQ(disk.bytes_read(), 1500u);
  EXPECT_GT(disk.busy_time().ns, 0);
}

TEST(DiskTest, PowerFailDropsInflightKeepsLanded) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    // Random write: ~5.3ms to land.
    (void)co_await disk.Write(self, 4096, Fill(512, 0xAA));
    // Issue and do NOT await: sequential, ~0.5ms more — in flight when
    // power fails at 5.5ms.
    (void)disk.StartWrite(4096 + 512, Fill(512, 0xBB));
    co_return;
  });
  sim.RunUntil(SimTime{Microseconds(5500).ns});
  disk.PowerFail();
  sim.Run();
  EXPECT_EQ(disk.ReadImage(4096, 1)[0], std::byte{0xAA}) << "landed data survives";
  EXPECT_EQ(disk.ReadImage(4096 + 512, 1)[0], std::byte{0}) << "in-flight write lost";
}

TEST(MirroredTest, WriteGoesToBoth) {
  sim::Simulation sim;
  DiskVolume a(sim, "a"), b(sim, "b");
  MirroredVolume mv(a, b);
  sim.Spawn<LambdaProcess>("p", [&](LambdaProcess& self) -> Task<void> {
    EXPECT_TRUE((co_await mv.Write(self, 0, Fill(256, 0x7E))).ok());
  });
  sim.Run();
  EXPECT_EQ(a.ReadImage(0, 1)[0], std::byte{0x7E});
  EXPECT_EQ(b.ReadImage(0, 1)[0], std::byte{0x7E});
}

// Latency calibration: these values anchor the E2/E4 shape, so pin them.
TEST(DiskCalibration, FourKRandomWriteAround5to6Ms) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  const auto t = disk.ServiceTime(32 << 20, 4096);
  EXPECT_GT(sim::ToMillisD(t), 4.0);
  EXPECT_LT(sim::ToMillisD(t), 8.0);
}

TEST(DiskCalibration, SequentialBandwidthDominatesLargeWrites) {
  sim::Simulation sim;
  DiskVolume disk(sim, "d0");
  // 1MB sequential: ~20ms transfer at 50MB/s + sub-ms overheads.
  const auto t = disk.ServiceTime(0, 1 << 20);
  EXPECT_GT(sim::ToMillisD(t), 15.0);
  EXPECT_LT(sim::ToMillisD(t), 40.0);
}

}  // namespace
}  // namespace ods::storage
