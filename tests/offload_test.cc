// Near-data offload tests: the canonical frame walk (common/framescan.h)
// and its two consumers — the host-side chunked volume scan
// (tp::ScanFramedVolume) and the device-side command engine
// (pm/offload.h). The load-bearing property is agreement: the device's
// VerifyScan must land on exactly the durable tail the host scan would,
// and ShipReplay must return exactly the records the host's two-pass
// redo filter would apply. Plus the PmLogDevice Compact round-trip
// (host path and single-command device path) and end-to-end offloaded
// power-loss recovery on the full rig.
//
// ASSERT_* returns from the enclosing function and so cannot be used in
// coroutine bodies; fatal checks there are EXPECT_* followed by an
// explicit co_return.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/framescan.h"
#include "common/keyhash.h"
#include "common/serialize.h"
#include "db/txn_client.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "pm/offload.h"
#include "sim/simulation.h"
#include "storage/disk.h"
#include "tp/audit.h"
#include "tp/log_device.h"
#include "workload/rig.h"

namespace ods {
namespace {

using sim::Seconds;
using sim::Task;

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

tp::AuditRecord MakeRecord(std::uint64_t lsn, std::uint64_t txn,
                           tp::AuditType type, std::uint32_t file_id,
                           std::uint64_t key, std::uint8_t fill,
                           std::size_t bytes = 96) {
  tp::AuditRecord r;
  r.lsn = lsn;
  r.txn = txn;
  r.type = type;
  r.file_id = file_id;
  r.key = key;
  r.after_image.assign(bytes, static_cast<std::byte>(fill));
  return r;
}

// Appends a framed record and returns the frame's size in bytes.
std::uint64_t AppendFrame(std::vector<std::byte>& img,
                          const tp::AuditRecord& rec) {
  const std::size_t before = img.size();
  tp::FrameRecord(rec, img);
  return img.size() - before;
}

// ------------------------------------------------- frame walk semantics

TEST(FrameScan, LenZeroSentinelIsAHardStop) {
  std::vector<std::byte> img;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    AppendFrame(img, MakeRecord(i, 7, tp::AuditType::kUpdate, 0, i, 0x10));
  }
  const std::uint64_t frames_end = img.size();
  img.resize(frames_end + 64);  // zeroed space after the log: the sentinel

  FrameScanState st;
  FrameScanStep(img, st);
  EXPECT_EQ(st.durable_tail, frames_end);
  EXPECT_EQ(st.frame_count, 3u);
  EXPECT_TRUE(st.hard_stop) << "len==0 must end the walk definitively";

  // A virgin (all-zero) log is empty, not torn.
  std::vector<std::byte> zeros(256);
  EXPECT_EQ(FrameScanPrefix(zeros), 0u);
  EXPECT_EQ(FrameScanPrefix({}), 0u);
}

TEST(FrameScan, CrcMismatchStopsAtLastValidFrame) {
  std::vector<std::byte> img;
  const std::uint64_t s1 =
      AppendFrame(img, MakeRecord(1, 7, tp::AuditType::kUpdate, 0, 1, 0x11));
  AppendFrame(img, MakeRecord(2, 7, tp::AuditType::kUpdate, 0, 2, 0x22));
  img[s1 + 20] ^= std::byte{0x5A};  // corrupt the second frame's payload

  FrameScanState st;
  FrameScanStep(img, st);
  EXPECT_EQ(st.durable_tail, s1);
  EXPECT_EQ(st.frame_count, 1u);
  EXPECT_TRUE(st.hard_stop);
}

TEST(FrameScan, StepResumesAcrossChunkBoundaries) {
  // Feeding the image in arbitrary chunk sizes must reach the same tail
  // as the one-shot walk, without a frame straddling a boundary being
  // mistaken for a torn tail mid-stream.
  std::vector<std::byte> img;
  for (std::uint64_t i = 1; i <= 40; ++i) {
    AppendFrame(img, MakeRecord(i, 3, tp::AuditType::kUpdate, 0, i, 0x33,
                                64 + (i % 7) * 33));
  }
  const std::uint64_t want = FrameScanPrefix(img);
  ASSERT_EQ(want, img.size());

  for (std::size_t chunk : {7u, 100u, 1000u, 4096u}) {
    FrameScanState st;
    std::vector<std::byte> fed;
    std::uint64_t prev_tail = 0;
    for (std::size_t off = 0; off < img.size(); off += chunk) {
      const std::size_t n = std::min(chunk, img.size() - off);
      fed.insert(fed.end(), img.begin() + static_cast<std::ptrdiff_t>(off),
                 img.begin() + static_cast<std::ptrdiff_t>(off + n));
      FrameScanStep(fed, st);
      EXPECT_FALSE(st.hard_stop)
          << "chunk " << chunk << ": straddling frame mistaken for torn";
      EXPECT_GE(st.durable_tail, prev_tail);
      prev_tail = st.durable_tail;
    }
    EXPECT_EQ(st.durable_tail, want) << "chunk " << chunk;
    EXPECT_EQ(st.frame_count, 40u) << "chunk " << chunk;
  }
}

TEST(FrameScan, PeekMatchesAuditSerializer) {
  // PeekFramedRecord mirrors tp/audit.cc's payload layout by fixed
  // offsets; pin the two (and the AuditType values the device filter
  // hard-codes) so a serializer change cannot silently skew the filter.
  const auto rec = MakeRecord(42, 9000000007ull, tp::AuditType::kUpdate,
                              3, 0xDEADBEEFCAFEull, 0x77, 200);
  std::vector<std::byte> img;
  AppendFrame(img, rec);

  FramedRecordHeader h;
  ASSERT_TRUE(PeekFramedRecord(img, 0, h));
  EXPECT_EQ(h.lsn, rec.lsn);
  EXPECT_EQ(h.txn, rec.txn);
  EXPECT_EQ(h.type, static_cast<std::uint32_t>(rec.type));
  EXPECT_EQ(h.file_id, rec.file_id);
  EXPECT_EQ(h.key, rec.key);

  EXPECT_EQ(kFramedAuditUpdate,
            static_cast<std::uint32_t>(tp::AuditType::kUpdate));
  EXPECT_EQ(kFramedAuditCommit,
            static_cast<std::uint32_t>(tp::AuditType::kCommit));

  // Out-of-bounds peeks fail instead of reading past the image.
  EXPECT_FALSE(PeekFramedRecord(img, img.size() - 4, h));
  EXPECT_FALSE(PeekFramedRecord(std::span<const std::byte>(img).first(10), 0, h));
}

// --------------------------------------------- chunked disk volume scan

constexpr std::uint64_t kScanChunk = 4 << 20;  // ScanFramedVolume's stride

struct DiskScanTest : ::testing::Test {
  DiskScanTest() : sim(7), cluster(sim, {}) {}
  ~DiskScanTest() override { sim.Shutdown(); }

  static storage::DiskConfig SmallDisk() {
    storage::DiskConfig c;
    c.capacity_bytes = 8ull << 20;  // two scan chunks
    return c;
  }

  // Frames of ~1KB until the image extends past the first chunk edge.
  // Returns the image; `straddle_start` is the offset of the frame that
  // crosses the 4MiB boundary.
  static std::vector<std::byte> BuildPastChunkEdge(
      std::uint64_t& straddle_start) {
    std::vector<std::byte> img;
    straddle_start = 0;
    std::uint64_t lsn = 0;
    while (img.size() <= kScanChunk + 16 * 1024) {
      const std::uint64_t start = img.size();
      ++lsn;
      AppendFrame(img, MakeRecord(lsn, 5, tp::AuditType::kUpdate, 0, lsn,
                                  static_cast<std::uint8_t>(lsn), 960));
      if (start < kScanChunk && img.size() > kScanChunk) {
        straddle_start = start;
      }
    }
    return img;
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
};

TEST_F(DiskScanTest, FrameStraddlingChunkBoundarySurvivesScan) {
  storage::DiskVolume volume(sim, "$VOL", SmallDisk());
  std::uint64_t straddle_start = 0;
  const std::vector<std::byte> img = BuildPastChunkEdge(straddle_start);
  ASSERT_GT(straddle_start, 0u) << "no frame straddles the chunk edge";
  ASSERT_LT(straddle_start, kScanChunk);

  bool done = false;
  sim.Adopt<App>(cluster, 2, "scan", [&](App& self) -> Task<void> {
    EXPECT_TRUE((co_await volume.Write(self, 0, img)).ok());
    auto log = co_await tp::ScanFramedVolume(self, volume);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (!log.ok()) co_return;
    // The straddling frame is valid — the scan must keep it and
    // everything after it, not truncate at the chunk edge.
    EXPECT_EQ(log->size(), img.size());
    EXPECT_TRUE(std::equal(log->begin(), log->end(), img.begin()));
    done = true;
  });
  sim.RunFor(Seconds(60));
  ASSERT_TRUE(done);
}

TEST_F(DiskScanTest, TornFrameAtChunkEdgeTruncatesToValidPrefix) {
  storage::DiskVolume volume(sim, "$VOL", SmallDisk());
  // Valid frames up to the chunk edge, then a frame that crosses it but
  // was torn mid-write: only its bytes below 4MiB landed, the rest of
  // the volume is zero.
  std::vector<std::byte> img;
  std::uint64_t lsn = 0;
  while (true) {
    std::vector<std::byte> probe = img;
    AppendFrame(probe, MakeRecord(lsn + 1, 5, tp::AuditType::kUpdate, 0,
                                  lsn + 1, 0x44, 960));
    if (probe.size() > kScanChunk) break;
    img = std::move(probe);
    ++lsn;
  }
  const std::uint64_t valid_end = img.size();
  ASSERT_GT(valid_end, 0u);
  AppendFrame(img, MakeRecord(lsn + 1, 5, tp::AuditType::kUpdate, 0, lsn + 1,
                              0x45, 2048));
  ASSERT_GT(img.size(), kScanChunk) << "torn frame must cross the edge";
  img.resize(kScanChunk);  // the write tore exactly at the chunk edge

  bool done = false;
  sim.Adopt<App>(cluster, 2, "scan", [&](App& self) -> Task<void> {
    EXPECT_TRUE((co_await volume.Write(self, 0, img)).ok());
    auto log = co_await tp::ScanFramedVolume(self, volume);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (!log.ok()) co_return;
    EXPECT_EQ(log->size(), valid_end)
        << "scan must keep the valid prefix and drop the torn frame";
    done = true;
  });
  sim.RunFor(Seconds(60));
  ASSERT_TRUE(done);
}

// ------------------------------------------------- device command engine

// PM rig: 4-CPU cluster, mirrored hardware NPMUs, PMM pair — with the
// command engines armed or passive.
struct DeviceRig {
  explicit DeviceRig(bool active, std::uint64_t seed = 13)
      : sim(seed), cluster(sim, ClusterCfg()),
        npmu_a(cluster.fabric(), "npmu-a", NpmuCfg(active)),
        npmu_b(cluster.fabric(), "npmu-b", NpmuCfg(active)) {
    pmm_p = &sim.AdoptStopped<pm::PmManager>(cluster, 0, "$PMM", "$PMM-P",
                                             pm::PmDevice(npmu_a),
                                             pm::PmDevice(npmu_b), "$PM1");
    pmm_b = &sim.AdoptStopped<pm::PmManager>(cluster, 1, "$PMM", "$PMM-B",
                                             pm::PmDevice(npmu_a),
                                             pm::PmDevice(npmu_b), "$PM1");
    pmm_p->SetPeer(pmm_b);
    pmm_b->SetPeer(pmm_p);
    pmm_p->Start();
    pmm_b->Start();
  }
  ~DeviceRig() { sim.Shutdown(); }

  static nsk::ClusterConfig ClusterCfg() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }
  static pm::NpmuConfig NpmuCfg(bool active) {
    pm::NpmuConfig c;
    c.active_commands = active;
    return c;
  }

  void Run(App::Body body) {
    bool done = false;
    sim.Adopt<App>(cluster, 2, "app" + std::to_string(app_seq_++),
                   [&done, body = std::move(body)](App& self) -> Task<void> {
                     co_await body(self);
                     done = true;
                   });
    sim.RunFor(Seconds(60));
    ASSERT_TRUE(done) << "app did not finish (a fatal check co_returned?)";
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  pm::Npmu npmu_a;
  pm::Npmu npmu_b;
  pm::PmManager* pmm_p;
  pm::PmManager* pmm_b;
  int app_seq_ = 0;
};

TEST(OffloadDevice, HostAndDeviceScanAgreeOnRandomizedLogs) {
  DeviceRig rig(/*active=*/true);
  rig.Run([&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("difflog", 64 * 1024);
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    if (!region.ok()) co_return;

    std::mt19937_64 rng(0xC0FFEE);
    constexpr std::size_t kBuf = 16 * 1024;
    for (int round = 0; round < 9; ++round) {
      // A random log: clean, torn tail, or corrupted tail frame.
      std::vector<std::byte> img;
      const int frames = 3 + static_cast<int>(rng() % 8);
      std::uint64_t last_size = 0;
      for (int i = 1; i <= frames; ++i) {
        last_size = AppendFrame(
            img, MakeRecord(static_cast<std::uint64_t>(round * 100 + i),
                            rng() % 5, tp::AuditType::kUpdate,
                            static_cast<std::uint32_t>(rng() % 3), rng(),
                            static_cast<std::uint8_t>(i),
                            16 + rng() % 256));
      }
      if (round % 3 == 1) {
        img.resize(img.size() - last_size / 2);  // torn tail
      } else if (round % 3 == 2) {
        img[img.size() - last_size / 2] ^= std::byte{0x5A};  // corrupt tail
      }
      std::vector<std::byte> buf(kBuf);
      EXPECT_LE(img.size(), kBuf);
      std::copy(img.begin(), img.end(), buf.begin());

      // Host verdict on exactly the bytes the device will see.
      FrameScanState host;
      FrameScanStep(buf, host);
      std::uint64_t host_last_lsn = 0;
      if (host.frame_count > 0) {
        FramedRecordHeader h;
        EXPECT_TRUE(PeekFramedRecord(buf, host.last_frame_off, h));
        host_last_lsn = h.lsn;
      }

      EXPECT_TRUE((co_await region->Write(0, buf)).ok());
      auto resp = co_await region->DeviceCommand(
          pm::kCmdVerifyScan,
          pm::BuildVerifyScanRequest(pm::kScanCrcFrames,
                                     region->handle().nva, kBuf));
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      if (!resp.ok()) co_return;
      pm::VerifyScanResult res;
      EXPECT_TRUE(pm::ParseVerifyScanResponse(*resp, res));
      EXPECT_EQ(res.durable_tail, host.durable_tail) << "round " << round;
      EXPECT_EQ(res.frame_count, host.frame_count) << "round " << round;
      EXPECT_EQ(res.last_lsn, host_last_lsn) << "round " << round;
      EXPECT_EQ(res.first_bad_off,
                host.hard_stop ? host.durable_tail : ~0ull)
          << "round " << round;
    }
  });
}

TEST(OffloadDevice, ShipReplayShipsExactlyCommittedPartitionUpdates) {
  DeviceRig rig(/*active=*/true);
  rig.Run([&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("shiplog", 64 * 1024);
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    if (!region.ok()) co_return;

    // txn 7 commits (updates across two files), txn 9 never commits,
    // txn 8 aborts — only txn 7's file-0 updates may ship.
    std::vector<tp::AuditRecord> recs;
    std::uint64_t lsn = 0;
    for (std::uint64_t key = 0; key < 6; ++key) {
      ++lsn;
      recs.push_back(MakeRecord(lsn, 7, tp::AuditType::kUpdate, 0, key,
                                static_cast<std::uint8_t>(0x10 + key)));
    }
    recs.push_back(MakeRecord(++lsn, 7, tp::AuditType::kUpdate, 1, 100, 0x20));
    recs.push_back(MakeRecord(++lsn, 9, tp::AuditType::kUpdate, 0, 6, 0x30));
    recs.push_back(MakeRecord(++lsn, 8, tp::AuditType::kUpdate, 0, 7, 0x40));
    recs.push_back(MakeRecord(++lsn, 8, tp::AuditType::kAbort, 0, 0, 0x00, 0));
    recs.push_back(MakeRecord(++lsn, 7, tp::AuditType::kCommit, 0, 0, 0x00, 0));

    std::vector<std::byte> img;
    std::vector<std::uint64_t> starts;
    for (const auto& r : recs) {
      starts.push_back(img.size());
      AppendFrame(img, r);
    }
    std::vector<std::byte> buf(16 * 1024);
    std::copy(img.begin(), img.end(), buf.begin());
    EXPECT_TRUE((co_await region->Write(0, buf)).ok());

    constexpr std::uint32_t kParts = 2;
    std::vector<std::byte> shipped_total;
    for (std::uint32_t part = 0; part < kParts; ++part) {
      // Host-side expectation: verbatim frames of committed file-0
      // updates routed to this partition, in log order.
      std::vector<std::byte> want;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto& r = recs[i];
        if (r.type == tp::AuditType::kUpdate && r.txn == 7 &&
            r.file_id == 0 && KeyPartition(r.key, kParts) == part) {
          const std::uint64_t end =
              i + 1 < starts.size() ? starts[i + 1] : img.size();
          want.insert(want.end(),
                      img.begin() + static_cast<std::ptrdiff_t>(starts[i]),
                      img.begin() + static_cast<std::ptrdiff_t>(end));
        }
      }
      auto resp = co_await region->DeviceCommand(
          pm::kCmdShipReplay,
          pm::BuildShipReplayRequest(region->handle().nva, buf.size(), 0,
                                     part, kParts));
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      if (!resp.ok()) co_return;
      EXPECT_EQ(*resp, want) << "partition " << part;
      shipped_total.insert(shipped_total.end(), resp->begin(), resp->end());

      // The stream is LogScanner-ready: every record parses, and all are
      // committed file-0 updates of this partition.
      tp::LogScanner scan(*resp);
      std::uint64_t n = 0;
      while (auto rec = scan.Next()) {
        EXPECT_EQ(rec->txn, 7u);
        EXPECT_EQ(rec->file_id, 0u);
        EXPECT_EQ(KeyPartition(rec->key, kParts), part);
        ++n;
      }
      EXPECT_EQ(scan.offset(), resp->size());
      EXPECT_GT(n, 0u) << "partition " << part << " shipped nothing";
    }
    // Across all partitions: exactly the 6 committed file-0 updates.
    tp::LogScanner all(shipped_total);
    std::uint64_t total = 0;
    while (all.Next()) ++total;
    EXPECT_EQ(total, 6u);
  });
}

TEST(OffloadDevice, StripeScanReturnsFrameTable) {
  DeviceRig rig(/*active=*/true);
  rig.Run([&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("stripes", 64 * 1024);
    EXPECT_TRUE(region.ok());
    if (!region.ok()) co_return;

    // Stripe framing: [goff u64][len u32][payload]. Final frame's length
    // runs past the window (a torn stripe) and must be excluded.
    Serializer s;
    auto stripe = [&s](std::uint64_t goff, std::uint32_t len) {
      s.PutU64(goff);
      s.PutU32(len);
      for (std::uint32_t i = 0; i < len; ++i) s.PutU8(0xAB);
    };
    stripe(0, 100);
    stripe(100, 50);
    s.PutU64(150);
    s.PutU32(60000);  // extends past the window: torn
    std::vector<std::byte> buf = std::move(s).Take();
    const std::uint64_t limit = 1024;
    buf.resize(limit);
    EXPECT_TRUE((co_await region->Write(0, buf)).ok());

    auto resp = co_await region->DeviceCommand(
        pm::kCmdVerifyScan,
        pm::BuildVerifyScanRequest(pm::kScanStripeFrames,
                                   region->handle().nva, limit));
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    if (!resp.ok()) co_return;
    std::vector<pm::StripeFrame> frames;
    EXPECT_TRUE(pm::ParseStripeScanResponse(*resp, frames));
    EXPECT_EQ(frames.size(), 2u);
    if (frames.size() == 2) {
      EXPECT_EQ(frames[0].goff, 0u);
      EXPECT_EQ(frames[0].len, 100u);
      EXPECT_EQ(frames[1].goff, 100u);
      EXPECT_EQ(frames[1].len, 50u);
    }
  });
}

TEST(OffloadDevice, PassiveDeviceRefusesCommands) {
  DeviceRig rig(/*active=*/false);
  rig.Run([&](App& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("passive", 64 * 1024);
    EXPECT_TRUE(region.ok());
    if (!region.ok()) co_return;
    auto resp = co_await region->DeviceCommand(
        pm::kCmdVerifyScan,
        pm::BuildVerifyScanRequest(pm::kScanCrcFrames,
                                   region->handle().nva, 4096));
    EXPECT_FALSE(resp.ok());
    if (resp.ok()) co_return;
    // The signal every fallback in the stack keys on.
    EXPECT_EQ(resp.status().code(), ErrorCode::kFailedPrecondition)
        << resp.status().ToString();
  });
}

// -------------------------------------------------- PmLogDevice compact

void CompactRoundTrip(bool offload) {
  DeviceRig rig(/*active=*/offload);
  std::vector<std::vector<std::byte>> frames;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    std::vector<std::byte> f;
    AppendFrame(f, MakeRecord(i, 7, tp::AuditType::kUpdate, 0, i,
                              static_cast<std::uint8_t>(0x50 + i),
                              128 * static_cast<std::size_t>(i)));
    frames.push_back(std::move(f));
  }
  const std::uint64_t cut = frames[0].size() + frames[1].size();
  std::vector<std::byte> suffix;
  suffix.insert(suffix.end(), frames[2].begin(), frames[2].end());
  suffix.insert(suffix.end(), frames[3].begin(), frames[3].end());
  std::uint64_t total = 0;
  for (const auto& f : frames) total += f.size();

  rig.Run([&](App& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "compact-log";
    cfg.region_bytes = 1 << 20;
    cfg.offload = offload;
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    for (auto& f : frames) {
      EXPECT_TRUE((co_await dev.Append(self, f)).ok());
    }
    EXPECT_EQ(dev.tail(), total);
    auto st = co_await dev.Compact(self, cut);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) co_return;
    EXPECT_EQ(dev.log_base(), cut);
    EXPECT_EQ(dev.tail(), total);
    // Appends keep working above the new base.
    std::vector<std::byte> extra;
    AppendFrame(extra, MakeRecord(5, 7, tp::AuditType::kUpdate, 0, 5, 0x99));
    const std::uint64_t extra_size = extra.size();
    suffix.insert(suffix.end(), extra.begin(), extra.end());
    EXPECT_TRUE((co_await dev.Append(self, std::move(extra))).ok());
    EXPECT_EQ(dev.tail(), total + extra_size);
  });

  // A fresh instance (cold recovery) sees exactly the retained suffix.
  rig.Run([&](App& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "compact-log";
    cfg.region_bytes = 1 << 20;
    cfg.offload = offload;
    tp::PmLogDevice dev(cfg);
    auto log = co_await dev.RecoverLog(self);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    if (!log.ok()) co_return;
    EXPECT_EQ(dev.log_base(), cut);
    EXPECT_EQ(*log, suffix);
    EXPECT_EQ(FrameScanPrefix(*log), log->size())
        << "retained suffix must still parse as whole frames";
  });
  if (offload) {
    const Counter* c = rig.sim.metrics().FindCounter("pm.offload.compactions");
    ASSERT_NE(c, nullptr) << "device-side CompactTo never ran";
    EXPECT_GT(c->value(), 0u);
  }
}

TEST(PmLogCompact, HostPathRetainsSuffix) { CompactRoundTrip(false); }

TEST(PmLogCompact, DeviceCommandRetainsSuffix) { CompactRoundTrip(true); }

// ------------------------------------------- end-to-end rig recovery

TEST(OffloadRecovery, PowerLossRecoveryRunsDeviceSide) {
  sim::Simulation sim(5);
  workload::RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  cfg.pm_offload = true;
  workload::Rig rig(sim, cfg);
  sim.RunFor(Seconds(1));

  auto value = [](std::uint8_t v) {
    return std::vector<std::byte>(128, static_cast<std::byte>(v));
  };
  bool loaded = false;
  sim.Adopt<App>(rig.cluster(), 2, "load", [&](App& self) -> Task<void> {
    db::TxnClient client(self, rig.catalog());
    auto committed = co_await client.Begin();
    EXPECT_TRUE(committed.ok());
    if (!committed.ok()) co_return;
    for (std::uint64_t key = 500; key < 520; ++key) {
      EXPECT_TRUE((co_await client.Insert(
                       *committed, static_cast<std::uint32_t>(key % 2), key,
                       value(static_cast<std::uint8_t>(key))))
                      .ok());
    }
    EXPECT_TRUE((co_await client.Commit(*committed)).ok());
    auto in_flight = co_await client.Begin();
    if (in_flight.ok()) {
      EXPECT_TRUE(
          (co_await client.Insert(*in_flight, 0, 900, value(0xBD))).ok());
    }
    loaded = true;  // ... no commit: power fails now
  });
  sim.RunFor(Seconds(120));
  ASSERT_TRUE(loaded);

  rig.PowerLoss();
  sim.RunFor(Seconds(1));
  rig.RestartAfterPowerLoss();
  sim.RunFor(Seconds(30));

  bool checked = false;
  sim.Adopt<App>(rig.cluster(), 3, "check", [&](App& self) -> Task<void> {
    db::TxnClient client(self, rig.catalog());
    auto check = co_await client.Begin();
    EXPECT_TRUE(check.ok()) << check.status().ToString();
    if (!check.ok()) co_return;
    for (std::uint64_t key = 500; key < 520; ++key) {
      auto v = co_await client.Read(*check, static_cast<std::uint32_t>(key % 2),
                                    key);
      EXPECT_TRUE(v.ok()) << "committed key " << key
                          << " lost: " << v.status().ToString();
      if (v.ok()) {
        EXPECT_EQ((*v)[0], static_cast<std::byte>(key));
      }
    }
    auto missing = co_await client.Read(*check, 0, 900);
    EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound)
        << "uncommitted data must not survive";
    EXPECT_TRUE((co_await client.Commit(*check)).ok());
    checked = true;
  });
  sim.RunFor(Seconds(120));
  ASSERT_TRUE(checked);

  // The recovery actually ran device-side, not through a silent fallback.
  const Counter* scans = sim.metrics().FindCounter("pm.offload.verify_scans");
  ASSERT_NE(scans, nullptr) << "no VerifyScan command ever reached a device";
  EXPECT_GT(scans->value(), 0u);
  const Counter* ships = sim.metrics().FindCounter("pm.offload.replay_ships");
  ASSERT_NE(ships, nullptr) << "no ShipReplay command ever reached a device";
  EXPECT_GT(ships->value(), 0u);
}

}  // namespace
}  // namespace ods
