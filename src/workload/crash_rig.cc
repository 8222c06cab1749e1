#include "workload/crash_rig.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "common/keyhash.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/manager.h"
#include "pm/metadata.h"
#include "pm/npmu.h"
#include "pm/offload.h"
#include "pm/plane.h"
#include "sim/simulation.h"
#include "tp/audit.h"

namespace ods::workload {
namespace {

using pm::DecodeSlot;
using pm::kDataBase;
using pm::kMetadataBytes;
using pm::kMetadataCopyBytes;
using sim::FaultSite;
using sim::FaultSiteKind;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

// Every region write in the scenario fills this many bytes at offset 0
// with a phase-distinct value, so verification is a byte compare.
constexpr std::uint64_t kProbeBytes = 4096;
constexpr SimTime kVerifyAt{Seconds(10).ns};
constexpr SimTime kRunEnd{Seconds(20).ns};

// Offload-leg layout inside the "omega" region: the probe range
// [0, kProbeBytes) stays zero (so the standard I3/I4 checks apply
// unchanged), the compact control block lives at kCtlOff, the framed
// log at kLogOff.
constexpr std::uint64_t kCtlOff = kProbeBytes;
constexpr std::uint64_t kLogOff = 2 * kProbeBytes;
// ShipReplay filter exercised by the leg.
constexpr std::uint32_t kLegFile = 0;
constexpr std::uint32_t kLegPartition = 0;
constexpr std::uint32_t kLegPartitions = 2;

class FiberProc : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(FiberProc&)>;
  FiberProc(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

std::vector<std::byte> Fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// Client-side belief about one region, updated only from acknowledged
// results: this is the contract the system must honour across crashes.
struct RegionTruth {
  std::uint64_t length = 0;
  bool exists = false;        // create acked (and no delete acked since)
  bool maybe_exists = false;  // op outcome unknown (errored under faults)
  std::optional<std::uint8_t> acked_fill;  // last acked probe value
  // Errored writes since the last acked one: any of these values may
  // have landed (wholly or partially), so the probe range is allowed to
  // hold them. An acked write overwrites the whole range and clears it.
  std::set<std::uint8_t> pending_fills;
};

struct CrashRig {
  sim::Simulation sim;
  nsk::Cluster cluster;
  pm::PmPlane plane;
  pm::Npmu& npmu_a = plane.npmu_a();
  pm::Npmu& npmu_b = plane.npmu_b();
  pm::PmManager* pmm_p = plane.pmm();
  pm::PmManager* pmm_b = plane.pmm_backup();
  sim::FaultPlan plan;
  // Bounded span ring: always on, so any invariant violation comes with
  // the tail of the run's fabric/PMM activity for post-mortem.
  Tracer tracer;

  CrashMode mode;
  std::map<std::string, RegionTruth> truth;
  std::vector<std::string> violations;
  bool crash_fired = false;
  bool verified = false;
  bool final_mirror_up = false;
  std::size_t regions_checked = 0;
  // Probe-range offsets learnt from handles (nva - kDataBase), for the
  // post-run device-memory scrub.
  std::map<std::string, std::uint64_t> region_offset;

  // I1 state: highest metadata epoch acked per device endpoint.
  std::map<std::uint32_t, std::uint64_t> acked_epoch_max;
  // Between resilver:metadata-clone and the next commit intent, slot
  // writes are raw clones of the primary's images (old epochs) — the
  // monotonicity check re-baselines instead.
  bool clone_window = false;

  static nsk::ClusterConfig MakeConfig() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }

  static pm::NpmuConfig MakeNpmuConfig(const DurabilityOptions& dur) {
    pm::NpmuConfig c;
    c.volatile_staging = dur.volatile_staging;
    c.active_commands = dur.offload;
    return c;
  }

  // Offload-leg ground truth (armed by DurabilityOptions::offload).
  bool offload = false;
  std::vector<std::byte> log_frames;    // full framed log image
  std::vector<std::byte> expected_ship; // committed updates for the filter
  std::uint64_t log_cut = 0;            // compact cut (frame boundary)
  std::vector<std::byte> log_control;   // control bytes the compact writes
  bool log_write_acked = false;
  bool compact_attempted = false;
  bool compact_acked = false;

  CrashRig(std::uint64_t seed, CrashMode m, const DurabilityOptions& dur)
      : sim(seed), cluster(sim, MakeConfig()),
        plane(cluster, pm::PmDeviceKind::kNpmuPair, 1, MakeNpmuConfig(dur)),
        mode(m), offload(dur.offload) {
    cluster.fabric().set_durability_mode(dur.mode);
    plan.SetObserver([this](const FaultSite& s) { Observe(s); });
    sim.set_fault_plan(&plan);
    tracer.Enable(/*capacity=*/8192);
    sim.set_tracer(&tracer);
    plane.Start();
  }

  ~CrashRig() {
    sim.Shutdown();
    sim.set_fault_plan(nullptr);
    sim.set_tracer(nullptr);
  }

  void Violate(std::string what) { violations.push_back(std::move(what)); }

  pm::Npmu* DeviceByEndpoint(std::uint32_t ep) {
    if (npmu_a.id().value == ep) return &npmu_a;
    if (npmu_b.id().value == ep) return &npmu_b;
    return nullptr;
  }

  std::optional<pm::MetadataSlot> DecodeDeviceSlot(pm::Npmu& dev, int slot) {
    return DecodeSlot(std::span<const std::byte>(
        dev.metadata_memory() + static_cast<std::uint64_t>(slot) *
                                    kMetadataCopyBytes,
        kMetadataCopyBytes));
  }

  // ---- continuous invariants (plan observer) ----

  void Observe(const FaultSite& s) {
    if (s.kind == FaultSiteKind::kRdmaWriteComplete) ObserveWriteAck(s);
    if (s.kind == FaultSiteKind::kCommitPoint &&
        s.label == "commit:pre-primary-write") {
      clone_window = false;
      ObserveCommitIntent(s);
    }
    if (s.kind == FaultSiteKind::kResilverStep &&
        s.label == "resilver:metadata-clone") {
      clone_window = true;
    }
  }

  // I1: every acked metadata-slot write carries a strictly higher epoch
  // than anything acked on that device before it (and must decode whole —
  // interleaved double-writes tear the image).
  void ObserveWriteAck(const FaultSite& s) {
    if (s.label.rfind("write-ack:ep", 0) != 0 || s.args.size() < 2) return;
    const std::uint32_t ep = static_cast<std::uint32_t>(
        std::stoul(s.label.substr(std::strlen("write-ack:ep"))));
    pm::Npmu* dev = DeviceByEndpoint(ep);
    if (dev == nullptr) return;
    const std::uint64_t nva = s.args[0];
    const std::uint64_t len = s.args[1];
    if (nva + len > kMetadataBytes) return;  // data write, not a slot
    const int slot = static_cast<int>(nva / kMetadataCopyBytes);
    auto img = DecodeDeviceSlot(*dev, slot);
    if (clone_window) {
      // Resilver clone: raw copy of the primary's (older-epoch) images.
      // Re-baseline the device instead of checking monotonicity.
      std::uint64_t mx = 0;
      for (int sl = 0; sl < 2; ++sl) {
        if (auto i = DecodeDeviceSlot(*dev, sl)) mx = std::max(mx, i->epoch);
      }
      acked_epoch_max[ep] = mx;
      return;
    }
    if (!img) {
      Violate("I1: acked metadata write on " + dev->name() + " slot " +
              std::to_string(slot) + " does not decode (torn double-write?)");
      return;
    }
    auto it = acked_epoch_max.find(ep);
    if (it != acked_epoch_max.end() && img->epoch <= it->second) {
      Violate("I1: metadata epoch not monotonic on " + dev->name() +
              ": acked epoch " + std::to_string(img->epoch) +
              " after epoch " + std::to_string(it->second));
      return;
    }
    acked_epoch_max[ep] = img->epoch;
  }

  // I2: the commit's target slot must not be the only holder of a target
  // device's newest valid image — a torn write there would lose it.
  void ObserveCommitIntent(const FaultSite& s) {
    if (s.args.size() < 5) return;
    const int slot = static_cast<int>(s.args[0]);
    const bool mirror_up = s.args[4] != 0;
    std::vector<std::uint32_t> targets = {
        static_cast<std::uint32_t>(s.args[2])};
    if (mirror_up) targets.push_back(static_cast<std::uint32_t>(s.args[3]));
    for (std::uint32_t ep : targets) {
      pm::Npmu* dev = DeviceByEndpoint(ep);
      if (dev == nullptr) continue;
      auto target_img = DecodeDeviceSlot(*dev, slot);
      auto other_img = DecodeDeviceSlot(*dev, slot ^ 1);
      if (target_img &&
          (!other_img || other_img->epoch < target_img->epoch)) {
        Violate("I2: commit targets slot " + std::to_string(slot) + " on " +
                dev->name() + " which holds its newest valid image (epoch " +
                std::to_string(target_img->epoch) + ")");
      }
    }
  }

  // ---- the armed fault ----

  void FireCrash(const FaultSite&) {
    crash_fired = true;
    switch (mode) {
      case CrashMode::kNone:
        break;
      case CrashMode::kHaltPrimaryPmm: {
        pm::PmManager* victim =
            pmm_p->is_primary() ? pmm_p : (pmm_b->is_primary() ? pmm_b : pmm_p);
        victim->Kill();
        sim.After(Seconds(2), [victim] {
          if (!victim->alive()) victim->Restart();
        });
        break;
      }
      case CrashMode::kDualDeviceOutage:
        npmu_a.Fail();
        npmu_b.Fail();
        sim.After(Milliseconds(10), [this] {
          npmu_a.Repair();
          npmu_b.Repair();
        });
        break;
      case CrashMode::kFailPrimaryDevice: {
        npmu_a.Fail();
        sim.After(Milliseconds(20), [this] { npmu_a.Repair(); });
        sim.After(Milliseconds(60), [this] {
          pm::PmManager* victim = pmm_p->is_primary()
                                      ? pmm_p
                                      : (pmm_b->is_primary() ? pmm_b : pmm_p);
          victim->Kill();
          sim.After(Seconds(2), [victim] {
            if (!victim->alive()) victim->Restart();
          });
        });
        break;
      }
      case CrashMode::kPowerLoss:
      case CrashMode::kVolatileBufferLoss:
        // Same event; with the staging model armed (kVolatileBufferLoss),
        // PowerFail additionally drops everything still parked in the
        // NIC/PCIe staging buffers — only drained bytes survive.
        plane.PowerLoss();
        sim.After(Seconds(1), [this] {
          if (!pmm_p->alive()) pmm_p->Restart();
        });
        sim.After(Seconds(1) + Milliseconds(1), [this] {
          if (!pmm_b->alive()) pmm_b->Restart();
        });
        break;
    }
  }

  // ---- scenario driver (ground truth updated from acks only) ----

  Task<void> CreateRegion(pm::PmClient& client, FiberProc& self,
                          std::string name, std::uint64_t length) {
    (void)self;
    RegionTruth& t = truth[name];
    t.length = length;
    auto r = co_await client.Create(name, length);
    if (r.ok()) {
      t.exists = true;
      t.maybe_exists = false;
    } else {
      // Errored create: could have committed durably before the fault.
      t.maybe_exists = true;
    }
  }

  Task<void> WriteRegion(pm::PmClient& client, FiberProc& self,
                         std::string name, std::uint8_t value) {
    (void)self;
    RegionTruth& t = truth[name];
    auto r = co_await client.Open(name);
    if (!r.ok()) co_return;  // nothing issued, truth unchanged
    t.pending_fills.insert(value);
    auto st = co_await r->Write(0, Fill(kProbeBytes, value));
    if (st.ok()) {
      t.acked_fill = value;
      t.pending_fills.clear();
    }
    // On error the write may have landed partially: the value stays in
    // pending_fills as allowed alongside the last acked one.
  }

  Task<void> DeleteRegion(pm::PmClient& client, FiberProc& self,
                          std::string name) {
    (void)self;
    RegionTruth& t = truth[name];
    auto st = co_await client.Delete(name);
    if (st.ok() || st.code() == ErrorCode::kNotFound) {
      // kNotFound on a Call retry means an earlier attempt committed.
      t.exists = false;
      t.maybe_exists = false;
    } else if (st.code() == ErrorCode::kUnavailable ||
               st.code() == ErrorCode::kTimedOut) {
      // Transport-level failure: an attempt may have been delivered and
      // committed before the PMM (or the path to it) died, so the
      // outcome is indeterminate. No store can promise rollback here.
      t.exists = false;
      t.maybe_exists = true;
    }
    // Any other error is a handler-level rejection (the commit failed
    // and the PMM rolled back): a contract that the region SURVIVES.
    // t.exists stays true and verification enforces it.
  }

  Task<void> Driver(FiberProc& self) {
    pm::PmClient client(self, "$PMM");
    co_await CreateRegion(client, self, "alpha", 64 * 1024);
    co_await WriteRegion(client, self, "alpha", 0xA1);
    co_await CreateRegion(client, self, "gamma", 16 * 1024);
    co_await WriteRegion(client, self, "gamma", 0xC1);

    // Mirror outage: the next write fails over and reports the device,
    // kicking off the PMM's background health commit; the create that
    // follows immediately rides right behind it.
    npmu_b.Fail();
    co_await WriteRegion(client, self, "alpha", 0xA2);
    co_await CreateRegion(client, self, "beta", 16 * 1024);
    co_await WriteRegion(client, self, "beta", 0xB1);

    // Delete while unmirrored: a faulted commit here must roll back.
    co_await DeleteRegion(client, self, "gamma");

    npmu_b.Repair();
    (void)co_await client.Resilver();
    co_await WriteRegion(client, self, "alpha", 0xA3);

    // First-fit reuse: if gamma's delete committed, delta takes its
    // extent; if the delete FAILED, it must not.
    co_await CreateRegion(client, self, "delta", 16 * 1024);
    co_await WriteRegion(client, self, "delta", 0xD1);

    if (offload) co_await OffloadLeg(client, self);
  }

  // ---- active-NPMU offload leg ----

  // Writes a framed audit log into "omega" and drives all three device
  // commands against it. Every command tolerates failure (the armed
  // fault may land anywhere); checks only bind once the prerequisite op
  // was ACKED — the same acked-only contract as RegionTruth.
  Task<void> OffloadLeg(pm::PmClient& client, FiberProc& self) {
    co_await CreateRegion(client, self, "omega", 64 * 1024);
    auto r = co_await client.Open("omega");
    if (!r.ok()) co_return;

    std::vector<std::uint64_t> marks;  // frame boundaries
    auto add = [&](std::uint64_t lsn, std::uint64_t txn, tp::AuditType type,
                   std::uint32_t file, std::uint64_t key, std::uint8_t v) {
      tp::AuditRecord rec;
      rec.lsn = lsn;
      rec.txn = txn;
      rec.type = type;
      rec.file_id = file;
      rec.key = key;
      if (type == tp::AuditType::kUpdate) rec.after_image = Fill(32, v);
      const std::size_t before = log_frames.size();
      tp::FrameRecord(rec, log_frames);
      marks.push_back(log_frames.size());
      // Host-side model of the device's replay filter.
      if (type == tp::AuditType::kUpdate && txn == 7 && file == kLegFile &&
          KeyPartition(key, kLegPartitions) == kLegPartition) {
        expected_ship.insert(expected_ship.end(), log_frames.begin() + before,
                             log_frames.end());
      }
    };
    add(1, 7, tp::AuditType::kUpdate, kLegFile, 0, 0x11);
    add(2, 7, tp::AuditType::kUpdate, kLegFile, 1, 0x12);
    add(3, 9, tp::AuditType::kUpdate, kLegFile, 2, 0x21);  // never commits
    add(4, 7, tp::AuditType::kUpdate, 1, 3, 0x31);         // other file
    add(5, 7, tp::AuditType::kCommit, kLegFile, 0, 0);

    auto st = co_await r->Write(kLogOff, log_frames);
    if (st.ok()) log_write_acked = true;
    if (!log_write_acked) co_return;  // everything below is indeterminate

    const std::uint64_t base = r->handle().nva + kLogOff;
    auto vs = co_await r->DeviceCommand(
        pm::kCmdVerifyScan,
        pm::BuildVerifyScanRequest(pm::kScanCrcFrames, base,
                                   log_frames.size()));
    if (vs.ok()) {
      pm::VerifyScanResult scan;
      if (!pm::ParseVerifyScanResponse(*vs, scan) ||
          scan.durable_tail != log_frames.size() ||
          scan.frame_count != marks.size()) {
        Violate("offload: device VerifyScan disagrees with acked log write");
      }
    }

    auto sr = co_await r->DeviceCommand(
        pm::kCmdShipReplay,
        pm::BuildShipReplayRequest(base, log_frames.size(), kLegFile,
                                   kLegPartition, kLegPartitions));
    if (sr.ok() && *sr != expected_ship) {
      Violate("offload: ShipReplay stream differs from the host filter");
    }

    // Compact away the first two frames with one mirrored device command.
    log_cut = marks[1];
    const std::uint64_t keep = log_frames.size() - log_cut;
    Serializer ctl;
    ctl.PutU64(log_cut);
    ctl.PutU64(keep);
    log_control = std::move(ctl).Take();
    compact_attempted = true;
    auto cp = co_await r->DeviceCommand(
        pm::kCmdCompactTo,
        pm::BuildCompactRequest(base + log_cut, base, keep,
                                r->handle().nva + kCtlOff, log_control),
        /*mirrored=*/true);
    if (cp.ok()) compact_acked = true;
  }

  // Post-recovery: the log area must hold exactly what the acked command
  // history promises, and the device's own scan must agree with it.
  Task<void> VerifyOffloadLeg(pm::PmClient& client) {
    if (!log_write_acked) co_return;  // leg never externalized anything
    auto r = co_await client.Open("omega");
    if (!r.ok()) co_return;  // existence is already an I4 truth check
    const std::uint64_t keep = log_frames.size() - log_cut;
    auto data = co_await r->Read(kLogOff, log_frames.size());
    if (!data.ok()) {
      Violate("offload: log area unreadable after recovery: " +
              data.status().ToString());
      co_return;
    }
    const bool matches_pre =
        std::equal(log_frames.begin(), log_frames.end(), data->begin());
    const bool matches_post =
        compact_attempted &&
        std::equal(log_frames.begin() +
                       static_cast<std::ptrdiff_t>(log_cut),
                   log_frames.end(), data->begin());
    if (compact_acked) {
      if (!matches_post) {
        Violate("offload: acked CompactTo lost after recovery");
      }
      auto ctl = co_await r->Read(kCtlOff, log_control.size());
      if (!ctl.ok() ||
          !std::equal(log_control.begin(), log_control.end(), ctl->begin())) {
        Violate("offload: acked CompactTo control block lost after recovery");
      }
    } else if (compact_attempted) {
      // Errored single-command compact: atomic per ack contract — the
      // primary's view must be wholly old or wholly new, never a blend.
      if (!matches_pre && !matches_post) {
        Violate("offload: errored CompactTo left a torn log area");
      }
    } else if (!matches_pre) {
      Violate("offload: acked log write lost after recovery");
    }
    // Differential: the device scanning its own media must see the same
    // durable tail the host just read back.
    if (matches_pre || matches_post) {
      const std::uint64_t want = matches_post ? keep : log_frames.size();
      auto vs = co_await r->DeviceCommand(
          pm::kCmdVerifyScan,
          pm::BuildVerifyScanRequest(pm::kScanCrcFrames,
                                     r->handle().nva + kLogOff, want));
      if (vs.ok()) {
        pm::VerifyScanResult scan;
        if (!pm::ParseVerifyScanResponse(*vs, scan) ||
            scan.durable_tail != want) {
          Violate("offload: post-recovery VerifyScan disagrees with the "
                  "host read");
        }
      }
    }
  }

  // ---- post-recovery verification (I3/I4) ----

  Task<void> Verifier(FiberProc& self) {
    pm::PmClient client(self, "$PMM");
    auto info = co_await client.Info();
    if (!info.ok()) {
      Violate("I4: no PMM reachable at verification time: " +
              info.status().ToString());
      co_return;
    }
    final_mirror_up = info->mirror_up;
    for (auto& [name, t] : truth) {
      auto r = co_await client.Open(name);
      if (t.exists && !r.ok()) {
        Violate("I4: believed-alive region '" + name +
                "' lost: " + r.status().ToString());
        continue;
      }
      if (!t.exists && !t.maybe_exists && r.ok()) {
        Violate("I4: believed-deleted region '" + name + "' resurrected");
        continue;
      }
      if (!r.ok()) continue;
      ++regions_checked;
      region_offset[name] = r->handle().nva - kDataBase;
      auto data = co_await r->Read(0, kProbeBytes);
      if (!data.ok()) {
        Violate("I4: region '" + name +
                "' unreadable after recovery: " + data.status().ToString());
        continue;
      }
      const std::uint8_t acked =
          t.acked_fill.value_or(0);  // regions start zeroed
      for (std::size_t i = 0; i < data->size(); ++i) {
        const std::uint8_t b = static_cast<std::uint8_t>((*data)[i]);
        if (b != acked && t.pending_fills.count(b) == 0) {
          Violate("I4: region '" + name + "' byte " + std::to_string(i) +
                  " is " + std::to_string(b) + ", expected acked value " +
                  std::to_string(acked));
          break;
        }
      }
    }
    if (offload) co_await VerifyOffloadLeg(client);
    verified = true;
  }

  // Direct device-memory checks once the simulation has quiesced.
  void PostRunChecks() {
    // I3: a volume claiming mirror_up implies a completed resilver after
    // the last divergence — both devices must agree byte-for-byte over
    // every surviving region's probe range.
    if (verified && final_mirror_up) {
      for (const auto& [name, off] : region_offset) {
        // A region with an unacknowledged write in flight at a fault has
        // indeterminate bytes: the legs may have landed on one mirror
        // only, and no ack ever promised convergence. Skip those.
        auto t = truth.find(name);
        if (t != truth.end() && !t->second.pending_fills.empty()) continue;
        if (std::memcmp(npmu_a.data_memory() + off,
                        npmu_b.data_memory() + off, kProbeBytes) != 0) {
          Violate("I3: mirror_up but devices disagree over region '" + name +
                  "'");
        }
      }
    }
    // Structural sanity of the newest durable metadata image: regions
    // and free extents must tile without overlap.
    std::optional<pm::MetadataSlot> best;
    for (pm::Npmu* dev : {&npmu_a, &npmu_b}) {
      for (int slot = 0; slot < 2; ++slot) {
        auto img = DecodeDeviceSlot(*dev, slot);
        if (img && (!best || img->epoch > best->epoch)) best = std::move(img);
      }
    }
    if (!best) {
      // Only a violation if the store ever acked anything: a crash that
      // blankets the whole scenario (e.g. a device outage from the very
      // first commit on) can legitimately end with an unformatted
      // volume, because no operation was externalized.
      bool any_acked = false;
      for (const auto& [name, t] : truth) {
        if (t.exists || t.acked_fill) any_acked = true;
      }
      if (any_acked) {
        Violate("no valid metadata image on any device after the run");
      }
      return;
    }
    auto meta = pm::VolumeMetadata::Deserialize(best->payload);
    if (!meta) {
      Violate("newest durable metadata image does not deserialize");
      return;
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
    for (const auto& r : meta->regions) extents.emplace_back(r.offset, r.length);
    for (const auto& f : meta->free_list) extents.emplace_back(f.offset, f.length);
    std::sort(extents.begin(), extents.end());
    for (std::size_t i = 1; i < extents.size(); ++i) {
      if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
        Violate("durable allocator state overlaps at offset " +
                std::to_string(extents[i].first));
        break;
      }
    }
    if (!extents.empty()) {
      const auto& last = extents.back();
      if (last.first + last.second > meta->data_capacity) {
        Violate("durable allocator state exceeds volume capacity");
      }
    }
  }

  CrashRunResult Run(std::optional<std::size_t> crash_index,
                     bool capture_trace) {
    if (crash_index && mode != CrashMode::kNone) {
      plan.ArmAt(*crash_index, [this](const FaultSite& s) { FireCrash(s); });
    }
    sim.Adopt<FiberProc>(cluster, 2, "crash-driver",
                         [this](FiberProc& self) { return Driver(self); });
    sim.Schedule(kVerifyAt, [this] {
      sim.Adopt<FiberProc>(cluster, 3, "crash-verifier",
                           [this](FiberProc& self) { return Verifier(self); });
    });
    sim.RunUntil(kRunEnd);
    if (!verified) {
      Violate("verifier did not complete before the end of the run");
    }
    PostRunChecks();
    CrashRunResult result;
    result.trace = plan.trace();
    result.fired_at = plan.fired_at();
    result.violations = violations;
    result.verified = verified;
    result.regions_checked = regions_checked;
    if (capture_trace || !violations.empty()) {
      result.trace_json = tracer.ToChromeJson();
    }
    return result;
  }
};

}  // namespace

const char* CrashModeName(CrashMode mode) noexcept {
  switch (mode) {
    case CrashMode::kNone: return "none";
    case CrashMode::kHaltPrimaryPmm: return "halt-primary-pmm";
    case CrashMode::kDualDeviceOutage: return "dual-device-outage";
    case CrashMode::kFailPrimaryDevice: return "fail-primary-device";
    case CrashMode::kPowerLoss: return "power-loss";
    case CrashMode::kVolatileBufferLoss: return "volatile-buffer-loss";
  }
  return "?";
}

const std::vector<CrashMode>& SweepableCrashModes() {
  // kVolatileBufferLoss is deliberately absent: it only makes sense with
  // the staging model armed and is swept separately by the
  // durability-mode ablation (bench/crash_sweep.cc).
  static const std::vector<CrashMode> kModes = {
      CrashMode::kHaltPrimaryPmm, CrashMode::kDualDeviceOutage,
      CrashMode::kFailPrimaryDevice, CrashMode::kPowerLoss};
  return kModes;
}

CrashRunResult RunCrashScenario(std::uint64_t seed, CrashMode mode,
                                std::optional<std::size_t> crash_index,
                                bool capture_trace,
                                DurabilityOptions durability) {
  CrashRig rig(seed, mode, durability);
  return rig.Run(crash_index, capture_trace);
}

}  // namespace ods::workload
