// NPMU — Network Persistent Memory Unit (§3.3, §4.1).
//
// An NPMU is a passive device on the fabric: non-volatile RAM behind a
// NIC whose address-translation hardware lets hosts read and write it
// with host-initiated RDMA, "without any involvement by a CPU in the
// NPMU". Contents survive power loss.
//
// Pmp is the paper's prototype stand-in (§4.2): an NSK process that
// exposes ordinary (volatile) memory to RDMA the same way. It has the
// performance of an NPMU but loses its contents when the hosting process
// or CPU dies — which the tests exploit to show why the real device
// matters.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.h"
#include "nsk/process.h"

namespace ods::pm {

// Network-virtual-address layout shared by NPMUs and PMPs:
//   [0, kMetadataBytes)            PMM metadata (two self-consistent copies)
//   [kDataBase, kDataBase + size)  region data
inline constexpr std::uint64_t kMetadataCopyBytes = 4096;
inline constexpr std::uint64_t kMetadataBytes = 2 * kMetadataCopyBytes;
inline constexpr std::uint64_t kDataBase = 0x10000;

struct NpmuConfig {
  std::uint64_t capacity_bytes = 64ull << 20;  // data area size
  // Model the volatile NIC/PCIe staging buffer of a real device: RDMA
  // writes land in volatile staging first and only reach persistent
  // media when the fabric's persist primitive drains them
  // (common/durability.h). Off by default — the seed's idealized
  // "landed == durable" device, with zero extra copies or bookkeeping.
  bool volatile_staging = false;
  // Active execution model (near-data offload, pm/offload.h). Off by
  // default: the paper's NPMU is passive, with no CPU in the data path.
  // When on, the device answers VerifyScan / CompactTo / ShipReplay
  // commands so recovery ships summaries and filtered records instead of
  // whole log images.
  bool active_commands = false;
  // Modeled near-data engine: fixed per-command setup plus bytes
  // scanned/moved at the media streaming rate.
  std::uint64_t command_scan_bw_bytes_per_sec = 2ull << 30;  // 2 GiB/s
  sim::SimDuration command_setup = sim::Microseconds(5);
};

// Backing store of an NPMU or PMP. Not a std::vector: a device is sized
// for its whole NVA layout (every ADP's ring plus slack), but the logs
// touch a fraction of it, and a zero-filled vector would make every byte
// resident at construction. This is an anonymous private mapping whose
// pages read as zero and cost no host memory until first written.
// Device memory is off the malloc heap, so ASan's redzones do not cover
// it; instead a PROT_NONE guard page sits directly past the last byte
// (and directly before the first when the size is a page multiple), so
// an off-by-one access faults in every build.
class DeviceMemory {
 public:
  explicit DeviceMemory(std::uint64_t bytes);  // 0 maps nothing
  DeviceMemory(DeviceMemory&& other) noexcept;
  ~DeviceMemory();

  [[nodiscard]] std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  // Zeroes the contents by discarding the pages: the memory stays mapped
  // at the same address (ATT windows into it stay valid) and no longer
  // costs host memory.
  void Discard() noexcept;

 private:
  std::byte* mapping_ = nullptr;  // leading guard page
  std::uint64_t mapping_bytes_ = 0;
  std::byte* data_ = nullptr;
  std::uint64_t size_ = 0;
};

// Hardware NPMU: a fabric endpoint backed by non-volatile memory. Not a
// process — there is deliberately no CPU in the data path.
class Npmu {
 public:
  Npmu(net::Fabric& fabric, std::string name, NpmuConfig config = {});

  [[nodiscard]] net::Endpoint& endpoint() noexcept { return endpoint_; }
  [[nodiscard]] net::EndpointId id() const noexcept { return endpoint_.id(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return config_.capacity_bytes;
  }

  // Device memory: metadata area followed by the data area.
  [[nodiscard]] std::byte* metadata_memory() noexcept { return memory_.data(); }
  [[nodiscard]] std::byte* data_memory() noexcept {
    return memory_.data() + kMetadataBytes;
  }

  // Power loss: an NPMU's media is durable — drained contents survive.
  // The ATT is volatile NIC state and must be reprogrammed by the PMM
  // during recovery; with the staging model on, anything still parked in
  // the NIC/PCIe staging buffer is lost too.
  void PowerFail() {
    endpoint_.UnmapAll();
    if (config_.volatile_staging) LoseStaged();
  }

  // ---- volatile staging buffer (durability ablation) ----
  //
  // With volatile_staging on, `memory_` is the NIC-visible view (what
  // RDMA reads and landed writes see) and `media_` is what actually
  // survives a crash. Fabric-landed bytes are recorded as staged
  // intervals; DrainStaged copies them to media (the persist primitive),
  // LoseStaged reverts the visible view to media (the crash). Writes
  // that never went through the fabric (PMM-local memcpy) bypass staging
  // and are never at risk, matching real hardware where only the remote
  // path crosses the volatile buffer.

  // Records [nva, nva+len) as staged; returns the staging generation the
  // caller can later hand to the persist hook to detect an intervening
  // loss. Installed as the endpoint's stage hook.
  std::uint64_t StageWrite(std::uint64_t nva, std::uint64_t len);
  // Drains every staged interval to media (idempotent).
  void DrainStaged();
  // Crash flavor "volatile buffer lost": staged-but-undrained intervals
  // revert to their media contents and the staging generation bumps so
  // in-flight persists fail instead of falsely acking.
  void LoseStaged();
  [[nodiscard]] std::uint64_t staged_bytes() const noexcept;
  [[nodiscard]] bool volatile_staging() const noexcept {
    return config_.volatile_staging;
  }
  [[nodiscard]] std::uint64_t staging_losses() const noexcept {
    return staging_losses_;
  }

  // Device failure / replacement.
  void Fail() { endpoint_.SetDown(true); }
  void Repair() { endpoint_.SetDown(false); }
  [[nodiscard]] bool failed() const noexcept { return endpoint_.down(); }

  // Bytes landed in this device via RDMA (persistence accounting, E7).
  [[nodiscard]] std::uint64_t bytes_persisted() const noexcept {
    return bytes_persisted_;
  }
  void NoteWrite(std::uint64_t len) noexcept { bytes_persisted_ += len; }

 private:
  // Device-memory offset of an NVA (metadata area is NVA-identity, data
  // area sits behind kDataBase).
  [[nodiscard]] static std::uint64_t MemOffset(std::uint64_t nva) noexcept {
    return nva < kMetadataBytes ? nva : kMetadataBytes + (nva - kDataBase);
  }

  std::string name_;
  NpmuConfig config_;
  DeviceMemory memory_;
  net::Endpoint& endpoint_;
  std::uint64_t bytes_persisted_ = 0;
  // Staging model state (empty/idle unless config_.volatile_staging).
  DeviceMemory media_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> staged_;  // offset,len
  std::uint64_t staging_generation_ = 1;
  std::uint64_t staging_losses_ = 0;
};

// PMP — Persistent Memory Process: the software prototype. Same wire
// behaviour as an NPMU (its memory is exposed through its host CPU's
// fabric endpoint at the same NVA layout), but the memory is volatile:
// when the process dies, the contents are gone.
class Pmp : public nsk::NskProcess {
 public:
  Pmp(nsk::Cluster& cluster, int cpu_index, std::string name,
      NpmuConfig config = {});

  [[nodiscard]] net::Endpoint& endpoint() noexcept { return cpu().endpoint(); }
  [[nodiscard]] net::EndpointId id() noexcept { return endpoint().id(); }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return config_.capacity_bytes;
  }
  [[nodiscard]] std::byte* metadata_memory() noexcept { return memory_.data(); }
  [[nodiscard]] std::byte* data_memory() noexcept {
    return memory_.data() + kMetadataBytes;
  }
  [[nodiscard]] std::uint64_t bytes_persisted() const noexcept {
    return bytes_persisted_;
  }
  void NoteWrite(std::uint64_t len) noexcept { bytes_persisted_ += len; }

 protected:
  sim::Task<void> Main() override;

 private:
  NpmuConfig config_;
  DeviceMemory memory_;
  std::uint64_t bytes_persisted_ = 0;
};

// Uniform device handle used by the PMM and client library so the same
// code runs against hardware NPMUs and PMP prototypes.
class PmDevice {
 public:
  explicit PmDevice(Npmu& npmu) noexcept : npmu_(&npmu) {}
  explicit PmDevice(Pmp& pmp) noexcept : pmp_(&pmp) {}

  [[nodiscard]] net::Endpoint& endpoint() const noexcept {
    return npmu_ != nullptr ? npmu_->endpoint() : pmp_->endpoint();
  }
  [[nodiscard]] net::EndpointId id() const noexcept { return endpoint().id(); }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return npmu_ != nullptr ? npmu_->capacity() : pmp_->capacity();
  }
  [[nodiscard]] std::byte* metadata_memory() noexcept {
    return npmu_ != nullptr ? npmu_->metadata_memory() : pmp_->metadata_memory();
  }
  [[nodiscard]] std::byte* data_memory() noexcept {
    return npmu_ != nullptr ? npmu_->data_memory() : pmp_->data_memory();
  }
  void NoteWrite(std::uint64_t len) noexcept {
    if (npmu_ != nullptr) {
      npmu_->NoteWrite(len);
    } else {
      pmp_->NoteWrite(len);
    }
  }
  [[nodiscard]] std::uint64_t bytes_persisted() const noexcept {
    return npmu_ != nullptr ? npmu_->bytes_persisted() : pmp_->bytes_persisted();
  }
  [[nodiscard]] bool available() noexcept { return !endpoint().down(); }

 private:
  Npmu* npmu_ = nullptr;
  Pmp* pmp_ = nullptr;
};

}  // namespace ods::pm
