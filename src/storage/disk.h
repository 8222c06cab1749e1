// Disk volume model. This is the baseline medium the paper's persistent
// memory displaces: a block device behind a storage stack whose "handling
// of SCSI commands, DMA, interrupts and context switching results in 100s
// of microseconds — usually milliseconds — of I/O latency" (§3.2).
//
// The model captures what matters for the paper's results:
//  * per-operation software/controller overhead (100s of us),
//  * positioning cost (seek + rotation) for random access,
//  * near-zero positioning for sequential access (log append pattern),
//  * bandwidth-limited transfer,
//  * a single arm: requests queue FIFO (IOPS ceiling),
//  * contents survive power loss; volatile in-flight writes do not.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ods::storage {

struct DiskConfig {
  // Storage-stack software path per operation (§3.2).
  sim::SimDuration controller_overhead = sim::Microseconds(300);
  // Average positioning (seek + rotational latency) for random access;
  // 10k RPM class.
  sim::SimDuration random_positioning = sim::Milliseconds(5);
  // Positioning when the access continues where the previous one ended
  // (log append / sequential scan).
  sim::SimDuration sequential_positioning = sim::Microseconds(200);
  double transfer_bytes_per_sec = 50e6;
  std::uint64_t capacity_bytes = 256ull << 20;
};

class DiskVolume {
 public:
  DiskVolume(sim::Simulation& sim, std::string name, DiskConfig config = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const DiskConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return config_.capacity_bytes;
  }

  // Begins a write; the future resolves when the data is durable on the
  // platter. Requests queue FIFO behind the single arm.
  sim::Future<Status> StartWrite(std::uint64_t offset,
                                 std::vector<std::byte> data);
  // Begins a read timed for all `len` bytes. The result stops at the end
  // of the highest byte ever written: the never-written sectors past it
  // read as zeros and are left off, so a scan of a mostly empty volume
  // costs no host memory for them.
  sim::Future<Result<std::vector<std::byte>>> StartRead(std::uint64_t offset,
                                                        std::uint64_t len);

  // Fiber-blocking variants.
  sim::Task<Status> Write(sim::Process& proc, std::uint64_t offset,
                          std::vector<std::byte> data);
  sim::Task<Result<std::vector<std::byte>>> Read(sim::Process& proc,
                                                 std::uint64_t offset,
                                                 std::uint64_t len);

  // Power failure: in-flight operations are lost (their futures never
  // resolve — the issuing processes are dead anyway); landed data
  // survives. Call before restarting the cluster in crash experiments.
  void PowerFail() noexcept { ++generation_; }

  // Direct platter access for recovery code and tests (no latency
  // modelling — pair with explicit timed reads where timing matters).
  [[nodiscard]] std::vector<std::byte> ReadImage(std::uint64_t offset,
                                                 std::uint64_t len) const;

  // ---- accounting ----
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  // Total time the arm was busy (utilization = busy / elapsed).
  [[nodiscard]] sim::SimDuration busy_time() const noexcept { return busy_; }

  // Service time for an I/O of `bytes` at `offset` given the current arm
  // position (exposed for calibration tests).
  [[nodiscard]] sim::SimDuration ServiceTime(std::uint64_t offset,
                                             std::uint64_t bytes) const;

 private:
  // Platter contents, stored sparsely: only written chunks consume host
  // memory, so many large simulated volumes stay cheap.
  static constexpr std::uint64_t kChunkBytes = 1 << 20;

  void StoreBytes(std::uint64_t offset, std::span<const std::byte> data);
  void LoadBytes(std::uint64_t offset, std::span<std::byte> out) const;

  sim::Simulation& sim_;
  std::string name_;
  DiskConfig config_;
  std::unordered_map<std::uint64_t, std::vector<std::byte>> chunks_;
  std::uint64_t written_end_ = 0;  // end of the highest byte ever stored
  sim::SimTime busy_until_{0};
  std::uint64_t head_position_ = 0;  // byte offset after the last op
  std::uint64_t generation_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  sim::SimDuration busy_{0};
};

// A mirrored pair of volumes (NSK mirrors every data volume): writes go
// to both, reads are served by the first healthy mirror.
class MirroredVolume {
 public:
  MirroredVolume(DiskVolume& primary, DiskVolume& mirror) noexcept
      : primary_(primary), mirror_(mirror) {}

  sim::Task<Status> Write(sim::Process& proc, std::uint64_t offset,
                          std::vector<std::byte> data);
  sim::Task<Result<std::vector<std::byte>>> Read(sim::Process& proc,
                                                 std::uint64_t offset,
                                                 std::uint64_t len);

 private:
  DiskVolume& primary_;
  DiskVolume& mirror_;
};

}  // namespace ods::storage
