#include "pm/npmu.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>

#include "pm/offload.h"

namespace ods::pm {

namespace {

std::uint64_t PageBytes() {
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

DeviceMemory::DeviceMemory(std::uint64_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  const std::uint64_t page = PageBytes();
  const std::uint64_t span = (bytes + page - 1) / page * page;
  mapping_bytes_ = span + 2 * page;
  void* mapping = ::mmap(nullptr, mapping_bytes_, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapping == MAP_FAILED) throw std::bad_alloc();
  mapping_ = static_cast<std::byte*>(mapping);
  if (::mprotect(mapping_ + page, span, PROT_READ | PROT_WRITE) != 0) {
    ::munmap(mapping_, mapping_bytes_);
    throw std::bad_alloc();
  }
  // Residency must track the bytes written, not 2 MiB around them.
  ::madvise(mapping_ + page, span, MADV_NOHUGEPAGE);
  // End-aligned, so the trailing guard page starts at data_ + size_.
  data_ = mapping_ + page + (span - bytes);
}

DeviceMemory::DeviceMemory(DeviceMemory&& other) noexcept
    : mapping_(std::exchange(other.mapping_, nullptr)),
      mapping_bytes_(std::exchange(other.mapping_bytes_, 0)),
      data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

DeviceMemory::~DeviceMemory() {
  if (mapping_ != nullptr) ::munmap(mapping_, mapping_bytes_);
}

void DeviceMemory::Discard() noexcept {
  if (mapping_ == nullptr) return;
  const std::uint64_t page = PageBytes();
  // Private anonymous pages read as zero again after MADV_DONTNEED. A
  // failed discard would leave a dead PMP's contents readable.
  if (::madvise(mapping_ + page, mapping_bytes_ - 2 * page, MADV_DONTNEED) !=
      0) {
    std::abort();
  }
}

Npmu::Npmu(net::Fabric& fabric, std::string name, NpmuConfig config)
    : name_(std::move(name)), config_(config),
      memory_(kMetadataBytes + config.capacity_bytes),
      endpoint_(fabric.CreateEndpoint(name_)),
      media_(config.volatile_staging ? memory_.size() : 0) {
  if (config_.active_commands) {
    endpoint_.InstallCommandHook(
        [this](std::uint32_t opcode, std::span<const std::byte> request) {
          // Hardware device: the engine survives power loss with the
          // media, so the hook stays installed for the device's life.
          std::byte* media = config_.volatile_staging
                                 ? media_.data() + kMetadataBytes
                                 : nullptr;
          return ExecuteDeviceCommand(
              endpoint_.fabric().sim(), data_memory(), media,
              config_.capacity_bytes, config_.command_scan_bw_bytes_per_sec,
              config_.command_setup, opcode, request);
        });
  }
  if (config_.volatile_staging) {
    endpoint_.InstallStagingHooks(
        [this](std::uint64_t nva, std::uint64_t len) {
          return StageWrite(nva, len);
        },
        [this](std::uint64_t ticket) {
          // A generation bump between staging and persist means this
          // op's bytes may be among the lost — refuse the durability
          // ack. Ticket 0 = the delivery event never ran (nothing
          // landed), nothing to guarantee.
          const bool intact = ticket == 0 || ticket == staging_generation_;
          DrainStaged();
          return intact;
        });
  }
}

std::uint64_t Npmu::StageWrite(std::uint64_t nva, std::uint64_t len) {
  if (len != 0) staged_.emplace_back(MemOffset(nva), len);
  return staging_generation_;
}

void Npmu::DrainStaged() {
  for (const auto& [off, len] : staged_) {
    std::memcpy(media_.data() + off, memory_.data() + off, len);
  }
  staged_.clear();
}

void Npmu::LoseStaged() {
  if (staged_.empty()) return;
  staging_losses_++;
  staging_generation_++;
  for (const auto& [off, len] : staged_) {
    std::memcpy(memory_.data() + off, media_.data() + off, len);
  }
  staged_.clear();
}

std::uint64_t Npmu::staged_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [off, len] : staged_) total += len;
  return total;
}

Pmp::Pmp(nsk::Cluster& cluster, int cpu_index, std::string name,
         NpmuConfig config)
    : NskProcess(cluster, cpu_index, std::move(name)), config_(config),
      memory_(kMetadataBytes + config.capacity_bytes) {}

sim::Task<void> Pmp::Main() {
  // The prototype's memory is ordinary process memory: when this process
  // dies (kill, CPU failure), the contents vanish and the RDMA windows
  // into it are torn down. RAII models that on the unwind path.
  struct Volatility {
    Pmp* self;
    ~Volatility() {
      self->endpoint().UnmapAll();
      // The command engine is process code — it dies with the process
      // (commands then fail like any other passive endpoint), unlike a
      // hardware NPMU whose engine rides out power loss.
      self->endpoint().InstallCommandHook(nullptr);
      self->memory_.Discard();
    }
  } guard{this};

  if (config_.active_commands) {
    endpoint().InstallCommandHook(
        [this](std::uint32_t opcode, std::span<const std::byte> request) {
          return ExecuteDeviceCommand(
              sim(), data_memory(), /*media=*/nullptr, config_.capacity_bytes,
              config_.command_scan_bw_bytes_per_sec, config_.command_setup,
              opcode, request);
        });
  }

  cluster().names().Register(name(), this);
  // The PMP is passive after setup: RDMA bypasses it entirely (that is
  // the architectural point). It just keeps its memory alive.
  co_await Halt();
}

}  // namespace ods::pm
