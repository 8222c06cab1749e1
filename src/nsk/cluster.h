// A NonStop-style cluster node: up to 16 CPUs and a set of devices, all
// attached to a redundant ServerNet fabric. There is no shared memory —
// processes communicate by messages (nsk/process.h) and devices are
// reached by RDMA (net/fabric.h), exactly as in §4 of the paper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/time.h"

namespace ods::nsk {

class NskProcess;
class NameService;

struct ClusterConfig {
  int num_cpus = 4;
  net::FabricConfig fabric;
  // CPU cost charged to a process for sending/handling one message.
  sim::SimDuration message_overhead = sim::Microseconds(10);
  // Time for the NSK fault-detection machinery to notice a process death.
  sim::SimDuration failure_detection_delay = sim::Milliseconds(100);
  // Base promotion work for a backup taking over (excludes any
  // server-specific recovery such as log scans).
  sim::SimDuration takeover_delay = sim::Milliseconds(200);
};

class Cluster;

// One processor: a fabric endpoint plus a serially-shared compute
// resource. Processes bound to a CPU die with it.
class Cpu {
 public:
  Cpu(Cluster& cluster, int index);

  [[nodiscard]] int index() const noexcept { return index_; }
  [[nodiscard]] net::Endpoint& endpoint() noexcept { return endpoint_; }
  [[nodiscard]] sim::SimMutex& compute() noexcept { return compute_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  void Attach(NskProcess* proc) { attached_.push_back(proc); }

  // Fault injection: halts the CPU, killing every process on it.
  void Fail();
  // Brings the CPU back (processes must be Restart()ed separately).
  void Repair() noexcept { failed_ = false; }

 private:
  Cluster& cluster_;
  int index_;
  net::Endpoint& endpoint_;
  sim::SimMutex compute_;
  bool failed_ = false;
  std::vector<NskProcess*> attached_;
};

class Cluster {
 public:
  Cluster(sim::Simulation& sim, ClusterConfig config);
  ~Cluster();

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] NameService& names() noexcept { return *names_; }
  [[nodiscard]] Cpu& cpu(int index) { return *cpus_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] int num_cpus() const noexcept {
    return static_cast<int>(cpus_.size());
  }

  // One-way wire latency for a message of `bytes` payload.
  [[nodiscard]] sim::SimDuration MessageLatency(std::size_t bytes) const;

  // IPC payload accounting: every byte handed to the message transport
  // (requests, casts and replies). The near-data offload benches use
  // this to compare how much data crosses the interconnect during
  // recovery — a whole-log kAdpReadLog reply lands here; the ADP's read
  // of that log off a PM device is counted by the fabric's RDMA
  // counters.
  void NoteMessageBytes(std::size_t bytes) noexcept {
    message_bytes_ += bytes;
  }
  [[nodiscard]] std::uint64_t message_bytes() const noexcept {
    return message_bytes_;
  }

 private:
  sim::Simulation& sim_;
  ClusterConfig config_;
  net::Fabric fabric_;
  std::unique_ptr<NameService> names_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  std::uint64_t message_bytes_ = 0;
};

}  // namespace ods::nsk
