// NSK-style processes and the message system.
//
// Processes are named ("$ADP0", "$PMM1", ...) and communicate only by
// request/reply messages routed through the name service — the substrate
// the paper's transaction stack (TMF, DP2, ADP) is built on. The name
// service always resolves a service name to the *current* owner, which is
// how process-pair takeover is transparent to clients: a Call() that
// times out against a dead primary retries and reaches the promoted
// backup.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "nsk/cluster.h"
#include "sim/process.h"
#include "sim/sync.h"

namespace ods::nsk {

struct Reply {
  Status status;
  std::vector<std::byte> payload;
};

struct Request {
  std::string from;
  std::uint32_t kind = 0;
  std::vector<std::byte> payload;
  // Absent for one-way casts (e.g. peer-death notifications).
  std::optional<sim::Promise<Reply>> reply;
  Cluster* cluster = nullptr;

  // Sends the reply back over the fabric (models the return latency).
  // No-op for one-way requests. Must be called at most once.
  void Respond(Status status, std::vector<std::byte> payload = {});
  [[nodiscard]] bool one_way() const noexcept { return !reply.has_value(); }
};

struct CallOptions {
  sim::SimDuration timeout = sim::Milliseconds(500);
  int max_attempts = 8;
  sim::SimDuration retry_backoff = sim::Milliseconds(50);
};

class NskProcess : public sim::Process {
 public:
  NskProcess(Cluster& cluster, int cpu_index, std::string name);

  [[nodiscard]] Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] Cpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] sim::Channel<Request>& Mailbox() noexcept { return mailbox_; }

  // Occupies this process's CPU for `work` of computation.
  sim::Task<void> Compute(sim::SimDuration work);

  // Request/reply to a named process. Retries through name re-resolution
  // on timeout, which makes process-pair takeover transparent.
  sim::Task<Result<Reply>> Call(const std::string& target, std::uint32_t kind,
                                std::vector<std::byte> payload,
                                CallOptions opts = {});

  // One-way message (no reply, no retry).
  void Cast(const std::string& target, std::uint32_t kind,
            std::vector<std::byte> payload);

 protected:
  // Delivers `req` into this process's mailbox after wire latency.
  void DeliverLater(Request req);

 private:
  friend class NameService;

  Cluster& cluster_;
  Cpu& cpu_;
  sim::Channel<Request> mailbox_;
};

// A process whose Main is a caller-supplied body: application drivers in
// tests, benches and examples, and workload::History's checker.
class AppProcess : public NskProcess {
 public:
  using Body = std::function<sim::Task<void>(AppProcess&)>;
  AppProcess(Cluster& cluster, int cpu_index, std::string name, Body body)
      : NskProcess(cluster, cpu_index, std::move(name)),
        body_(std::move(body)) {}

 protected:
  sim::Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

// Maps names to processes. Service names (pair names) are re-registered
// on takeover; registration history feeds the availability experiment.
class NameService {
 public:
  explicit NameService(sim::Simulation& sim) : sim_(sim) {}

  Status Register(const std::string& name, NskProcess* proc);
  void Unregister(const std::string& name);
  [[nodiscard]] NskProcess* Lookup(const std::string& name) const;

  struct RegistrationEvent {
    std::string name;
    sim::SimTime when;
    bool registered;  // false for unregister
  };
  [[nodiscard]] const std::vector<RegistrationEvent>& history() const noexcept {
    return history_;
  }

 private:
  sim::Simulation& sim_;
  std::map<std::string, NskProcess*> names_;
  std::vector<RegistrationEvent> history_;
};

}  // namespace ods::nsk
