// Experiment E3 — the latency claims of §3.2/§3.3/§4:
//   * the disk storage stack costs "100s of microseconds — usually
//     milliseconds" per I/O;
//   * host-initiated RDMA to persistent memory "incurs only 10s of
//     microseconds of latency";
//   * ServerNet software latency is "between 10 and 20 microseconds".
// Prints the simulated latency of each primitive at several sizes.
#include <cstdio>
#include <functional>

#include "bench/bench_util.h"
#include "common/trace.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/plane.h"
#include "storage/disk.h"
#include "tp/log_device.h"

using namespace ods;
using namespace ods::bench;
using sim::Task;

namespace {

class Probe : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(Probe&)>;
  Probe(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

struct Row {
  const char* op;
  std::uint64_t bytes;
  double us;
};

}  // namespace

int main() {
  sim::Simulation sim(7);
  Tracer tracer;
  tracer.Enable();
  sim.set_tracer(&tracer);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::PmPlane plane(cluster, pm::PmDeviceKind::kNpmuPair);
  plane.Start();
  storage::DiskVolume disk(sim, "d0");

  std::vector<Row> rows;
  auto time_op = [&](Probe& self, auto op) -> Task<double> {
    const sim::SimTime t0 = self.sim().Now();
    co_await op();
    co_return sim::ToMicrosD(self.sim().Now() - t0);
  };

  sim.Adopt<Probe>(cluster, 2, "probe", [&](Probe& self) -> Task<void> {
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Create("probe", 1 << 20);
    net::Endpoint& ep = self.cpu().endpoint();

    for (std::uint64_t size : {64ull, 4096ull, 65536ull}) {
      // Raw RDMA write (one NPMU, no mirroring).
      double us = co_await time_op(self, [&]() -> Task<void> {
        (void)co_await ep.Write(self, plane.npmu_a().id(),
                                region->handle().nva,
                                std::vector<std::byte>(size, std::byte{1}));
      });
      rows.push_back({"RDMA write (1 NPMU)", size, us});

      // Mirrored synchronous PM write (the client API).
      us = co_await time_op(self, [&]() -> Task<void> {
        (void)co_await region->Write(0,
                                     std::vector<std::byte>(size, std::byte{2}));
      });
      rows.push_back({"pm_write (mirrored)", size, us});

      // RDMA read.
      us = co_await time_op(self, [&]() -> Task<void> {
        (void)co_await region->Read(0, size);
      });
      rows.push_back({"pm_read", size, us});

      // Disk random write (the storage stack).
      us = co_await time_op(self, [&]() -> Task<void> {
        (void)co_await disk.Write(self, (size * 7919) % (64 << 20),
                                  std::vector<std::byte>(size, std::byte{3}));
      });
      rows.push_back({"disk write (random)", size, us});
    }

    // Disk sequential append (streaming log pattern): position once,
    // then time two back-to-back appends.
    (void)co_await disk.Write(self, 0,
                              std::vector<std::byte>(4096, std::byte{4}));
    double us = co_await time_op(self, [&]() -> Task<void> {
      (void)co_await disk.Write(self, 4096,
                                std::vector<std::byte>(4096, std::byte{4}));
      (void)co_await disk.Write(self, 8192,
                                std::vector<std::byte>(4096, std::byte{4}));
    });
    rows.push_back({"disk 2x4K seq append", 8192, us});

    // Message round trip (request/reply through the name service).
    sim.Adopt<Probe>(cluster, 3, "$echo", [](Probe& echo) -> Task<void> {
      echo.cluster().names().Register("$echo", &echo);
      while (true) {
        auto req = co_await echo.Mailbox().Receive(echo);
        req.Respond(OkStatus());
      }
    });
    co_await self.Sleep(sim::Milliseconds(1));
    us = co_await time_op(self, [&]() -> Task<void> {
      (void)co_await self.Call("$echo", 1, {});
    });
    rows.push_back({"message round trip", 0, us});

    // Remote-durability ablation: the same mirrored PM write under each
    // persist primitive (common/durability.h). posted-write-only is the
    // rows above; the others add their persist round trip per mirror leg.
    auto mode_label = [](DurabilityMode m) -> const char* {
      switch (m) {
        case DurabilityMode::kPostedWriteOnly:
          return "pm_write (posted-write-only)";
        case DurabilityMode::kNativeFlush: return "pm_write (native-flush)";
        case DurabilityMode::kReadAfterWrite: return "pm_write (write-raw)";
        case DurabilityMode::kDeviceAck: return "pm_write (write-ack)";
      }
      return "?";
    };
    for (DurabilityMode m : AllDurabilityModes()) {
      cluster.fabric().set_durability_mode(m);
      for (std::uint64_t size : {64ull, 4096ull}) {
        us = co_await time_op(self, [&]() -> Task<void> {
          (void)co_await region->Write(
              0, std::vector<std::byte>(size, std::byte{5}));
        });
        rows.push_back({mode_label(m), size, us});
      }
    }
    cluster.fabric().set_durability_mode(DurabilityMode::kPostedWriteOnly);
  });
  sim.Run();

  std::printf("E3: latency of persistence primitives (simulated)\n\n");
  std::printf("%-24s %10s %14s\n", "operation", "bytes", "latency (us)");
  PrintRule(52);
  for (const Row& r : rows) {
    std::printf("%-24s %10llu %14.1f\n", r.op,
                static_cast<unsigned long long>(r.bytes), r.us);
  }
  PrintRule(52);
  std::printf("paper: storage stack = 100s of us to ms; PM = 10s of us;\n"
              "ServerNet software latency 10-20us.\n");

  bench::BenchJson json("micro_latency");
  JsonValue table = JsonValue::Array();
  for (const Row& r : rows) {
    JsonValue row = JsonValue::Object();
    row.Set("op", r.op);
    row.Set("bytes", r.bytes);
    row.Set("latency_us", r.us);
    table.Append(std::move(row));
  }
  json.Set("rows", std::move(table));
  json.AttachMetrics(sim.metrics());
  json.Write();
  if (tracer.WriteChromeJson("TRACE_micro_latency.json")) {
    std::printf("wrote TRACE_micro_latency.json (%zu events)\n",
                tracer.size());
  }
  sim.set_tracer(nullptr);
  return 0;
}
