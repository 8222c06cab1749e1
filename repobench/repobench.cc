// repobench — the repo benchmark. One process runs one workload on one
// host thread, checks its outputs and prints its metrics; repobench/run.py
// builds it and is the command BENCHMARK.json names. README.md in this
// directory documents every workload and metric.
//
//   repobench --workload <hotstock|scaleout|scanmix|recovery>
//             --seed <n> --seconds <s> --trace <0|1>
//
// The stack is driven only through public entry points: workload::Rig,
// workload::PreloadKeyspace, Rig::PowerLoss/RestartAfterPowerLoss and
// db::TxnClient. The load generators are the benchmark's own, so the
// inputs (keys, arrival times, update keys, scanned files) come from
// --seed and every operation's latency is kept as an exact sample.
//
// A run repeats rounds — fresh simulation, rig and bring-up (set-up),
// then the measured phase — until --seconds of host time are used. The
// same seed gives the same inputs every round, so every simulated-clock
// figure must repeat exactly; host figures are medians over rounds.
// --trace 1 runs one untraced and one traced round and prints the
// per-layer ledger instead of the end-to-end metrics.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/keyhash.h"
#include "common/rng.h"
#include "common/trace.h"
#include "db/txn_client.h"
#include "nsk/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "workload/rig.h"
#include "workload/scenario.h"

namespace {

using namespace ods;
using sim::Task;

double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact latency samples in sim-ns. Percentiles use the nearest-rank
// rule on the sorted samples, so they are real observed latencies, not
// histogram bucket bounds.
struct Samples {
  std::vector<std::int64_t> ns;

  void Add(std::int64_t v) { ns.push_back(v); }
  [[nodiscard]] std::size_t count() const { return ns.size(); }
  [[nodiscard]] std::int64_t sum() const {
    std::int64_t s = 0;
    for (std::int64_t v : ns) s += v;
    return s;
  }
  [[nodiscard]] double MeanMs() const {
    return ns.empty() ? 0 : static_cast<double>(sum()) /
                                static_cast<double>(ns.size()) / 1e6;
  }
  [[nodiscard]] std::size_t Rank(double q) const {  // 0-based index
    const auto r = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ns.size())));
    return r == 0 ? 0 : r - 1;
  }
  [[nodiscard]] double QuantileMs(double q) const {
    if (ns.empty()) return 0;
    std::vector<std::int64_t> s = ns;
    const std::size_t r = Rank(q);
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(r),
                     s.end());
    return static_cast<double>(s[r]) / 1e6;
  }
  // Samples strictly above the q-quantile's rank.
  [[nodiscard]] std::size_t Beyond(double q) const {
    return ns.empty() ? 0 : ns.size() - Rank(q) - 1;
  }
};

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kHotStock, kScaleOut, kScanMix, kRecovery };

struct Spec {
  Kind kind;
  const char* name;
  workload::RigConfig rig;
  // Insert load (hotstock, scaleout, recovery).
  int drivers = 4;
  int boxcar = 8;
  int records_per_driver = 8000;  // closed loop
  std::size_t record_bytes = 4096;
  sim::SimDuration per_record_cpu = sim::Microseconds(15);
  // Open loop (scaleout): arrivals_per_driver arrivals at uniform random
  // times in [0, window) — a Poisson process conditioned on its count.
  int arrivals_per_driver = 0;
  sim::SimDuration window{0};
  int max_in_flight = 4;
  // Scan mix.
  int writers = 0;
  int writer_txns = 0;
  int updates_per_txn = 4;
  int scanners = 0;
  int scans_per_scanner = 0;
  std::uint64_t keys_per_file = 0;
  // Ring sized for the traced round (events), checked against dropped().
  std::size_t trace_capacity = 1 << 20;
};

// Recovery: idle time between the last commit and the power loss. A
// crash inside DP2's 250 ms lazy volume-flush window loses acked records
// today (README.md, known defects), so the crash comes after the node has
// gone quiet; the read-back check fails the run if any acked record is
// missing.
constexpr sim::SimDuration kCrashSettle = sim::Seconds(1);

workload::RigConfig PaperRig() {
  // §4.3: 4 CPUs, 4 files x 4 volumes, 4 audit trails, PMP on a 5th CPU.
  workload::RigConfig cfg;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kPmp;
  cfg.pm_log_region_bytes = 16ull << 20;
  return cfg;
}

Spec MakeSpec(Kind kind) {
  Spec s{kind, "", {}};
  switch (kind) {
    case Kind::kHotStock:
      s.name = "hotstock";
      s.rig = PaperRig();
      s.trace_capacity = 1 << 17;
      break;
    case Kind::kScaleOut:
      s.name = "scaleout";
      // The scale-out node of bench/scaleout_sweep.cc.
      s.rig.num_cpus = 16;
      s.rig.num_adps = 16;
      s.rig.log_medium = tp::LogMedium::kPm;
      s.rig.pm_device = workload::PmDeviceKind::kNpmuPair;
      s.rig.num_pm_shards = 4;
      s.rig.pm_log_region_bytes = 16ull << 20;
      s.rig.tmf_resolve_timeout = sim::Seconds(4);
      s.rig.cluster.message_overhead = sim::Microseconds(5);
      s.drivers = 1000;
      s.arrivals_per_driver = 6;  // 12 Hz for 0.5 s
      s.window = sim::Milliseconds(500);
      s.trace_capacity = 1 << 18;
      break;
    case Kind::kScanMix:
      s.name = "scanmix";
      // The scan-vs-commit rig of bench/scenario_sweep.cc.
      s.rig.num_files = 4;
      s.rig.partitions_per_file = 2;
      s.rig.log_medium = tp::LogMedium::kPm;
      s.rig.pm_device = workload::PmDeviceKind::kNpmuPair;
      s.rig.pm_tcb = true;
      s.rig.tmf_resolve_timeout = sim::Seconds(4);
      s.record_bytes = 256;
      s.per_record_cpu = sim::Microseconds(5);
      s.writers = 4;
      s.writer_txns = 4000;
      s.scanners = 2;
      s.scans_per_scanner = 512;
      s.keys_per_file = 300;
      s.trace_capacity = 1 << 20;
      break;
    case Kind::kRecovery:
      s.name = "recovery";
      s.rig = PaperRig();
      s.rig.pm_tcb = true;
      s.rig.retain_log_image = true;
      s.drivers = 2;
      s.records_per_driver = 4000;
      s.trace_capacity = 1 << 16;
      break;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Load generators

// A process that runs the task its body returns. The body lives in the
// process, so anything it captures outlives the task.
class App final : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(App&)>;
  App(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

struct AckedRecord {
  std::uint32_t file;
  std::uint64_t key;
  std::byte fill;
};

// What one measured phase produced. Everything here is simulated-clock
// state: it must repeat exactly for the same seed.
struct Load {
  Samples commit;  // committed txn latency (closed: begin->ack; open: arrival->ack)
  Samples scan;    // completed scan latency (begin->ack)
  std::uint64_t txn_attempted = 0;
  std::uint64_t txn_committed = 0;
  std::uint64_t txn_failed = 0;
  std::uint64_t scan_attempted = 0;
  std::uint64_t scan_failed = 0;
  std::uint64_t scan_short = 0;  // completed scans that missed records
  std::uint64_t records = 0;     // committed inserted records
  std::uint64_t user_bytes = 0;  // committed payload bytes
  std::uint64_t max_backlog = 0;
  sim::SimTime start{0};
  sim::SimTime finish{0};
  std::vector<AckedRecord> acked;  // recovery: acked before the crash
};

struct Ctx {
  const Spec* spec;
  workload::Rig* rig;
  std::uint64_t seed;
  Load* load;
  sim::Latch* done;
};

// Key stream of one driver: an odd-multiplier bijection on 40 bits, so
// keys are unique per driver, drawn from the seed, and spread over the
// partitions by the catalog's key hash.
struct KeyStream {
  std::uint64_t prefix, mul, add, next = 0;
  KeyStream(Rng& rng, int driver)
      : prefix(static_cast<std::uint64_t>(driver + 1) << 40),
        mul(rng.Next() | 1), add(rng.Next()) {}
  std::uint64_t Next() {
    constexpr std::uint64_t kMask = (1ull << 40) - 1;
    return prefix | ((mul * next++ + add) & kMask);
  }
};

void TraceSpan(sim::Simulation& sim, const char* name, sim::SimTime from,
               std::uint64_t op_id) {
  if (Tracer* tr = sim.tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kWorkload, name, from.ns, sim.Now().ns, op_id);
  }
}

// One hot-stock transaction: begin, produce the records (driver CPU),
// fan the inserts out over the files, commit. Latency from `from`.
Task<bool> InsertTxn(App& self, Ctx& ctx, db::TxnClient& client, int driver,
                     int batch, KeyStream& keys, sim::SimTime from) {
  Load& load = *ctx.load;
  const Spec& spec = *ctx.spec;
  ++load.txn_attempted;
  auto txn = co_await client.Begin();
  if (!txn.ok()) {
    ++load.txn_failed;
    co_return false;
  }
  co_await self.Compute(spec.per_record_cpu * batch);
  const auto fill = static_cast<std::byte>(driver % 251 + 1);
  std::vector<db::TxnClient::InsertOp> ops;
  ops.reserve(static_cast<std::size_t>(batch));
  const int files = ctx.rig->catalog().num_files();
  for (int i = 0; i < batch; ++i) {
    db::TxnClient::InsertOp op;
    op.file = static_cast<std::uint32_t>(i % files);
    op.key = keys.Next();
    op.value.assign(spec.record_bytes, fill);
    ops.push_back(std::move(op));
  }
  std::vector<AckedRecord> written;
  if (spec.kind == Kind::kRecovery) {
    for (const auto& op : ops) written.push_back({op.file, op.key, fill});
  }
  Status st = co_await client.InsertMany(*txn, std::move(ops));
  if (st.ok()) {
    st = co_await client.Commit(*txn);
  } else {
    (void)co_await client.Abort(*txn);
  }
  if (!st.ok()) {
    ++load.txn_failed;
    co_return false;
  }
  const sim::SimTime now = self.sim().Now();
  ++load.txn_committed;
  load.records += static_cast<std::uint64_t>(batch);
  load.user_bytes += static_cast<std::uint64_t>(batch) * spec.record_bytes;
  load.commit.Add((now - from).ns);
  load.finish = std::max(load.finish, now);
  load.acked.insert(load.acked.end(), written.begin(), written.end());
  TraceSpan(self.sim(), "txn", from, txn->id);
  co_return true;
}

Task<void> ClosedLoopDriver(App& self, Ctx& ctx, int d) {
  db::TxnClient client(self, ctx.rig->catalog());
  Rng rng = Rng::ForStream(ctx.seed, static_cast<std::uint64_t>(d));
  KeyStream keys(rng, d);
  int remaining = ctx.spec->records_per_driver;
  int failures = 0;
  while (remaining > 0 && failures <= 20) {
    const int batch = std::min(remaining, ctx.spec->boxcar);
    if (co_await InsertTxn(self, ctx, client, d, batch, keys,
                           self.sim().Now())) {
      remaining -= batch;
      failures = 0;
    } else {
      ++failures;
    }
  }
  ctx.done->Arrive();
}

// Open loop: the generator posts each arrival at its time; up to
// max_in_flight workers drain the backlog; latency runs from arrival.
Task<void> OpenLoopWorker(App& self, Ctx& ctx, db::TxnClient& client, int d,
                          KeyStream& keys, sim::Channel<sim::SimTime>& q,
                          sim::Latch& workers) {
  while (true) {
    const sim::SimTime arrival = co_await q.Receive(self);
    if (arrival.ns < 0) break;  // end of stream
    (void)co_await InsertTxn(self, ctx, client, d, ctx.spec->boxcar, keys,
                             arrival);
  }
  workers.Arrive();
}

Task<void> OpenLoopDriver(App& self, Ctx& ctx, int d) {
  db::TxnClient client(self, ctx.rig->catalog());
  Rng rng = Rng::ForStream(ctx.seed, static_cast<std::uint64_t>(d));
  KeyStream keys(rng, d);
  std::vector<std::int64_t> at;
  for (int i = 0; i < ctx.spec->arrivals_per_driver; ++i) {
    at.push_back(static_cast<std::int64_t>(
        rng.Below(static_cast<std::uint64_t>(ctx.spec->window.ns))));
  }
  std::sort(at.begin(), at.end());
  sim::Channel<sim::SimTime> q(self.sim());
  const int workers_n = ctx.spec->max_in_flight;
  sim::Latch workers(self.sim(), workers_n);
  for (int w = 0; w < workers_n; ++w) {
    self.SpawnFiber(OpenLoopWorker(self, ctx, client, d, keys, q, workers));
  }
  const sim::SimTime start = self.sim().Now();
  for (std::int64_t t : at) {
    const sim::SimTime due = start + sim::Nanoseconds(t);
    if (due > self.sim().Now()) co_await self.Sleep(due - self.sim().Now());
    q.Send(self.sim().Now());
    ctx.load->max_backlog = std::max<std::uint64_t>(ctx.load->max_backlog,
                                                    q.size());
  }
  for (int w = 0; w < workers_n; ++w) q.Send(sim::SimTime{-1});
  co_await workers.Wait(self);
  ctx.done->Arrive();
}

// Scan mix writer: update-only transactions over the preloaded keyspace.
// Each transaction's keys are drawn from the seed, then locked in one
// global order (file, partition, key) — the order a scan takes its
// shared locks — so writers and scanners wait on each other but never
// deadlock.
Task<void> ScanMixWriter(App& self, Ctx& ctx, int d) {
  const Spec& spec = *ctx.spec;
  Load& load = *ctx.load;
  const db::Catalog& cat = ctx.rig->catalog();
  db::TxnClient client(self, cat);
  Rng rng = Rng::ForStream(ctx.seed, static_cast<std::uint64_t>(d));
  const auto parts = static_cast<std::size_t>(cat.partitions_per_file());
  struct Op {
    std::uint32_t file;
    std::uint64_t part;
    std::uint64_t key;
    auto operator<=>(const Op&) const = default;
  };
  for (int t = 0; t < spec.writer_txns; ++t) {
    std::vector<Op> ops;
    for (int i = 0; i < spec.updates_per_txn; ++i) {
      const auto file = static_cast<std::uint32_t>(
          rng.Below(static_cast<std::uint64_t>(cat.num_files())));
      const std::uint64_t key = 1 + rng.Below(spec.keys_per_file);
      ops.push_back({file, KeyPartition(key, parts), key});
    }
    std::sort(ops.begin(), ops.end());
    const sim::SimTime t0 = self.sim().Now();
    ++load.txn_attempted;
    auto txn = co_await client.Begin();
    if (!txn.ok()) {
      ++load.txn_failed;
      continue;
    }
    Status st = OkStatus();
    for (const Op& op : ops) {
      co_await self.Compute(spec.per_record_cpu);
      st = co_await client.Insert(
          *txn, op.file, op.key,
          std::vector<std::byte>(spec.record_bytes,
                                 static_cast<std::byte>(d + 1)));
      if (!st.ok()) break;
    }
    if (st.ok()) {
      st = co_await client.Commit(*txn);
    } else {
      (void)co_await client.Abort(*txn);
    }
    if (!st.ok()) {
      ++load.txn_failed;
      continue;
    }
    ++load.txn_committed;
    load.user_bytes += spec.updates_per_txn * spec.record_bytes;
    load.commit.Add((self.sim().Now() - t0).ns);
    load.finish = std::max(load.finish, self.sim().Now());
    TraceSpan(self.sim(), "txn", t0, txn->id);
  }
  ctx.done->Arrive();
}

// Scan mix scanner: strict-2PL full-range scans of a seeded file; every
// completed scan must return the whole preloaded range.
Task<void> ScanMixScanner(App& self, Ctx& ctx, int s) {
  const Spec& spec = *ctx.spec;
  Load& load = *ctx.load;
  db::TxnClient client(self, ctx.rig->catalog());
  Rng rng = Rng::ForStream(ctx.seed, 1000 + static_cast<std::uint64_t>(s));
  const auto files =
      static_cast<std::uint64_t>(ctx.rig->catalog().num_files());
  for (int i = 0; i < spec.scans_per_scanner; ++i) {
    const auto file = static_cast<std::uint32_t>(rng.Below(files));
    const sim::SimTime t0 = self.sim().Now();
    ++load.scan_attempted;
    auto txn = co_await client.Begin();
    if (!txn.ok()) {
      ++load.scan_failed;
      continue;
    }
    auto r = co_await client.Scan(*txn, file, 1, spec.keys_per_file);
    Status st = r.status();
    if (r.ok()) {
      st = co_await client.Commit(*txn);
    } else {
      (void)co_await client.Abort(*txn);
    }
    if (!st.ok()) {
      ++load.scan_failed;
      continue;
    }
    if (r->records != spec.keys_per_file) ++load.scan_short;
    load.scan.Add((self.sim().Now() - t0).ns);
    load.finish = std::max(load.finish, self.sim().Now());
  }
  ctx.done->Arrive();
}

// Runs until the latch opens. False if the simulation ran dry first.
bool RunUntilDone(sim::Simulation& sim, sim::Latch& done) {
  while (done.count() > 0) {
    if (sim.RunFor(sim::Milliseconds(100)) == 0 && done.count() > 0) {
      return false;
    }
  }
  return true;
}


// ---------------------------------------------------------------------------
// Layer counters

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t msg_bytes = 0;
  workload::Rig::PersistenceAccounting acct{};
  std::uint64_t packets = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t persist_ops = 0;
  std::uint64_t interconnect = 0;  // RDMA + device commands + messages
  std::uint64_t metadata_commits = 0;
  std::uint64_t disk_bytes_read = 0;
  std::vector<std::int64_t> disk_busy_ns;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_timeouts = 0;
};

Counters Capture(workload::Rig& rig) {
  Counters c;
  sim::Simulation& sim = rig.sim();
  c.events = sim.events_executed();
  c.msg_bytes = rig.cluster().message_bytes();
  c.acct = rig.Account();
  const net::Fabric& f = rig.cluster().fabric();
  c.packets = f.packets_sent();
  c.fabric_bytes = f.bytes_transferred();
  c.persist_ops = f.persist_ops();
  c.interconnect = f.bytes_transferred() + f.command_bytes() +
                   f.message_bytes() + rig.cluster().message_bytes();
  if (const Counter* m = sim.metrics().FindCounter("pmm.metadata_commits")) {
    c.metadata_commits = m->value();
  }
  std::vector<storage::DiskVolume*> vols = rig.data_volumes();
  for (storage::DiskVolume* v : rig.audit_volumes()) vols.push_back(v);
  for (storage::DiskVolume* v : vols) {
    c.disk_bytes_read += v->bytes_read();
    c.disk_busy_ns.push_back(v->busy_time().ns);
  }
  const workload::LockStats locks = workload::AggregateLockStats(rig);
  c.lock_waits = locks.waits;
  c.lock_timeouts = locks.timeouts;
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Largest share of an ADP's log ring in use; > 1 means the ring wrapped.
double RingFillMax(workload::Rig& rig) {
  const double ring = static_cast<double>(rig.config().pm_log_region_bytes) *
                      std::max(1, rig.num_pm_shards());
  double fill = 0;
  for (tp::AdpProcess* adp : rig.adps()) {
    tp::LogDevice& dev = adp->device();
    fill = std::max(fill,
                    static_cast<double>(dev.tail() - dev.log_base()) / ring);
  }
  return fill;
}

// ---------------------------------------------------------------------------
// Trace fold: per committed transaction, carve the `txn` span into the
// self time of each layer on the durable-write path. Level k's set is
// level k-1's set intersected with the union of level k's spans, so the
// self times (|S_k| - |S_k+1|) telescope to the txn span exactly.
//   S0 txn (workload)            S1 tmf.flush_audit (op = txn)
//   S2 adp.flush b->e (op = txn) S3 adp.flush_io ending with an adp.flush
//   S4 pm.* spans of those flush ops   S5 fabric spans of those ops

struct Iv {
  std::int64_t a, b;
};
using IvSet = std::vector<Iv>;

IvSet Normalize(IvSet s) {
  std::sort(s.begin(), s.end(), [](Iv x, Iv y) { return x.a < y.a; });
  IvSet out;
  for (Iv iv : s) {
    if (iv.b <= iv.a) continue;
    if (!out.empty() && iv.a <= out.back().b) {
      out.back().b = std::max(out.back().b, iv.b);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

IvSet Intersect(const IvSet& x, const IvSet& y) {
  IvSet out;
  std::size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    const std::int64_t a = std::max(x[i].a, y[j].a);
    const std::int64_t b = std::min(x[i].b, y[j].b);
    if (a < b) out.push_back({a, b});
    (x[i].b < y[j].b) ? ++i : ++j;
  }
  return out;
}

std::int64_t Measure(const IvSet& s) {
  std::int64_t m = 0;
  for (Iv iv : s) m += iv.b - iv.a;
  return m;
}

struct Ledger {
  static constexpr int kLevels = 6;
  static constexpr const char* kNames[kLevels] = {
      "workload.txn.self_us",    "tp.tmf.self_us",   "tp.adp.queue_us",
      "tp.adp.flush_io.self_us", "pm.write.self_us", "net.rdma_us"};
  std::int64_t self_ns[kLevels] = {};
  std::int64_t txn_ns = 0;
  std::uint64_t txns = 0;
  std::int64_t pmm_ns = 0;
};

Ledger Fold(const Tracer& tracer) {
  struct PerTxn {
    bool has_txn = false;
    Iv txn{0, 0};
    IvSet flush_audit;
    std::vector<std::int64_t> adp_begin, adp_end;
  };
  std::unordered_map<std::uint64_t, PerTxn> txns;
  std::unordered_map<std::int64_t, std::vector<std::pair<Iv, std::uint64_t>>>
      flush_io_by_end;
  std::unordered_map<std::uint64_t, IvSet> pm_by_op, net_by_op;
  Ledger led;
  tracer.ForEach([&](const TraceEvent& e) {
    const Iv iv{e.ts_ns, e.ts_ns + e.dur_ns};
    const bool complete = e.phase == TracePhase::kComplete;
    if (e.lane == TraceLane::kWorkload && complete &&
        std::strcmp(e.name, "txn") == 0) {
      PerTxn& t = txns[e.op_id];
      t.has_txn = true;
      t.txn = iv;
    } else if (e.lane == TraceLane::kTmf && complete &&
               std::strcmp(e.name, "tmf.flush_audit") == 0) {
      txns[e.op_id].flush_audit.push_back(iv);
    } else if (e.lane == TraceLane::kAdp &&
               std::strcmp(e.name, "adp.flush") == 0) {
      if (e.phase == TracePhase::kAsyncBegin) {
        txns[e.op_id].adp_begin.push_back(e.ts_ns);
      } else if (e.phase == TracePhase::kAsyncEnd) {
        txns[e.op_id].adp_end.push_back(e.ts_ns);
      }
    } else if (e.lane == TraceLane::kAdp && complete &&
               std::strcmp(e.name, "adp.flush_io") == 0) {
      flush_io_by_end[iv.b].push_back({iv, e.op_id});
    } else if (e.lane == TraceLane::kPmClient && complete) {
      pm_by_op[e.op_id].push_back(iv);
    } else if (e.lane == TraceLane::kFabric && complete) {
      net_by_op[e.op_id].push_back(iv);
    } else if (e.lane == TraceLane::kPmm && complete) {
      led.pmm_ns += e.dur_ns;
    }
  });
  for (auto& [id, t] : txns) {
    if (!t.has_txn) continue;
    IvSet level[Ledger::kLevels];
    level[0] = {t.txn};
    level[1] = Intersect(level[0], Normalize(t.flush_audit));
    // Async begin/end pairs carry only the op-id; pair them in time order.
    std::sort(t.adp_begin.begin(), t.adp_begin.end());
    std::sort(t.adp_end.begin(), t.adp_end.end());
    IvSet adp, io, pm, net;
    std::vector<std::uint64_t> ops;
    for (std::size_t i = 0; i < std::min(t.adp_begin.size(), t.adp_end.size());
         ++i) {
      adp.push_back({t.adp_begin[i], t.adp_end[i]});
    }
    for (std::int64_t end : t.adp_end) {
      auto it = flush_io_by_end.find(end);
      if (it == flush_io_by_end.end()) continue;
      for (const auto& [span, op] : it->second) {
        io.push_back(span);
        ops.push_back(op);
      }
    }
    std::sort(ops.begin(), ops.end());
    ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
    for (std::uint64_t op : ops) {
      if (auto it = pm_by_op.find(op); it != pm_by_op.end()) {
        pm.insert(pm.end(), it->second.begin(), it->second.end());
      }
      if (auto it = net_by_op.find(op); it != net_by_op.end()) {
        net.insert(net.end(), it->second.begin(), it->second.end());
      }
    }
    level[2] = Intersect(level[1], Normalize(std::move(adp)));
    level[3] = Intersect(level[2], Normalize(std::move(io)));
    level[4] = Intersect(level[3], Normalize(std::move(pm)));
    level[5] = Intersect(level[4], Normalize(std::move(net)));
    for (int k = 0; k < Ledger::kLevels; ++k) {
      const std::int64_t inner =
          k + 1 < Ledger::kLevels ? Measure(level[k + 1]) : 0;
      led.self_ns[k] += Measure(level[k]) - inner;
    }
    led.txn_ns += t.txn.b - t.txn.a;
    ++led.txns;
  }
  return led;
}

// ---------------------------------------------------------------------------
// One round: set-up, measured phase, checks.

using Metrics = std::vector<std::pair<std::string, double>>;

struct Round {
  double setup_s = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;  // process peak when the round ends
  Load load;
  Metrics sim;    // simulated-clock end-to-end figures
  Metrics layer;  // per-layer figures from counters
  Metrics ledger;  // traced round only: self times and trace size
  std::vector<std::string> errors;
};

struct Setup {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<workload::Rig> rig;
};

Setup BuildRig(const Spec& spec, std::uint64_t seed,
               std::vector<std::string>& errors) {
  Setup s;
  s.sim = std::make_unique<sim::Simulation>(seed);
  s.rig = std::make_unique<workload::Rig>(*s.sim, spec.rig);
  s.sim->RunFor(sim::Seconds(1));  // stack bring-up
  if (spec.kind == Kind::kScanMix) {
    Status st = workload::PreloadKeyspace(*s.rig, spec.keys_per_file,
                                          spec.record_bytes);
    if (!st.ok()) errors.push_back("preload failed: " + st.ToString());
  }
  return s;
}

void Fail(Round& r, std::string msg) { r.errors.push_back(std::move(msg)); }

// Probe after restart: retry one small transaction until it commits.
// Benchmark-owned spans time each TxnClient call.
struct Probe {
  std::uint64_t attempts = 0;
  std::int64_t begin_ns = 0, insert_ns = 0, commit_ns = 0;
  std::int64_t mttr_ns = -1;
  Counters at_commit;
};

Task<void> ProbeBody(App& self, workload::Rig& rig, sim::SimTime restart_at,
                     Probe& probe, sim::Latch& done) {
  db::TxnClient client(self, rig.catalog());
  while (probe.mttr_ns < 0 &&
         self.sim().Now() - restart_at < sim::Seconds(600)) {
    ++probe.attempts;
    sim::SimTime t = self.sim().Now();
    auto txn = co_await client.Begin();
    probe.begin_ns += (self.sim().Now() - t).ns;
    TraceSpan(self.sim(), "db.begin", t, txn.ok() ? txn->id : 0);
    if (!txn.ok()) continue;
    t = self.sim().Now();
    Status st = co_await client.Insert(
        *txn, 0, 0xFFFF0001ull, std::vector<std::byte>(128, std::byte{1}));
    probe.insert_ns += (self.sim().Now() - t).ns;
    TraceSpan(self.sim(), "db.insert", t, txn->id);
    if (!st.ok()) {
      (void)co_await client.Abort(*txn);
      continue;
    }
    t = self.sim().Now();
    st = co_await client.Commit(*txn);
    probe.commit_ns += (self.sim().Now() - t).ns;
    TraceSpan(self.sim(), "db.commit", t, txn->id);
    if (st.ok()) {
      probe.mttr_ns = (self.sim().Now() - restart_at).ns;
      probe.at_commit = Capture(rig);
    }
  }
  done.Arrive();
}

// Reads back every acked record through the client after the restart.
Task<void> VerifyBody(App& self, workload::Rig& rig,
                      const std::vector<AckedRecord>& acked, std::size_t lo,
                      std::size_t hi, std::size_t record_bytes,
                      std::uint64_t& missing, sim::Latch& done) {
  db::TxnClient client(self, rig.catalog());
  constexpr std::size_t kPerTxn = 64;
  for (std::size_t i = lo; i < hi; i += kPerTxn) {
    auto txn = co_await client.Begin();
    if (!txn.ok()) {
      missing += std::min(hi, i + kPerTxn) - i;
      continue;
    }
    for (std::size_t j = i; j < std::min(hi, i + kPerTxn); ++j) {
      const AckedRecord& a = acked[j];
      auto v = co_await client.Read(*txn, a.file, a.key);
      if (!v.ok() || v->size() != record_bytes || (*v)[0] != a.fill) {
        ++missing;
      }
    }
    (void)co_await client.Commit(*txn);
  }
  done.Arrive();
}

Round RunRound(const Spec& spec, std::uint64_t seed, Tracer* tracer) {
  Round r;
  const double t0 = HostSeconds();
  Setup setup = BuildRig(spec, seed, r.errors);
  r.setup_s = HostSeconds() - t0;
  sim::Simulation& sim = *setup.sim;
  workload::Rig& rig = *setup.rig;
  Load& load = r.load;

  const Counters before = Capture(rig);
  if (tracer != nullptr) {
    tracer->Enable(spec.trace_capacity);
    sim.set_tracer(tracer);
  }
  const double t1 = HostSeconds();
  load.start = sim.Now();
  load.finish = load.start;
  {
    const int n = spec.kind == Kind::kScanMix ? spec.writers + spec.scanners
                                              : spec.drivers;
    sim::Latch done(sim, n);
    Ctx ctx{&spec, &rig, seed, &load, &done};
    const int cpus = rig.config().num_cpus;
    for (int d = 0; d < n; ++d) {
      sim.Adopt<App>(rig.cluster(), d % cpus, "load" + std::to_string(d),
                     [&ctx, d](App& a) {
                       const Spec& s = *ctx.spec;
                       if (s.kind == Kind::kScanMix) {
                         return d < s.writers
                                    ? ScanMixWriter(a, ctx, d)
                                    : ScanMixScanner(a, ctx, d - s.writers);
                       }
                       return s.kind == Kind::kScaleOut
                                  ? OpenLoopDriver(a, ctx, d)
                                  : ClosedLoopDriver(a, ctx, d);
                     });
    }
    if (!RunUntilDone(sim, done)) Fail(r, "load stalled");
  }
  const Counters after = Capture(rig);
  const double ring_fill = RingFillMax(rig);
  LatencyHistogram flush;
  for (tp::AdpProcess* adp : rig.adps()) flush.Merge(adp->flush_latency());
  const LatencyHistogram lock_wait =
      workload::AggregateLockStats(rig).wait_time;

  // Recovery: lose power, restart, probe until the first commit.
  Probe probe;
  Counters at_restart{};
  double rec_adp_ms = 0, rec_tmf_ms = 0, rec_dp2_ms = 0;
  if (spec.kind == Kind::kRecovery) {
    if (ring_fill >= 1.0) {
      Fail(r, "an ADP log ring wrapped before the crash (fill " +
                  std::to_string(ring_fill) +
                  "); recovery after wrap is a known defect");
    }
    sim.RunFor(kCrashSettle);
    rig.PowerLoss();
    sim.RunFor(sim::Seconds(1));
    const sim::SimTime restart_at = sim.Now();
    at_restart = Capture(rig);
    rig.RestartAfterPowerLoss();
    sim::Latch done(sim, 1);
    sim.Adopt<App>(rig.cluster(), 3, "prober", [&](App& a) {
      return ProbeBody(a, rig, restart_at, probe, done);
    });
    if (!RunUntilDone(sim, done) || probe.mttr_ns < 0) {
      Fail(r, "no commit after restart");
    }
    for (tp::AdpProcess* adp : rig.adps()) {
      rec_adp_ms =
          std::max(rec_adp_ms, sim::ToMillisD(adp->last_recovery_time()));
    }
    rec_tmf_ms = sim::ToMillisD(rig.tmf().last_recovery_time());
    for (tp::Dp2Process* dp2 : rig.dp2s()) {
      rec_dp2_ms =
          std::max(rec_dp2_ms, sim::ToMillisD(dp2->last_recovery_time()));
    }
  }
  r.wall_s = HostSeconds() - t1;
  if (tracer != nullptr) sim.set_tracer(nullptr);

  // ---- output checks ----
  if (load.txn_committed + load.txn_failed != load.txn_attempted) {
    Fail(r, "committed + failed != attempted");
  }
  if (spec.kind == Kind::kScaleOut &&
      load.txn_attempted !=
          static_cast<std::uint64_t>(spec.drivers) * spec.arrivals_per_driver) {
    Fail(r, "attempted != arrivals");
  }
  if (load.scan_attempted !=
      static_cast<std::uint64_t>(spec.scanners) * spec.scans_per_scanner) {
    Fail(r, "scan count mismatch");
  }
  if (load.scan_short > 0) {
    Fail(r, std::to_string(load.scan_short) +
                " completed scans missed part of the key range");
  }
  if (spec.kind != Kind::kRecovery) {
    std::uint64_t stored = 0;
    for (tp::Dp2Process* dp2 : rig.dp2s()) stored += dp2->record_count();
    const std::uint64_t expect =
        spec.kind == Kind::kScanMix
            ? spec.keys_per_file *
                  static_cast<std::uint64_t>(rig.catalog().num_files())
            : load.records;
    if (stored != expect) {
      Fail(r, "DP2 holds " + std::to_string(stored) + " records, expected " +
                  std::to_string(expect));
    }
  } else if (probe.mttr_ns >= 0) {
    const std::size_t n = load.acked.size();
    constexpr int kVerifiers = 4;
    std::uint64_t missing = 0;
    sim::Latch done(sim, kVerifiers);
    for (int v = 0; v < kVerifiers; ++v) {
      sim.Adopt<App>(rig.cluster(), v, "verify" + std::to_string(v),
                     [&, v](App& a) {
                       return VerifyBody(a, rig, load.acked, n * v / kVerifiers,
                                         n * (v + 1) / kVerifiers,
                                         spec.record_bytes, missing, done);
                     });
    }
    if (!RunUntilDone(sim, done)) Fail(r, "verification stalled");
    if (missing > 0) {
      Fail(r, std::to_string(missing) + " of " + std::to_string(n) +
                  " acked records missing after restart");
    }
  }
  const Samples& c = load.commit;
  if (c.Beyond(0.99) < 10) {
    Fail(r, "commit p99 has only " + std::to_string(c.Beyond(0.99)) +
                " samples beyond it (need 10)");
  }

  // ---- simulated-clock end-to-end figures ----
  const double span_s = sim::ToSecondsD(load.finish - load.start);
  r.sim = {{"commit_p50_ms", c.QuantileMs(0.50)},
           {"commit_p99_ms", c.QuantileMs(0.99)},
           {"commit_mean_ms", c.MeanMs()},
           {"txn_per_s", Ratio(static_cast<double>(load.txn_committed), span_s)}};

  // ---- per-layer figures ----
  const double txns =
      static_cast<double>(load.txn_committed + load.scan.count());
  const double user = static_cast<double>(load.user_bytes);
  auto d = [&](std::uint64_t Counters::*f) {
    return static_cast<double>(after.*f - before.*f);
  };
  double busy_max = 0;
  for (std::size_t i = 0; i < after.disk_busy_ns.size(); ++i) {
    busy_max = std::max(
        busy_max, Ratio(static_cast<double>(after.disk_busy_ns[i] -
                                            before.disk_busy_ns[i]),
                        static_cast<double>((load.finish - load.start).ns)));
  }
  const std::uint64_t ops = load.txn_attempted + load.scan_attempted;
  const bool probed = probe.mttr_ns >= 0;
  r.layer = {
      {"sim.events", d(&Counters::events)},
      {"sim.arena_records_peak",
       static_cast<double>(sim.engine_stats().record_capacity)},
      {"nsk.msg_bytes_per_txn", Ratio(d(&Counters::msg_bytes), txns)},
      {"nsk.ckpt_msgs_per_txn",
       Ratio(static_cast<double>(after.acct.checkpoint_messages -
                                 before.acct.checkpoint_messages),
             txns)},
      {"nsk.ckpt_bytes_per_txn",
       Ratio(static_cast<double>(after.acct.checkpoint_bytes -
                                 before.acct.checkpoint_bytes),
             txns)},
      {"net.packets_per_txn", Ratio(d(&Counters::packets), txns)},
      {"net.bytes_per_user_byte", Ratio(d(&Counters::fabric_bytes), user)},
      {"net.persist_ops_per_txn", Ratio(d(&Counters::persist_ops), txns)},
      {"net.recovery_bytes",
       probed ? static_cast<double>(probe.at_commit.interconnect -
                                    at_restart.interconnect)
              : 0.0},
      {"pm.bytes_per_user_byte",
       Ratio(static_cast<double>(after.acct.pm_bytes_written -
                                 before.acct.pm_bytes_written),
             user)},
      {"pm.metadata_commits", d(&Counters::metadata_commits)},
      {"storage.bytes_written_per_user_byte",
       Ratio(static_cast<double>(after.acct.disk_bytes_written -
                                 before.acct.disk_bytes_written),
             user)},
      {"storage.busy_frac_max", busy_max},
      {"storage.recovery_bytes_read",
       probed ? static_cast<double>(probe.at_commit.disk_bytes_read -
                                    at_restart.disk_bytes_read)
              : 0.0},
      {"tp.adp.flushes_per_txn",
       Ratio(static_cast<double>(after.acct.audit_flushes -
                                 before.acct.audit_flushes),
             txns)},
      {"tp.adp.flush_p50_ms", static_cast<double>(flush.Percentile(0.5)) / 1e6},
      {"tp.adp.flush_p99_ms",
       static_cast<double>(flush.Percentile(0.99)) / 1e6},
      {"tp.adp.ring_fill_max", ring_fill},
      {"tp.lock.waits_per_txn", Ratio(d(&Counters::lock_waits), txns)},
      {"tp.lock.wait_p99_ms",
       static_cast<double>(lock_wait.Percentile(0.99)) / 1e6},
      {"tp.lock.timeouts", d(&Counters::lock_timeouts)},
      {"tp.recovery.adp_ms", rec_adp_ms},
      {"tp.recovery.tmf_ms", rec_tmf_ms},
      {"tp.recovery.dp2_ms", rec_dp2_ms},
      {"db.begin_ms", static_cast<double>(probe.begin_ns) / 1e6},
      {"db.insert_ms", static_cast<double>(probe.insert_ns) / 1e6},
      {"db.commit_ms", static_cast<double>(probe.commit_ns) / 1e6},
      {"db.probe_attempts", static_cast<double>(probe.attempts)},
      {"workload.max_backlog", static_cast<double>(load.max_backlog)},
      {"workload.commits", static_cast<double>(c.count())},
      {"workload.commit_p99_beyond", static_cast<double>(c.Beyond(0.99))},
      {"workload.fail_frac",
       Ratio(static_cast<double>(load.txn_failed + load.scan_failed),
             static_cast<double>(ops))},
      {"scan_p50_ms", load.scan.QuantileMs(0.50)},
      {"mttr_ms", probed ? static_cast<double>(probe.mttr_ns) / 1e6 : 0.0},
  };

  if (tracer != nullptr) {
    if (tracer->dropped() > 0) {
      Fail(r, "trace ring dropped " + std::to_string(tracer->dropped()) +
                  " events; raise trace_capacity");
    }
    const Ledger led = Fold(*tracer);
    std::int64_t sum = 0;
    for (int k = 0; k < Ledger::kLevels; ++k) {
      sum += led.self_ns[k];
      r.ledger.emplace_back(Ledger::kNames[k],
                           Ratio(static_cast<double>(led.self_ns[k]) / 1e3,
                                 static_cast<double>(led.txns)));
    }
    r.ledger.emplace_back("pm.pmm_us",
                          Ratio(static_cast<double>(led.pmm_ns) / 1e3,
                                static_cast<double>(led.txns)));
    r.ledger.emplace_back("trace.events",
                          static_cast<double>(tracer->size()));
    if (led.txns != load.txn_committed) {
      Fail(r, "trace holds " + std::to_string(led.txns) + " txn spans for " +
                  std::to_string(load.txn_committed) + " commits");
    }
    if (sum != led.txn_ns) {
      Fail(r, "layer self times sum to " + std::to_string(sum) +
                  " ns, txn spans to " + std::to_string(led.txn_ns) + " ns");
    }
  }
  r.peak_rss_mb = PeakRssMb();
  return r;
}

// Fingerprint of everything on the simulated clock.
std::string SimPrint(const Round& r) {
  std::string s;
  char buf[64];
  for (const Metrics* m : {&r.sim, &r.layer}) {
    for (const auto& [k, v] : *m) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      s += k + "=" + buf + ";";
    }
  }
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(r.load.commit.sum()));
  return s + "commit_sum=" + buf;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Unit of a metric, from its name.
const char* UnitOf(const std::string& name) {
  if (EndsWith(name, "_per_s")) return "1/s";
  if (EndsWith(name, "bytes_per_txn")) return "B/txn";
  if (EndsWith(name, "_per_txn")) return "count/txn";
  if (EndsWith(name, "_per_user_byte")) return "B/B";
  if (EndsWith(name, "_ms")) return "ms";
  if (EndsWith(name, "_us")) return "us";
  if (EndsWith(name, "_s")) return "s";
  if (EndsWith(name, "_mb")) return "MB";
  if (name.find("frac") != std::string::npos ||
      name.find("fill") != std::string::npos) {
    return "fraction";
  }
  if (name.find("bytes") != std::string::npos) return "B";
  return "count";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload "
               "<hotstock|scaleout|scanmix|recovery> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 4 || !args.count("workload") ||
      !args.count("seed") || !args.count("seconds") || !args.count("trace")) {
    return Usage("expected --workload, --seed, --seconds and --trace");
  }
  const std::map<std::string, Kind> kinds = {{"hotstock", Kind::kHotStock},
                                             {"scaleout", Kind::kScaleOut},
                                             {"scanmix", Kind::kScanMix},
                                             {"recovery", Kind::kRecovery}};
  const auto kind = kinds.find(args["workload"]);
  if (kind == kinds.end()) return Usage("unknown workload");
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("bad --seed");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0)) return Usage("bad --seconds");
  if (args["trace"] != "0" && args["trace"] != "1") return Usage("bad --trace");
  const bool trace = args["trace"] == "1";
  const Spec spec = MakeSpec(kind->second);

  std::vector<std::string> errors;
  Metrics out;
  const double start = HostSeconds();
  // Round 0 warms the process up (heap growth, first-touch page faults)
  // and is the reference for the determinism check; host figures come
  // from the rounds after it.
  Round warm = RunRound(spec, seed, nullptr);
  const std::string print = SimPrint(warm);
  auto absorb = [&](Round& r) {
    for (auto& e : r.errors) errors.push_back(std::move(e));
    if (SimPrint(r) != print) {
      errors.push_back("a round's simulated-clock figures differ from the "
                       "first round's");
    }
  };
  for (auto& e : warm.errors) errors.push_back(std::move(e));
  if (!trace) {
    // Rounds until the time budget is spent, at least one; then extra
    // set-ups until there are five, so set-up time is a median.
    std::vector<double> setup, wall;
    while (errors.empty() &&
           (wall.empty() || HostSeconds() - start < seconds)) {
      Round r = RunRound(spec, seed, nullptr);
      setup.push_back(r.setup_s);
      wall.push_back(r.wall_s);
      absorb(r);
    }
    while (errors.empty() && setup.size() < 5) {
      const double t0 = HostSeconds();
      { Setup s = BuildRig(spec, seed, errors); }
      setup.push_back(HostSeconds() - t0);
    }
    out = warm.sim;
    out.emplace_back("setup_s", Median(setup));
    // The warm-up round ran in a fresh process, so its peak is one
    // round's footprint; later rounds add allocator leftovers that vary
    // with the number of rounds.
    out.emplace_back("peak_rss_mb", warm.peak_rss_mb);
    std::printf("%zu rounds after warm-up; setup_s median of", wall.size());
    for (double v : setup) std::printf(" %.4f", v);
    std::printf("; wall_s (per-layer) median of");
    for (double v : wall) std::printf(" %.4f", v);
    std::printf("\n");
  } else {
    Round plain = RunRound(spec, seed, nullptr);
    Tracer tracer;
    Round traced = RunRound(spec, seed, &tracer);
    absorb(plain);
    absorb(traced);
    out = plain.layer;
    out.insert(out.end(), traced.ledger.begin(), traced.ledger.end());
    const double events =
        std::find_if(out.begin(), out.end(), [](const auto& m) {
          return m.first == "sim.events";
        })->second;
    out.emplace_back("wall_s", plain.wall_s);
    out.emplace_back("sim.events_per_s", Ratio(events, plain.wall_s));
    out.emplace_back("trace.overhead_frac",
                     Ratio(traced.wall_s - plain.wall_s, plain.wall_s));
    for (const auto& [k, v] : warm.sim) {
      std::printf("  (sim) %-32s %14.6f %s\n", k.c_str(), v, UnitOf(k));
    }
  }
  const Load& load = warm.load;

  const bool correct = errors.empty();
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s seed %llu: %zu commits (p99 has %zu beyond), %llu of %llu "
              "operations failed\n",
              spec.name, static_cast<unsigned long long>(seed),
              load.commit.count(), load.commit.Beyond(0.99),
              static_cast<unsigned long long>(load.txn_failed +
                                              load.scan_failed),
              static_cast<unsigned long long>(load.txn_attempted +
                                              load.scan_attempted));
  for (const auto& [k, v] : out) {
    std::printf("  %-36s %14.6f %s\n", k.c_str(), v, UnitOf(k));
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(load.txn_attempted + load.scan_attempted);
  json += ", \"failed\": " + std::to_string(load.txn_failed + load.scan_failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : out) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + k + "\": {\"value\": " + Number(v) + ", \"unit\": \"" +
            UnitOf(k) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
