// Host-side microbenchmarks of the simulation engine itself (google-
// benchmark, real time): event throughput, coroutine primitives, CRC and
// framing costs. These bound how large an ODS configuration the
// simulator can drive.
//
// main() first runs the engine dispatch suite and emits
// BENCH_engine_microbench.json:
//
//  - engine_dispatch_*: events/sec of the calendar-queue engine vs an
//    in-binary reference replica of the seed engine (std::function
//    events in a std::priority_queue — `LegacyEngine` below, copied
//    structurally from the pre-refactor Simulation). The spread shape
//    sweeps queue depth 1k/10k/100k; cascade/fanout shapes measure the
//    resumption-burst pattern that dominates real workloads (handlers
//    scheduling same-time work). Both engines run the same templated
//    drivers with a warmup phase and best-of-N steady-state timing in
//    one engine instance, so arena/queue high-water allocation stays
//    out of the timed region for both.
//  - engine_alloc_*: heap allocations per dispatched event in steady
//    state, counted by overloading global operator new in this binary
//    (0.0 for the calendar engine; tests/sim_alloc_test.cc enforces
//    this as a regression test).
//  - hot_stock_*: end-to-end wall clock of a seeded event-dense
//    hot-stock run (drivers=8, 2 inserts/txn, PM log on a mirrored NPMU
//    pair). bench/engine_baseline.json records the same run measured
//    against the seed engine, interleaved on the same host.
//  - pm_append_*: SIMULATED latency of the pipelined PM append path
//    (piggybacked control block vs the seed's serialized writes).
//
// CI's perf-smoke job gates on the self-normalizing speedup ratios
// (new-vs-legacy inside one binary, same host conditions), not on raw
// events/sec, so machine-speed differences between runners cancel out.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/stats.h"
#include "nsk/cluster.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "tp/audit.h"
#include "tp/log_device.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

// ------------------------------------------------------ allocation counting
// Counts every heap allocation in the process; the dispatch suite reads
// deltas around its timed phases to report allocs per dispatched event.

static unsigned long long g_alloc_count = 0;

void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ods;

// ------------------------------------------------------------ LegacyEngine
// Structural replica of the seed engine's scheduler: one std::function
// per event plus the guarded-timer shared_ptr slot, a binary heap over
// (t, seq), pop via const_cast + move, stale-guard check on pop. Only
// the dispatch loop is replicated — processes and waits aren't needed
// to benchmark it.
class LegacyEngine {
 public:
  // The seed's WaitState, minus the coroutine plumbing the bench does
  // not exercise: one shared heap allocation per guarded timer.
  struct Wait {
    bool fired = false;
  };

  template <typename F>
  void Schedule(sim::SimTime t, F&& fn) {
    queue_.push(Event{t, next_seq_++, std::function<void()>(std::forward<F>(fn)),
                      nullptr});
  }
  template <typename F>
  void ScheduleNow(F&& fn) {
    Schedule(now_, std::forward<F>(fn));
  }

  // Seed timer path: shared_ptr guard in the event plus a closure over
  // {shared_ptr, why} — 24 bytes of capture, beyond std::function's
  // 16-byte inline buffer, so each timer heap-boxes its callable too.
  void ScheduleTimer(sim::SimTime t, std::shared_ptr<Wait> st) {
    const int why = 1;
    queue_.push(Event{t, next_seq_++,
                      [st, why] {
                        if (!st->fired) st->fired = (why != 0);
                      },
                      st});
  }

  std::uint64_t Run() {
    std::uint64_t n = 0;
    Event ev;
    while (PopNext(ev)) {
      now_ = ev.t;
      ev.fn();
      ++n;
    }
    events_executed_ += n;
    return n;
  }

  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

 private:
  struct Event {
    sim::SimTime t;
    std::uint64_t seq;
    std::function<void()> fn;
    // Non-null for guarded timers; part of the per-event copy/destroy
    // cost the seed paid on every heap sift.
    std::shared_ptr<Wait> guard;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  // noinline mirrors the seed, where PopNext lived in simulation.cc
  // behind a translation-unit boundary and never inlined into the run
  // loop. Letting the replica inline it here would flatter the old
  // engine relative to what actually shipped.
  __attribute__((noinline)) bool PopNext(Event& out) {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (top.guard != nullptr && top.guard->fired) {
        queue_.pop();  // seed's stale-timer discard
        continue;
      }
      out = std::move(const_cast<Event&>(top));
      queue_.pop();
      return true;
    }
    return false;
  }

  sim::SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
};

// ------------------------------------------------------------ shape drivers
// Each driver fills the queue to `depth` and drains it repeatedly inside
// ONE engine instance: reps 0..kWarmupReps-1 warm the arena/queue to
// their high-water marks, then each timed rep measures full fill+drain
// cycles. Best-of-reps absorbs scheduler noise on busy hosts.

constexpr int kWarmupReps = 2;
constexpr int kTimedReps = 3;

struct ShapeResult {
  double events_per_sec = 0;    // best timed rep
  double allocs_per_event = 0;  // across all timed reps
};

// Spread: every event at a distinct timestamp (pure queue churn, no
// same-time bursts). The default 97 ns spacing scatters events across
// calendar buckets without leaving them adjacent; wide spacings push
// the population past the inner calendar window entirely.
template <typename Engine>
ShapeResult RunSpread(long depth, long events_per_rep,
                      long long spacing_ns = 97) {
  Engine eng;
  long long base = 1;
  const long fills = std::max(1L, events_per_rep / depth);
  ShapeResult out;
  unsigned long long allocs0 = 0;
  std::uint64_t events0 = 0;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < kWarmupReps + kTimedReps; ++rep) {
    if (rep == kWarmupReps) {
      allocs0 = g_alloc_count;
      events0 = eng.events_executed();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (long f = 0; f < fills; ++f) {
      for (long i = 0; i < depth; ++i) {
        eng.Schedule(sim::SimTime{base + i * spacing_ns},
                     [&sink] { sink = sink + 1; });
      }
      base += depth * spacing_ns + 1000;
      eng.Run();
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (rep >= kWarmupReps) {
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      out.events_per_sec =
          std::max(out.events_per_sec, double(fills * depth) / secs);
    }
  }
  out.allocs_per_event = double(g_alloc_count - allocs0) /
                         double(eng.events_executed() - events0);
  return out;
}

// Cascade: each seed event schedules a chain of K same-time events —
// the cross-process resumption pattern (ScheduleNow) that dominates
// traced hot-stock runs.
// Runtime depth counter on purpose: one lambda type per engine keeps a
// single indirect-call target, matching real runs where dispatch
// resumes the same coroutine thunk repeatedly. (A template-unrolled
// chain gives every level its own callable type and the dispatch
// loop's indirect branch never predicts.)
template <typename Engine>
void Cascade(Engine& eng, volatile std::uint64_t& sink, int k) {
  sink = sink + 1;
  if (k > 0) {
    eng.ScheduleNow([&eng, &sink, k] { Cascade(eng, sink, k - 1); });
  }
}

template <typename Engine, int K>
ShapeResult RunCascade(long depth, long events_per_rep) {
  Engine eng;
  long long base = 1;
  const long fills = std::max(1L, events_per_rep / (depth * (K + 1)));
  ShapeResult out;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < kWarmupReps + kTimedReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long f = 0; f < fills; ++f) {
      for (long i = 0; i < depth; ++i) {
        eng.Schedule(sim::SimTime{base + i * 97},
                     [&eng, &sink] { Cascade(eng, sink, K); });
      }
      base += depth * 97 + 1000;
      eng.Run();
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (rep >= kWarmupReps) {
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      out.events_per_sec = std::max(out.events_per_sec,
                                    double(fills * depth * (K + 1)) / secs);
    }
  }
  return out;
}

// Fanout: each seed event schedules W same-time siblings (boxcar
// delivery, quorum acks).
template <typename Engine, int W>
ShapeResult RunFanout(long depth, long events_per_rep) {
  Engine eng;
  long long base = 1;
  const long fills = std::max(1L, events_per_rep / (depth * (W + 1)));
  ShapeResult out;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < kWarmupReps + kTimedReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (long f = 0; f < fills; ++f) {
      for (long i = 0; i < depth; ++i) {
        eng.Schedule(sim::SimTime{base + i * 97}, [&eng, &sink] {
          sink = sink + 1;
          for (int j = 0; j < W; ++j) {
            eng.ScheduleNow([&sink] { sink = sink + 1; });
          }
        });
      }
      base += depth * 97 + 1000;
      eng.Run();
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (rep >= kWarmupReps) {
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      out.events_per_sec = std::max(out.events_per_sec,
                                    double(fills * depth * (W + 1)) / secs);
    }
  }
  return out;
}

// RPC-timeout: the pattern the engine rebuild targets most directly.
// Every operation arms a guarded timeout and completes before it
// expires, so the timer must be taken back out of the queue. The seed
// paid two heap allocations per op (shared WaitState + boxed timer
// closure) and carried every dead timer until its timestamp; the
// calendar engine uses a pooled wait slot, cancels the pending record
// at claim time and reclaims it in bulk sweeps.
constexpr long long kRpcTimeoutNs = 1'000'000;  // 1 ms, well past completion

ShapeResult RunRpcTimeoutLegacy(long depth, long ops_per_rep) {
  LegacyEngine eng;
  long long base = 1;
  const long fills = std::max(1L, ops_per_rep / depth);
  ShapeResult out;
  unsigned long long allocs0 = 0;
  std::uint64_t ops0 = 0, ops = 0;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < kWarmupReps + kTimedReps; ++rep) {
    if (rep == kWarmupReps) {
      allocs0 = g_alloc_count;
      ops0 = ops;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (long f = 0; f < fills; ++f) {
      for (long i = 0; i < depth; ++i) {
        const sim::SimTime t{base + i * 97};
        auto st = std::make_shared<LegacyEngine::Wait>();
        eng.ScheduleTimer(sim::SimTime{t.ns + kRpcTimeoutNs}, st);
        eng.Schedule(t, [st = std::move(st), &sink] {
          sink = sink + 1;
          st->fired = true;  // claim: the pending timer is now stale
        });
      }
      base += depth * 97 + kRpcTimeoutNs + 1000;
      ops += eng.Run();  // completions only; stale timers are discarded
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (rep >= kWarmupReps) {
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      out.events_per_sec =
          std::max(out.events_per_sec, double(fills * depth) / secs);
    }
  }
  out.allocs_per_event = double(g_alloc_count - allocs0) / double(ops - ops0);
  return out;
}

ShapeResult RunRpcTimeoutNew(long depth, long ops_per_rep) {
  sim::Simulation eng;
  long long base = 1;
  const long fills = std::max(1L, ops_per_rep / depth);
  ShapeResult out;
  unsigned long long allocs0 = 0;
  std::uint64_t ops0 = 0;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < kWarmupReps + kTimedReps; ++rep) {
    if (rep == kWarmupReps) {
      allocs0 = g_alloc_count;
      ops0 = eng.events_executed();
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (long f = 0; f < fills; ++f) {
      for (long i = 0; i < depth; ++i) {
        const sim::SimTime t{base + i * 97};
        sim::WaitState* st = eng.wait_pool().Acquire();
        eng.ScheduleTimer(sim::SimTime{t.ns + kRpcTimeoutNs}, st,
                          sim::WaitState::Why::kTimeout);
        eng.Schedule(t, [&eng, st, &sink] {
          sink = sink + 1;
          // Claim the wait: cancels the pending timer record in place.
          if (st->TryFire(sim::WaitState::Why::kFulfilled)) {
            eng.wait_pool().Release(st);
          }
        });
      }
      base += depth * 97 + kRpcTimeoutNs + 1000;
      eng.Run();
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (rep >= kWarmupReps) {
      const double secs = std::chrono::duration<double>(t1 - t0).count();
      out.events_per_sec =
          std::max(out.events_per_sec, double(fills * depth) / secs);
    }
  }
  out.allocs_per_event = double(g_alloc_count - allocs0) /
                         double(eng.events_executed() - ops0);
  return out;
}

// Per-engine event budgets sized so one timed rep lands in the
// 0.1-0.5 s range on a modern core for both engines.
constexpr long kNewBudget = 4'000'000;
constexpr long kLegacyBudget = 1'000'000;

void ReportDispatchCell(bench::BenchJson& json, const char* shape, long depth,
                        const ShapeResult& legacy, const ShapeResult& fresh) {
  const double speedup = legacy.events_per_sec > 0
                             ? fresh.events_per_sec / legacy.events_per_sec
                             : 0.0;
  std::printf(
      "dispatch %-10s depth=%-7ld legacy=%10.3g ev/s  new=%10.3g ev/s  "
      "speedup=%5.2fx\n",
      shape, depth, legacy.events_per_sec, fresh.events_per_sec, speedup);
  JsonValue cell = JsonValue::Object();
  cell.Set("depth", static_cast<double>(depth));
  cell.Set("legacy_events_per_sec", legacy.events_per_sec);
  cell.Set("new_events_per_sec", fresh.events_per_sec);
  cell.Set("speedup", speedup);
  json.Set(std::string("engine_dispatch_") + shape + "_d" +
               std::to_string(depth),
           std::move(cell));
}

// Each shape's legacy/new measurements alternate kAlternations times
// and the cell keeps the best round per engine: a host-speed dip (CPU
// throttle, noisy neighbor) that lands inside one long measurement
// would otherwise skew the ratio; alternation makes both engines see
// the same host conditions.
constexpr int kAlternations = 3;

ShapeResult BestOf(const ShapeResult& a, const ShapeResult& b) {
  ShapeResult out = a.events_per_sec >= b.events_per_sec ? a : b;
  // Alloc rates are identical across rounds (steady state); keep a's.
  out.allocs_per_event = a.allocs_per_event;
  return out;
}

void RunDispatchSuite(bench::BenchJson& json) {
  // Queue-depth sweep on the spread shape.
  for (long depth : {1000L, 10000L, 100000L}) {
    ShapeResult legacy, fresh;
    for (int alt = 0; alt < kAlternations; ++alt) {
      legacy = BestOf(RunSpread<LegacyEngine>(depth, kLegacyBudget), legacy);
      fresh = BestOf(RunSpread<sim::Simulation>(depth, kNewBudget), fresh);
    }
    ReportDispatchCell(json, "spread", depth, legacy, fresh);
    if (depth == 10000) {
      json.Set("engine_alloc_spread_new_allocs_per_event",
               fresh.allocs_per_event);
      json.Set("engine_alloc_spread_legacy_allocs_per_event",
               legacy.allocs_per_event);
      std::printf(
          "alloc    spread     depth=10000   legacy=%.4f/event  "
          "new=%.4f/event (steady state)\n",
          legacy.allocs_per_event, fresh.allocs_per_event);
    }
  }
  // Wide spread: 100k events spaced 50us apart span ~5s of simulated
  // time — far past the ~2ms inner calendar window. Before the outer
  // calendar every one of these took the far-heap detour (an O(log n)
  // sift per push at depth 100k); with it they land in O(1) outer
  // buckets and expand window-by-window.
  {
    ShapeResult legacy, fresh;
    for (int alt = 0; alt < kAlternations; ++alt) {
      legacy = BestOf(
          RunSpread<LegacyEngine>(100000, kLegacyBudget, 50'000), legacy);
      fresh = BestOf(
          RunSpread<sim::Simulation>(100000, kNewBudget, 50'000), fresh);
    }
    ReportDispatchCell(json, "widespread", 100000, legacy, fresh);
  }
  // Resumption-burst shapes at the 10k working depth.
  {
    ShapeResult legacy, fresh;
    for (int alt = 0; alt < kAlternations; ++alt) {
      legacy =
          BestOf(RunCascade<LegacyEngine, 9>(10000, kLegacyBudget), legacy);
      fresh =
          BestOf(RunCascade<sim::Simulation, 9>(10000, kNewBudget), fresh);
    }
    ReportDispatchCell(json, "cascade9", 10000, legacy, fresh);
  }
  {
    ShapeResult legacy, fresh;
    for (int alt = 0; alt < kAlternations; ++alt) {
      legacy = BestOf(RunFanout<LegacyEngine, 8>(10000, kLegacyBudget), legacy);
      fresh = BestOf(RunFanout<sim::Simulation, 8>(10000, kNewBudget), fresh);
    }
    ReportDispatchCell(json, "fanout8", 10000, legacy, fresh);
  }
  // Guarded-timer RPC shape at 10k in-flight ops: the allocation
  // contrast cell (3 heap allocs/op removed).
  {
    ShapeResult legacy, fresh;
    for (int alt = 0; alt < kAlternations; ++alt) {
      legacy = BestOf(RunRpcTimeoutLegacy(10000, kLegacyBudget / 2), legacy);
      fresh = BestOf(RunRpcTimeoutNew(10000, kNewBudget / 2), fresh);
    }
    ReportDispatchCell(json, "rpc_timeout", 10000, legacy, fresh);
    json.Set("engine_alloc_rpc_new_allocs_per_op", fresh.allocs_per_event);
    json.Set("engine_alloc_rpc_legacy_allocs_per_op", legacy.allocs_per_event);
    std::printf(
        "alloc    rpc_timeout depth=10000  legacy=%.4f/op  new=%.4f/op "
        "(steady state)\n",
        legacy.allocs_per_event, fresh.allocs_per_event);
  }
}

// ------------------------------------------------------------ hot_stock run
// Event-dense end-to-end configuration: many small transactions through
// the full stack (TxnClient -> DP2 -> ADP -> PM log on a mirrored NPMU
// pair), so engine overhead — not payload byte-shuffling — dominates.
void RunHotStockWall(bench::BenchJson& json) {
  sim::Simulation sim(42);
  workload::RigConfig cfg;
  cfg.num_cpus = 4;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  workload::Rig rig(sim, cfg);
  sim.RunFor(sim::Seconds(1));  // stack bring-up

  workload::HotStockConfig hs;
  hs.drivers = 8;
  hs.inserts_per_txn = 2;
  hs.records_per_driver = 1000;
  hs.record_bytes = 64;

  const std::uint64_t events0 = sim.events_executed();
  const auto t0 = std::chrono::steady_clock::now();
  (void)workload::RunHotStock(rig, hs);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double events = double(sim.events_executed() - events0);

  std::printf(
      "hot_stock d=8 ins/txn=2 recs=1000 B=64: wall=%.1fms events=%.0f "
      "(%.3g ev/s)\n",
      wall_ms, events, events / (wall_ms / 1e3));
  json.Set("hot_stock_wall_ms", wall_ms);
  json.Set("hot_stock_events", events);
  json.Set("hot_stock_events_per_sec", events / (wall_ms / 1e3));
}

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t n = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(sim::SimTime{i}, [&n] { ++n; });
    }
    sim.Run();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventDispatch);

class PingPong : public sim::Process {
 public:
  PingPong(sim::Simulation& s, sim::Channel<int>& in, sim::Channel<int>& out,
           int rounds)
      : Process(s, "pp"), in_(in), out_(out), rounds_(rounds) {}

 protected:
  sim::Task<void> Main() override {
    for (int i = 0; i < rounds_; ++i) {
      out_.Send(i);
      (void)co_await in_.Receive(*this);
    }
  }

 private:
  sim::Channel<int>& in_;
  sim::Channel<int>& out_;
  int rounds_;
};

class Echo : public sim::Process {
 public:
  Echo(sim::Simulation& s, sim::Channel<int>& in, sim::Channel<int>& out,
       int rounds)
      : Process(s, "echo"), in_(in), out_(out), rounds_(rounds) {}

 protected:
  sim::Task<void> Main() override {
    for (int i = 0; i < rounds_; ++i) {
      int v = co_await in_.Receive(*this);
      out_.Send(v);
    }
  }

 private:
  sim::Channel<int>& in_;
  sim::Channel<int>& out_;
  int rounds_;
};

void BM_CoroutinePingPong(benchmark::State& state) {
  constexpr int kRounds = 1000;
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Channel<int> a(sim), b(sim);
    sim.Spawn<PingPong>(b, a, kRounds);
    sim.Spawn<Echo>(a, b, kRounds);
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * kRounds * 2);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto& b : buf) b = static_cast<std::byte>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_AuditFraming(benchmark::State& state) {
  tp::AuditRecord rec;
  rec.txn = 7;
  rec.type = tp::AuditType::kUpdate;
  rec.file_id = 1;
  rec.key = 99;
  rec.after_image.assign(4096, std::byte{1});
  for (auto _ : state) {
    std::vector<std::byte> out;
    tp::FrameRecord(rec, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AuditFraming);

void BM_LogScan(benchmark::State& state) {
  std::vector<std::byte> log;
  tp::AuditRecord rec;
  rec.type = tp::AuditType::kUpdate;
  rec.after_image.assign(512, std::byte{1});
  for (int i = 0; i < 1000; ++i) {
    rec.lsn = static_cast<std::uint64_t>(i);
    tp::FrameRecord(rec, log);
  }
  for (auto _ : state) {
    tp::LogScanner scan(log);
    int n = 0;
    while (scan.Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LogScan);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(3);
  for (auto _ : state) {
    h.Record(rng.Below(1'000'000));
  }
  benchmark::DoNotOptimize(h.Percentile(0.99));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

// ---------------------------------------------------- simulated PM appends

class BenchProcess : public nsk::NskProcess {
 public:
  using Body = std::function<sim::Task<void>(BenchProcess&)>;
  BenchProcess(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  sim::Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

struct AppendBenchResult {
  LatencyHistogram latency;
  std::uint64_t piggybacked = 0;
};

// Simulated latency of PmLogDevice appends against a mirrored NPMU pair:
// `batch` records of `record_bytes` per Append call, sequential
// (each durable before the next starts), with the piggyback ablation
// knob. piggyback=false reproduces the seed's two serialized RDMA rounds
// per append.
AppendBenchResult RunPmAppendBench(bool piggyback, int appends,
                                   std::size_t record_bytes, int batch) {
  sim::Simulation sim(7);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::Npmu npmu_a(cluster.fabric(), "npmu-a");
  pm::Npmu npmu_b(cluster.fabric(), "npmu-b");
  auto& pmm_p = sim.AdoptStopped<pm::PmManager>(
      cluster, 0, "$PMM", "$PMM-P", pm::PmDevice(npmu_a), pm::PmDevice(npmu_b),
      "$PM1");
  auto& pmm_b = sim.AdoptStopped<pm::PmManager>(
      cluster, 1, "$PMM", "$PMM-B", pm::PmDevice(npmu_a), pm::PmDevice(npmu_b),
      "$PM1");
  pmm_p.SetPeer(&pmm_b);
  pmm_b.SetPeer(&pmm_p);
  pmm_p.Start();
  pmm_b.Start();

  AppendBenchResult out;
  sim.Adopt<BenchProcess>(
      cluster, 2, "bench", [&](BenchProcess& self) -> sim::Task<void> {
        tp::PmLogConfig cfg;
        cfg.region_name = "bench-log";
        cfg.region_bytes = 16ull << 20;
        cfg.piggyback_control = piggyback;
        tp::PmLogDevice dev(cfg);
        auto open = co_await dev.Open(self);
        if (!open.ok()) co_return;
        for (int i = 0; i < appends; ++i) {
          // One flush: the batch's records back-to-back.
          std::vector<std::byte> records(
              static_cast<std::size_t>(batch) * record_bytes, std::byte{1});
          const sim::SimTime t0 = self.sim().Now();
          (void)co_await dev.Append(self, std::move(records));
          out.latency.Record(
              static_cast<std::uint64_t>((self.sim().Now() - t0).ns));
        }
      });
  sim.Run();
  out.piggybacked = sim.metrics().CounterValue("pm.log.piggybacked");
  return out;
}

void ReportPmAppend(bench::BenchJson& json, const char* label,
                    std::size_t record_bytes, int batch) {
  constexpr int kAppends = 2000;
  AppendBenchResult on = RunPmAppendBench(true, kAppends, record_bytes, batch);
  AppendBenchResult off =
      RunPmAppendBench(false, kAppends, record_bytes, batch);
  std::printf(
      "pm_append %-18s piggyback=on  mean=%7.2fus p99=%7.2fus  (%llu "
      "piggybacked)\n",
      label, on.latency.mean() / 1e3,
      static_cast<double>(on.latency.Percentile(0.99)) / 1e3,
      static_cast<unsigned long long>(on.piggybacked));
  std::printf(
      "pm_append %-18s piggyback=off mean=%7.2fus p99=%7.2fus  (seed path)\n",
      label, off.latency.mean() / 1e3,
      static_cast<double>(off.latency.Percentile(0.99)) / 1e3);
  const std::string base = std::string("pm_append_") + label;
  json.SetLatency(base + "_piggyback_on", on.latency);
  json.SetOpsPerSec(base + "_piggyback_on", on.latency);
  json.SetLatency(base + "_piggyback_off", off.latency);
  json.SetOpsPerSec(base + "_piggyback_off", off.latency);
  json.Set(base + "_reduction_us",
           (off.latency.mean() - on.latency.mean()) / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson json("engine_microbench");
  RunDispatchSuite(json);
  RunHotStockWall(json);
  ReportPmAppend(json, "256B", 256, 1);
  ReportPmAppend(json, "4KB", 4096, 1);
  ReportPmAppend(json, "8x4KB_batch", 4096, 8);
  json.Write();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
