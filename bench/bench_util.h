// Shared helpers for the experiment harnesses: canonical rig
// configurations (paper §4.3 setup), scale handling, table printing.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace ods::bench {

// Collects results for one benchmark binary and writes them as a proper
// JSON document (nested objects, escaped keys — JsonValue, not ad-hoc
// fprintf) to BENCH_<name>.json in the working directory, so the perf
// trajectory can be diffed across commits. Top-level shape:
//   { "bench": "<name>", <scalar metrics...>,
//     "<prefix>": {"mean_us":..,"p50_us":..,"p99_us":..,"count":..},
//     "metrics": {<registry snapshot>} }
class BenchJson {
 public:
  explicit BenchJson(std::string name)
      : name_(std::move(name)), root_(JsonValue::Object()) {
    root_.Set("bench", name_);
  }

  void Set(const std::string& key, double value) { root_.Set(key, value); }
  // Arbitrary (possibly nested) value at a top-level key.
  void Set(const std::string& key, JsonValue value) {
    root_.Set(key, std::move(value));
  }

  // Standard latency summary, nested under `prefix`. Every emitter gets
  // the deep-tail quantiles too: p99.9/p99.99 are the SLO currency of
  // the scenario suite, and uniform keys keep the validator simple.
  void SetLatency(const std::string& prefix, const LatencyHistogram& h) {
    JsonValue& o = Nested(prefix);
    o.Set("count", h.count());
    o.Set("mean_us", h.mean() / 1e3);
    o.Set("p50_us", static_cast<double>(h.Percentile(0.5)) / 1e3);
    o.Set("p99_us", static_cast<double>(h.Percentile(0.99)) / 1e3);
    o.Set("p999_us", static_cast<double>(h.Percentile(0.999)) / 1e3);
    o.Set("p9999_us", static_cast<double>(h.Percentile(0.9999)) / 1e3);
  }

  // Throughput derived from a latency histogram of back-to-back ops,
  // nested under the same `prefix` as SetLatency.
  void SetOpsPerSec(const std::string& prefix, const LatencyHistogram& h) {
    const double mean_ns = h.mean();
    Nested(prefix).Set("ops_per_sec", mean_ns > 0 ? 1e9 / mean_ns : 0.0);
  }

  // Host cell: the process's peak resident set so far (getrusage
  // ru_maxrss), in MiB. Unlike the simulated-time cells it depends on the
  // host (page size, sweep thread count).
  double SetPeakRss() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    root_.Set("peak_rss_mb", mb);
    return mb;
  }

  // Attaches a full registry snapshot under "metrics".
  void AttachMetrics(const MetricsRegistry& registry) {
    root_.Set("metrics", registry.Snapshot());
  }

  // Mutable access for callers building richer structures (arrays of
  // per-configuration rows, etc.).
  [[nodiscard]] JsonValue& root() noexcept { return root_; }

  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    const std::string text = root_.Serialize(/*indent=*/2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  JsonValue& Nested(const std::string& key) {
    if (JsonValue* v = root_.FindMutable(key); v != nullptr && v->is_object()) {
      return *v;
    }
    root_.Set(key, JsonValue::Object());
    return *root_.FindMutable(key);
  }

  std::string name_;
  JsonValue root_;
};

// The paper inserts 32000 records per driver. The default here is 1/4
// scale so the whole bench suite runs in seconds; set
// ODS_RECORDS_PER_DRIVER=32000 for paper scale (shapes are unchanged —
// elapsed time scales linearly with record count).
inline int RecordsPerDriver() {
  if (const char* env = std::getenv("ODS_RECORDS_PER_DRIVER")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 8000;
}

// §4.3/§4.4 system: 4 CPUs, 4 files x 4 volumes, 4 auxiliary audit
// trails (one per CPU).
inline workload::RigConfig PaperRig(bool pm) {
  workload::RigConfig cfg;
  cfg.num_cpus = 4;
  cfg.num_files = 4;
  cfg.partitions_per_file = 4;
  cfg.num_adps = 4;
  if (pm) {
    cfg.log_medium = tp::LogMedium::kPm;
    cfg.pm_device = workload::PmDeviceKind::kPmp;  // PMP on a 5th CPU (§4.3)
    cfg.pm_log_region_bytes = 16ull << 20;         // ring; perf runs may wrap
  }
  return cfg;
}

inline workload::HotStockConfig PaperWorkload(int drivers, int boxcar) {
  workload::HotStockConfig hs;
  hs.drivers = drivers;
  hs.inserts_per_txn = boxcar;
  hs.records_per_driver = RecordsPerDriver();
  hs.record_bytes = 4096;
  return hs;
}

// Runs one hot-stock configuration in a fresh simulation. `inspect`,
// when set, reads the run's metrics registry before the simulation ends.
inline workload::HotStockResult RunConfig(
    bool pm, int drivers, int boxcar,
    const std::function<void(const MetricsRegistry&)>& inspect = {}) {
  sim::Simulation sim(1);
  workload::Rig rig(sim, PaperRig(pm));
  sim.RunFor(sim::Seconds(1));  // stack bring-up
  auto result = workload::RunHotStock(rig, PaperWorkload(drivers, boxcar));
  if (inspect) inspect(sim.metrics());
  return result;
}

inline const char* TxnSizeLabel(int boxcar) {
  switch (boxcar) {
    case 8: return "32k";
    case 16: return "64k";
    case 32: return "128k";
    default: return "?";
  }
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace ods::bench
