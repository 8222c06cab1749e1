// Per-run metrics registry: named counters and latency histograms that
// components register lazily and exporters snapshot as JSON or text.
// One registry per Simulation (sim/simulation.h owns one), so parameter
// sweeps running many sims on host threads share nothing. Lookup is by
// dotted name ("fabric.rail0.packets"); references returned by
// GetCounter/GetHistogram are stable for the registry's lifetime, so hot
// paths resolve the name once and keep the pointer.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/stats.h"

namespace ods {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the counter/histogram registered under `name`, creating it
  // on first use. The reference stays valid until the registry dies
  // (node-based map), so callers cache it outside their hot loops.
  Counter& GetCounter(std::string_view name);
  LatencyHistogram& GetHistogram(std::string_view name);

  // nullptr when `name` was never registered.
  [[nodiscard]] const Counter* FindCounter(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* FindHistogram(
      std::string_view name) const;
  // Value of counter `name`; 0 when it was never registered.
  [[nodiscard]] std::uint64_t CounterValue(std::string_view name) const;

  // {"counters": {name: value, ...}, "histograms": {name: {count, min_ns,
  //  max_ns, mean_ns, p50_ns, p90_ns, p99_ns}, ...}} — keys sorted by
  // name, so snapshots of identical runs are byte-identical.
  [[nodiscard]] JsonValue Snapshot() const;

  // One "name value" / "name summary" line per metric, sorted by name.
  [[nodiscard]] std::string ToText() const;

  void Reset();

  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }
  [[nodiscard]] std::size_t histogram_count() const {
    return histograms_.size();
  }

 private:
  // std::map: sorted iteration for deterministic export, stable node
  // addresses for the cached references.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, LatencyHistogram, std::less<>> histograms_;
};

}  // namespace ods
