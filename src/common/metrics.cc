#include "common/metrics.h"

#include <cstdio>

namespace ods {

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

LatencyHistogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), LatencyHistogram{}).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const LatencyHistogram* MetricsRegistry::FindHistogram(
    std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const Counter* c = FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

JsonValue MetricsRegistry::Snapshot() const {
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, c] : counters_) {
    counters.Set(name, c.value());
  }
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, h] : histograms_) {
    JsonValue hj = JsonValue::Object();
    hj.Set("count", h.count());
    hj.Set("min_ns", h.min());
    hj.Set("max_ns", h.max());
    hj.Set("mean_ns", h.mean());
    hj.Set("p50_ns", h.Percentile(0.50));
    hj.Set("p90_ns", h.Percentile(0.90));
    hj.Set("p99_ns", h.Percentile(0.99));
    histograms.Set(name, std::move(hj));
  }
  JsonValue out = JsonValue::Object();
  out.Set("counters", std::move(counters));
  out.Set("histograms", std::move(histograms));
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::string out;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof(line), "%s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.value()));
    out += line;
  }
  for (const auto& [name, h] : histograms_) {
    out += name;
    out += ' ';
    out += h.Summary();
    out += '\n';
  }
  return out;
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
}

}  // namespace ods
