// Statistics primitives used by the benchmark harnesses: counters and
// log-bucketed latency histograms with percentile queries.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ods {

// Histogram over non-negative 64-bit samples (we use nanoseconds).
// Buckets are base-2 logarithmic with 16 linear sub-buckets per octave,
// giving <= ~6% relative quantization error on percentile queries —
// sufficient for the latency-structure comparisons in the paper.
class LatencyHistogram {
 public:
  void Record(std::uint64_t value_ns) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }
  // q in [0,1]; returns an upper bound of the bucket containing the
  // q-quantile sample.
  [[nodiscard]] std::uint64_t Percentile(double q) const noexcept;

  void Merge(const LatencyHistogram& other) noexcept;
  void Reset() noexcept;

  // "count=… mean=…us p50=…us p99=…us max=…us"
  [[nodiscard]] std::string Summary() const;

 private:
  static constexpr int kSubBucketsLog2 = 4;  // 16 sub-buckets per octave
  static constexpr int kNumBuckets = 64 * (1 << kSubBucketsLog2);

  static int BucketIndex(std::uint64_t value) noexcept;
  static std::uint64_t BucketUpperBound(int index) noexcept;

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

// Latency histograms bucketed by sample *timestamp* into fixed-width
// consecutive windows. Used for time-to-SLO-recovery measurement: a
// flash-crowd run records every response into the window of its arrival,
// then walks the per-window p99s to find when the tail got back under
// the SLO. Samples before `start_ns` clamp to window 0; samples past the
// end clamp to the last window.
class WindowedLatency {
 public:
  WindowedLatency(std::int64_t start_ns, std::int64_t width_ns, int windows)
      : start_ns_(start_ns), width_ns_(width_ns),
        windows_(static_cast<std::size_t>(windows)) {}

  void Record(std::int64_t at_ns, std::uint64_t latency_ns) noexcept {
    std::int64_t idx = (at_ns - start_ns_) / width_ns_;
    if (idx < 0) idx = 0;
    const auto last = static_cast<std::int64_t>(windows_.size()) - 1;
    if (idx > last) idx = last;
    windows_[static_cast<std::size_t>(idx)].Record(latency_ns);
  }

  [[nodiscard]] std::int64_t start_ns() const noexcept { return start_ns_; }
  [[nodiscard]] std::int64_t width_ns() const noexcept { return width_ns_; }
  [[nodiscard]] std::int64_t window_start_ns(int i) const noexcept {
    return start_ns_ + width_ns_ * i;
  }
  [[nodiscard]] const std::vector<LatencyHistogram>& windows() const noexcept {
    return windows_;
  }

 private:
  std::int64_t start_ns_;
  std::int64_t width_ns_;
  std::vector<LatencyHistogram> windows_;
};

// Simple accumulating counter with a name, for throughput/byte accounting.
class Counter {
 public:
  void Add(std::uint64_t delta) noexcept { value_ += delta; }
  void Increment() noexcept { ++value_; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void Reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

}  // namespace ods
