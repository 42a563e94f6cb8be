#pragma once

// Process-wide metrics registry: named counters, gauges and log2-bucketed
// histograms shared by every layer (net engine, trial engine, monitor,
// benches). Design constraints, in order:
//
//  * Hot-path writes are single relaxed atomic RMWs — no locks, no
//    allocation, no branches beyond the instrument call itself. Call sites
//    on genuinely hot paths additionally gate on obs::enabled() so
//    DUT_OBS_LEVEL=0 restores the uninstrumented cost.
//  * Instrument references are stable for the process lifetime: register
//    once (typically into a function-local static reference), then write
//    forever without touching the registry mutex again.
//  * snapshot() returns a consistent-enough copy for reporting (torn
//    cross-instrument views are acceptable, torn single values are not; a
//    histogram's count stays within its in-flight writers of its bucket
//    total and min <= max whenever it is non-empty), reset() zeroes values
//    but keeps registrations.
//
// Naming scheme (DESIGN.md §9): lowercase dotted "area.noun[.unit]" —
// e.g. net.messages, net.round.bits, stats.chunk.us, monitor.alarms.
//
// Compile-time kill switch: build with -DDUT_OBS_LEVEL=0 and every
// instrument write compiles to nothing (the registry machinery remains for
// API compatibility, but enabled() is constant false).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef DUT_OBS_LEVEL
#define DUT_OBS_LEVEL 1
#endif

namespace dut::obs {

/// Runtime switch: true unless the DUT_OBS_LEVEL environment variable is
/// set to 0 (or the library was compiled with -DDUT_OBS_LEVEL=0). Latched
/// at first call; hot loops should read it once per run/job, not per event.
bool enabled() noexcept;

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
#if DUT_OBS_LEVEL
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t value) noexcept {
#if DUT_OBS_LEVEL
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two histogram: bucket b counts values v with bit_width(v) == b,
/// i.e. bucket 0 holds v = 0 and bucket b >= 1 holds [2^(b-1), 2^b). Exact
/// count/sum/min/max ride along, so means are exact and only quantiles are
/// bucket-resolution approximations.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t value) noexcept {
#if DUT_OBS_LEVEL
    // count_ goes last, with release order, so a reader that acquires it
    // sees every counted record in full. The bucket tick is a release too:
    // a reader that acquires it sees the writer's earlier records counted,
    // so ticks run ahead of the count by at most one record per writer
    // (Registry::snapshot relies on both). On x86 every ordering here
    // compiles to the same lock xadd.
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_release);
    update_min(value);
    update_max(value);
    count_.fetch_add(1, std::memory_order_release);
#else
    (void)value;
#endif
  }

  static constexpr std::size_t bucket_index(std::uint64_t value) noexcept {
    return static_cast<std::size_t>(std::bit_width(value));
  }
  /// Smallest value landing in bucket `b` (its inclusive lower edge).
  static constexpr std::uint64_t bucket_floor(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Acquire load, pairing with record(): every record it counts is
  /// visible in full to the caller's later reads.
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_acquire);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// UINT64_MAX when empty.
  std::uint64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  /// 0 when empty.
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Acquire load, pairing with record(): the writers of the ticks it sees
  /// have their earlier records counted.
  std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_acquire);
  }

  void reset() noexcept {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  void update_min(std::uint64_t value) noexcept {
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
  void update_max(std::uint64_t value) noexcept {
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Point-in-time copy of one histogram, for snapshots and reports.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when empty (normalized from the sentinel)
  std::uint64_t max = 0;
  /// Non-empty buckets only, as {lower edge, count}, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Bucket-resolution upper bound on the q-quantile (q in [0, 1]).
  std::uint64_t approx_quantile(double q) const noexcept;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// 0 / empty when absent — convenient for tests and report writers.
  std::uint64_t counter(const std::string& name) const noexcept {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// The process-wide instrument table. Registration takes a mutex; returned
/// references stay valid forever. Registering the same name twice returns
/// the same instrument; reusing a name across kinds throws
/// std::invalid_argument (names are one flat namespace).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument's value; registrations (and references held
  /// by call sites) survive.
  void reset();

 private:
  Registry() = default;

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

// Convenience registration shorthands. Typical call-site pattern:
//   static obs::Counter& sends = obs::counter("net.messages");
inline Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Registry::instance().histogram(name);
}
inline MetricsSnapshot snapshot() { return Registry::instance().snapshot(); }

}  // namespace dut::obs
