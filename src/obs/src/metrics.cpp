#include "dut/obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "dut/obs/env.hpp"

namespace dut::obs {

bool enabled() noexcept {
#if DUT_OBS_LEVEL
  static const bool value = env_u64("DUT_OBS_LEVEL", 0, 9).value_or(1) > 0;
  return value;
#else
  return false;
#endif
}

std::uint64_t HistogramData::approx_quantile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (const auto& [floor, bucket_count] : buckets) {
    seen += bucket_count;
    if (static_cast<double>(seen) >= target) {
      // Inclusive upper edge of this bucket, clamped to the observed max.
      const std::uint64_t edge = floor == 0 ? 0 : floor * 2 - 1;
      return edge < max ? edge : max;
    }
  }
  return max;
}

Registry& Registry::instance() {
  // dut-lint: allow(no-mutable-static): the process-wide instrument table;
  // metrics never feed verdicts, and registration is mutex-serialized.
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::entry(const std::string& name, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry fresh;
    fresh.kind = kind;
    switch (kind) {
      case Kind::kCounter:
        fresh.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        fresh.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        fresh.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(fresh)).first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument("obs::Registry: instrument '" + name +
                                "' already registered with another kind");
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name) {
  return *entry(name, Kind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *entry(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return *entry(name, Kind::kHistogram).histogram;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters.emplace(name, e.counter->value());
        break;
      case Kind::kGauge:
        snap.gauges.emplace(name, e.gauge->value());
        break;
      case Kind::kHistogram: {
        // Writers keep recording while this reads. Buckets come first: a
        // tick seen here runs ahead of the count loaded next by at most one
        // in-flight record per writer (record() ticks, then counts, both
        // with release order). Ticks landing after their bucket was read can
        // put the count far ahead, so the smaller of the two is reported:
        // count and bucket total stay within the writers in flight of each
        // other and never go backwards. Min and max are read after the
        // count, so they cover at least one record whenever it is non-zero.
        const Histogram& h = *e.histogram;
        HistogramData data;
        std::uint64_t bucket_total = 0;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t c = h.bucket(b);
          if (c == 0) continue;
          data.buckets.emplace_back(Histogram::bucket_floor(b), c);
          bucket_total += c;
        }
        data.count = std::min(bucket_total, h.count());
        data.sum = h.sum();
        data.max = h.max();
        data.min = data.count == 0 ? 0 : h.min();
        snap.histograms.emplace(name, std::move(data));
        break;
      }
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        e.counter->reset();
        break;
      case Kind::kGauge:
        e.gauge->reset();
        break;
      case Kind::kHistogram:
        e.histogram->reset();
        break;
    }
  }
}

}  // namespace dut::obs
