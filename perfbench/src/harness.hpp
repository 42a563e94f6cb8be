#pragma once

// Shared machinery of the performance benchmark: run options, timing,
// operation and check accounting, the in-memory span trace, the host stamp
// and the result printer. The workloads (zero_round.cpp, congest.cpp,
// serve.cpp) only call into the library's public API and report through
// the types declared here.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dut/obs/json.hpp"

namespace perfbench {

/// Monotonic time in nanoseconds; every duration is a difference of two
/// reads of this clock.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-6;
}

/// A workload that cannot run as configured on this host (for example more
/// threads than hardware_concurrency). The run stops without a result.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Spans may leave at most this share of a traced run's wall time
/// unattributed (obs.closure_gap).
inline constexpr double kClosureTolerance = 0.05;

enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  /// JSONL file the traced run's spans are written to; empty keeps them in
  /// memory only.
  std::string trace_out;
};

/// Derives an independent 64-bit seed from the benchmark seed and up to two
/// tags (SplitMix64 finalizer over a mixed word).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0) noexcept;

/// Nearest-rank quantile, q in [0, 1]. Returns 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Mean of the values left after the smallest and the largest are dropped
/// (all of them when fewer than three).
double trimmed_mean(std::vector<double> values);

/// Resident high-water mark of this process (VmHWM), in KiB.
std::uint64_t resident_high_water_kib();

/// Hands freed heap back to the system and resets the resident high-water
/// mark to the current resident size (/proc/self/clear_refs). Throws
/// ConfigError where the kernel does not allow it.
void reset_resident_high_water();

/// Holds each arriving thread until `lanes` distinct threads have arrived
/// (or a second has passed), so a warm-up batch of `lanes` operations runs
/// exactly one on every lane of a trial pool.
class LaneBarrier {
 public:
  explicit LaneBarrier(unsigned lanes) : lanes_(lanes) {}
  void arrive();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::thread::id> seen_;
  unsigned lanes_;
};

/// Spreads extra setups over an untraced timed loop, so setup_s samples the
/// host across the whole run rather than only its first moments. The loop
/// calls between() after each operation with the time it has measured so
/// far. The setups built there are excluded from that time and from the
/// run's peak resident memory.
class SetupProbes {
 public:
  SetupProbes(double seconds, unsigned count)
      : interval_ns_(seconds * 1e9 / (count + 1)),
        next_ns_(interval_ns_),
        remaining_(count) {}

  /// When a probe is due, calls `probe`, which builds one extra setup and
  /// destroys it again. The high-water mark is read before the probe and
  /// reset after it, so its memory never reaches peak_rss_mib().
  template <class Probe>
  void between(std::int64_t measured_ns, Probe&& probe) {
    if (remaining_ == 0 || static_cast<double>(measured_ns) < next_ns_) {
      return;
    }
    next_ns_ += interval_ns_;
    --remaining_;
    peak_kib_ = std::max(peak_kib_, resident_high_water_kib());
    probe();
    reset_resident_high_water();
  }

  /// Peak resident memory of the run so far, probes left out, in MiB: the
  /// main setup, its warm-up and the timed loop.
  double peak_rss_mib() {
    peak_kib_ = std::max(peak_kib_, resident_high_water_kib());
    return static_cast<double>(peak_kib_) / 1024.0;
  }

 private:
  double interval_ns_;
  double next_ns_;
  unsigned remaining_;
  std::uint64_t peak_kib_ = 0;
};

/// Operation and check accounting for one run. An operation that throws or
/// breaks an invariant is counted as failed; the run goes on.
class Ledger {
 public:
  void attempt(std::uint64_t ops = 1);
  /// Records one failed operation. Thread-safe.
  void fail(const std::string& why);
  /// Records a named correctness check.
  void check(const std::string& name, bool ok, const std::string& detail);

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  /// Every check passed and no operation failed.
  bool correct() const;
  /// {"checks": [{name, ok, detail}...], "failures": [first few messages]}.
  dut::obs::Json to_json() const;

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few messages
  std::vector<Check> checks_;
};

/// In-memory span trace of one traced run. Each span names its layer, its
/// parent, the lane (thread) it ran on, its interval, and how many lanes
/// that interval occupies: a call that fans out over a trial pool occupies
/// every lane of the pool. Node-level calls, too frequent to record one by
/// one without distorting them, are folded into per-parent aggregates
/// (calls, items, summed duration). A span's self time is its lane
/// capacity (duration x lanes) minus what its children and aggregates
/// cover; the self times of all layers sum to the root's capacity.
class Trace {
 public:
  static constexpr std::uint32_t kRoot = 0;

  /// Opens the root span ("bench.run") on the calling thread; `lanes` is
  /// the width of the trial pool the run uses (1 for serial workloads).
  explicit Trace(unsigned lanes);

  /// Opens a span on the calling thread; returns its id.
  std::uint32_t open(const char* layer, std::uint32_t parent,
                     unsigned lanes = 1);
  void close(std::uint32_t id, std::uint64_t items = 0);
  /// Records a complete span measured by the caller (any thread); returns
  /// its id.
  std::uint32_t record(const char* layer, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       std::uint64_t items = 0);
  /// Folds `calls` node-level calls of one layer into `parent`.
  void aggregate(const char* layer, std::uint32_t parent, std::uint64_t calls,
                 std::uint64_t items, std::int64_t total_ns);
  /// Closes the root span.
  void finish();

  struct Layer {
    double self_ns = 0;   ///< lane-nanoseconds not covered by children
    double total_ns = 0;  ///< summed span durations
    std::uint64_t spans = 0;
    std::uint64_t calls = 0;  ///< aggregated calls (node-level layers)
    std::uint64_t items = 0;
  };
  std::map<std::string, Layer> layers() const;
  double wall_ms() const;
  /// Share of the root's lane capacity that no layer span covers.
  double closure_gap() const;
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    std::uint32_t parent;
    std::uint32_t lane;
    std::uint32_t lanes;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t items;
  };
  struct Aggregate {
    const char* layer;
    std::uint32_t parent;
    std::uint64_t calls;
    std::uint64_t items;
    std::int64_t total_ns;
  };
  std::uint32_t lane_of_caller();  // requires mu_

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  std::map<std::thread::id, std::uint32_t> lanes_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main for printing.
struct RunReport {
  unsigned threads = 1;
  unsigned ranks = 1;
  /// Operations run inside setup_s, before timing starts.
  std::vector<std::string> warmup;
  /// The last-line metrics: end-to-end untraced, per-layer when traced.
  std::vector<Metric> metrics;
  /// Extra figures for the record line (workload-specific names, sample
  /// counts, parameters).
  std::vector<Metric> details;
  Ledger ledger;
};

/// Fails with ConfigError when `threads` or `ranks` exceed the host's
/// hardware_concurrency.
void require_hardware(unsigned threads, unsigned ranks);

/// Prints the record line (host stamp, options, warm-up, checks, details)
/// and then the result line; returns the process exit code.
int print_report(const Options& options, const RunReport& report);

/// Fills `report.metrics` with every per-layer metric of BENCHMARK.json, in
/// its order: the values given in `values`, 0 for a layer the workload does
/// not exercise.
void emit_per_layer(RunReport& report,
                    const std::map<std::string, double>& values);

/// One timed call of an untraced loop: its wall time, the work it
/// completed (trials, runs or arrivals) and the latencies of the operations
/// in it.
struct Step {
  double wall_ms = 0;
  double work = 0;
  std::vector<double> latency_ms;
};

/// Stretches of consecutive steps that each end-to-end timing is taken over
/// separately. The run reports the mean of the stretches left after the
/// best and the worst are dropped, so a burst of host contention spoils one
/// stretch, not the run. On the 4-vCPU guest the benchmark was tuned on,
/// such bursts made the whole-run p95 of five serve_zipf runs spread by
/// 0.56 of its median, against 0.07 for this trimmed mean; under contention
/// lasting whole runs it spread no more than whole-run figures did.
inline constexpr std::size_t kSegments = 5;

/// Fills `report.metrics` with the end-to-end metrics of an untraced loop
/// whose steps ran in the order given: throughput and latency p50 / p95,
/// each the trimmed mean over kSegments stretches of equally many steps.
void emit_end_to_end(RunReport& report, double setup_s,
                     const std::vector<Step>& steps, double peak_rss);

}  // namespace perfbench
