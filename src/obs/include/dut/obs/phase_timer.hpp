#pragma once

// The repo's single wall-clock funnel. Determinism discipline (DESIGN.md
// §12) bans wall-clock reads from library code, and the dut_lint
// clock-funnel rule additionally confines the obs/bench layers' clock reads
// to this header: timing flows through StopWatch (raw elapsed seconds, used
// by the bench mains) or PhaseTimer (RAII spans — sample/encode/route/
// decide — feeding the log2 "phase.<name>.us" histograms that reports and
// `dut_trace summary --report` surface). Wall time is observational only; nothing
// protocol-visible may depend on it.

#include <chrono>
#include <cstdint>
#include <string>

#include "dut/obs/metrics.hpp"

namespace dut::obs {

/// Monotonic elapsed-time reader. Starts at construction.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  std::uint64_t microseconds() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Registry histogram for one named phase ("phase.<name>.us"). Call sites
/// on hot paths should cache the reference:
///   static obs::Histogram& span = obs::phase_histogram("sample");
inline Histogram& phase_histogram(const std::string& name) {
  return histogram("phase." + name + ".us");
}

/// RAII span: records elapsed microseconds into a phase histogram at scope
/// exit. Disarmed entirely (no clock reads) when obs::enabled() is false.
class PhaseTimer {
 public:
  explicit PhaseTimer(Histogram& histogram)
      : histogram_(&histogram), armed_(enabled()) {}
  explicit PhaseTimer(const std::string& name)
      : PhaseTimer(phase_histogram(name)) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (armed_) histogram_->record(watch_.microseconds());
  }

 private:
  Histogram* histogram_;
  bool armed_;
  StopWatch watch_;
};

}  // namespace dut::obs
