#pragma once

// The benchmark's workloads. Each one builds its inputs from the seed,
// sets up several times (setup_s is the median), then either measures the
// untraced end-to-end loop for the requested seconds or, traced, runs a
// fixed operation count twice (untraced, then with spans) and reports the
// per-layer metrics.

#include "harness.hpp"

namespace perfbench {

/// Pool width of the multi-threaded workloads. The 4-vCPU KVM guest the
/// benchmark was tuned on cannot keep 4 busy threads running: each lost
/// about 36% of its wall time to scheduling gaps over 0.5 ms, against 2-5%
/// with 3 busy threads, and the lost share drifted from run to run. Three
/// threads keep the figures steady.
inline constexpr unsigned kPoolThreads = 3;

/// Operations an untraced run completes at least, whatever --seconds says,
/// so that at least ten lie beyond p95.
inline constexpr std::uint64_t kMinOps = 200;

/// Normal quantile of the Wilson intervals behind the error-rate checks.
inline constexpr double kWilsonZ = 3.89;

/// Setups per run; setup_s reports their median. An untraced run builds
/// one before its timed loop and the rest spread over it (SetupProbes); a
/// traced run builds them all up front.
inline unsigned setup_count(Size size) { return size == Size::kTiny ? 2 : 9; }

void run_zero_round(const Options& options, RunReport& report);
void run_congest_grid(const Options& options, RunReport& report);
void run_congest_shm(const Options& options, RunReport& report);
void run_serve_zipf(const Options& options, RunReport& report);

}  // namespace perfbench
