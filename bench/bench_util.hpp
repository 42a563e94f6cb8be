#pragma once

// Shared boilerplate for the experiment binaries (bench/e*.cpp).
//
// Every experiment prints a banner naming the paper claim it regenerates,
// one or more TextTables with the measured rows, and a PASS/NOTE trailer.
// In addition to the human-readable stdout, each binary finishes by writing
// a machine-readable obs::RunReport (BENCH_<ID>.json, schema v1): banner()
// opens the report, record()/record_value() fill it, and finish() attaches
// the metrics-registry snapshot and writes the artifact. EXPERIMENTS.md
// points each experiment at its artifact.
//
// Runtime knobs (shared by all binaries):
//   DUT_THREADS=N     worker threads for the Monte-Carlo engine
//                     (default: hardware concurrency; 1 = serial;
//                     0 = explicitly request hardware concurrency).
//   --quick / DUT_QUICK=1
//                     divide every trial count by 16 (floor 100) so CI can
//                     sweep all e* binaries cheaply. Full counts remain the
//                     local default; EXPERIMENTS.md archives full runs.
//   --trial-scale=D / DUT_TRIAL_SCALE=D
//                     explicit divisor (D >= 1) for finer control.
//   Any other argument, or a malformed D, is refused (exit status 2).
//   DUT_TRACE=path    JSONL protocol transcript for every engine run
//                     (DUT_TRACE_TAIL=N, DUT_TRACE_LEVEL=2; DESIGN.md §9).
//   DUT_OBS_LEVEL=0   disable the metrics registry and tracing entirely.
// Malformed values of the numeric knobs are rejected (strict parsing via
// obs::env_u64), not silently truncated.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "dut/obs/env.hpp"
#include "dut/obs/metrics.hpp"
#include "dut/obs/report.hpp"
#include "dut/stats/engine.hpp"
#include "dut/stats/table.hpp"

namespace dut::bench {

namespace detail {
inline std::uint64_t& trial_divisor() {
  static std::uint64_t divisor = [] {
    if (const auto scale =
            obs::env_u64("DUT_TRIAL_SCALE", 1, 1'000'000'000)) {
      return *scale;
    }
    if (const auto quick = obs::env_u64("DUT_QUICK", 0, 1);
        quick.has_value() && *quick == 1) {
      return std::uint64_t{16};
    }
    return std::uint64_t{1};
  }();
  return divisor;
}

inline std::optional<obs::RunReport>& report() {
  static std::optional<obs::RunReport> instance;
  return instance;
}

/// "E8: uniformity testing in CONGEST" -> "e8" (the report id / artifact
/// name). Falls back to the whole banner id, lowercased, if there is no
/// colon.
inline std::string report_id(const char* banner_id) {
  std::string id;
  for (const char* p = banner_id; *p != '\0' && *p != ':'; ++p) {
    id.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(*p))));
  }
  return id;
}
}  // namespace detail

/// Applies --quick / --trial-scale=D (D in [1, 10^9]), the only arguments
/// an experiment takes. Anything else, a malformed D included, prints the
/// usage line to stderr and exits with status 2 before banner(), so no
/// report is written. Call first thing in main().
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      detail::trial_divisor() = 16;
      continue;
    }
    if (std::strncmp(arg, "--trial-scale=", 14) == 0) {
      if (const auto v = obs::parse_u64(arg + 14, 1, 1'000'000'000)) {
        detail::trial_divisor() = *v;
        continue;
      }
    }
    std::fprintf(stderr,
                 "error: unknown or malformed argument '%s'\n"
                 "usage: %s [--quick] [--trial-scale=D]  (D in [1, "
                 "1000000000])\n",
                 arg, argv[0]);
    std::exit(2);
  }
}

/// Scales a full trial count by the configured divisor (floor 100 so the
/// Wilson machinery keeps meaningful intervals even in quick mode).
inline std::uint64_t trials(std::uint64_t full) {
  const std::uint64_t scaled = full / detail::trial_divisor();
  const std::uint64_t floor = full < 100 ? full : 100;
  return scaled < floor ? floor : scaled;
}

/// Scales a repetition count for *expensive* loops (whole-network
/// simulations) where even quick mode cannot afford the 100-trial floor of
/// trials(). Floor 2 so sweeps still exercise more than one instance.
inline std::uint64_t runs(std::uint64_t full) {
  const std::uint64_t scaled = full / detail::trial_divisor();
  const std::uint64_t floor = full < 2 ? full : 2;
  return scaled < floor ? floor : scaled;
}

inline void banner(const char* id, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", id);
  std::printf("reproduces: %s\n", claim);
  std::printf("================================================================\n");
  std::printf("engine: %u thread(s)", stats::global_runner().threads());
  if (detail::trial_divisor() != 1) {
    std::printf(", trial counts / %llu (quick mode)",
                static_cast<unsigned long long>(detail::trial_divisor()));
  }
  std::printf("\n");

  auto& report = detail::report();
  report.emplace(detail::report_id(id), claim);
  report->set_engine("threads", stats::global_runner().threads());
  report->set_engine("hardware_concurrency",
                     std::thread::hardware_concurrency());
  report->set_engine("trial_divisor", detail::trial_divisor());
  report->set_engine("obs_enabled", obs::enabled());
}

inline void section(const char* title) { std::printf("\n--- %s ---\n", title); }

inline void print(const stats::TextTable& table) {
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
}

inline void note(const char* text) { std::printf("\n%s\n", text); }

/// Records a predicted-vs-measured pair in the run report (no-op before
/// banner()).
inline void record(const std::string& name, double predicted, double measured,
                   const std::string& note = "") {
  if (auto& report = detail::report()) {
    report->check(name, predicted, measured, note);
  }
}

/// Records a free-form named value (seed, table, derived quantity) in the
/// run report.
inline void record_value(const std::string& key, obs::Json value) {
  if (auto& report = detail::report()) {
    report->set_value(key, std::move(value));
  }
}

/// Attaches the metrics snapshot, writes BENCH_<ID>.json and returns the
/// process exit code. Intended as `return bench::finish();` from main().
inline int finish() {
  auto& report = detail::report();
  if (!report.has_value()) return 0;
  report->attach_metrics();
  const std::string path = report->default_path();
  report->write(path);
  std::printf("\nreport: %s\n", path.c_str());
  report.reset();
  return 0;
}

}  // namespace dut::bench
