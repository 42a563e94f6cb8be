// dut_perfbench: runs one benchmark workload and prints two JSON lines, a
// record (host stamp, warm-up, checks, details) and the result
// {"correct", "attempted", "failed", "metrics"}.
//
//   dut_perfbench --workload <zero_round|congest_grid|congest_shm|serve_zipf>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--size full|tiny] [--trace-out <file.jsonl>]
//
// Exit codes: 0 all checks passed, 1 a check or operation failed (the
// result line says so), 2 bad arguments or a workload that cannot run on
// this host (no result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dut_perfbench: %s\nusage: dut_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--size full|tiny] "
               "[--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage("bad value for " + flag + ": " + text);
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + text);
  }
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
      if (o.seconds < 1 || o.seconds > 600) usage("--seconds out of range");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        usage("--size must be full or tiny");
      }
      o.size = value == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  void (*run)(const Options&, RunReport&) = nullptr;
  if (options.workload == "zero_round") {
    run = run_zero_round;
  } else if (options.workload == "congest_grid") {
    run = run_congest_grid;
  } else if (options.workload == "congest_shm") {
    run = run_congest_shm;
  } else if (options.workload == "serve_zipf") {
    run = run_serve_zipf;
  } else {
    usage("unknown workload " + options.workload);
  }

  RunReport report;
  try {
    run(options, report);
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "dut_perfbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // A failure outside any single operation (setup, a whole-run check):
    // the run reports itself incorrect.
    report.ledger.attempt();
    report.ledger.fail(std::string("run aborted: ") + e.what());
    report.metrics.clear();
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.ledger.check("metric_is_finite", false, m.name);
    }
  }
  return print_report(options, report);
}
