// dut_cli — command-line front end for the planners and testers.
//
//   dut_cli plan-threshold --n 65536 --k 8192 --eps 0.9 [--p 0.25]
//                          [--chernoff]
//   dut_cli plan-and       --n 131072 --k 16384 --eps 1.2 [--p 0.33]
//   dut_cli plan-congest   --n 4096 --k 4096 --eps 1.2 [--samples 4]
//   dut_cli run-threshold  --n 65536 --k 8192 --eps 0.9 --family paninski
//                          [--trials 100] [--seed 1]
//   dut_cli run-congest    --n 4096 --k 4096 --eps 1.2 --family paninski
//                          [--topology random] [--trials 20] [--seed 1]
//                          [--faults drop=0.05,dup=0.01,crash=3@0+17@12]
//                          [--quorum Q] [--retransmits R] [--workers W]
//   dut_cli serve          --streams 1048576 --shards 8 --zipf 0.99
//                          --duration-epochs 12 [--n 4096] [--eps 1.6]
//                          [--p 0.33] [--far-every 16] [--batch B]
//                          [--threads W] [--seed S]
//   dut_cli families       --n 4096
//
// Families for run-threshold / run-congest: uniform, paninski, heavy (20%
// hitter), zipf (exponent 1), support (half support removed).
//
// serve runs the sharded streaming verdict service (DESIGN.md §15) for a
// fixed number of epochs and prints per-epoch decisions, sequential sample
// savings against the fixed m*s budget, epochs-to-verdict latency
// percentiles, and an FNV digest of the full verdict stream. Everything
// except the `timing:`-prefixed wall-clock lines is a pure function of the
// flags — tools/run_smoke.sh --serve diffs the output across thread and
// shard counts.
//
// Every flag value is parsed strictly: an integer must be all decimal
// digits (obs::parse_u64 semantics), a real must parse whole, and both must
// lie in the flag's range; anything else is a usage error (exit status 2),
// never a silent default or a truncated value. So is a flag the command
// does not take: a mistyped `--trails 5` is refused, not ignored.
//
// --faults takes a net::FaultPlan spec (drop= dup= corrupt= delay=P[:MAX]
// crash=NODE@ROUND[+...] seed=S) and switches run-congest to the resilient
// protocol with timeout-and-quorum decisions.
//
// --workers W runs the sweep sharded over W rank processes through
// congest::run_congest_uniformity_sharded: ranks 1..W-1 are forked over an
// anonymous shm segment, and the merged verdicts are bit-identical to the
// single-process run at the same seeds (the transport_congest_gate ctest
// target holds this equality).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dut/dut.hpp"
#include "dut/obs/phase_timer.hpp"

namespace {

using namespace dut;

[[noreturn]] void usage(const char* message = nullptr) {
  if (message != nullptr) std::fprintf(stderr, "error: %s\n\n", message);
  std::fprintf(stderr,
               "usage: dut_cli <command> [--flag value ...]\n"
               "commands:\n"
               "  plan-threshold --n N --k K --eps E [--p P] [--chernoff]\n"
               "  plan-and       --n N --k K --eps E [--p P]\n"
               "  plan-congest   --n N --k K --eps E [--p P] [--samples S]\n"
               "  run-threshold  --n N --k K --eps E [--family F]\n"
               "                 [--trials T] [--seed S]\n"
               "  run-congest    --n N --k K --eps E [--family F]\n"
               "                 [--topology random|ring|star|line|grid]\n"
               "                 [--trials T] [--seed S] [--faults SPEC]\n"
               "                 [--quorum Q] [--retransmits R] [--workers W]\n"
               "  serve          [--streams S] [--shards H] [--zipf THETA]\n"
               "                 [--duration-epochs E] [--n N] [--eps E]\n"
               "                 [--p P] [--far-every F] [--batch B]\n"
               "                 [--threads W] [--seed S] [--chernoff]\n"
               "  families       --n N\n");
  std::exit(2);
}

// The flags of one command line. Each accessor records the flag it reads,
// so refuse_unread() can reject every flag the command does not take.
class Args {
 public:
  Args(int argc, char** argv, std::string command)
      : command_(std::move(command)) {
    for (int i = 2; i < argc; ++i) {
      std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0) usage("flags must start with --");
      flag = flag.substr(2);
      // Boolean flags take no value; detect by lookahead.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[flag] = argv[++i];
      } else {
        values_[flag] = "1";
      }
    }
  }

  /// The value of --flag as a decimal integer in [min, max]; `fallback`
  /// when the flag is absent and not `required`.
  std::uint64_t integer(
      const std::string& flag, std::uint64_t fallback, bool required = false,
      std::uint64_t min = 0,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const {
    const auto it = find(flag);
    if (it == values_.end()) {
      if (required) usage(("missing required --" + flag).c_str());
      return fallback;
    }
    const std::optional<std::uint64_t> value =
        obs::parse_u64(it->second.c_str(), min, max);
    if (!value) {
      usage(("--" + flag + " wants an integer in [" + std::to_string(min) +
             ", " + std::to_string(max) + "], got '" + it->second + "'")
                .c_str());
    }
    return *value;
  }

  /// The value of --flag as a finite real in [min, max]; `fallback` when
  /// the flag is absent and not `required`.
  double real(const std::string& flag, double fallback, bool required = false,
              double min = std::numeric_limits<double>::lowest(),
              double max = std::numeric_limits<double>::max()) const {
    const auto it = find(flag);
    if (it == values_.end()) {
      if (required) usage(("missing required --" + flag).c_str());
      return fallback;
    }
    const char* raw = it->second.c_str();
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(raw, &end);
    if (end == raw || *end != '\0' || errno == ERANGE ||
        !std::isfinite(value) || value < min || value > max) {
      std::ostringstream message;
      message << "--" << flag << " wants a real in [" << min << ", " << max
              << "], got '" << it->second << "'";
      usage(message.str().c_str());
    }
    return value;
  }

  std::string text(const std::string& flag, const std::string& fallback) const {
    const auto it = find(flag);
    return it == values_.end() ? fallback : it->second;
  }

  bool flag(const std::string& name) const {
    return find(name) != values_.end();
  }

  /// A usage error naming the first flag no accessor has read. Commands
  /// call it once they have read all their flags, before they run.
  void refuse_unread() const {
    for (const auto& [flag, value] : values_) {
      if (read_.count(flag) == 0) {
        usage((command_ + " does not take --" + flag).c_str());
      }
    }
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& flag) const {
    read_.insert(flag);
    return values_.find(flag);
  }

  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

void print(const stats::TextTable& table) {
  std::ostringstream os;
  table.print(os);
  std::fputs(os.str().c_str(), stdout);
}

core::Distribution make_family(const std::string& name, std::uint64_t n,
                               double eps) {
  if (name == "uniform") return core::uniform(n);
  if (name == "paninski") return core::far_instance(n, eps);
  if (name == "heavy") return core::heavy_hitter(n, 0.2);
  if (name == "zipf") return core::zipf(n, 1.0);
  if (name == "support") return core::restricted_support(n, n / 2);
  usage(("unknown family '" + name + "'").c_str());
}

int plan_threshold_cmd(const Args& args) {
  const std::uint64_t n = args.integer("n", 0, true);
  const std::uint64_t k = args.integer("k", 0, true);
  const double eps = args.real("eps", 0.0, true);
  const double p = args.real("p", 1.0 / 3.0);
  const auto bound = args.flag("chernoff") ? core::TailBound::kChernoff
                                           : core::TailBound::kExactBinomial;
  args.refuse_unread();
  const auto plan = core::plan_threshold(n, k, eps, p, bound);
  if (!plan.feasible) {
    std::printf("infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  stats::TextTable table({"quantity", "value"});
  table.row().add("samples per node").add(plan.base.s);
  table.row().add("reject threshold T").add(plan.threshold);
  table.row().add("per-node delta").add(plan.base.delta, 4);
  table.row().add("gap alpha").add(plan.base.alpha, 4);
  table.row().add("E[rejects | uniform]").add(plan.eta_uniform, 4);
  table.row().add("E[rejects | far] (min)").add(plan.eta_far, 4);
  table.row().add("P[false reject] bound").add(plan.bound_false_reject, 4);
  table.row().add("P[false accept] bound").add(plan.bound_false_accept, 4);
  print(table);
  return 0;
}

int plan_and_cmd(const Args& args) {
  const std::uint64_t n = args.integer("n", 0, true);
  const std::uint64_t k = args.integer("k", 0, true);
  const double eps = args.real("eps", 0.0, true);
  const double p = args.real("p", 1.0 / 3.0);
  args.refuse_unread();
  const auto plan = core::plan_and_rule(n, k, eps, p);
  if (!plan.feasible) {
    std::printf("infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  stats::TextTable table({"quantity", "value"});
  table.row().add("repetitions m").add(plan.repetitions);
  table.row().add("samples per run").add(plan.base.s);
  table.row().add("samples per node").add(plan.samples_per_node);
  table.row().add("guaranteed completeness").add(plan.guaranteed_completeness,
                                                 4);
  table.row().add("guaranteed soundness").add(plan.guaranteed_soundness, 4);
  print(table);
  return 0;
}

int plan_congest_cmd(const Args& args) {
  const std::uint64_t n = args.integer("n", 0, true);
  const auto k = static_cast<std::uint32_t>(
      args.integer("k", 0, true, 0, 0xffffffffull));
  const double eps = args.real("eps", 0.0, true);
  const double p = args.real("p", 1.0 / 3.0);
  const std::uint64_t samples = args.integer("samples", 1);
  args.refuse_unread();
  const auto plan = congest::plan_congest(
      n, k, eps, p, core::TailBound::kExactBinomial, samples);
  if (!plan.feasible) {
    std::printf("infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  stats::TextTable table({"quantity", "value"});
  table.row().add("package size tau").add(plan.tau);
  table.row().add("virtual nodes (packages)").add(plan.num_packages);
  table.row().add("reject threshold T").add(plan.threshold);
  table.row().add("message budget (bits)").add(plan.bandwidth_bits);
  table.row().add("round complexity").add("O(D + " +
                                          std::to_string(plan.tau) + ")");
  print(table);
  return 0;
}

int run_threshold_cmd(const Args& args) {
  const std::uint64_t n = args.integer("n", 0, true);
  const std::uint64_t k = args.integer("k", 0, true);
  const double eps = args.real("eps", 0.0, true);
  const double p = args.real("p", 1.0 / 3.0);
  const std::uint64_t trials = args.integer("trials", 100);
  const std::uint64_t seed = args.integer("seed", 1);
  const std::string family = args.text("family", "uniform");
  args.refuse_unread();

  const auto plan = core::plan_threshold(n, k, eps, p,
                                         core::TailBound::kExactBinomial);
  if (!plan.feasible) {
    std::printf("infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  const core::Distribution mu = make_family(family, n, eps);
  const core::AliasSampler sampler(mu);
  const auto reject = stats::estimate_probability(
      seed, trials, [&](stats::Xoshiro256& rng) {
        return core::run_threshold_network(plan, sampler, rng).rejects();
      });
  std::printf("family=%s  L1(mu,U)=%.3f  chi*n=%.3f\n", family.c_str(),
              mu.l1_to_uniform(),
              mu.collision_probability() * static_cast<double>(n));
  std::printf("network rejected %llu / %llu runs (rate %.3f, 99.99%% CI "
              "[%.3f, %.3f])\n",
              static_cast<unsigned long long>(reject.successes),
              static_cast<unsigned long long>(reject.trials), reject.p_hat,
              reject.lo, reject.hi);
  return 0;
}

net::Graph make_topology(const std::string& name, std::uint32_t k) {
  if (name == "random") return net::Graph::random_connected(k, 2.0, 11);
  if (name == "ring") return net::Graph::ring(k);
  if (name == "star") return net::Graph::star(k);
  if (name == "line") return net::Graph::line(k);
  if (name == "grid") {
    std::uint32_t rows = 1;
    while ((rows + 1) * (rows + 1) <= k) ++rows;
    if (rows * rows != k) usage("--topology grid needs a square node count");
    return net::Graph::grid(rows, rows);
  }
  usage(("unknown topology '" + name + "'").c_str());
}

// Everything a run-congest invocation resolves from its flags.
struct CongestRun {
  congest::CongestPlan plan;
  net::Graph graph;
  core::Distribution mu;
  std::string family;
  std::uint64_t trials;
  std::uint64_t seed;
  std::optional<net::FaultPlan> faults;
  congest::CongestResilience resilience;
};

CongestRun make_congest_run(const Args& args) {
  const std::uint64_t n = args.integer("n", 0, true);
  const auto k = static_cast<std::uint32_t>(
      args.integer("k", 0, true, 0, 0xffffffffull));
  const double eps = args.real("eps", 0.0, true);
  const double p = args.real("p", 1.0 / 3.0);
  const std::string fault_spec = args.text("faults", "");

  CongestRun run{congest::plan_congest(n, k, eps, p),
                 make_topology(args.text("topology", "random"), k),
                 make_family(args.text("family", "uniform"), n, eps),
                 args.text("family", "uniform"),
                 args.integer("trials", 20),
                 args.integer("seed", 1),
                 std::nullopt,
                 congest::CongestResilience{}};
  run.resilience.enabled = !fault_spec.empty() || args.flag("quorum") ||
                           args.flag("retransmits");
  if (run.resilience.enabled) {
    run.faults = net::FaultPlan::parse(fault_spec);
    run.resilience.retransmits = args.integer("retransmits", 2);
    run.resilience.quorum_nodes = args.integer("quorum", 0);
  }
  return run;
}

void print_congest_summary(const CongestRun& run,
                           const std::vector<congest::CongestRunResult>& rs) {
  std::uint64_t rejects = 0;
  std::uint64_t quorum_misses = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t rounds = 0;
  for (const congest::CongestRunResult& r : rs) {
    rejects += r.verdict.rejects();
    quorum_misses += !r.quorum_met;
    faults_injected += r.metrics.faults.total();
    rounds = r.metrics.rounds;
  }
  std::printf("family=%s  L1(mu,U)=%.3f  protocol=%s\n", run.family.c_str(),
              run.mu.l1_to_uniform(),
              run.resilience.enabled ? "resilient" : "plain");
  std::printf("network rejected %llu / %llu runs  (last run: %llu rounds)\n",
              static_cast<unsigned long long>(rejects),
              static_cast<unsigned long long>(rs.size()),
              static_cast<unsigned long long>(rounds));
  if (run.resilience.enabled) {
    std::printf("quorum missed in %llu runs; %llu faults injected in total\n",
                static_cast<unsigned long long>(quorum_misses),
                static_cast<unsigned long long>(faults_injected));
  }
}

int run_congest_cmd(const Args& args) {
  const std::uint64_t workers =
      args.integer("workers", 0, false, 0, net::shm::kMaxRanks);
  const CongestRun run = make_congest_run(args);
  args.refuse_unread();
  if (!run.plan.feasible) {
    std::printf("infeasible: %s\n", run.plan.infeasible_reason.c_str());
    return 1;
  }
  const core::AliasSampler sampler(run.mu);
  const net::FaultPlan* faults =
      run.faults.has_value() ? &*run.faults : nullptr;

  std::vector<congest::CongestRunResult> results;
  if (workers > 1) {
    congest::ShardedCongestOptions options;
    options.num_ranks = static_cast<std::uint32_t>(workers);
    for (std::uint64_t t = 0; t < run.trials; ++t) {
      options.seeds.push_back(run.seed + t);
    }
    options.resilience = run.resilience;
    options.faults = faults;
    // Forks the worker ranks. This process has started no thread for the
    // children to miss: run-congest never touches stats::global_runner().
    results = congest::run_congest_uniformity_sharded(run.plan, run.graph,
                                                      sampler, options);
    std::printf("sharded over %u rank processes\n", options.num_ranks);
  } else {
    congest::CongestSetup setup = congest::make_congest_setup(
        run.plan, run.graph, run.resilience, faults);
    results.reserve(run.trials);
    for (std::uint64_t t = 0; t < run.trials; ++t) {
      results.push_back(congest::run_congest_uniformity(
          run.plan, setup, sampler, run.seed + t));
    }
  }
  print_congest_summary(run, results);
  return 0;
}

int serve_cmd(const Args& args) {
  serve::ServeConfig config;
  config.domain = args.integer("n", 1 << 12, false, 2, 0xffffffffull);
  config.epsilon = args.real("eps", 1.6, false, 1e-3, 2.0);
  config.error = args.real("p", 1.0 / 3.0, false, 1e-6, 0.499);
  config.bound = args.flag("chernoff") ? core::TailBound::kChernoff
                                       : core::TailBound::kExactBinomial;
  config.streams = args.integer("streams", 1024, false, 1, 0xffffffffull);
  config.shards =
      static_cast<std::uint32_t>(args.integer("shards", 1, false, 1, 1 << 16));
  config.threads =
      static_cast<unsigned>(args.integer("threads", 0, false, 0, 1024));
  config.zipf_theta = args.real("zipf", 0.99, false, 0.0, 32.0);
  config.far_every = args.integer("far-every", 16, false, 0, 0xffffffffull);
  config.batch_per_epoch =
      args.integer("batch", 0, false, 0, std::uint64_t{1} << 32);
  config.seed = args.integer("seed", 1, false, 0, ~std::uint64_t{0} - 1);
  const std::uint64_t epochs =
      args.integer("duration-epochs", 8, false, 1, 1 << 20);
  args.refuse_unread();

  // Reject-with-message on infeasible (n, eps, p) regimes, matching the
  // planners above (and FleetMonitor's construction contract).
  const serve::StreamPlan plan =
      serve::plan_stream(config.domain, config.epsilon, config.error,
                         config.bound, config.max_windows);
  if (!plan.feasible) {
    std::printf("infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }

  serve::VerdictService service(config);
  std::printf(
      "serve plan: n=%llu eps=%.3f p=%.3f windows=%llu window-samples=%llu "
      "threshold=%llu fixed-budget=%llu\n",
      static_cast<unsigned long long>(config.domain), config.epsilon,
      config.error, static_cast<unsigned long long>(plan.windows()),
      static_cast<unsigned long long>(plan.window_samples()),
      static_cast<unsigned long long>(plan.reject_threshold()),
      static_cast<unsigned long long>(plan.fixed_budget()));
  std::printf(
      "serve shape: streams=%llu shards=%u threads=%u zipf=%.3f "
      "far-every=%llu batch=%llu seed=%llu\n",
      static_cast<unsigned long long>(config.streams), config.shards,
      config.threads, config.zipf_theta,
      static_cast<unsigned long long>(config.far_every),
      static_cast<unsigned long long>(config.batch_per_epoch == 0
                                          ? config.streams
                                          : config.batch_per_epoch),
      static_cast<unsigned long long>(config.seed));

  // FNV-1a over every verdict's integer fields: one number that must match
  // across any thread/shard configuration.
  std::uint64_t digest = 1469598103934665603ull;
  const auto mix = [&digest](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (x >> (8 * b)) & 0xffull;
      digest *= 1099511628211ull;
    }
  };

  const obs::StopWatch watch;
  std::vector<std::uint64_t> latencies;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const serve::EpochResult result = service.run_epoch();
    for (const serve::StreamVerdict& v : result.verdicts) {
      mix(v.stream);
      mix(v.cycle);
      mix(v.first_epoch);
      mix(v.epoch);
      mix(static_cast<std::uint64_t>(v.verdict.status));
      mix(v.verdict.votes_reject);
      mix(v.verdict.votes_total);
      mix(v.verdict.samples_consumed);
      latencies.push_back(v.epoch - v.first_epoch + 1);
    }
    std::printf("epoch %llu: arrivals=%llu verdicts=%zu accepts=%llu "
                "rejects=%llu\n",
                static_cast<unsigned long long>(result.epoch),
                static_cast<unsigned long long>(result.arrivals),
                result.verdicts.size(),
                static_cast<unsigned long long>(result.accepts),
                static_cast<unsigned long long>(result.rejects));
  }
  const double wall = watch.seconds();

  const serve::ServeTotals& totals = service.totals();
  std::printf("totals: epochs=%llu arrivals=%llu accepts=%llu rejects=%llu\n",
              static_cast<unsigned long long>(totals.epochs),
              static_cast<unsigned long long>(totals.arrivals),
              static_cast<unsigned long long>(totals.accepts),
              static_cast<unsigned long long>(totals.rejects));
  const auto mean = [](std::uint64_t samples, std::uint64_t count) {
    return count == 0 ? 0.0
                      : static_cast<double>(samples) /
                            static_cast<double>(count);
  };
  std::printf(
      "samples: mean/accept=%.1f mean/reject=%.1f fixed-budget=%llu\n",
      mean(totals.accept_samples, totals.accepts),
      mean(totals.reject_samples, totals.rejects),
      static_cast<unsigned long long>(plan.fixed_budget()));
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    const auto quantile = [&latencies](double q) {
      const std::size_t idx = static_cast<std::size_t>(
          q * static_cast<double>(latencies.size() - 1));
      return latencies[idx];
    };
    std::printf("latency epochs: p50=%llu p99=%llu max=%llu\n",
                static_cast<unsigned long long>(quantile(0.50)),
                static_cast<unsigned long long>(quantile(0.99)),
                static_cast<unsigned long long>(latencies.back()));
  }
  std::printf("verdict digest: %016llx\n",
              static_cast<unsigned long long>(digest));
  // Wall-clock numbers are not deterministic; the `timing:` prefix lets
  // smoke scripts filter them before diffing configurations.
  std::printf("timing: wall=%.3fs throughput=%.0f arrivals/s\n", wall,
              wall > 0.0 ? static_cast<double>(totals.arrivals) / wall : 0.0);
  return 0;
}

int families_cmd(const Args& args) {
  const std::uint64_t n = args.integer("n", 4096);
  args.refuse_unread();
  stats::TextTable table({"family", "L1 to uniform", "chi * n", "entropy"});
  struct Row {
    const char* name;
    core::Distribution mu;
  };
  const Row rows[] = {
      {"uniform", core::uniform(n)},
      {"paninski eps=0.5", core::paninski_two_bump(n, 0.5)},
      {"paninski eps=1.0", core::paninski_two_bump(n, 1.0)},
      {"heavy hitter 20%", core::heavy_hitter(n, 0.2)},
      {"zipf s=1.0", core::zipf(n, 1.0)},
      {"support 1/2", core::restricted_support(n, n / 2)},
      {"step 25% x4", core::step(n, 0.25, 4.0)},
  };
  for (const Row& row : rows) {
    table.row()
        .add(row.name)
        .add(row.mu.l1_to_uniform(), 4)
        .add(row.mu.collision_probability() * static_cast<double>(n), 4)
        .add(row.mu.entropy(), 4);
  }
  print(table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Args args(argc, argv, command);
  try {
    if (command == "plan-threshold") return plan_threshold_cmd(args);
    if (command == "plan-and") return plan_and_cmd(args);
    if (command == "plan-congest") return plan_congest_cmd(args);
    if (command == "run-threshold") return run_threshold_cmd(args);
    if (command == "run-congest") return run_congest_cmd(args);
    if (command == "serve") return serve_cmd(args);
    if (command == "families") return families_cmd(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  usage(("unknown command '" + command + "'").c_str());
}
