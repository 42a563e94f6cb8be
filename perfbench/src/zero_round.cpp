// zero_round: the 0-round threshold-rule Monte-Carlo loop (Theorem 1.2)
// behind E1-E6, E12-E14 and `dut_cli run-threshold`. Network trials at
// n = 2^16, k = 8192, eps = 0.9, p = 1/3 with exact tails (s = 9, T = 6),
// half uniform and half Paninski-far, run through
// stats::TrialRunner::estimate_probability on kPoolThreads threads.
//
// Latency is taken per estimate: one uniform batch followed by one far
// batch. Single trials form two modes (far trials are slower: the
// two-bump alias table mispredicts its accept branch), so a per-trial
// median would jump between the modes.
//
// The traced run replaces each run_threshold_network call by the per-node
// sample_into and has_collision calls SingleCollisionTester::run makes, in
// the same RNG order, timed with one clock read after each call; the node
// times are folded into per-trial aggregates. Each timed interval also holds
// one clock read, whose calibrated cost is moved from the core layers into
// an obs.clock_reads aggregate, so the core figures are the calls' own.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "dut/core/families.hpp"
#include "dut/core/gap_tester.hpp"
#include "dut/core/sampler.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/stats/bounds.hpp"
#include "dut/stats/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dut;

struct Config {
  std::uint64_t n;
  std::uint64_t k;
  double epsilon;
  unsigned threads;
  std::uint64_t batch;  ///< trials per estimate_probability call (one side)
  /// Trials per traced-run pass per second of --seconds: a fixed count, so
  /// exact counts never depend on speed, sized so the untraced and traced
  /// passes together take about --seconds on the reference host.
  double traced_trials_per_s;
};

Config config_for(Size size) {
  if (size == Size::kTiny) {
    return Config{1 << 13, 2048, 0.9, kPoolThreads, 32, 2000};
  }
  return Config{1 << 16, 8192, 0.9, kPoolThreads, 64, 800};
}

enum Side : unsigned { kUniform = 0, kFar = 1 };

constexpr std::uint64_t kWarmupTag = 0x77A1;
constexpr std::uint64_t kBatchTag = 0xBA7C;

struct Setup {
  core::ThresholdPlan plan;
  std::optional<core::AliasSampler> samplers[2];
  std::unique_ptr<stats::TrialRunner> runner;
  double plan_ms = 0;
  double alias_ms = 0;
  double setup_s = 0;
};

/// Per-batch outcome; the traced replay must reproduce it exactly.
struct BatchOutcome {
  std::uint64_t errors = 0;  ///< false rejects (uniform) / accepts (far)
  std::uint64_t votes = 0;   ///< summed rejecting nodes
  std::uint64_t votes_sq = 0;
  bool operator==(const BatchOutcome&) const = default;
};

bool is_error(Side side, const core::Verdict& v) {
  return side == kUniform ? v.rejects() : v.accepts;
}

std::uint64_t batch_seed(std::uint64_t seed, std::uint64_t b) {
  return mix_seed(seed, kBatchTag, b);
}

/// One untraced batch of `trials` network trials on `side`.
BatchOutcome run_batch(Setup& s, Side side, std::uint64_t seed,
                       std::uint64_t trials, Ledger& ledger) {
  std::atomic<std::uint64_t> votes{0};
  std::atomic<std::uint64_t> votes_sq{0};
  const core::AliasSampler& sampler = *s.samplers[side];
  const stats::ProbabilityEstimate est = s.runner->estimate_probability(
      seed, trials, [&](stats::Xoshiro256& rng) {
        bool error = false;
        try {
          const core::Verdict v =
              core::run_threshold_network(s.plan, sampler, rng);
          if (v.votes_total != s.plan.k) {
            ledger.fail("threshold trial counted " +
                        std::to_string(v.votes_total) + " voters, not k");
          }
          votes.fetch_add(v.votes_reject, std::memory_order_relaxed);
          votes_sq.fetch_add(v.votes_reject * v.votes_reject,
                             std::memory_order_relaxed);
          error = is_error(side, v);
        } catch (const std::exception& e) {
          ledger.fail(std::string("threshold trial threw: ") + e.what());
        }
        return error;
      });
  return BatchOutcome{est.successes, votes.load(), votes_sq.load()};
}

/// Median cost of one now_ns() call, in nanoseconds.
double clock_read_ns() {
  constexpr int kReads = 1024;
  std::vector<double> per_read;
  std::int64_t sink = 0;
  for (int rep = 0; rep < 64; ++rep) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < kReads; ++i) sink ^= now_ns();
    per_read.push_back(static_cast<double>(now_ns() - start) / kReads);
  }
  return sink == 1 ? 0.0 : median(per_read);
}

/// The same batch with per-node spans (see the file comment).
BatchOutcome run_batch_traced(Setup& s, Side side, std::uint64_t seed,
                              std::uint64_t trials, Trace& trace,
                              std::uint32_t parent, double clock_ns,
                              Ledger& ledger) {
  std::atomic<std::uint64_t> votes{0};
  std::atomic<std::uint64_t> votes_sq{0};
  const core::AliasSampler& sampler = *s.samplers[side];
  const core::ThresholdPlan& plan = s.plan;
  const stats::ProbabilityEstimate est = s.runner->estimate_probability(
      seed, trials, [&](stats::Xoshiro256& rng) {
        static thread_local std::vector<std::uint64_t> samples;
        const std::int64_t start = now_ns();
        std::int64_t mark = start;
        std::int64_t sample_ns = 0;
        std::int64_t collision_ns = 0;
        std::uint64_t rejecting = 0;
        bool error = false;
        try {
          for (std::uint64_t node = 0; node < plan.k; ++node) {
            sampler.sample_into(rng, plan.base.s, samples);
            const std::int64_t sampled = now_ns();
            const bool hit = core::has_collision(samples, plan.base.n);
            const std::int64_t decided = now_ns();
            sample_ns += sampled - mark;
            collision_ns += decided - sampled;
            mark = decided;
            rejecting += hit ? 1 : 0;
          }
          const core::Verdict v = core::Verdict::make(
              rejecting < plan.threshold, rejecting, plan.k);
          votes.fetch_add(v.votes_reject, std::memory_order_relaxed);
          votes_sq.fetch_add(v.votes_reject * v.votes_reject,
                             std::memory_order_relaxed);
          error = is_error(side, v);
        } catch (const std::exception& e) {
          ledger.fail(std::string("traced threshold trial threw: ") +
                      e.what());
        }
        const std::uint32_t id = trace.record("core.threshold_network", parent,
                                              start, now_ns(), 1);
        const auto reads_ns = static_cast<std::int64_t>(
            std::llround(clock_ns * static_cast<double>(plan.k)));
        trace.aggregate("core.sample_into", id, plan.k, plan.k * plan.base.s,
                        sample_ns - reads_ns);
        trace.aggregate("core.has_collision", id, plan.k, rejecting,
                        collision_ns - reads_ns);
        trace.aggregate("obs.clock_reads", id, 2 * plan.k, 0, 2 * reads_ns);
        return error;
      });
  return BatchOutcome{est.successes, votes.load(), votes_sq.load()};
}

/// Plan, distributions and alias tables, trial pool, then one warm-up trial
/// per side on every pool lane (its thread-local sample buffer and
/// collision bitmap exist afterwards).
std::unique_ptr<Setup> build_setup(const Config& c, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const std::int64_t start = now_ns();
  s->plan = core::plan_threshold(c.n, c.k, c.epsilon, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial);
  if (!s->plan.feasible) {
    throw ConfigError("zero_round plan infeasible: " +
                      s->plan.infeasible_reason);
  }
  s->plan_ms = ms_since(start);
  const std::int64_t alias_start = now_ns();
  s->samplers[kUniform].emplace(core::uniform(c.n));
  s->samplers[kFar].emplace(core::paninski_two_bump(c.n, c.epsilon));
  s->alias_ms = ms_since(alias_start);
  s->runner = std::make_unique<stats::TrialRunner>(c.threads);

  for (const Side side : {kUniform, kFar}) {
    LaneBarrier barrier(c.threads);
    (void)s->runner->estimate_probability(
        mix_seed(seed, kWarmupTag, side), c.threads,
        [&](stats::Xoshiro256& rng) {
          barrier.arrive();
          return core::run_threshold_network(s->plan, *s->samplers[side], rng)
              .rejects();
        });
  }
  s->setup_s = static_cast<double>(now_ns() - start) * 1e-9;
  return s;
}

void check_error_rates(const core::ThresholdPlan& plan,
                       const std::uint64_t errors[2],
                       const std::uint64_t trials[2], Ledger& ledger) {
  const double bounds[2] = {plan.bound_false_reject, plan.bound_false_accept};
  const char* names[2] = {"false_reject_not_above_bound",
                          "false_accept_not_above_bound"};
  for (const Side side : {kUniform, kFar}) {
    const stats::WilsonInterval ci =
        stats::wilson_interval(errors[side], trials[side], kWilsonZ);
    ledger.check(names[side], ci.lo <= bounds[side],
                 std::to_string(errors[side]) + "/" +
                     std::to_string(trials[side]) + " errors, Wilson lo " +
                     std::to_string(ci.lo) + " vs bound " +
                     std::to_string(bounds[side]));
  }
}

}  // namespace

void run_zero_round(const Options& options, RunReport& report) {
  const Config c = config_for(options.size);
  report.threads = c.threads;
  report.ranks = 1;
  require_hardware(c.threads, 1);

  std::vector<double> setup_s;
  std::vector<double> plan_ms;
  std::vector<double> alias_ms;
  const auto record_setup = [&](const Setup& built) {
    setup_s.push_back(built.setup_s);
    plan_ms.push_back(built.plan_ms);
    alias_ms.push_back(built.alias_ms);
  };
  std::unique_ptr<Setup> setup = build_setup(c, options.seed);
  record_setup(*setup);
  for (unsigned rep = 1; options.trace && rep < setup_count(options.size);
       ++rep) {
    record_setup(*build_setup(c, options.seed));
  }
  report.warmup.push_back(
      "estimate_probability: one uniform and one far trial on each of the " +
      std::to_string(c.threads) +
      " pool lanes (thread-local sample buffer and collision bitmap)");
  Setup& s = *setup;
  report.details.push_back(Metric{"plan.samples_per_node",
                                  static_cast<double>(s.plan.base.s),
                                  "count"});
  report.details.push_back(
      Metric{"plan.threshold", static_cast<double>(s.plan.threshold), "count"});

  if (!options.trace) {
    std::vector<double> estimate_ms;
    std::vector<Step> steps;
    std::uint64_t errors[2] = {0, 0};
    std::uint64_t trials[2] = {0, 0};
    SetupProbes probes(options.seconds, setup_count(options.size) - 1);
    std::int64_t measured_ns = 0;
    const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::uint64_t pair = 0;
         pair < kMinOps || measured_ns < budget_ns; ++pair) {
      probes.between(measured_ns,
                     [&] { record_setup(*build_setup(c, options.seed)); });
      const std::int64_t start = now_ns();
      for (const Side side : {kUniform, kFar}) {
        const BatchOutcome out =
            run_batch(s, side, batch_seed(options.seed, 2 * pair + side),
                      c.batch, report.ledger);
        errors[side] += out.errors;
        trials[side] += c.batch;
      }
      const std::int64_t took = now_ns() - start;
      measured_ns += took;
      estimate_ms.push_back(static_cast<double>(took) * 1e-6);
      steps.push_back(Step{estimate_ms.back(),
                           static_cast<double>(2 * c.batch),
                           {estimate_ms.back()}});
      report.ledger.attempt(2 * c.batch);
    }
    const double elapsed_s = static_cast<double>(measured_ns) * 1e-9;
    const double rss = probes.peak_rss_mib();
    check_error_rates(s.plan, errors, trials, report.ledger);
    const double total = static_cast<double>(trials[0] + trials[1]);
    emit_end_to_end(report, median(setup_s), steps, rss);
    report.details.push_back(
        Metric{"trials_per_s", total / elapsed_s, "trials/s"});
    report.details.push_back(Metric{"estimate_ms_p50",
                                    quantile(estimate_ms, 0.50), "ms"});
    report.details.push_back(Metric{"estimate_ms_p95",
                                    quantile(estimate_ms, 0.95), "ms"});
    report.details.push_back(Metric{"timed_trials", total, "count"});
    return;
  }

  // Traced: a fixed trial count, untraced then traced, same seeds.
  const auto batches = static_cast<std::uint64_t>(std::max(
      2.0, 2.0 * std::ceil(c.traced_trials_per_s * options.seconds /
                           static_cast<double>(2 * c.batch))));
  std::vector<BatchOutcome> plain(batches);
  const std::int64_t plain_start = now_ns();
  for (std::uint64_t b = 0; b < batches; ++b) {
    plain[b] = run_batch(s, b % 2 == 0 ? kUniform : kFar,
                         batch_seed(options.seed, b), c.batch, report.ledger);
  }
  const double plain_ms = ms_since(plain_start);

  std::vector<BatchOutcome> traced(batches);
  const double clock_ns = clock_read_ns();
  Trace trace(c.threads);
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint32_t id =
        trace.open("stats.estimate_probability", Trace::kRoot, c.threads);
    traced[b] = run_batch_traced(s, b % 2 == 0 ? kUniform : kFar,
                                 batch_seed(options.seed, b), c.batch, trace,
                                 id, clock_ns, report.ledger);
    trace.close(id, c.batch);
  }
  trace.finish();
  report.ledger.attempt(2 * batches * c.batch);
  report.ledger.check("traced_outcomes_match_untraced", plain == traced,
                      std::to_string(batches) +
                          " batches compared on errors and vote moments");
  std::uint64_t errors[2] = {0, 0};
  std::uint64_t trials[2] = {0, 0};
  for (std::uint64_t b = 0; b < batches; ++b) {
    errors[b % 2] += plain[b].errors;
    trials[b % 2] += c.batch;
  }
  check_error_rates(s.plan, errors, trials, report.ledger);

  const auto layers = trace.layers();
  const Trace::Layer& trial = layers.at("core.threshold_network");
  const Trace::Layer& sample = layers.at("core.sample_into");
  const Trace::Layer& collision = layers.at("core.has_collision");
  const double wall_ms = trace.wall_ms();
  const double gap = trace.closure_gap();
  report.ledger.check("trace_closure", gap <= kClosureTolerance,
                      "unattributed share " + std::to_string(gap));
  const double trials_traced = static_cast<double>(trial.spans);
  emit_per_layer(
      report,
      {{"stats.busy_share",
        trial.total_ns / (c.threads * wall_ms * 1e6)},
       {"core.plan_ms", median(plan_ms)},
       {"core.alias_build_ms", median(alias_ms)},
       {"core.sample_ns", sample.total_ns / static_cast<double>(sample.items)},
       {"core.collision_ns",
        collision.total_ns / static_cast<double>(collision.calls)},
       {"core.samples", static_cast<double>(sample.items) / trials_traced},
       {"core.collision_calls",
        static_cast<double>(collision.calls) / trials_traced},
       {"core.collision_hit_share", static_cast<double>(collision.items) /
                                        static_cast<double>(collision.calls)},
       {"obs.trace_overhead_share", wall_ms / plain_ms - 1.0},
       {"obs.closure_gap", gap}});
  report.details.push_back(Metric{"traced_trials", trials_traced, "count"});
  report.details.push_back(Metric{"clock_read_ns", clock_ns, "ns"});
  report.details.push_back(Metric{"untraced_wall_ms", plain_ms, "ms"});
  report.details.push_back(Metric{"traced_wall_ms", wall_ms, "ms"});
  for (const auto& [name, layer] : layers) {
    report.details.push_back(
        Metric{"self_ms." + name, layer.self_ns / c.threads * 1e-6, "ms"});
  }
  if (!options.trace_out.empty()) trace.write_jsonl(options.trace_out);
}

}  // namespace perfbench
