// congest_grid and congest_shm: the plain CONGEST tester (Theorem 1.4) at
// n = 2^12, k = 4096, eps = 1.2 (tau = 8, 512 packages, T = 5, 27-bit
// messages) on the 64x64 grid, E8's slowest case. Runs alternate between
// uniform and far inputs in blocks of kSideBlock, and run r always uses the
// seed mix_seed(seed, kRunTag, r), so both workloads see the same inputs.
//
//  * congest_grid fans the runs over stats::TrialRunner::map_trials on
//    kPoolThreads threads, each run one congest::run_congest_uniformity call.
//  * congest_shm delivers the same runs over ShmTransport with 2 rank
//    processes: one long-lived ShmSession + WorkerGroup per input side and
//    one coordinate_congest_uniformity call (one seed) per run, so every
//    run is timed on its own. The worker rank stays warm for the session's
//    life, but rank 0 rebuilds its CongestSetup, engine and ShmTransport in
//    every call. The gap between the two workloads is therefore the
//    transport plus that per-call rebuild (rank0_call_ms).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "dut/congest/sharded.hpp"
#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/protocol_driver.hpp"
#include "dut/net/transport/shm_session.hpp"
#include "dut/net/transport/worker_group.hpp"
#include "dut/stats/bounds.hpp"
#include "dut/stats/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dut;

struct Config {
  std::uint64_t n;
  std::uint32_t rows;
  std::uint32_t cols;
  double epsilon;
  unsigned threads;     ///< congest_grid trial pool width
  std::uint32_t ranks;  ///< congest_shm rank processes
  std::uint64_t batch;  ///< runs per map_trials call
  /// Runs per traced-run pass per second of --seconds, per workload (see
  /// zero_round.cpp's traced_trials_per_s).
  double traced_runs_per_s_grid;
  double traced_runs_per_s_shm;
};

Config config_for(Size size) {
  if (size == Size::kTiny) {
    return Config{1 << 12, 32, 32, 1.6, kPoolThreads, 2, 16, 40, 20};
  }
  return Config{1 << 12, 64, 64, 1.2, kPoolThreads, 2, 64, 16, 10};
}

enum Side : unsigned { kUniform = 0, kFar = 1 };

constexpr std::uint64_t kSideBlock = 8;
/// Rebuilds rank0_call_ms times.
constexpr std::uint64_t kCallCostReps = 16;
constexpr std::uint64_t kRunTag = 0xC0E5;
constexpr std::uint64_t kWarmupTag = 0x77A2;

Side side_of(std::uint64_t run) {
  return (run / kSideBlock) % 2 == 0 ? kUniform : kFar;
}

std::uint64_t run_seed(std::uint64_t seed, std::uint64_t run) {
  return mix_seed(seed, kRunTag, run);
}

/// Plan, graph and samplers: identical for both workloads.
struct Inputs {
  congest::CongestPlan plan;
  std::optional<net::Graph> graph;
  std::optional<core::AliasSampler> samplers[2];
  double plan_ms = 0;
  double graph_ms = 0;
  double alias_ms = 0;
};

void build_inputs(const Config& c, Inputs& in) {
  const std::uint32_t k = c.rows * c.cols;
  std::int64_t start = now_ns();
  in.plan = congest::plan_congest(c.n, k, c.epsilon);
  if (!in.plan.feasible) {
    throw ConfigError("congest plan infeasible: " + in.plan.infeasible_reason);
  }
  in.plan_ms = ms_since(start);
  start = now_ns();
  in.graph.emplace(net::Graph::grid(c.rows, c.cols));
  in.graph_ms = ms_since(start);
  start = now_ns();
  in.samplers[kUniform].emplace(core::uniform(c.n));
  in.samplers[kFar].emplace(core::far_instance(c.n, c.epsilon));
  in.alias_ms = ms_since(start);
}

/// Field-for-field equality of two full run results (verdict, metrics and
/// budget), as the transport gate compares them.
bool same_result(const congest::CongestRunResult& a,
                 const congest::CongestRunResult& b) {
  return a.verdict.accepts == b.verdict.accepts &&
         a.verdict.votes_reject == b.verdict.votes_reject &&
         a.verdict.votes_total == b.verdict.votes_total &&
         a.verdict.rounds == b.verdict.rounds &&
         a.verdict.bits == b.verdict.bits &&
         a.num_packages == b.num_packages && a.leader == b.leader &&
         a.quorum_met == b.quorum_met &&
         a.nodes_reporting == b.nodes_reporting &&
         a.metrics.rounds == b.metrics.rounds &&
         a.metrics.messages == b.metrics.messages &&
         a.metrics.total_bits == b.metrics.total_bits &&
         a.metrics.max_message_bits == b.metrics.max_message_bits &&
         a.metrics.faults.total() == b.metrics.faults.total() &&
         a.metrics.budget.messages == b.metrics.budget.messages &&
         a.metrics.budget.max_edge_round_bits ==
             b.metrics.budget.max_edge_round_bits &&
         a.metrics.budget.max_node_bits == b.metrics.budget.max_node_bits &&
         a.metrics.budget.busiest_node == b.metrics.budget.busiest_node &&
         a.metrics.budget.violations == b.metrics.budget.violations;
}

/// One run: its index, its result, and its wall time.
struct RunRecord {
  std::uint64_t run = 0;
  bool ok = false;  ///< finished within the plan's invariants
  congest::CongestRunResult result;
  double ms = 0;
};

/// Records a finished run and counts it failed if it broke the plan's
/// invariants.
void accept_result(RunRecord& rec, const congest::CongestRunResult& r,
                   const congest::CongestPlan& plan, Ledger& ledger) {
  rec.result = r;
  rec.ok = true;
  if (r.num_packages != plan.num_packages) {
    rec.ok = false;
    ledger.fail("run " + std::to_string(rec.run) + " formed " +
                std::to_string(r.num_packages) + " packages, plan says " +
                std::to_string(plan.num_packages));
  }
  if (r.metrics.max_message_bits > plan.bandwidth_bits) {
    rec.ok = false;
    ledger.fail("run " + std::to_string(rec.run) + " sent a " +
                std::to_string(r.metrics.max_message_bits) +
                "-bit message over a " +
                std::to_string(plan.bandwidth_bits) + "-bit budget");
  }
}

bool is_error(Side side, const RunRecord& rec) {
  return side == kUniform ? rec.result.verdict.rejects()
                          : rec.result.verdict.accepts;
}

/// Error rates against Theorem 1.4's p = 1/3, by Wilson interval.
void check_error_rates(const congest::CongestPlan& plan,
                       const std::vector<RunRecord>& runs, Ledger& ledger) {
  std::uint64_t errors[2] = {0, 0};
  std::uint64_t count[2] = {0, 0};
  for (const RunRecord& rec : runs) {
    if (!rec.ok) continue;
    const Side side = side_of(rec.run);
    ++count[side];
    errors[side] += is_error(side, rec) ? 1 : 0;
  }
  const char* names[2] = {"false_reject_not_above_p",
                          "false_accept_not_above_p"};
  for (const Side side : {kUniform, kFar}) {
    const stats::WilsonInterval ci =
        stats::wilson_interval(errors[side], count[side], kWilsonZ);
    ledger.check(names[side], count[side] > 0 && ci.lo <= plan.p,
                 std::to_string(errors[side]) + "/" +
                     std::to_string(count[side]) + " errors, Wilson lo " +
                     std::to_string(ci.lo) + " vs p " +
                     std::to_string(plan.p));
  }
}

void check_replay(const std::vector<RunRecord>& plain,
                  const std::vector<RunRecord>& traced, Ledger& ledger) {
  bool same = plain.size() == traced.size();
  for (std::size_t i = 0; same && i < plain.size(); ++i) {
    same = plain[i].run == traced[i].run && plain[i].ok == traced[i].ok &&
           same_result(plain[i].result, traced[i].result);
  }
  ledger.check("traced_outcomes_match_untraced", same,
               std::to_string(plain.size()) + " runs compared field by field");
}

/// Per-run network counts and per-step costs shared by both workloads.
std::map<std::string, double> network_layers(
    const std::vector<RunRecord>& runs, std::uint32_t k) {
  double ns = 0;
  double rounds = 0;
  double messages = 0;
  double bits = 0;
  for (const RunRecord& rec : runs) {
    ns += rec.ms * 1e6;
    rounds += static_cast<double>(rec.result.metrics.rounds);
    messages += static_cast<double>(rec.result.metrics.messages);
    bits += static_cast<double>(rec.result.metrics.total_bits);
  }
  const double count = static_cast<double>(runs.size());
  return {{"net.rounds", rounds / count},
          {"net.messages", messages / count},
          {"net.bits", bits / count},
          {"net.node_round_ns", ns / (rounds * k)},
          {"net.message_ns", ns / messages}};
}

std::vector<double> run_times(const std::vector<RunRecord>& runs) {
  std::vector<double> ms;
  ms.reserve(runs.size());
  for (const RunRecord& rec : runs) ms.push_back(rec.ms);
  return ms;
}

/// End-to-end metrics of an untraced loop, plus their workload names over
/// the whole run.
void emit_runs(RunReport& report, double setup_s,
               const std::vector<RunRecord>& runs,
               const std::vector<Step>& steps, double elapsed_s, double rss) {
  const std::vector<double> ms = run_times(runs);
  const double count = static_cast<double>(runs.size());
  emit_end_to_end(report, setup_s, steps, rss);
  report.details.push_back(
      Metric{"runs_per_s", count / elapsed_s, "runs/s"});
  report.details.push_back(Metric{"run_ms_p50", quantile(ms, 0.50), "ms"});
  report.details.push_back(Metric{"run_ms_p95", quantile(ms, 0.95), "ms"});
  report.details.push_back(Metric{"timed_runs", count, "count"});
}

std::uint64_t traced_run_count(double runs_per_s, const Options& options) {
  return std::max<std::uint64_t>(
      2 * kSideBlock,
      static_cast<std::uint64_t>(std::ceil(runs_per_s * options.seconds)));
}

// --- congest_grid -----------------------------------------------------------

struct GridSetup {
  Inputs in;
  std::unique_ptr<congest::CongestSetup> setup;
  std::unique_ptr<stats::TrialRunner> runner;
  double driver_ms = 0;
  double warmup_ms = 0;
  double setup_s = 0;
};

RunRecord grid_run(GridSetup& g, std::uint64_t seed, std::uint64_t run,
                   Ledger& ledger, Trace* trace, std::uint32_t parent) {
  const std::int64_t start = now_ns();
  RunRecord rec;
  rec.run = run;
  try {
    accept_result(rec,
                  congest::run_congest_uniformity(
                      g.in.plan, *g.setup, *g.in.samplers[side_of(run)],
                      run_seed(seed, run), /*traced=*/false),
                  g.in.plan, ledger);
  } catch (const std::exception& e) {
    ledger.fail("run " + std::to_string(run) + " threw: " + e.what());
  }
  const std::int64_t end = now_ns();
  rec.ms = static_cast<double>(end - start) * 1e-6;
  if (trace != nullptr) {
    trace->record("congest.run_congest_uniformity", parent, start, end,
                  rec.result.metrics.rounds);
  }
  return rec;
}

/// Runs [first, first + count) over the trial pool; records in run order.
std::vector<RunRecord> grid_batch(GridSetup& g, std::uint64_t seed,
                                  std::uint64_t first, std::uint64_t count,
                                  Ledger& ledger, Trace* trace = nullptr,
                                  std::uint32_t parent = 0) {
  struct Partial {
    std::vector<RunRecord> runs;
  };
  Partial all = g.runner->map_trials<Partial>(
      count,
      [&](Partial& acc, std::uint64_t t) {
        acc.runs.push_back(grid_run(g, seed, first + t, ledger, trace, parent));
      },
      [](Partial& total, Partial&& part) {
        total.runs.insert(total.runs.end(), part.runs.begin(),
                          part.runs.end());
      });
  return std::move(all.runs);
}

std::unique_ptr<GridSetup> build_grid(const Config& c, std::uint64_t seed) {
  auto g = std::make_unique<GridSetup>();
  const std::int64_t start = now_ns();
  build_inputs(c, g->in);
  std::int64_t t = now_ns();
  g->setup.reset(new congest::CongestSetup(
      congest::make_congest_setup(g->in.plan, *g->in.graph)));
  g->runner = std::make_unique<stats::TrialRunner>(c.threads);
  g->driver_ms = ms_since(t);

  // One warm run on every pool lane: leases a pooled engine per worker and
  // grows its arenas and the thread-local collision workspace.
  t = now_ns();
  LaneBarrier barrier(c.threads);
  Ledger scratch;
  (void)g->runner->map_trials<int>(
      c.threads,
      [&](int&, std::uint64_t i) {
        barrier.arrive();
        (void)grid_run(*g, mix_seed(seed, kWarmupTag), i, scratch, nullptr, 0);
      },
      [](int&, int) {});
  if (scratch.failed() != 0) {
    throw std::runtime_error("congest_grid warm-up runs failed");
  }
  g->warmup_ms = ms_since(t);
  g->setup_s = static_cast<double>(now_ns() - start) * 1e-9;
  return g;
}

// --- congest_shm ------------------------------------------------------------

/// One input side's rank group: the session outlives the group that
/// references it (members destroy in reverse order).
struct ShmSide {
  std::optional<net::ShmSession> session;
  std::unique_ptr<net::WorkerGroup> group;
};

struct ShmSetup {
  Inputs in;
  congest::ShardedCongestOptions options;
  ShmSide sides[2];
  double driver_ms = 0;
  double session_ms = 0;
  double warmup_ms = 0;
  double setup_s = 0;
};

/// One coordinate_congest_uniformity call for runs [first, first + count),
/// which lie on one input side.
std::vector<congest::CongestRunResult> coordinate(ShmSetup& s,
                                                  std::uint64_t seed,
                                                  std::uint64_t first,
                                                  std::uint64_t count) {
  const Side side = side_of(first);
  congest::ShardedCongestOptions opts = s.options;
  for (std::uint64_t r = first; r < first + count; ++r) {
    opts.seeds.push_back(run_seed(seed, r));
  }
  return congest::coordinate_congest_uniformity(
      *s.sides[side].session, s.in.plan, *s.in.graph, *s.in.samplers[side],
      opts);
}

RunRecord shm_run(ShmSetup& s, std::uint64_t seed, std::uint64_t run,
                  Ledger& ledger, Trace* trace) {
  const std::int64_t start = now_ns();
  RunRecord rec;
  rec.run = run;
  try {
    const std::vector<congest::CongestRunResult> results =
        coordinate(s, seed, run, 1);
    if (results.size() != 1) {
      ledger.fail("coordinate_congest_uniformity returned " +
                  std::to_string(results.size()) + " results for one seed");
    } else {
      accept_result(rec, results[0], s.in.plan, ledger);
    }
  } catch (const std::exception& e) {
    ledger.fail("shm run " + std::to_string(run) + " threw: " + e.what());
  }
  const std::int64_t end = now_ns();
  rec.ms = static_cast<double>(end - start) * 1e-6;
  if (trace != nullptr) {
    trace->record("congest.coordinate_congest_uniformity", Trace::kRoot,
                  start, end, rec.result.metrics.rounds);
  }
  return rec;
}

std::unique_ptr<ShmSetup> build_shm(const Config& c, std::uint64_t seed) {
  auto s = std::make_unique<ShmSetup>();
  const std::int64_t start = now_ns();
  build_inputs(c, s->in);
  s->options.num_ranks = c.ranks;

  // Validate plan and graph once in this process, as the all-in-one
  // sharded entry point does before it forks.
  std::int64_t t = now_ns();
  {
    const congest::CongestSetup probe =
        congest::make_congest_setup(s->in.plan, *s->in.graph);
    (void)probe;
  }
  s->driver_ms = ms_since(t);

  t = now_ns();
  for (const Side side : {kUniform, kFar}) {
    ShmSide& ss = s->sides[side];
    ss.session.emplace(net::ShmSession::create_anonymous(
        net::ShmSession::Options{.num_ranks = c.ranks}));
    ShmSetup& self = *s;
    ss.group = std::make_unique<net::WorkerGroup>(
        *ss.session, [&self, &ss, side](std::uint32_t rank) {
          congest::serve_congest_uniformity(*ss.session, rank, self.in.plan,
                                            *self.in.graph,
                                            *self.in.samplers[side],
                                            self.options);
        });
  }
  s->session_ms = ms_since(t);

  // Two warm runs per side: each worker rank builds its setup on its first
  // trial and keeps it, with grown engine arenas, for the session's life.
  // Rank 0 keeps only the session: every call rebuilds its side.
  t = now_ns();
  Ledger scratch;
  for (std::uint64_t i = 0; i < 2 * kSideBlock; i += kSideBlock) {
    for (std::uint64_t j = 0; j < 2; ++j) {
      (void)shm_run(*s, mix_seed(seed, kWarmupTag), i + j, scratch, nullptr);
    }
  }
  if (scratch.failed() != 0) {
    throw std::runtime_error("congest_shm warm-up runs failed");
  }
  s->warmup_ms = ms_since(t);
  s->setup_s = static_cast<double>(now_ns() - start) * 1e-9;
  return s;
}

/// Rank 0's rebuild in every coordinate_congest_uniformity call, timed on
/// its own: the call builds a fresh CongestSetup, leases a new engine from
/// it at its first trial and destroys both on return (its ShmTransport
/// constructor only stores the session and rank). The worker rank keeps
/// its own for the session's life. Inside a call this cost drowns in the
/// run's noise, so it is taken here. The arenas the new engine grows again
/// during its first trial are not in it; the untraced run counts the fresh
/// pages they touch (rank0_faults_per_call). Returns the median over
/// kCallCostReps rebuilds.
double rank0_call_ms(const Inputs& in) {
  std::vector<double> ms;
  for (std::uint64_t rep = 0; rep < kCallCostReps; ++rep) {
    const std::int64_t start = now_ns();
    {
      congest::CongestSetup fresh =
          congest::make_congest_setup(in.plan, *in.graph);
      const net::ProtocolDriver::Lease lease = fresh.driver.acquire();
    }
    ms.push_back(ms_since(start));
  }
  return median(ms);
}

/// Minor page faults of this process so far.
std::int64_t minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Ends both sessions and reaps every rank; returns the groups that did
/// not exit cleanly, each with the reason.
std::vector<std::string> reap(ShmSetup& s) {
  std::vector<std::string> unclean;
  for (ShmSide& ss : s.sides) {
    if (ss.group == nullptr) continue;
    try {
      ss.group->finish();
    } catch (const std::exception& e) {
      unclean.push_back(e.what());
    }
    ss.group.reset();
  }
  return unclean;
}

}  // namespace

void run_congest_grid(const Options& options, RunReport& report) {
  const Config c = config_for(options.size);
  report.threads = c.threads;
  report.ranks = 1;
  require_hardware(c.threads, 1);

  std::vector<double> setup_s, plan_ms, graph_ms, alias_ms, driver_ms,
      warmup_ms;
  const auto record_setup = [&](const GridSetup& built) {
    setup_s.push_back(built.setup_s);
    plan_ms.push_back(built.in.plan_ms);
    graph_ms.push_back(built.in.graph_ms);
    alias_ms.push_back(built.in.alias_ms);
    driver_ms.push_back(built.driver_ms);
    warmup_ms.push_back(built.warmup_ms);
  };
  std::unique_ptr<GridSetup> setup = build_grid(c, options.seed);
  record_setup(*setup);
  for (unsigned rep = 1; options.trace && rep < setup_count(options.size);
       ++rep) {
    record_setup(*build_grid(c, options.seed));
  }
  report.warmup.push_back(
      "map_trials: one run on each of the " + std::to_string(c.threads) +
      " pool lanes (pooled engine lease, engine arenas, thread-local "
      "collision workspace)");
  GridSetup& g = *setup;
  const std::uint32_t k = c.rows * c.cols;

  if (!options.trace) {
    std::vector<RunRecord> runs;
    std::vector<Step> steps;
    SetupProbes probes(options.seconds, setup_count(options.size) - 1);
    std::int64_t measured_ns = 0;
    const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::uint64_t b = 0; b * c.batch < kMinOps || measured_ns < budget_ns;
         ++b) {
      probes.between(measured_ns,
                     [&] { record_setup(*build_grid(c, options.seed)); });
      const std::int64_t start = now_ns();
      std::vector<RunRecord> batch =
          grid_batch(g, options.seed, b * c.batch, c.batch, report.ledger);
      const std::int64_t took = now_ns() - start;
      measured_ns += took;
      steps.push_back(Step{static_cast<double>(took) * 1e-6,
                           static_cast<double>(c.batch), run_times(batch)});
      runs.insert(runs.end(), batch.begin(), batch.end());
      report.ledger.attempt(c.batch);
    }
    const double elapsed_s = static_cast<double>(measured_ns) * 1e-9;
    const double rss = probes.peak_rss_mib();
    check_error_rates(g.in.plan, runs, report.ledger);
    emit_runs(report, median(setup_s), runs, steps, elapsed_s, rss);
    return;
  }

  const std::uint64_t total =
      traced_run_count(c.traced_runs_per_s_grid, options);
  const std::uint64_t batches = (total + c.batch - 1) / c.batch;
  std::vector<RunRecord> plain;
  const std::int64_t plain_start = now_ns();
  for (std::uint64_t b = 0; b < batches; ++b) {
    std::vector<RunRecord> batch =
        grid_batch(g, options.seed, b * c.batch, c.batch, report.ledger);
    plain.insert(plain.end(), batch.begin(), batch.end());
  }
  const double plain_ms = ms_since(plain_start);

  std::vector<RunRecord> traced;
  Trace trace(c.threads);
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint32_t id =
        trace.open("stats.map_trials", Trace::kRoot, c.threads);
    std::vector<RunRecord> batch = grid_batch(
        g, options.seed, b * c.batch, c.batch, report.ledger, &trace, id);
    trace.close(id, c.batch);
    traced.insert(traced.end(), batch.begin(), batch.end());
  }
  trace.finish();
  report.ledger.attempt(plain.size() + traced.size());
  check_replay(plain, traced, report.ledger);
  check_error_rates(g.in.plan, traced, report.ledger);

  const auto layers = trace.layers();
  const double wall_ms = trace.wall_ms();
  const double gap = trace.closure_gap();
  report.ledger.check("trace_closure", gap <= kClosureTolerance,
                      "unattributed share " + std::to_string(gap));
  std::map<std::string, double> values = network_layers(traced, k);
  values["stats.busy_share"] =
      layers.at("congest.run_congest_uniformity").total_ns /
      (c.threads * wall_ms * 1e6);
  values["core.plan_ms"] = median(plan_ms);
  values["core.alias_build_ms"] = median(alias_ms);
  values["net.graph_ms"] = median(graph_ms);
  values["congest.driver_ms"] = median(driver_ms);
  values["congest.warmup_ms"] = median(warmup_ms);
  values["obs.trace_overhead_share"] = wall_ms / plain_ms - 1.0;
  values["obs.closure_gap"] = gap;
  emit_per_layer(report, values);
  report.details.push_back(
      Metric{"traced_runs", static_cast<double>(traced.size()), "count"});
  report.details.push_back(Metric{"untraced_wall_ms", plain_ms, "ms"});
  report.details.push_back(Metric{"traced_wall_ms", wall_ms, "ms"});
  for (const auto& [name, layer] : layers) {
    report.details.push_back(
        Metric{"self_ms." + name, layer.self_ns / c.threads * 1e-6, "ms"});
  }
  if (!options.trace_out.empty()) trace.write_jsonl(options.trace_out);
}

void run_congest_shm(const Options& options, RunReport& report) {
  const Config c = config_for(options.size);
  report.threads = 1;
  report.ranks = c.ranks;
  require_hardware(1, c.ranks);

  std::vector<double> setup_s, plan_ms, graph_ms, alias_ms, driver_ms,
      session_ms, warmup_ms;
  std::vector<std::string> unclean;
  std::uint64_t groups = 0;
  const auto reap_groups = [&](ShmSetup& built) {
    const std::vector<std::string> failed = reap(built);
    unclean.insert(unclean.end(), failed.begin(), failed.end());
    groups += 2;
  };
  // Each setup sample is reaped right away, except the one the run keeps.
  const auto record_setup = [&](ShmSetup& built, bool keep) {
    setup_s.push_back(built.setup_s);
    plan_ms.push_back(built.in.plan_ms);
    graph_ms.push_back(built.in.graph_ms);
    alias_ms.push_back(built.in.alias_ms);
    driver_ms.push_back(built.driver_ms);
    session_ms.push_back(built.session_ms);
    warmup_ms.push_back(built.warmup_ms);
    if (!keep) reap_groups(built);
  };
  const auto check_reaped = [&] {
    report.ledger.check(
        "ranks_reaped_cleanly", unclean.empty(),
        std::to_string(groups - unclean.size()) + " of " +
            std::to_string(groups) + " rank groups exited with status 0" +
            (unclean.empty() ? "" : ": " + unclean.front()));
  };
  std::unique_ptr<ShmSetup> setup = build_shm(c, options.seed);
  record_setup(*setup, true);
  for (unsigned rep = 1; options.trace && rep < setup_count(options.size);
       ++rep) {
    record_setup(*build_shm(c, options.seed), false);
  }
  report.warmup.push_back(
      "2 coordinate_congest_uniformity runs per input side (the worker rank "
      "builds its CongestSetup and grows its engine arenas; rank 0 rebuilds "
      "its own in every call, see rank0_call_ms)");
  ShmSetup& s = *setup;
  const std::uint32_t k = c.rows * c.cols;

  // Runs 0, 9, 18, ... (both sides, every block position; at most 8) must
  // equal the in-process runner field for field.
  const auto compare_with_inproc = [&](const std::vector<RunRecord>& runs) {
    congest::CongestSetup inproc =
        congest::make_congest_setup(s.in.plan, *s.in.graph);
    std::uint64_t compared = 0;
    std::uint64_t mismatches = 0;
    for (std::size_t r = 0; r < runs.size() && compared < 8;
         r += kSideBlock + 1, ++compared) {
      const congest::CongestRunResult local = congest::run_congest_uniformity(
          s.in.plan, inproc, *s.in.samplers[side_of(runs[r].run)],
          run_seed(options.seed, runs[r].run), /*traced=*/false);
      mismatches += runs[r].ok && same_result(local, runs[r].result) ? 0 : 1;
    }
    report.ledger.check("shm_matches_inproc", compared > 0 && mismatches == 0,
                        std::to_string(mismatches) + " of " +
                            std::to_string(compared) +
                            " sampled runs differ from run_congest_uniformity");
  };

  if (!options.trace) {
    std::vector<RunRecord> runs;
    std::vector<Step> steps;
    SetupProbes probes(options.seconds, setup_count(options.size) - 1);
    std::int64_t measured_ns = 0;
    std::int64_t faults = 0;
    const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
    for (std::uint64_t r = 0; r < kMinOps || measured_ns < budget_ns; ++r) {
      probes.between(measured_ns, [&] {
        record_setup(*build_shm(c, options.seed), false);
      });
      const std::int64_t faults_before = minor_faults();
      runs.push_back(shm_run(s, options.seed, r, report.ledger, nullptr));
      faults += minor_faults() - faults_before;
      steps.push_back(Step{runs.back().ms, 1.0, {runs.back().ms}});
      measured_ns += static_cast<std::int64_t>(runs.back().ms * 1e6);
      report.ledger.attempt();
    }
    const double elapsed_s = static_cast<double>(measured_ns) * 1e-9;
    const double rss = probes.peak_rss_mib();
    const double call_ms = rank0_call_ms(s.in);
    reap_groups(s);
    check_reaped();
    check_error_rates(s.in.plan, runs, report.ledger);
    compare_with_inproc(runs);
    emit_runs(report, median(setup_s), runs, steps, elapsed_s, rss);
    report.details.push_back(Metric{"rank0_call_ms", call_ms, "ms"});
    report.details.push_back(Metric{
        "rank0_call_share_of_run_p50",
        call_ms / quantile(run_times(runs), 0.50), "share"});
    report.details.push_back(Metric{
        "rank0_faults_per_call",
        static_cast<double>(faults) / static_cast<double>(runs.size()),
        "count"});
    return;
  }

  const std::uint64_t total =
      traced_run_count(c.traced_runs_per_s_shm, options);
  std::vector<RunRecord> plain;
  const std::int64_t plain_start = now_ns();
  for (std::uint64_t r = 0; r < total; ++r) {
    plain.push_back(shm_run(s, options.seed, r, report.ledger, nullptr));
  }
  const double plain_ms = ms_since(plain_start);

  std::vector<RunRecord> traced;
  Trace trace(1);
  for (std::uint64_t r = 0; r < total; ++r) {
    traced.push_back(shm_run(s, options.seed, r, report.ledger, &trace));
  }
  trace.finish();
  const double call_ms = rank0_call_ms(s.in);
  reap_groups(s);
  check_reaped();
  report.ledger.attempt(plain.size() + traced.size());
  check_replay(plain, traced, report.ledger);
  check_error_rates(s.in.plan, traced, report.ledger);
  compare_with_inproc(plain);

  const double wall_ms = trace.wall_ms();
  const double gap = trace.closure_gap();
  report.ledger.check("trace_closure", gap <= kClosureTolerance,
                      "unattributed share " + std::to_string(gap));
  std::map<std::string, double> values = network_layers(traced, k);
  double run_ns = 0;
  double rounds = 0;
  for (const RunRecord& rec : traced) {
    run_ns += rec.ms * 1e6;
    rounds += static_cast<double>(rec.result.metrics.rounds);
  }
  values["net.shm.round_us"] = run_ns / rounds * 1e-3;
  values["net.shm.session_ms"] = median(session_ms);
  values["congest.rank0_call_ms"] = call_ms;
  values["core.plan_ms"] = median(plan_ms);
  values["core.alias_build_ms"] = median(alias_ms);
  values["net.graph_ms"] = median(graph_ms);
  values["congest.driver_ms"] = median(driver_ms);
  values["congest.warmup_ms"] = median(warmup_ms);
  values["obs.trace_overhead_share"] = wall_ms / plain_ms - 1.0;
  values["obs.closure_gap"] = gap;
  emit_per_layer(report, values);
  report.details.push_back(
      Metric{"traced_runs", static_cast<double>(traced.size()), "count"});
  report.details.push_back(Metric{"untraced_wall_ms", plain_ms, "ms"});
  report.details.push_back(Metric{"traced_wall_ms", wall_ms, "ms"});
  for (const auto& [name, layer] : trace.layers()) {
    report.details.push_back(
        Metric{"self_ms." + name, layer.self_ns * 1e-6, "ms"});
  }
  if (!options.trace_out.empty()) trace.write_jsonl(options.trace_out);
}

}  // namespace perfbench
