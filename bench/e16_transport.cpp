// E16 — transport-seam determinism and cost: the multi-process
// ShmTransport backend (worker processes over shared-memory rings) must
// reproduce the in-process CONGEST verdict stream bit for bit, and this
// experiment measures what that determinism costs.
//
// Tables:
//  1. Verdict-stream equality: an E8-style sweep (uniform and far inputs)
//     run in-process and sharded over 2 and 4 rank processes; every trial
//     must agree on the full verdict, metrics and budget section.
//  2. Fault-mode equality: the resilient protocol under a rate-0 fault
//     plan with a crash schedule — the halt-visibility keys (DESIGN.md
//     §14) make even the expired-message tallies match exactly.
//  3. Wall-clock: seconds per sweep for each backend (fork + shm-exchange
//     overhead vs the zero-copy in-process arena).

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dut/congest/sharded.hpp"
#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "net_bench.hpp"

namespace {

using namespace dut;
using net::Graph;

bool trials_equal(const congest::CongestRunResult& a,
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
         a.metrics.faults.expired == b.metrics.faults.expired &&
         a.metrics.faults.crashes == b.metrics.faults.crashes &&
         a.metrics.budget.messages == b.metrics.budget.messages &&
         a.metrics.budget.max_edge_round_bits ==
             b.metrics.budget.max_edge_round_bits &&
         a.metrics.budget.max_node_bits == b.metrics.budget.max_node_bits &&
         a.metrics.budget.busiest_node == b.metrics.budget.busiest_node &&
         a.metrics.budget.violations == b.metrics.budget.violations;
}

std::uint64_t count_mismatches(
    const std::vector<congest::CongestRunResult>& a,
    const std::vector<congest::CongestRunResult>& b) {
  if (a.size() != b.size()) return a.size() + b.size();
  std::uint64_t mismatches = 0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    mismatches += !trials_equal(a[t], b[t]);
  }
  return mismatches;
}

std::vector<std::uint64_t> seed_range(std::uint64_t base, std::uint64_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::uint64_t t = 0; t < count; ++t) seeds[t] = base + t;
  return seeds;
}

void verdict_equality() {
  bench::section(
      "verdict-stream equality: n = 2^12, k = 4096, eps = 1.2, "
      "in-process vs 2 and 4 rank processes");
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const auto plan = congest::plan_congest(n, k, 1.2);
  if (!plan.feasible) {
    bench::note("plan infeasible — skipped");
    return;
  }
  const Graph graph = Graph::random_connected(k, 2.0, 17);
  const std::uint64_t trials = bench::runs(8);

  struct Side {
    const char* name;
    std::uint64_t base;
    core::AliasSampler sampler;
  };
  const Side sides[] = {
      {"uniform", 9000, core::AliasSampler(core::uniform(n))},
      {"far eps=1.2", 9100, core::AliasSampler(core::far_instance(n, 1.2))},
  };

  stats::TextTable table({"input", "trials", "backend", "mismatches",
                          "seconds"});
  for (const Side& side : sides) {
    const std::vector<std::uint64_t> seeds = seed_range(side.base, trials);

    congest::CongestSetup setup = congest::make_congest_setup(plan, graph);
    const bench::StopWatch inproc_watch;
    std::vector<congest::CongestRunResult> inproc;
    inproc.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) {
      inproc.push_back(
          congest::run_congest_uniformity(plan, setup, side.sampler, seed));
    }
    const double inproc_seconds = inproc_watch.seconds();
    table.row()
        .add(side.name)
        .add(trials)
        .add("in-process")
        .add("-")
        .add(inproc_seconds, 3);
    bench::record_seconds("inproc," + std::string(side.name), inproc_seconds);

    for (std::uint32_t ranks : {2u, 4u}) {
      congest::ShardedCongestOptions options;
      options.num_ranks = ranks;
      options.seeds = seeds;
      // The 2-rank uniform sweep routes its first trial through DUT_TRACE:
      // each rank writes a transcript shard and the coordinator splices
      // them back, so the smoke suite's `dut_trace check` validates a
      // transcript that genuinely crossed the shared-memory rings.
      options.traced_trial = (ranks == 2 && side.base == 9000)
                                 ? 0
                                 : congest::ShardedCongestOptions::kNoTrace;
      const bench::StopWatch watch;
      const std::vector<congest::CongestRunResult> sharded =
          congest::run_congest_uniformity_sharded(plan, graph, side.sampler,
                                                  options);
      const double seconds = watch.seconds();
      const std::uint64_t mismatches = count_mismatches(inproc, sharded);
      const std::string label =
          "shm" + std::to_string(ranks) + "," + side.name;
      table.row()
          .add(side.name)
          .add(trials)
          .add("shm x" + std::to_string(ranks))
          .add(mismatches)
          .add(seconds, 3);
      bench::record("verdict_mismatches[" + label + "]", 0.0,
                    static_cast<double>(mismatches),
                    "transport determinism contract: bit-identical verdicts");
      bench::record_seconds(label, seconds);
    }
  }
  bench::print(table);
  bench::note("Every sharded trial reproduces the in-process verdict,\n"
              "metrics and budget section exactly — the contract the ctest\n"
              "gate transport_congest_gate enforces on every build.");
}

void fault_mode_equality() {
  bench::section(
      "fault-mode equality: resilient protocol, rate-0 plan + crash "
      "schedule, 2 rank processes");
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const auto plan = congest::plan_congest(n, k, 0.9, 1.0 / 3.0,
                                          core::TailBound::kExactBinomial, 16);
  if (!plan.feasible) {
    bench::note("plan infeasible — skipped");
    return;
  }
  const Graph graph = Graph::random_connected(k, 2.0, 17);
  const core::AliasSampler sampler(core::uniform(n));
  net::FaultPlan faults(3);
  faults.add_crash(k / 2, 4);
  faults.add_crash(17, 9);
  congest::CongestResilience resilience;
  resilience.enabled = true;

  const std::uint64_t trials = bench::runs(4);
  const std::vector<std::uint64_t> seeds = seed_range(5500, trials);

  congest::CongestSetup setup =
      congest::make_congest_setup(plan, graph, resilience, &faults);
  std::vector<congest::CongestRunResult> inproc;
  inproc.reserve(seeds.size());
  std::uint64_t expired = 0;
  for (const std::uint64_t seed : seeds) {
    inproc.push_back(
        congest::run_congest_uniformity(plan, setup, sampler, seed));
    expired += inproc.back().metrics.faults.expired;
  }

  congest::ShardedCongestOptions options;
  options.num_ranks = 2;
  options.seeds = seeds;
  options.resilience = resilience;
  options.faults = &faults;
  const std::vector<congest::CongestRunResult> sharded =
      congest::run_congest_uniformity_sharded(plan, graph, sampler, options);
  const std::uint64_t mismatches = count_mismatches(inproc, sharded);

  stats::TextTable table({"trials", "crashes/run", "expired (total)",
                          "mismatches"});
  table.row()
      .add(trials)
      .add(inproc.empty() ? 0 : inproc.front().metrics.faults.crashes)
      .add(expired)
      .add(mismatches);
  bench::print(table);
  bench::record("verdict_mismatches[fault_mode]", 0.0,
                static_cast<double>(mismatches),
                "halt-visibility keys: expired tallies match across ranks");
  bench::note("A remote rank cannot see a peer node halt at send time; the\n"
              "halt-visibility keys (DESIGN.md §14) replay the in-process\n"
              "send-site check at the delivery boundary, so even the\n"
              "expired-message counts agree exactly.");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("E16: transport-seam determinism",
                "ShmTransport == InProcTransport, bit for bit (DESIGN.md §14)");
  verdict_equality();
  fault_mode_equality();
  return bench::finish();
}
