// Acceptance check for the observability layer on the real protocol: run
// the full CONGEST uniformity tester with DUT_TRACE set, read the JSONL
// transcript back, and require that (a) the recount reproduces the
// engine's EngineMetrics exactly and (b) every traced message respects the
// plan's bandwidth budget.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "dut/obs/trace_reader.hpp"

namespace dut::congest {
namespace {

using net::Graph;

// The public API runs over a pooled CongestSetup; these tests sweep
// one-shot (plan, graph) pairs, so route each through a fresh setup.
CongestRunResult run_congest_uniformity(const CongestPlan& plan,
                                        const Graph& graph,
                                        const core::AliasSampler& sampler,
                                        std::uint64_t seed) {
  CongestSetup setup = make_congest_setup(plan, graph);
  return ::dut::congest::run_congest_uniformity(plan, setup, sampler, seed);
}

TEST(CongestTrace, TranscriptReproducesEngineMetricsWithinBudget) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const auto plan = plan_congest(n, k, 1.2);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 17);
  const core::AliasSampler uni(core::uniform(n));

  const std::string path = testing::TempDir() + "congest_acceptance.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("DUT_TRACE", path.c_str(), 1), 0);
  CongestRunResult result;
  try {
    result = run_congest_uniformity(plan, g, uni, 424242);
  } catch (...) {
    unsetenv("DUT_TRACE");
    throw;
  }
  unsetenv("DUT_TRACE");

  const auto runs = dut::obs::read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  const dut::obs::TraceRunSummary& run = runs[0];

  // (a) The transcript's recount IS the engine's metrics — no drift
  // between what the engine counted and what it emitted.
  EXPECT_TRUE(run.consistent());
  EXPECT_EQ(run.rounds_seen, result.metrics.rounds);
  EXPECT_EQ(run.messages, result.metrics.messages);
  EXPECT_EQ(run.total_bits, result.metrics.total_bits);
  EXPECT_EQ(run.max_message_bits, result.metrics.max_message_bits);

  // (b) CONGEST discipline: every traced send fits the plan's budget.
  EXPECT_EQ(run.info.model, "congest");
  EXPECT_EQ(run.info.nodes, k);
  EXPECT_EQ(run.info.bandwidth_bits, plan.bandwidth_bits);
  EXPECT_EQ(run.over_budget_sends, 0u);
  EXPECT_LE(run.max_message_bits, plan.bandwidth_bits);
  EXPECT_TRUE(run.violations.empty());
  EXPECT_EQ(run.halts, k);
}

TEST(CongestTrace, UntracedRunIsUnaffected) {
  // Same protocol with no sink attached and no DUT_TRACE: identical
  // verdict and metrics (tracing must be observation, not perturbation).
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const auto plan = plan_congest(n, k, 1.2);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 17);
  const core::AliasSampler uni(core::uniform(n));

  const std::string path = testing::TempDir() + "congest_perturb.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("DUT_TRACE", path.c_str(), 1), 0);
  const CongestRunResult traced = run_congest_uniformity(plan, g, uni, 7);
  unsetenv("DUT_TRACE");
  const CongestRunResult plain = run_congest_uniformity(plan, g, uni, 7);

  EXPECT_EQ(traced.verdict.rejects(), plain.verdict.rejects());
  EXPECT_EQ(traced.verdict.votes_reject, plain.verdict.votes_reject);
  EXPECT_EQ(traced.leader, plain.leader);
  EXPECT_EQ(traced.metrics.rounds, plain.metrics.rounds);
  EXPECT_EQ(traced.metrics.messages, plain.metrics.messages);
  EXPECT_EQ(traced.metrics.total_bits, plain.metrics.total_bits);
}

}  // namespace
}  // namespace dut::congest
