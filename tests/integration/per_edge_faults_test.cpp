// Per-edge fault plans through the public protocol entry points. A FaultPlan
// with per-edge overrides has no spec syntax, so its runs have no replay
// preamble. Only a run that writes a transcript needs one: untraced runs
// must complete, and a traced run must still refuse (std::logic_error)
// rather than write a preamble that `dut_trace replay` could not replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/local/mis.hpp"
#include "dut/local/tester.hpp"
#include "dut/net/fault.hpp"

namespace dut {
namespace {

using net::Graph;

/// One dead directed edge: every message from `from` to `to` is dropped.
net::FaultPlan dead_edge(std::uint32_t from = 0, std::uint32_t to = 1) {
  net::FaultPlan faults;
  faults.set_edge_rates(from, to, net::FaultRates{.drop = 1.0});
  return faults;
}

class PerEdgeFaults : public testing::Test {
 protected:
  // The runs below are untraced whatever the calling environment says.
  void SetUp() override { ::unsetenv("DUT_TRACE"); }
};

TEST_F(PerEdgeFaults, ResilientCongestRunCompletes) {
  const Graph g = Graph::ring(1024);
  const auto plan = congest::plan_congest(4096, g.num_nodes(), 1.6);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const net::FaultPlan faults = dead_edge();
  congest::CongestSetup setup =
      congest::make_congest_setup(plan, g, {.enabled = true}, &faults);
  const core::AliasSampler uni(core::uniform(4096));
  const congest::CongestRunResult result =
      congest::run_congest_uniformity(plan, setup, uni, 7);
  EXPECT_GT(result.metrics.faults.dropped, 0u);
}

TEST_F(PerEdgeFaults, TokenPackagingCompletes) {
  const Graph g = Graph::ring(64);
  const net::FaultPlan faults = dead_edge();
  congest::PackagingSetup setup =
      congest::make_packaging_setup(g, 4, {.enabled = true}, &faults);
  const congest::PackagingRunResult result =
      congest::run_token_packaging(setup, 7);
  EXPECT_GT(result.metrics.faults.dropped, 0u);
}

TEST_F(PerEdgeFaults, LocalTesterCompletes) {
  const Graph g = Graph::ring(4096);
  const auto plan = local::plan_local(1 << 13, g, 1.5, 1.0 / 3.0, 16, 7);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  // A node outside the MIS broadcasts its own samples in round 0, so its
  // edge to the next node on the ring carries traffic.
  std::uint32_t v = 0;
  while (plan.in_mis[v]) ++v;
  const net::FaultPlan faults = dead_edge(v, (v + 1) % g.num_nodes());
  net::ProtocolDriver driver = local::make_local_driver(plan, g, &faults);
  const core::AliasSampler uni(core::uniform(1 << 13));
  const local::LocalRunResult result =
      local::run_local_uniformity(plan, driver, uni, 7);
  EXPECT_GT(result.gather_metrics.faults.dropped, 0u);
}

TEST_F(PerEdgeFaults, MisCompletes) {
  const Graph g = Graph::ring(64);
  const net::FaultPlan faults = dead_edge();
  const local::MisResult result = local::compute_mis(g, 7, &faults, 64);
  EXPECT_GT(result.metrics.faults.dropped, 0u);
}

TEST_F(PerEdgeFaults, TracedRunStillRefusesThePreamble) {
  const Graph g = Graph::ring(1024);
  const auto plan = congest::plan_congest(4096, g.num_nodes(), 1.6);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const net::FaultPlan faults = dead_edge();
  congest::CongestSetup setup =
      congest::make_congest_setup(plan, g, {.enabled = true}, &faults);
  const core::AliasSampler uni(core::uniform(4096));

  const std::string path = testing::TempDir() + "per_edge_faults.jsonl";
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("DUT_TRACE", path.c_str(), 1), 0);
  std::string error;
  try {
    (void)congest::run_congest_uniformity(plan, setup, uni, 7);
  } catch (const std::logic_error& e) {
    error = e.what();
  }
  ::unsetenv("DUT_TRACE");
  EXPECT_NE(error.find("per-edge overrides have no spec syntax"),
            std::string::npos)
      << "a traced run must refuse the unreplayable preamble; got '" << error
      << "'";
  // The preamble is rendered before the transcript opens: no file is left.
  std::FILE* transcript = std::fopen(path.c_str(), "r");
  EXPECT_EQ(transcript, nullptr);
  if (transcript != nullptr) std::fclose(transcript);
}

}  // namespace
}  // namespace dut
