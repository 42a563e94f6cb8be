// Cross-module integration: compositions the paper relies on but no single
// module test exercises end to end.
//
//  * identity filter -> CONGEST tester (the introduction's reduction running
//    on the real network substrate),
//  * identity filter -> LOCAL tester,
//  * agreement between the three deployment models (0-round threshold,
//    CONGEST, LOCAL) on the same underlying distributions,
//  * full replay determinism across the whole stack.

#include <gtest/gtest.h>

#include <cmath>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/identity_filter.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/local/tester.hpp"
#include "dut/stats/bounds.hpp"

namespace dut {
namespace {

// ---------------------------------------------------------------------------
// Identity filter on top of the CONGEST tester: each node maps its raw
// sample through the filter (private randomness), and the network tests
// uniformity of the filtered stream over the grain domain.
// ---------------------------------------------------------------------------

TEST(Integration, IdentityFilterComposesWithCongestTester) {
  // The filter roughly halves the distance, and the one-sample-per-node
  // CONGEST regime needs a large filtered eps, so the drift threshold is
  // near-maximal and the network sizable (probed feasible point).
  const std::uint64_t n = 128;
  const double eps = 1.9;
  const core::Distribution reference = core::step(n, 0.5, 3.0);
  const core::IdentityFilter filter(reference, eps, 64.0);

  const std::uint32_t k = 16384;
  const auto plan = congest::plan_congest(filter.output_domain(), k,
                                          filter.output_epsilon());
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;

  const net::Graph graph = net::Graph::random_connected(k, 2.0, 11);
  congest::CongestSetup setup = congest::make_congest_setup(plan, graph);

  // The exact filtered distributions, sampled directly: the filter theorem
  // (verified exactly in the unit tests) says this is equivalent to each
  // node filtering its own raw sample.
  const core::AliasSampler on_reference(filter.pushforward(reference));
  const core::Distribution drifted = core::heavy_hitter(n, 0.99);
  ASSERT_GE(drifted.l1_distance(reference), eps);
  const core::AliasSampler on_drifted(filter.pushforward(drifted));

  std::uint64_t false_alarms = 0;
  std::uint64_t detections = 0;
  constexpr std::uint64_t kTrials = 12;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    false_alarms += congest::run_congest_uniformity(plan, setup, on_reference,
                                                    100 + t)
                        .verdict.rejects();
    detections += congest::run_congest_uniformity(plan, setup, on_drifted,
                                                  200 + t)
                      .verdict.rejects();
  }
  EXPECT_LE(stats::wilson_interval(false_alarms, kTrials, 3.89).lo,
            1.0 / 3.0);
  EXPECT_GE(stats::wilson_interval(detections, kTrials, 3.89).hi, 2.0 / 3.0);
  EXPECT_GT(detections, false_alarms);
}

TEST(Integration, IdentityFilterCannotReachTheLocalAndRuleRegime) {
  // A structural incompatibility worth pinning down: the filter's output
  // distance is bounded by eps/2 < 1 (even at the maximal input eps < 2),
  // while the AND-rule tester behind the LOCAL algorithm needs eps above
  // ~1.1 with the concrete constants (E4's feasibility boundary). So
  // identity testing composes with the 0-round threshold tester and with
  // CONGEST (tests above), but NOT with the pure-LOCAL AND-rule pipeline —
  // and the planner must say so rather than produce an unsound plan.
  const std::uint64_t n = 128;
  const double eps = 1.9;  // near-maximal input distance
  const core::IdentityFilter filter(core::zipf(n, 0.8), eps, 32.0);
  EXPECT_LT(filter.output_epsilon(), 1.0);

  const net::Graph graph = net::Graph::ring(4096);
  const auto plan =
      local::plan_local(filter.output_domain(), graph,
                        filter.output_epsilon(), 1.0 / 3.0,
                        /*samples_per_node=*/48, 7);
  EXPECT_FALSE(plan.feasible);
  EXPECT_FALSE(plan.infeasible_reason.empty());
  // The bottleneck really is the AND rule, not the MIS machinery: the same
  // filtered problem IS feasible for the 0-round threshold tester.
  const auto threshold_plan = core::plan_threshold(
      filter.output_domain(), 16384, filter.output_epsilon(), 1.0 / 3.0,
      core::TailBound::kExactBinomial);
  EXPECT_TRUE(threshold_plan.feasible);
}

// ---------------------------------------------------------------------------
// Model agreement: all three deployments must reach the same *decision
// statistics* on the same inputs (they share the collision-tester core).
// ---------------------------------------------------------------------------

TEST(Integration, ThreeModelsAgreeOnVerdictDirection) {
  const std::uint64_t n = 1 << 12;
  const double eps = 1.2;
  constexpr std::uint64_t kTrials = 12;

  const core::AliasSampler uniform_sampler(core::uniform(n));
  const core::AliasSampler far_sampler(core::far_instance(n, eps));

  // 0-round threshold.
  const auto zr = core::plan_threshold(n, 4096, eps, 1.0 / 3.0,
                                       core::TailBound::kExactBinomial);
  ASSERT_TRUE(zr.feasible);
  // CONGEST on a random graph.
  const auto cg = congest::plan_congest(n, 4096, eps);
  ASSERT_TRUE(cg.feasible);
  const net::Graph graph = net::Graph::random_connected(4096, 2.0, 5);
  congest::CongestSetup cg_setup = congest::make_congest_setup(cg, graph);
  // LOCAL on a ring (needs a larger eps regime: use far at 1.5).
  const auto lp = local::plan_local(1 << 13, net::Graph::ring(4096), 1.5,
                                    1.0 / 3.0, 16, 7);
  ASSERT_TRUE(lp.feasible);
  const net::Graph ring = net::Graph::ring(4096);
  net::ProtocolDriver local_driver = local::make_local_driver(lp, ring);
  const core::AliasSampler local_uniform(core::uniform(1 << 13));
  const core::AliasSampler local_far(core::far_instance(1 << 13, 1.5));

  auto majority = [&](auto&& reject_fn) {
    std::uint64_t rejects = 0;
    for (std::uint64_t t = 0; t < kTrials; ++t) rejects += reject_fn(t);
    return rejects * 2 > kTrials;
  };

  // On uniform inputs, the majority verdict of every model is "accept".
  EXPECT_FALSE(majority([&](std::uint64_t t) {
    stats::Xoshiro256 rng = stats::derive_stream(1, t);
    return core::run_threshold_network(zr, uniform_sampler, rng).rejects();
  }));
  EXPECT_FALSE(majority([&](std::uint64_t t) {
    return congest::run_congest_uniformity(cg, cg_setup, uniform_sampler,
                                           10 + t)
        .verdict.rejects();
  }));
  EXPECT_FALSE(majority([&](std::uint64_t t) {
    return local::run_local_uniformity(lp, local_driver, local_uniform, 20 + t)
        .verdict.rejects();
  }));

  // On far inputs, the majority verdict of every model is "reject".
  EXPECT_TRUE(majority([&](std::uint64_t t) {
    stats::Xoshiro256 rng = stats::derive_stream(2, t);
    return core::run_threshold_network(zr, far_sampler, rng).rejects();
  }));
  EXPECT_TRUE(majority([&](std::uint64_t t) {
    return congest::run_congest_uniformity(cg, cg_setup, far_sampler, 30 + t)
        .verdict.rejects();
  }));
  EXPECT_TRUE(majority([&](std::uint64_t t) {
    return local::run_local_uniformity(lp, local_driver, local_far, 40 + t)
        .verdict.rejects();
  }));
}

// ---------------------------------------------------------------------------
// Whole-stack determinism: same seed, same everything.
// ---------------------------------------------------------------------------

TEST(Integration, FullStackReplayIsBitIdentical) {
  const std::uint64_t n = 1 << 12;
  const auto plan = congest::plan_congest(n, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const net::Graph graph = net::Graph::grid(64, 64);
  const core::AliasSampler sampler(core::zipf(n, 0.3));
  congest::CongestSetup setup = congest::make_congest_setup(plan, graph);
  const auto a = congest::run_congest_uniformity(plan, setup, sampler, 99);
  const auto b = congest::run_congest_uniformity(plan, setup, sampler, 99);
  EXPECT_EQ(a.verdict.accepts, b.verdict.accepts);
  EXPECT_EQ(a.verdict.votes_reject, b.verdict.votes_reject);
  EXPECT_EQ(a.leader, b.leader);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
}

// ---------------------------------------------------------------------------
// The planners agree with each other where their domains overlap: the
// CONGEST plan's virtual-node tester must itself satisfy the 0-round
// threshold placement it claims.
// ---------------------------------------------------------------------------

TEST(Integration, CongestPlanIsAValidThresholdPlacement) {
  for (std::uint32_t k : {4096u, 8192u, 16384u}) {
    const auto plan = congest::plan_congest(1 << 12, k, 1.2);
    if (!plan.feasible) continue;
    const auto placement = core::place_threshold(
        plan.num_packages, plan.package_params, plan.p, plan.bound);
    ASSERT_TRUE(placement.feasible) << "k=" << k;
    EXPECT_EQ(placement.threshold, plan.threshold) << "k=" << k;
    EXPECT_LE(placement.bound_false_reject, plan.p);
    EXPECT_LE(placement.bound_false_accept, plan.p);
  }
}

}  // namespace
}  // namespace dut
