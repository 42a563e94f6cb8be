// End-to-end verification of the CONGEST uniformity tester (Theorem 1.4).

#include "dut/congest/uniformity.hpp"

#include <gtest/gtest.h>

#include "dut/core/families.hpp"
#include "dut/obs/metrics.hpp"
#include "dut/stats/bounds.hpp"
#include "dut/stats/summary.hpp"

#include <memory>

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

CongestRunResult run_congest_uniformity_heterogeneous(
    const CongestPlan& plan, const Graph& graph,
    const core::AliasSampler& sampler,
    const std::vector<std::uint64_t>& counts, std::uint64_t seed) {
  CongestSetup setup = make_congest_setup(plan, graph);
  return ::dut::congest::run_congest_uniformity_heterogeneous(
      plan, setup, sampler, counts, seed);
}

AmplifiedCongestResult run_congest_uniformity_amplified(
    const CongestPlan& plan, const Graph& graph,
    const core::AliasSampler& sampler, std::uint64_t seed,
    std::uint64_t repetitions) {
  CongestSetup setup = make_congest_setup(plan, graph);
  return ::dut::congest::run_congest_uniformity_amplified(
      plan, setup, sampler, seed, repetitions);
}

TEST(CongestPlanner, FeasibleRegime) {
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  EXPECT_GE(plan.tau, 2u);
  EXPECT_EQ(plan.num_packages, 4096 / plan.tau);
  EXPECT_EQ(plan.package_params.s, plan.tau);
  EXPECT_LE(plan.bound_false_reject, 1.0 / 3.0);
  EXPECT_LE(plan.bound_false_accept, 1.0 / 3.0);
  EXPECT_TRUE(plan.package_params.has_gap);
}

TEST(CongestPlanner, TauGrowsWithDomainOverNetworkRatio) {
  // Theorem 1.4: tau = Theta(n/(k*eps^4)) — at fixed k, larger n needs
  // larger packages.
  const auto small = plan_congest(1 << 12, 8192, 1.2);
  const auto large = plan_congest(1 << 14, 8192, 1.2);
  ASSERT_TRUE(small.feasible && large.feasible);
  EXPECT_GT(large.tau, small.tau);
}

TEST(CongestPlanner, TauShrinksWithNetworkSize) {
  const auto small_net = plan_congest(1 << 12, 4096, 1.2);
  const auto large_net = plan_congest(1 << 12, 16384, 1.2);
  ASSERT_TRUE(small_net.feasible && large_net.feasible);
  EXPECT_LE(large_net.tau, small_net.tau);
}

TEST(CongestPlanner, InfeasibleWhenTooFewSamples) {
  // k samples total; far below sqrt(n)/eps^2 worth of testing power.
  const auto plan = plan_congest(1 << 20, 64, 0.5);
  EXPECT_FALSE(plan.feasible);
  EXPECT_FALSE(plan.infeasible_reason.empty());
}

TEST(CongestPlanner, Validation) {
  EXPECT_THROW(plan_congest(1, 100, 0.5), std::invalid_argument);
  EXPECT_THROW(plan_congest(100, 1, 0.5), std::invalid_argument);
  EXPECT_THROW(plan_congest(100, 10, 0.0), std::invalid_argument);
  EXPECT_THROW(plan_congest(100, 10, 0.5, 0.6), std::invalid_argument);
}

TEST(CongestTester, RunValidation) {
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const core::AliasSampler sampler(core::uniform(1 << 12));
  const Graph wrong_size = Graph::line(8);
  EXPECT_THROW((void)run_congest_uniformity(plan, wrong_size, sampler, 1),
               std::invalid_argument);
  CongestPlan bogus;
  bogus.feasible = false;
  EXPECT_THROW((void)run_congest_uniformity(bogus, wrong_size, sampler, 1),
               std::logic_error);
}

TEST(CongestTester, EndToEndErrorWithinBudget) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const double eps = 1.2;
  const auto plan = plan_congest(n, k, eps);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 17);

  const core::AliasSampler uni(core::uniform(n));
  std::uint64_t uniform_rejects = 0;
  constexpr std::uint64_t kTrials = 30;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    if (run_congest_uniformity(plan, g, uni, 1000 + t).verdict.rejects()) {
      ++uniform_rejects;
    }
  }
  const auto fr = stats::wilson_interval(uniform_rejects, kTrials, 3.89);
  EXPECT_LE(fr.lo, 1.0 / 3.0) << "false-reject rate refutes the bound";

  const core::AliasSampler far(core::far_instance(n, eps));
  std::uint64_t far_accepts = 0;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    if (!run_congest_uniformity(plan, g, far, 2000 + t).verdict.rejects()) {
      ++far_accepts;
    }
  }
  const auto fa = stats::wilson_interval(far_accepts, kTrials, 3.89);
  EXPECT_LE(fa.lo, 1.0 / 3.0) << "false-accept rate refutes the bound";

  // The two verdict rates must separate decisively.
  EXPECT_GT(kTrials - far_accepts, uniform_rejects + kTrials / 3);
}

TEST(CongestTester, RoundComplexityTracksDiameterPlusTau) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const auto plan = plan_congest(n, k, 1.2);
  ASSERT_TRUE(plan.feasible);
  const core::AliasSampler uni(core::uniform(n));

  const Graph shallow = Graph::star(k);
  const auto r_shallow = run_congest_uniformity(plan, shallow, uni, 5);
  EXPECT_LE(r_shallow.metrics.rounds, 5u * 2 + plan.tau + 20);

  const Graph deep = Graph::line(k);
  const auto r_deep = run_congest_uniformity(plan, deep, uni, 5);
  EXPECT_LE(r_deep.metrics.rounds, 5ULL * (k - 1) + plan.tau + 20);
  EXPECT_GT(r_deep.metrics.rounds, static_cast<std::uint64_t>(k - 1));
}

TEST(CongestTester, PackageCountMatchesPlan) {
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::grid(64, 64);
  const core::AliasSampler uni(core::uniform(1 << 12));
  const auto result = run_congest_uniformity(plan, g, uni, 9);
  EXPECT_EQ(result.num_packages, plan.num_packages);
  EXPECT_LE(result.verdict.votes_reject, result.num_packages);
}

TEST(CongestTester, DeterministicPerSeed) {
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::grid(64, 64);
  const core::AliasSampler uni(core::uniform(1 << 12));
  const auto a = run_congest_uniformity(plan, g, uni, 31);
  const auto b = run_congest_uniformity(plan, g, uni, 31);
  EXPECT_EQ(a.verdict.rejects(), b.verdict.rejects());
  EXPECT_EQ(a.verdict.votes_reject, b.verdict.votes_reject);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
}

TEST(CongestTester, PlainRunStepsUnderATenthOfLiveNodeRounds) {
  // Event-driven rounds: a plain-mode node sleeps unless its upward
  // pipeline has something to send, so a run on the 64x64 grid steps under
  // a tenth of what a polling engine would. A program that fell back to
  // polling would step every live node-round.
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled (DUT_OBS_LEVEL=0)";
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::grid(64, 64);
  const core::AliasSampler uni(core::uniform(1 << 12));
  const obs::Counter& steps = obs::counter("net.node_steps");
  const obs::Counter& live = obs::counter("net.live_node_rounds");
  const std::uint64_t steps_before = steps.value();
  const std::uint64_t live_before = live.value();
  (void)run_congest_uniformity(plan, g, uni, 7);
  const double stepped = static_cast<double>(steps.value() - steps_before);
  const double polled = static_cast<double>(live.value() - live_before);
  ASSERT_GT(polled, 0.0);
  EXPECT_LT(stepped / polled, 0.10)
      << stepped << " of " << polled << " live node-rounds stepped";
}

// ---------------------------------------------------------------------------
// Multi-sample generalization ("the results generalize in a straightforward
// manner to larger s", Section 1): with s0 samples per node the feasible
// regime reaches smaller networks and smaller eps.
// ---------------------------------------------------------------------------

TEST(CongestTester, MultiSampleExtendsFeasibility) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const double eps = 0.9;
  // One sample per node: k = 1024 is far too small at eps = 0.9.
  const auto single = plan_congest(n, k, eps);
  EXPECT_FALSE(single.feasible);
  // Sixteen samples per node: same network becomes feasible.
  const auto multi = plan_congest(n, k, eps, 1.0 / 3.0,
                                  core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(multi.feasible) << multi.infeasible_reason;
  EXPECT_EQ(multi.num_packages, 1024ULL * 16 / multi.tau);
}

TEST(CongestTester, MultiSampleEndToEnd) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const double eps = 0.9;
  const auto plan = plan_congest(n, k, eps, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::random_connected(k, 2.0, 23);

  const core::AliasSampler uni(core::uniform(n));
  const core::AliasSampler far(core::paninski_two_bump(n, eps));
  std::uint64_t uniform_rejects = 0;
  std::uint64_t far_rejects = 0;
  constexpr std::uint64_t kTrials = 30;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    uniform_rejects +=
        run_congest_uniformity(plan, g, uni, 5000 + t).verdict.rejects();
    far_rejects +=
        run_congest_uniformity(plan, g, far, 6000 + t).verdict.rejects();
  }
  EXPECT_LE(stats::wilson_interval(uniform_rejects, kTrials, 3.89).lo,
            1.0 / 3.0);
  EXPECT_GE(stats::wilson_interval(far_rejects, kTrials, 3.89).hi,
            2.0 / 3.0);
  EXPECT_GT(far_rejects, uniform_rejects + kTrials / 3);
}

TEST(CongestTester, HeterogeneousCountsKeepGuarantees) {
  // Synthesis of §4 (asymmetric loads) with §5: half the nodes contribute
  // 24 samples, half contribute 8 (same total as 16 each); the packaging
  // absorbs the imbalance and the tester's behavior is unchanged.
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const auto plan = plan_congest(n, k, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::random_connected(k, 2.0, 41);
  std::vector<std::uint64_t> counts(k);
  for (std::uint32_t v = 0; v < k; ++v) counts[v] = v < k / 2 ? 24 : 8;

  const core::AliasSampler uni(core::uniform(n));
  const core::AliasSampler far(core::paninski_two_bump(n, 0.9));
  std::uint64_t uniform_rejects = 0;
  std::uint64_t far_rejects = 0;
  constexpr std::uint64_t kTrials = 20;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    uniform_rejects += run_congest_uniformity_heterogeneous(
                           plan, g, uni, counts, 7000 + t)
                           .verdict.rejects();
    far_rejects += run_congest_uniformity_heterogeneous(plan, g, far, counts,
                                                        8000 + t)
                       .verdict.rejects();
  }
  EXPECT_LE(stats::wilson_interval(uniform_rejects, kTrials, 3.89).lo,
            1.0 / 3.0);
  EXPECT_GT(far_rejects, uniform_rejects + kTrials / 3);
  // Package count is unchanged: the total token budget is what matters.
  const auto one = run_congest_uniformity_heterogeneous(plan, g, uni, counts,
                                                        1);
  EXPECT_EQ(one.num_packages, plan.num_packages);
}

TEST(CongestTester, HeterogeneousCountsValidation) {
  const auto plan = plan_congest(1 << 12, 1024, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::ring(1024);
  const core::AliasSampler uni(core::uniform(1 << 12));
  // Wrong length.
  EXPECT_THROW((void)run_congest_uniformity_heterogeneous(plan, g, uni, {1, 2}, 1),
               std::invalid_argument);
  // Wrong total (ell would change).
  std::vector<std::uint64_t> wrong_total(1024, 15);
  EXPECT_THROW(
      (void)run_congest_uniformity_heterogeneous(plan, g, uni, wrong_total, 1),
      std::invalid_argument);
  // A node with zero samples cannot participate in packaging.
  std::vector<std::uint64_t> with_zero(1024, 16);
  with_zero[0] = 0;
  with_zero[1] = 32;
  EXPECT_THROW(
      (void)run_congest_uniformity_heterogeneous(plan, g, uni, with_zero, 1),
      std::invalid_argument);
}

TEST(CongestTester, MultiSamplePackagesAuditOut) {
  // The packaging invariants must hold with heterogeneous token loads too:
  // run the raw packaging with every node holding 3 tokens.
  const Graph g = Graph::grid(8, 8);
  const std::uint32_t k = g.num_nodes();
  MessageWidths widths{net::bits_for(k), net::bits_for(3 * k),
                       net::bits_for(3ULL * k + 1)};
  std::vector<std::unique_ptr<TokenPackagingProgram>> programs;
  std::vector<net::NodeProgram*> raw;
  const std::uint64_t tau = 7;
  for (std::uint32_t v = 0; v < k; ++v) {
    std::vector<std::uint64_t> tokens{3ULL * v, 3ULL * v + 1, 3ULL * v + 2};
    programs.push_back(std::make_unique<TokenPackagingProgram>(
        v, std::move(tokens), tau, widths));
    raw.push_back(programs.back().get());
  }
  net::Engine engine(g,
                     net::EngineConfig{net::Model::kCongest, 64, 10000, 3});
  engine.run(raw);

  std::vector<int> seen(3 * k, 0);
  std::uint64_t packaged = 0;
  for (const auto& program : programs) {
    for (const auto& package : program->packages()) {
      EXPECT_EQ(package.size(), tau);
      packaged += package.size();
      for (const std::uint64_t token : package) {
        ASSERT_LT(token, 3ULL * k);
        EXPECT_EQ(++seen[token], 1) << "token packaged twice";
      }
    }
  }
  EXPECT_LE(3ULL * k - packaged, tau - 1);
}

// ---------------------------------------------------------------------------
// Amplification (paper §3.2.2: the threshold model amplifies by standard
// repetition, unlike the AND rule).
// ---------------------------------------------------------------------------

TEST(CongestTester, AmplificationDrivesErrorDown) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const double eps = 1.2;
  const auto plan = plan_congest(n, k, eps);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::random_connected(k, 2.0, 31);
  const core::AliasSampler uni(core::uniform(n));
  const core::AliasSampler far(core::far_instance(n, eps));

  // Base error is bounded by 1/3 per side; majority of 5 pushes each side
  // below ~0.21 in the worst case and far lower at the measured base rates.
  std::uint64_t uniform_rejects = 0;
  std::uint64_t far_accepts = 0;
  constexpr std::uint64_t kTrials = 10;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    uniform_rejects += run_congest_uniformity_amplified(plan, g, uni,
                                                        100 + t, 5)
                           .verdict.rejects();
    far_accepts += !run_congest_uniformity_amplified(plan, g, far, 200 + t, 5)
                        .verdict.rejects();
  }
  EXPECT_LE(uniform_rejects, 2u);
  EXPECT_LE(far_accepts, 1u);
}

TEST(CongestTester, AmplificationBookkeeping) {
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::star(4096);
  const core::AliasSampler uni(core::uniform(1 << 12));
  const auto result =
      run_congest_uniformity_amplified(plan, g, uni, 7, 3);
  EXPECT_EQ(result.verdict.votes_total, 3u);
  EXPECT_LE(result.verdict.votes_reject, 3u);
  EXPECT_GT(result.total_rounds, 0u);
  EXPECT_EQ(result.verdict.rejects(), 2 * result.verdict.votes_reject > 3);
  // Even repetition counts are ambiguous under majority: rejected.
  EXPECT_THROW((void)run_congest_uniformity_amplified(plan, g, uni, 7, 4),
               std::invalid_argument);
  EXPECT_THROW((void)run_congest_uniformity_amplified(plan, g, uni, 7, 0),
               std::invalid_argument);
}

TEST(CongestTester, MessagesAreLogarithmic) {
  const auto plan = plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  // O(log n + log k): the declared budget itself must be small, and the
  // run must fit within it (the engine throws otherwise).
  EXPECT_LE(plan.bandwidth_bits, 3 + 2 * net::bits_for(4096) + 2);
  const Graph g = Graph::random_connected(4096, 1.5, 2);
  const core::AliasSampler uni(core::uniform(1 << 12));
  const auto result = run_congest_uniformity(plan, g, uni, 77);
  EXPECT_LE(result.metrics.max_message_bits, plan.bandwidth_bits);
}

}  // namespace
}  // namespace dut::congest
