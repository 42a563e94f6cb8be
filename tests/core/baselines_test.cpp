#include "dut/core/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dut/core/estimators.hpp"
#include "dut/core/families.hpp"
#include "dut/core/gap_tester.hpp"
#include "dut/stats/summary.hpp"

namespace dut::core {
namespace {

TEST(CollisionCounting, RecommendedSamplesScale) {
  const std::uint64_t s1 = CollisionCountingTester::recommended_samples(
      10000, 0.5);
  const std::uint64_t s2 = CollisionCountingTester::recommended_samples(
      40000, 0.5);
  EXPECT_NEAR(static_cast<double>(s2) / static_cast<double>(s1), 2.0, 0.05);
  const std::uint64_t s3 = CollisionCountingTester::recommended_samples(
      10000, 0.25);
  EXPECT_NEAR(static_cast<double>(s3) / static_cast<double>(s1), 4.0, 0.05);
}

TEST(CollisionCounting, Validation) {
  EXPECT_THROW(CollisionCountingTester(1, 0.5, 10), std::invalid_argument);
  EXPECT_THROW(CollisionCountingTester(100, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(CollisionCountingTester(100, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(CollisionCountingTester::recommended_samples(100, 0.0),
               std::invalid_argument);
}

TEST(CollisionCounting, DistinguishesUniformFromFar) {
  const std::uint64_t n = 1 << 14;
  const double eps = 0.5;
  const std::uint64_t s =
      CollisionCountingTester::recommended_samples(n, eps);
  const CollisionCountingTester tester(n, eps, s);

  const AliasSampler uni(uniform(n));
  const auto accept_uniform = stats::estimate_probability(
      1, 300, [&](stats::Xoshiro256& rng) { return tester.run(uni, rng); });
  EXPECT_GT(accept_uniform.p_hat, 2.0 / 3.0);

  const AliasSampler far(paninski_two_bump(n, eps));
  const auto accept_far = stats::estimate_probability(
      2, 300, [&](stats::Xoshiro256& rng) { return tester.run(far, rng); });
  EXPECT_LT(accept_far.p_hat, 1.0 / 3.0);
}

TEST(CollisionCounting, FailsWithFarTooFewSamples) {
  // With ~n^{1/4} samples the statistic is pure noise on the far side:
  // acceptance rates on uniform and far inputs become indistinguishable.
  const std::uint64_t n = 1 << 16;
  const double eps = 0.5;
  const CollisionCountingTester tester(n, eps, 16);
  const AliasSampler uni(uniform(n));
  const AliasSampler far(paninski_two_bump(n, eps));
  const auto accept_uniform = stats::estimate_probability(
      3, 2000, [&](stats::Xoshiro256& rng) { return tester.run(uni, rng); });
  const auto accept_far = stats::estimate_probability(
      4, 2000, [&](stats::Xoshiro256& rng) { return tester.run(far, rng); });
  EXPECT_LT(std::abs(accept_uniform.p_hat - accept_far.p_hat), 0.05);
}

TEST(UniqueElements, Validation) {
  EXPECT_THROW(UniqueElementsTester(1, 0.5, 10), std::invalid_argument);
  EXPECT_THROW(UniqueElementsTester(100, 0.5, 1), std::invalid_argument);
  EXPECT_THROW(UniqueElementsTester(100, 0.0, 10), std::invalid_argument);
  const UniqueElementsTester tester(100, 0.5, 10);
  EXPECT_THROW(tester.accept(std::vector<std::uint64_t>{1, 2}),
               std::invalid_argument);
}

TEST(UniqueElements, AcceptsAllDistinctRejectsManyRepeats) {
  const UniqueElementsTester tester(1 << 10, 0.5, 16);
  std::vector<std::uint64_t> distinct(16);
  for (std::uint64_t i = 0; i < 16; ++i) distinct[i] = i;
  EXPECT_TRUE(tester.accept(distinct));
  const std::vector<std::uint64_t> repeats(16, 7);
  EXPECT_FALSE(tester.accept(repeats));
}

TEST(UniqueElements, DistinguishesUniformFromFar) {
  const std::uint64_t n = 1 << 14;
  const double eps = 0.5;
  const std::uint64_t s =
      CollisionCountingTester::recommended_samples(n, eps);
  const UniqueElementsTester tester(n, eps, s);

  const AliasSampler uni(uniform(n));
  const auto accept_uniform = stats::estimate_probability(
      21, 300, [&](stats::Xoshiro256& rng) { return tester.run(uni, rng); });
  EXPECT_GT(accept_uniform.p_hat, 2.0 / 3.0);

  const AliasSampler far(paninski_two_bump(n, eps));
  const auto accept_far = stats::estimate_probability(
      22, 300, [&](stats::Xoshiro256& rng) { return tester.run(far, rng); });
  EXPECT_LT(accept_far.p_hat, 1.0 / 3.0);
}

TEST(UniqueElements, AgreesWithCollisionCountingInSparseRegime) {
  // s << sqrt(n): the redundancy and the colliding-pair count coincide
  // unless a value appears three times (probability O(s^3/n^2)), so the
  // two testers give the same verdict on almost every sample set.
  const std::uint64_t n = 1 << 16;
  const double eps = 0.5;
  const std::uint64_t s = 64;
  const UniqueElementsTester unique(n, eps, s);
  const CollisionCountingTester counting(n, eps, s);
  const AliasSampler sampler(paninski_two_bump(n, 1.0));
  std::uint64_t disagreements = 0;
  for (std::uint64_t t = 0; t < 2000; ++t) {
    stats::Xoshiro256 rng = stats::derive_stream(88, t);
    const auto samples = sampler.sample_many(rng, s);
    std::vector<std::uint64_t> copy = samples;
    const bool a = unique.accept(samples);
    // CollisionCountingTester only exposes run(); replicate its rule.
    const double rate =
        static_cast<double>(count_colliding_pairs(copy)) /
        (static_cast<double>(s) * static_cast<double>(s - 1) / 2.0);
    const bool b = rate <= counting.statistic_threshold();
    disagreements += a != b;
  }
  EXPECT_LE(disagreements, 5u);
}

TEST(EmpiricalL1, Validation) {
  EXPECT_THROW(EmpiricalL1Tester(0, 0.5, 10), std::invalid_argument);
  EXPECT_THROW(EmpiricalL1Tester(10, 0.5, 0), std::invalid_argument);
  EXPECT_THROW(EmpiricalL1Tester(10, 0.0, 10), std::invalid_argument);
}

TEST(EmpiricalL1, WorksWithLinearSamples) {
  const std::uint64_t n = 256;
  const double eps = 0.5;
  // Theta(n/eps^2) samples make the plug-in estimate reliable.
  const EmpiricalL1Tester tester(n, eps, 16 * n);
  const AliasSampler uni(uniform(n));
  const auto accept_uniform = stats::estimate_probability(
      5, 200, [&](stats::Xoshiro256& rng) { return tester.run(uni, rng); });
  EXPECT_GT(accept_uniform.p_hat, 0.9);

  const AliasSampler far(paninski_two_bump(n, eps));
  const auto accept_far = stats::estimate_probability(
      6, 200, [&](stats::Xoshiro256& rng) { return tester.run(far, rng); });
  EXPECT_LT(accept_far.p_hat, 0.1);
}

TEST(EmpiricalL1, RunIsPluginL1OfTheSameDraws) {
  // run() decides on plugin_l1_to_uniform over the samples it draws, and
  // draws the same stream as sample_many.
  const std::uint64_t n = 256;
  const double eps = 0.5;
  const AliasSampler families[] = {AliasSampler(uniform(n)),
                                   AliasSampler(paninski_two_bump(n, eps))};
  std::uint64_t accepts = 0;
  std::uint64_t runs = 0;
  for (const AliasSampler& sampler : families) {
    for (const std::uint64_t s : {n, 4 * n, 16 * n}) {
      const EmpiricalL1Tester tester(n, eps, s);
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        stats::Xoshiro256 rng_run(seed);
        stats::Xoshiro256 rng_ref(seed);
        const bool accept = tester.run(sampler, rng_run);
        EXPECT_EQ(accept,
                  plugin_l1_to_uniform(sampler.sample_many(rng_ref, s), n) <=
                      eps / 2.0)
            << "s=" << s << " seed=" << seed;
        EXPECT_EQ(rng_run(), rng_ref());
        accepts += accept;
        ++runs;
      }
    }
  }
  // Both verdicts occur, so the comparison is not vacuous.
  EXPECT_GT(accepts, 0u);
  EXPECT_LT(accepts, runs);
}

TEST(EmpiricalL1, BreaksAtSublinearSamples) {
  // With only sqrt(n) samples the empirical pmf is almost all zeros and the
  // plug-in distance is ~2 even under the uniform distribution: the naive
  // tester rejects everything, demonstrating why collisions are needed.
  const std::uint64_t n = 1 << 14;
  const EmpiricalL1Tester tester(n, 0.5, 128);
  const AliasSampler uni(uniform(n));
  const auto accept_uniform = stats::estimate_probability(
      7, 200, [&](stats::Xoshiro256& rng) { return tester.run(uni, rng); });
  EXPECT_LT(accept_uniform.p_hat, 0.05);
}

}  // namespace
}  // namespace dut::core
