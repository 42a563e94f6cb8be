// Serial-vs-parallel determinism for the trial-parallel network stack.
//
// The E7/E8/E9 experiments fan Monte-Carlo trials over stats::TrialRunner
// with one ProtocolDriver per sweep; the contract is that the per-trial
// verdict stream is a pure function of the trial index, so the merged
// results are bit-identical at any thread count. These tests run the same
// sweeps at 1, 2 and 8 threads and demand byte-for-byte equal digests.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/local/tester.hpp"
#include "dut/net/protocol_driver.hpp"
#include "dut/stats/engine.hpp"

namespace {

using namespace dut;
using net::Graph;

/// One uint64 capturing everything a trial reports; any divergence between
/// thread counts shows up as a digest mismatch at a specific trial index.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h * 1099511628211ULL + v;
}

/// Runs `trial(t)` for t in [0, trials) on a TrialRunner with `threads`
/// lanes, concatenating per-trial digests in trial order (chunk partials
/// merge in chunk order, and trials run ascending within a chunk).
template <typename Trial>
std::vector<std::uint64_t> digest_stream(unsigned threads,
                                         std::uint64_t trials, Trial&& trial) {
  stats::TrialRunner runner(threads);
  return runner.map_trials<std::vector<std::uint64_t>>(
      trials,
      [&](std::vector<std::uint64_t>& acc, std::uint64_t t) {
        acc.push_back(trial(t));
      },
      [](std::vector<std::uint64_t>& total, std::vector<std::uint64_t>&& p) {
        total.insert(total.end(), p.begin(), p.end());
      });
}

template <typename Trial>
void expect_thread_invariant(std::uint64_t trials, Trial&& trial) {
  const std::vector<std::uint64_t> serial = digest_stream(1, trials, trial);
  ASSERT_EQ(serial.size(), trials);
  for (unsigned threads : {2u, 8u}) {
    const std::vector<std::uint64_t> parallel =
        digest_stream(threads, trials, trial);
    EXPECT_EQ(serial, parallel)
        << "verdict stream diverged at " << threads << " threads";
  }
}

TEST(NetTrials, CongestVerdictStreamIsThreadInvariant) {
  const auto plan = congest::plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::star(4096);
  const core::AliasSampler uniform_sampler(core::uniform(1 << 12));
  const core::AliasSampler far_sampler(core::far_instance(1 << 12, 1.2));
  congest::CongestSetup setup = congest::make_congest_setup(plan, g);
  expect_thread_invariant(6, [&](std::uint64_t t) {
    const auto on_uniform = congest::run_congest_uniformity(
        plan, setup, uniform_sampler, 3000 + t, /*traced=*/false);
    const auto on_far = congest::run_congest_uniformity(
        plan, setup, far_sampler, 4000 + t, /*traced=*/false);
    std::uint64_t h = mix(0, on_uniform.verdict.rejects());
    h = mix(h, on_uniform.verdict.votes_reject);
    h = mix(h, on_uniform.leader);
    h = mix(h, on_uniform.metrics.rounds);
    h = mix(h, on_uniform.metrics.total_bits);
    h = mix(h, on_far.verdict.rejects());
    h = mix(h, on_far.verdict.votes_reject);
    h = mix(h, on_far.metrics.rounds);
    return h;
  });
}

TEST(NetTrials, PackagingStreamIsThreadInvariant) {
  const Graph g = Graph::ring(256);
  congest::PackagingSetup setup = congest::make_packaging_setup(g, /*tau=*/4);
  expect_thread_invariant(8, [&](std::uint64_t t) {
    const auto result =
        congest::run_token_packaging(setup, 777 + t, /*traced=*/false);
    std::uint64_t h = mix(0, result.tokens_dropped);
    h = mix(h, result.leader);
    h = mix(h, result.metrics.rounds);
    h = mix(h, result.metrics.total_bits);
    for (const auto& package : result.packages) {
      for (const std::uint64_t token : package) h = mix(h, token);
    }
    return h;
  });
}

TEST(NetTrials, LocalVerdictStreamIsThreadInvariant) {
  const Graph g = Graph::ring(4096);
  const auto plan = local::plan_local(1 << 13, g, 1.5, 1.0 / 3.0, 16, 7);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const core::AliasSampler uniform_sampler(core::uniform(1 << 13));
  net::ProtocolDriver driver = local::make_local_driver(plan, g);
  expect_thread_invariant(6, [&](std::uint64_t t) {
    const auto result = local::run_local_uniformity(
        plan, driver, uniform_sampler, 100 + t, /*traced=*/false);
    std::uint64_t h = mix(0, result.verdict.accepts);
    h = mix(h, result.verdict.votes_reject);
    h = mix(h, result.gather_metrics.rounds);
    h = mix(h, result.gather_metrics.total_bits);
    return h;
  });
}

TEST(NetTrials, ConcurrentLeasesUseDistinctEngines) {
  const Graph g = Graph::ring(8);
  net::ProtocolDriver driver(
      g, net::EngineConfig{net::Model::kCongest, 64, 100, 1});
  net::Engine* first = nullptr;
  net::Engine* second = nullptr;
  {
    net::ProtocolDriver::Lease a = driver.acquire();
    net::ProtocolDriver::Lease b = driver.acquire();
    first = &a.engine();
    second = &b.engine();
    EXPECT_NE(first, second);
  }
  // Both leases returned; further acquires reuse the pooled engines instead
  // of growing the pool.
  net::ProtocolDriver::Lease c = driver.acquire();
  net::ProtocolDriver::Lease d = driver.acquire();
  EXPECT_NE(&c.engine(), &d.engine());
  EXPECT_TRUE(&c.engine() == first || &c.engine() == second);
  EXPECT_TRUE(&d.engine() == first || &d.engine() == second);
}

}  // namespace
