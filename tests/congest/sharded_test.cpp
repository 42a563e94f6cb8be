// The transport determinism gate on the real protocol: an E8-style CONGEST
// uniformity sweep run over ShmTransport with 2 and 4 rank processes must
// emit a bit-identical verdict stream — and identical budget/metrics
// figures — to the in-process run at the same seeds. Also covers the
// resilient (rate-0 fault plan) variant, crash-fault sweeps, abort mapping
// for infeasible inputs, and byte-identical merged trace transcripts.

#include "dut/congest/sharded.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "dut/net/transport/worker_group.hpp"
#include "dut/obs/trace_reader.hpp"

namespace dut::congest {
namespace {

using net::Graph;

void expect_equal_trial(const CongestRunResult& a, const CongestRunResult& b,
                        std::uint64_t seed) {
  // Verdict stream.
  EXPECT_EQ(a.verdict.accepts, b.verdict.accepts) << "seed " << seed;
  EXPECT_EQ(a.verdict.votes_reject, b.verdict.votes_reject) << "seed " << seed;
  EXPECT_EQ(a.verdict.votes_total, b.verdict.votes_total) << "seed " << seed;
  EXPECT_EQ(a.verdict.rounds, b.verdict.rounds) << "seed " << seed;
  EXPECT_EQ(a.verdict.bits, b.verdict.bits) << "seed " << seed;
  EXPECT_EQ(a.num_packages, b.num_packages) << "seed " << seed;
  EXPECT_EQ(a.leader, b.leader) << "seed " << seed;
  EXPECT_EQ(a.quorum_met, b.quorum_met) << "seed " << seed;
  EXPECT_EQ(a.nodes_reporting, b.nodes_reporting) << "seed " << seed;
  // Metrics, including the budget section of the run report.
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << "seed " << seed;
  EXPECT_EQ(a.metrics.messages, b.metrics.messages) << "seed " << seed;
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits) << "seed " << seed;
  EXPECT_EQ(a.metrics.max_message_bits, b.metrics.max_message_bits)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.faults.total(), b.metrics.faults.total())
      << "seed " << seed;
  EXPECT_EQ(a.metrics.faults.expired, b.metrics.faults.expired)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.faults.crashes, b.metrics.faults.crashes)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.budget.messages, b.metrics.budget.messages)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.budget.max_edge_round_bits,
            b.metrics.budget.max_edge_round_bits)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.budget.max_node_bits, b.metrics.budget.max_node_bits)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.budget.busiest_node, b.metrics.budget.busiest_node)
      << "seed " << seed;
  EXPECT_EQ(a.metrics.budget.violations, b.metrics.budget.violations)
      << "seed " << seed;
}

std::vector<std::uint64_t> gate_seeds(std::uint64_t base,
                                      std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t t = 0; t < count; ++t) seeds[t] = base + t;
  return seeds;
}

// The ctest gate transport_congest_gate runs this suite (see
// tests/CMakeLists.txt): the E8-style sweep, 2 and 4 ranks, uniform and
// far inputs, against the in-process verdict stream.
TEST(TransportCongestGate, ShmRanks2And4MatchInProcBitForBit) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const auto plan = plan_congest(n, k, 1.2);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 17);

  for (const bool far_input : {false, true}) {
    const core::AliasSampler sampler(
        far_input ? core::far_instance(n, 1.2) : core::uniform(n));
    const std::vector<std::uint64_t> seeds =
        gate_seeds(far_input ? 9100 : 9000, 4);

    CongestSetup setup = make_congest_setup(plan, g);
    std::vector<CongestRunResult> inproc;
    for (const std::uint64_t seed : seeds) {
      inproc.push_back(
          run_congest_uniformity(plan, setup, sampler, seed, false));
    }

    for (const std::uint32_t num_ranks : {2u, 4u}) {
      ShardedCongestOptions options;
      options.num_ranks = num_ranks;
      options.seeds = seeds;
      const std::vector<CongestRunResult> sharded =
          run_congest_uniformity_sharded(plan, g, sampler, options);
      ASSERT_EQ(sharded.size(), seeds.size());
      for (std::size_t t = 0; t < seeds.size(); ++t) {
        expect_equal_trial(inproc[t], sharded[t], seeds[t]);
      }
    }
  }
}

TEST(TransportCongestGate, ResilientRateZeroMatchesInProc) {
  // The resilient protocol engages fault mode (zero rates) on every rank;
  // timeouts, retransmissions and the quorum rule must all land identically.
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const auto plan = plan_congest(n, k, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 23);
  const core::AliasSampler sampler(core::uniform(n));
  const std::vector<std::uint64_t> seeds = gate_seeds(4400, 3);

  CongestResilience resilience;
  resilience.enabled = true;

  CongestSetup setup = make_congest_setup(plan, g, resilience);
  std::vector<CongestRunResult> inproc;
  for (const std::uint64_t seed : seeds) {
    inproc.push_back(
        run_congest_uniformity(plan, setup, sampler, seed, false));
  }

  ShardedCongestOptions options;
  options.num_ranks = 2;
  options.seeds = seeds;
  options.resilience = resilience;
  const std::vector<CongestRunResult> sharded =
      run_congest_uniformity_sharded(plan, g, sampler, options);
  ASSERT_EQ(sharded.size(), seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    expect_equal_trial(inproc[t], sharded[t], seeds[t]);
  }
}

TEST(TransportCongestGate, CrashFaultSweepMatchesInProc) {
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const auto plan = plan_congest(n, k, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 23);
  const core::AliasSampler sampler(core::uniform(n));
  const std::vector<std::uint64_t> seeds = gate_seeds(5500, 2);

  CongestResilience resilience;
  resilience.enabled = true;
  net::FaultPlan faults(3);
  faults.add_crash(k / 2, 4);  // rank 1's shard at 2 ranks
  faults.add_crash(17, 9);     // rank 0's shard

  CongestSetup setup = make_congest_setup(plan, g, resilience, &faults);
  std::vector<CongestRunResult> inproc;
  for (const std::uint64_t seed : seeds) {
    inproc.push_back(
        run_congest_uniformity(plan, setup, sampler, seed, false));
  }

  ShardedCongestOptions options;
  options.num_ranks = 2;
  options.seeds = seeds;
  options.resilience = resilience;
  options.faults = &faults;
  const std::vector<CongestRunResult> sharded =
      run_congest_uniformity_sharded(plan, g, sampler, options);
  ASSERT_EQ(sharded.size(), seeds.size());
  for (std::size_t t = 0; t < seeds.size(); ++t) {
    expect_equal_trial(inproc[t], sharded[t], seeds[t]);
  }
}

TEST(TransportCongestGate, MergedTraceIsByteIdenticalToInProc) {
  // The sharded run writes one transcript shard per rank; after the merge
  // the file must equal the in-process transcript byte for byte.
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 1024;
  const auto plan = plan_congest(n, k, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  const Graph g = Graph::random_connected(k, 2.0, 23);
  const core::AliasSampler sampler(core::uniform(n));
  const std::uint64_t seed = 314159;

  // Per-process names: ctest may run this case twice concurrently (on its
  // own and inside transport_congest_gate), and shared paths would mix the
  // two runs' rank shards.
  const std::string tag = std::to_string(::getpid());
  const std::string inproc_path =
      testing::TempDir() + "sharded_inproc_trace_" + tag + ".jsonl";
  const std::string sharded_path =
      testing::TempDir() + "sharded_merged_trace_" + tag + ".jsonl";
  std::remove(inproc_path.c_str());
  std::remove(sharded_path.c_str());
  for (std::uint32_t r = 0; r < 2; ++r) {
    std::remove((sharded_path + ".rank" + std::to_string(r)).c_str());
  }

  ASSERT_EQ(setenv("DUT_TRACE", inproc_path.c_str(), 1), 0);
  CongestRunResult inproc;
  try {
    CongestSetup setup = make_congest_setup(plan, g);
    inproc = run_congest_uniformity(plan, setup, sampler, seed, true);
  } catch (...) {
    unsetenv("DUT_TRACE");
    throw;
  }

  ASSERT_EQ(setenv("DUT_TRACE", sharded_path.c_str(), 1), 0);
  std::vector<CongestRunResult> sharded;
  try {
    ShardedCongestOptions options;
    options.num_ranks = 2;
    options.seeds = {seed};
    options.traced_trial = 0;
    sharded = run_congest_uniformity_sharded(plan, g, sampler, options);
  } catch (...) {
    unsetenv("DUT_TRACE");
    throw;
  }
  unsetenv("DUT_TRACE");

  ASSERT_EQ(sharded.size(), 1u);
  expect_equal_trial(inproc, sharded[0], seed);

  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string a = slurp(inproc_path);
  const std::string b = slurp(sharded_path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "merged sharded transcript diverges from in-process";

  // The merge consumed the per-rank shard files.
  for (std::uint32_t r = 0; r < 2; ++r) {
    std::ifstream shard(sharded_path + ".rank" + std::to_string(r));
    EXPECT_FALSE(shard.good()) << "shard " << r << " left behind";
  }

  // And the merged transcript is self-consistent under the trace reader.
  const auto runs = obs::read_trace_file(sharded_path);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].consistent());
  EXPECT_EQ(runs[0].messages, sharded[0].metrics.messages);
  EXPECT_EQ(runs[0].total_bits, sharded[0].metrics.total_bits);
  std::remove(inproc_path.c_str());
  std::remove(sharded_path.c_str());
}

TEST(TransportCongestGate, OptionValidation) {
  const std::uint64_t n = 1 << 12;
  const auto plan = plan_congest(n, 1024, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::ring(1024);
  const core::AliasSampler sampler(core::uniform(n));

  ShardedCongestOptions options;
  options.seeds = {1};
  options.num_ranks = 1;
  EXPECT_THROW(
      (void)run_congest_uniformity_sharded(plan, g, sampler, options),
      std::invalid_argument);
  options.num_ranks = net::shm::kMaxRanks + 1;
  EXPECT_THROW(
      (void)run_congest_uniformity_sharded(plan, g, sampler, options),
      std::invalid_argument);

  // Plan/graph validation happens before any fork.
  options.num_ranks = 2;
  const Graph wrong_size = Graph::ring(8);
  EXPECT_THROW(
      (void)run_congest_uniformity_sharded(plan, wrong_size, sampler, options),
      std::invalid_argument);
  const core::AliasSampler wrong_domain(core::uniform(n / 2));
  EXPECT_THROW(
      (void)run_congest_uniformity_sharded(plan, g, wrong_domain, options),
      std::invalid_argument);
}

TEST(TransportCongestGate, WorkerRankDomainMismatchThrows) {
  // Every rank checks its own sampler: a worker built with the wrong domain
  // must fail the trial instead of silently changing its shard's tokens.
  const std::uint64_t n = 1 << 12;
  const auto plan = plan_congest(n, 1024, 0.9, 1.0 / 3.0,
                                 core::TailBound::kExactBinomial, 16);
  ASSERT_TRUE(plan.feasible);
  const Graph g = Graph::random_connected(1024, 2.0, 23);
  const core::AliasSampler sampler(core::uniform(n));
  const core::AliasSampler wrong_domain(core::uniform(n / 2));
  ShardedCongestOptions options;
  options.num_ranks = 2;
  options.seeds = {1};

  net::ShmSession session = net::ShmSession::create_anonymous(
      net::ShmSession::Options{.num_ranks = options.num_ranks});
  net::WorkerGroup group(session, [&](std::uint32_t rank) {
    serve_congest_uniformity(session, rank, plan, g, wrong_domain, options);
  });
  std::vector<CongestRunResult> results;
  bool aborted = false;
  try {
    results = coordinate_congest_uniformity(session, plan, g, sampler,
                                            options);
  } catch (const net::TransportAborted& error) {
    aborted = true;
    // The worker's own check names its cause on the coordinator.
    EXPECT_NE(std::string(error.what()).find("domain mismatch"),
              std::string::npos)
        << error.what();
  }
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(results.empty());
  group.finish();
}

}  // namespace
}  // namespace dut::congest
