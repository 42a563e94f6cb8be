// Resilient CONGEST protocol (sequence numbers, checksums, retransmission,
// timeout schedule, quorum decision — see token_packaging.hpp). Pins down:
// the fault-free resilient run is verdict-identical to the plain protocol;
// the checksum round-trip detects injected corruption; the formed-package
// accounting the root's token-mass quorum rule relies on is exact; and the
// crash-stop quorum edge cases (exactly at threshold, one short, leaderless
// network) all fall on the reject-biased side.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dut/congest/token_packaging.hpp"
#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/net/message.hpp"

namespace dut::congest {
namespace {

using net::Graph;

// One feasible plan shared by the verdict-level tests (same regime as the
// plain-protocol end-to-end tests).
CongestPlan feasible_plan() {
  const CongestPlan plan = plan_congest(1 << 12, 4096, 1.2);
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  return plan;
}

TEST(CongestResilient, RateZeroVerdictsMatchThePlainProtocol) {
  const CongestPlan plan = feasible_plan();
  const Graph g = Graph::random_connected(plan.k, 2.0, 17);
  const core::AliasSampler uni(core::uniform(plan.n));

  CongestSetup plain = make_congest_setup(plan, g);
  CongestResilience opts;
  opts.enabled = true;
  CongestSetup resilient = make_congest_setup(plan, g, opts);

  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    const CongestRunResult a = run_congest_uniformity(plan, plain, uni, seed);
    const CongestRunResult b =
        run_congest_uniformity(plan, resilient, uni, seed);
    // All timeouts sit past fault-free completion, so the resilient run
    // reaches the identical verdict on the identical packages.
    EXPECT_EQ(a.verdict.accepts, b.verdict.accepts) << "seed " << seed;
    EXPECT_EQ(a.verdict.votes_reject, b.verdict.votes_reject);
    EXPECT_EQ(a.num_packages, b.num_packages);
    EXPECT_EQ(a.leader, b.leader);
    EXPECT_TRUE(b.quorum_met);
    EXPECT_EQ(b.nodes_reporting, plan.k);
    // No injected faults (expired stays free: retransmission copies landing
    // on already-halted nodes are the benign cost of resilient mode).
    EXPECT_EQ(b.metrics.faults.dropped, 0u);
    EXPECT_EQ(b.metrics.faults.duplicated, 0u);
    EXPECT_EQ(b.metrics.faults.corrupted, 0u);
    EXPECT_EQ(b.metrics.faults.delayed, 0u);
    EXPECT_EQ(b.metrics.faults.crashes, 0u);
  }
}

TEST(CongestResilient, ChecksumCatchesSingleFieldCorruption) {
  const std::uint64_t fields[4] = {3, 0x5a17, 42, 9001};
  const std::uint64_t reference = packaging_checksum(fields, 4);
  EXPECT_LT(reference, 16u);  // 4-bit
  EXPECT_EQ(packaging_checksum(fields, 4), reference);  // deterministic

  // A 4-bit checksum misses a corruption with probability 1/16; over 64
  // distinct single-field XOR masks the detection count must sit far above
  // chance (expected misses: 4).
  int detected = 0;
  for (std::uint64_t mask = 1; mask <= 64; ++mask) {
    std::uint64_t corrupted[4] = {fields[0], fields[1], fields[2], fields[3]};
    corrupted[mask % 4] ^= mask;
    if (packaging_checksum(corrupted, 4) != reference) ++detected;
  }
  EXPECT_GE(detected, 48);
}

/// Resilient token packaging over a custom trial so the per-node discard
/// counters (invisible to PackagingRunResult) can be read back.
struct DiscardStats {
  std::uint64_t corrupt_discards = 0;
  std::uint64_t dup_discards = 0;
  std::uint64_t packages = 0;
  std::uint64_t covered = 0;
  std::uint64_t formed = 0;
  net::EngineMetrics metrics;
};

DiscardStats run_packaging_with_stats(PackagingSetup& setup,
                                      std::uint64_t seed) {
  const std::uint32_t k = setup.driver.graph().num_nodes();
  const MessageWidths widths{net::bits_for(k), net::bits_for(k),
                             net::bits_for(static_cast<std::uint64_t>(k) + 1)};
  return setup.driver.run_trial(
      seed, /*traced=*/false,
      [&](std::uint32_t v) {
        return std::make_unique<TokenPackagingProgram>(
            /*external_id=*/v, std::vector<std::uint64_t>{v}, setup.tau,
            widths, setup.schedule);
      },
      [&](const auto& programs, const net::EngineMetrics& metrics,
          net::Transport&) {
        DiscardStats stats;
        stats.metrics = metrics;
        for (std::uint32_t v = 0; v < k; ++v) {
          stats.corrupt_discards += programs[v]->corrupt_discards();
          stats.dup_discards += programs[v]->duplicate_discards();
          stats.packages += programs[v]->packages().size();
          if (programs[v]->is_leader()) {
            stats.covered = programs[v]->covered_total();
            stats.formed = programs[v]->formed_total();
          }
        }
        return stats;
      });
}

TEST(CongestResilient, CorruptionRoundTripIsDetectedAndDiscarded) {
  const Graph g = Graph::ring(64);
  net::FaultPlan faults(/*salt=*/13);
  net::FaultRates rates;
  rates.corrupt = 0.25;
  faults.set_rates(rates);
  CongestResilience opts;
  opts.enabled = true;
  PackagingSetup setup = make_packaging_setup(g, /*tau=*/8, opts, &faults);

  const DiscardStats stats = run_packaging_with_stats(setup, 77);
  // Corruption was injected, and the checksum/structure validation caught
  // at least some of it; a corrupted copy can fail no other way, so the
  // discards never exceed the injected count.
  EXPECT_GT(stats.metrics.faults.corrupted, 0u);
  EXPECT_GT(stats.corrupt_discards, 0u);
  EXPECT_LE(stats.corrupt_discards, stats.metrics.faults.corrupted);
}

TEST(CongestResilient, RetransmissionDuplicatesAreSuppressedBySeqNumbers) {
  const Graph g = Graph::ring(32);
  CongestResilience opts;
  opts.enabled = true;
  opts.retransmits = 2;
  // Fault-free: every retransmitted copy after the first in-order arrival
  // is a stale sequence number, and packaging must come out exact.
  PackagingSetup setup = make_packaging_setup(g, /*tau=*/4, opts);

  const DiscardStats stats = run_packaging_with_stats(setup, 5);
  EXPECT_GT(stats.dup_discards, 0u);
  EXPECT_EQ(stats.packages, 32u / 4u);
  EXPECT_EQ(stats.covered, 32u);
  // The formed-count the root decides on matches the packages that exist.
  EXPECT_EQ(stats.formed, stats.packages);
}

TEST(CongestResilient, QuorumExactlyAtThresholdStillAccepts) {
  const CongestPlan plan = feasible_plan();
  const Graph g = Graph::star(plan.k);
  const core::AliasSampler uni(core::uniform(plan.n));

  // Crash one leaf; quorum k-1 is then met with zero slack.
  net::FaultPlan faults(/*salt=*/21);
  faults.add_crash(/*node=*/1, /*round=*/0);
  CongestResilience opts;
  opts.enabled = true;
  opts.quorum_nodes = plan.k - 1;
  CongestSetup setup = make_congest_setup(plan, g, opts, &faults);

  const CongestRunResult run = run_congest_uniformity(plan, setup, uni, 33);
  EXPECT_EQ(run.nodes_reporting, plan.k - 1u);
  EXPECT_TRUE(run.quorum_met);
}

TEST(CongestResilient, OneNodeShortOfQuorumForcesReject) {
  const CongestPlan plan = feasible_plan();
  const Graph g = Graph::star(plan.k);
  const core::AliasSampler uni(core::uniform(plan.n));

  // Same single crash, but under the strict all-k quorum: coverage k-1
  // falls one short, and the reject-bias must win even on uniform input.
  net::FaultPlan faults(/*salt=*/21);
  faults.add_crash(/*node=*/1, /*round=*/0);
  CongestResilience opts;
  opts.enabled = true;
  CongestSetup setup = make_congest_setup(plan, g, opts, &faults);

  const CongestRunResult run = run_congest_uniformity(plan, setup, uni, 33);
  EXPECT_EQ(run.nodes_reporting, plan.k - 1u);
  EXPECT_FALSE(run.quorum_met);
  EXPECT_TRUE(run.verdict.rejects());
}

TEST(CongestResilient, LeaderlessNetworkRejects) {
  const CongestPlan plan = feasible_plan();
  const Graph g = Graph::random_connected(plan.k, 2.0, 17);
  const core::AliasSampler uni(core::uniform(plan.n));

  // Everyone crashes before round 0: no leader ever emerges, no verdict is
  // ever decided, and the extract falls back to reject.
  net::FaultPlan faults(/*salt=*/4);
  for (std::uint32_t v = 0; v < plan.k; ++v) faults.add_crash(v, 0);
  CongestResilience opts;
  opts.enabled = true;
  CongestSetup setup = make_congest_setup(plan, g, opts, &faults);

  const CongestRunResult run = run_congest_uniformity(plan, setup, uni, 8);
  EXPECT_TRUE(run.verdict.rejects());
  EXPECT_FALSE(run.quorum_met);
  EXPECT_EQ(run.nodes_reporting, 0u);
  EXPECT_EQ(run.num_packages, 0u);
}

}  // namespace
}  // namespace dut::congest
