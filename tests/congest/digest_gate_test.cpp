// The CONGEST verdict-digest gate (ctest entry congest_digest_gate): an
// FNV-1a digest of every run's verdict, leader, package count, quorum
// outcome, EngineMetrics and budget fields over fixed seeds, for six cases:
// plain uniform and far inputs, the resilient protocol under a
// drop/duplicate/crash fault plan, heterogeneous sample counts, 3-fold
// amplification, and standalone token packaging. The expected constants
// were recorded from the driver-based entry points the setup-based ones
// replaced, so any change to a verdict or a metered cost moves a digest.
// A failing digest is a behaviour change to explain, not a constant to
// update.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"

namespace dut::congest {
namespace {

using net::Graph;

class Digest {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      state_ ^= (word >> (8 * b)) & 0xFF;
      state_ *= 0x100000001B3ULL;
    }
  }
  void add(const net::EngineMetrics& m) {
    for (const std::uint64_t w :
         {m.rounds, m.messages, m.total_bits, m.max_message_bits,
          m.faults.dropped, m.faults.duplicated, m.faults.corrupted,
          m.faults.delayed, m.faults.expired, m.faults.crashes,
          m.budget.messages, m.budget.max_edge_round_bits,
          m.budget.max_node_bits, std::uint64_t{m.budget.busiest_node},
          m.budget.violations}) {
      add(w);
    }
  }
  void add(const core::Verdict& v) {
    for (const std::uint64_t w : {std::uint64_t{v.accepts}, v.votes_reject,
                                  v.votes_total, v.rounds, v.bits}) {
      add(w);
    }
  }
  void add(const CongestRunResult& r) {
    add(r.verdict);
    add(r.num_packages);
    add(r.leader);
    add(r.quorum_met ? 1 : 0);
    add(r.nodes_reporting);
    add(r.metrics);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

constexpr std::uint64_t kSeeds[] = {701, 702, 703, 704};

class CongestDigestGate : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(plan_.feasible); }

  const CongestPlan plan_ = plan_congest(
      1 << 12, 1024, 0.9, 1.0 / 3.0, core::TailBound::kExactBinomial, 16);
  const Graph graph_ = Graph::random_connected(1024, 2.0, 23);
  const core::AliasSampler uniform_{core::uniform(1 << 12)};
  const core::AliasSampler far_{core::far_instance(1 << 12, 0.9)};
};

TEST_F(CongestDigestGate, PlainUniform) {
  CongestSetup setup = make_congest_setup(plan_, graph_);
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    d.add(run_congest_uniformity(plan_, setup, uniform_, seed, false));
  }
  EXPECT_EQ(d.value(), 0x6BD298E58BFF6E98ULL);
}

TEST_F(CongestDigestGate, PlainFar) {
  CongestSetup setup = make_congest_setup(plan_, graph_);
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    d.add(run_congest_uniformity(plan_, setup, far_, seed, false));
  }
  EXPECT_EQ(d.value(), 0x1349D3231EB14206ULL);
}

TEST_F(CongestDigestGate, ResilientUnderFaults) {
  CongestResilience opts;
  opts.enabled = true;
  opts.quorum_nodes = 1000;
  net::FaultPlan faults(11);
  net::FaultRates rates;
  rates.drop = 0.02;
  rates.duplicate = 0.01;
  faults.set_rates(rates);
  faults.add_crash(3, 0);
  faults.add_crash(700, 12);
  CongestSetup setup = make_congest_setup(plan_, graph_, opts, &faults);
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    d.add(run_congest_uniformity(plan_, setup, uniform_, seed, false));
  }
  EXPECT_EQ(d.value(), 0xEE97C9D55BA0D6F1ULL);
}

TEST_F(CongestDigestGate, HeterogeneousCounts) {
  std::vector<std::uint64_t> counts(plan_.k);
  for (std::uint32_t v = 0; v < plan_.k; ++v) counts[v] = v % 2 ? 24 : 8;
  CongestSetup setup = make_congest_setup(plan_, graph_);
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    d.add(run_congest_uniformity_heterogeneous(plan_, setup, far_, counts,
                                               seed, false));
  }
  EXPECT_EQ(d.value(), 0x57230C198110756AULL);
}

TEST_F(CongestDigestGate, Amplified) {
  CongestSetup setup = make_congest_setup(plan_, graph_);
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    const AmplifiedCongestResult r = run_congest_uniformity_amplified(
        plan_, setup, uniform_, seed, 3, false);
    d.add(r.verdict);
    d.add(r.total_rounds);
    d.add(r.total_messages);
  }
  EXPECT_EQ(d.value(), 0xC8D9BD8F72BAF4EFULL);
}

TEST_F(CongestDigestGate, TokenPackaging) {
  PackagingSetup setup = make_packaging_setup(graph_, 8);
  Digest d;
  for (const std::uint64_t seed : kSeeds) {
    const PackagingRunResult r = run_token_packaging(setup, seed, false);
    d.add(r.packages.size());
    for (const auto& package : r.packages) {
      d.add(package.size());
      for (const std::uint64_t token : package) d.add(token);
    }
    d.add(r.tokens_dropped);
    d.add(r.leader);
    d.add(r.metrics);
  }
  EXPECT_EQ(d.value(), 0xFA1A9F94D5BBB689ULL);
}

}  // namespace
}  // namespace dut::congest
