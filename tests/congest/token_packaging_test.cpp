// Verification of the tau-token-packaging protocol (Definition 2 /
// Theorem 5.1) and its FloodMax+echo spanning-tree substrate.

#include "dut/congest/token_packaging.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "dut/congest/uniformity.hpp"
#include "dut/net/graph.hpp"

namespace dut::congest {
namespace {

using net::Graph;

// The public API takes a pooled PackagingSetup; these tests sweep many
// one-shot (graph, tau) pairs, so route each through a fresh setup.
PackagingRunResult run_token_packaging(const Graph& graph, std::uint64_t tau,
                                       std::uint64_t seed) {
  PackagingSetup setup = make_packaging_setup(graph, tau);
  return ::dut::congest::run_token_packaging(setup, seed);
}

struct PackagingCase {
  const char* name;
  Graph graph;
  std::uint64_t tau;
};

std::vector<PackagingCase> packaging_cases() {
  std::vector<PackagingCase> cases;
  for (std::uint64_t tau : {1ULL, 2ULL, 3ULL, 7ULL, 16ULL}) {
    cases.push_back({"line", Graph::line(64), tau});
    cases.push_back({"ring", Graph::ring(63), tau});
    cases.push_back({"star", Graph::star(64), tau});
    cases.push_back({"grid", Graph::grid(8, 9), tau});
    cases.push_back({"tree", Graph::balanced_tree(77, 3), tau});
    cases.push_back({"rand", Graph::random_connected(100, 1.5, 5), tau});
  }
  return cases;
}

class TokenPackagingInvariants
    : public ::testing::TestWithParam<std::size_t> {};

// Definition 2's three requirements, checked on every (topology, tau) pair.
TEST_P(TokenPackagingInvariants, DefinitionTwoHolds) {
  const PackagingCase c = packaging_cases()[GetParam()];
  const auto result = run_token_packaging(c.graph, c.tau, 12345);
  const std::uint32_t k = c.graph.num_nodes();

  // (1) Every package has size exactly tau.
  for (const auto& package : result.packages) {
    EXPECT_EQ(package.size(), c.tau);
  }
  // (2) Each token is in at most one package. Tokens are node ids here, so
  // we can check exact multiplicities.
  std::map<std::uint64_t, int> multiplicity;
  for (const auto& package : result.packages) {
    for (const std::uint64_t token : package) ++multiplicity[token];
  }
  for (const auto& [token, count] : multiplicity) {
    EXPECT_EQ(count, 1) << "token " << token << " packaged twice";
    EXPECT_LT(token, k) << "token from outside the network";
  }
  // (3) At most tau - 1 tokens are dropped.
  EXPECT_LE(result.tokens_dropped, c.tau - 1);
  // Count consistency: ell = floor(k/tau) packages exactly.
  EXPECT_EQ(result.packages.size(), k / c.tau);
  EXPECT_EQ(result.tokens_dropped, k % c.tau);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, TokenPackagingInvariants,
    ::testing::Range<std::size_t>(0, packaging_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      // By value: packaging_cases() is a temporary, a reference into it
      // dangles once the full expression ends (caught by the asan preset).
      const PackagingCase c = packaging_cases()[info.param];
      return std::string(c.name) + "_k" +
             std::to_string(c.graph.num_nodes()) + "_tau" +
             std::to_string(c.tau);
    });

TEST(TokenPackaging, RoundComplexityIsLinearInDiameterPlusTau) {
  // Theorem 5.1: O(D + tau) rounds. Our pipeline is bounded by ~4D + tau +
  // small constant (flood + echo + start + convergecasts overlap with
  // forwarding); assert that with slack.
  struct Case {
    Graph graph;
    std::uint64_t tau;
  };
  const Case cases[] = {
      {Graph::line(128), 4},    {Graph::line(128), 32},
      {Graph::grid(12, 12), 8}, {Graph::star(128), 16},
      {Graph::ring(128), 8},    {Graph::random_connected(128, 2.0, 9), 8},
  };
  for (const Case& c : cases) {
    const std::uint32_t d = c.graph.diameter();
    const auto result = run_token_packaging(c.graph, c.tau, 7);
    EXPECT_LE(result.metrics.rounds, 5ULL * d + c.tau + 20)
        << "D=" << d << " tau=" << c.tau;
    EXPECT_GE(result.metrics.rounds, d);  // information must cross the graph
  }
}

TEST(TokenPackaging, MessagesRespectLogarithmicBandwidth) {
  const Graph g = Graph::random_connected(256, 2.0, 11);
  const auto result = run_token_packaging(g, 8, 3);
  // Widths are O(log k): ids and counts of a 256-node network.
  EXPECT_LE(result.metrics.max_message_bits,
            3 + 2 * net::bits_for(256) + 2);
}

TEST(TokenPackaging, LeaderIsTheExternalIdMaximum) {
  // run_token_packaging permutes external ids by seed; re-derive the
  // permutation indirectly: the elected leader must be stable per seed and
  // vary across seeds (on a symmetric topology where engine ids don't tie
  // to the permutation).
  const Graph g = Graph::ring(31);
  const auto a1 = run_token_packaging(g, 3, 1001);
  const auto a2 = run_token_packaging(g, 3, 1001);
  EXPECT_EQ(a1.leader, a2.leader);
  std::uint32_t distinct = 0;
  std::uint32_t previous = a1.leader;
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    const auto r = run_token_packaging(g, 3, seed);
    if (r.leader != previous) ++distinct;
    previous = r.leader;
  }
  EXPECT_GT(distinct, 0u) << "leader never moved across 6 random id draws";
}

TEST(TokenPackaging, TreeIsBfsFromLeader) {
  // Depths recorded by the protocol must equal BFS distances from the
  // elected leader, and parent/child relations must be consistent.
  const Graph g = Graph::random_connected(80, 1.5, 21);
  const std::uint32_t k = g.num_nodes();

  // Instrumented run to inspect per-node state.
  std::vector<std::unique_ptr<TokenPackagingProgram>> programs;
  MessageWidths widths{net::bits_for(k), net::bits_for(k),
                       net::bits_for(k + 1)};
  for (std::uint32_t v = 0; v < k; ++v) {
    // External id = engine id here (identity permutation) so the leader is
    // known in advance: node k-1.
    programs.push_back(
        std::make_unique<TokenPackagingProgram>(v, v, 4, widths));
  }
  std::vector<net::NodeProgram*> raw(k);
  for (std::uint32_t v = 0; v < k; ++v) raw[v] = programs[v].get();
  net::Engine engine(g, net::EngineConfig{net::Model::kCongest, 64, 10000, 5});
  engine.run(raw);

  const std::uint32_t leader = k - 1;
  EXPECT_TRUE(programs[leader]->is_leader());
  const auto dist = g.bfs_distances(leader);
  for (std::uint32_t v = 0; v < k; ++v) {
    EXPECT_EQ(programs[v]->depth(), dist[v]) << "node " << v;
    EXPECT_EQ(programs[v]->leader_external_id(), leader);
    if (v == leader) {
      EXPECT_EQ(programs[v]->parent(), TokenPackagingProgram::kNoParent);
    } else {
      const std::uint32_t parent = programs[v]->parent();
      ASSERT_NE(parent, TokenPackagingProgram::kNoParent);
      EXPECT_TRUE(g.has_edge(v, parent));
      EXPECT_EQ(dist[parent] + 1, dist[v]) << "parent not one hop closer";
      // Parent/child symmetry.
      const auto& siblings = programs[parent]->children();
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), v),
                siblings.end());
    }
  }
}

TEST(TokenPackaging, SingleNodeNetwork) {
  const Graph g(1);
  const auto with_tau1 = run_token_packaging(g, 1, 1);
  EXPECT_EQ(with_tau1.packages.size(), 1u);
  EXPECT_EQ(with_tau1.tokens_dropped, 0u);
  const auto with_tau2 = run_token_packaging(g, 2, 1);
  EXPECT_EQ(with_tau2.packages.size(), 0u);
  EXPECT_EQ(with_tau2.tokens_dropped, 1u);
}

TEST(TokenPackaging, TwoNodeNetwork) {
  const auto result = run_token_packaging(Graph::line(2), 2, 1);
  EXPECT_EQ(result.packages.size(), 1u);
  EXPECT_EQ(result.tokens_dropped, 0u);
}

TEST(TokenPackaging, TauLargerThanNetworkDropsEverything) {
  const auto result = run_token_packaging(Graph::line(5), 9, 1);
  EXPECT_EQ(result.packages.size(), 0u);
  EXPECT_EQ(result.tokens_dropped, 5u);
}

TEST(TokenPackaging, RejectsZeroTau) {
  EXPECT_THROW((void)run_token_packaging(Graph::line(4), 0, 1),
               std::invalid_argument);
}

TEST(TokenPackaging, DeterministicPerSeed) {
  const Graph g = Graph::grid(6, 6);
  const auto a = run_token_packaging(g, 5, 77);
  const auto b = run_token_packaging(g, 5, 77);
  EXPECT_EQ(a.packages, b.packages);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
}

}  // namespace
}  // namespace dut::congest
