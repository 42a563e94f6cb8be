// Failure injection: the substrates must fail LOUDLY, not silently, when a
// protocol misbehaves or a precondition breaks (DESIGN.md §7).

#include <gtest/gtest.h>

#include <memory>

#include "dut/congest/token_packaging.hpp"
#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/local/mis.hpp"
#include "dut/net/engine.hpp"

namespace dut {
namespace {

using net::Graph;

// ---------------------------------------------------------------------------
// Bandwidth starvation: the token-packaging protocol declares its message
// sizes honestly, so squeezing the budget below what it needs must abort
// the run with BandwidthExceeded — never silently truncate.
// ---------------------------------------------------------------------------

TEST(FailureInjection, TokenPackagingAbortsUnderStarvedBandwidth) {
  const Graph g = Graph::ring(64);
  const std::uint32_t k = g.num_nodes();
  const congest::MessageWidths widths{net::bits_for(k), net::bits_for(k),
                                      net::bits_for(k + 1)};
  std::vector<std::unique_ptr<congest::TokenPackagingProgram>> programs;
  std::vector<net::NodeProgram*> raw;
  for (std::uint32_t v = 0; v < k; ++v) {
    programs.push_back(std::make_unique<congest::TokenPackagingProgram>(
        v, v, 4, widths));
    raw.push_back(programs.back().get());
  }
  net::EngineConfig config;
  config.model = net::Model::kCongest;
  config.bandwidth_bits = 8;  // candidates need 3 + 2*7 = 17 bits
  config.max_rounds = 10000;
  net::Engine engine(g, config);
  EXPECT_THROW(engine.run(raw), net::BandwidthExceeded);
}

// ---------------------------------------------------------------------------
// A protocol that lies about its field widths is caught at construction.
// ---------------------------------------------------------------------------

TEST(FailureInjection, UnderDeclaredFieldWidthThrows) {
  net::Message msg;
  EXPECT_THROW(msg.push_field(1024, 10), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Disconnected networks: each component would elect its own leader and
// silently drop up to tau-1 tokens per component (breaking Definition 2),
// so the runners reject disconnected graphs up front.
// ---------------------------------------------------------------------------

TEST(FailureInjection, DisconnectedGraphRejectedUpFront) {
  Graph g(8);  // two components: 0-1-2-3 and 4-5-6-7
  for (std::uint32_t v = 0; v < 3; ++v) g.add_edge(v, v + 1);
  for (std::uint32_t v = 4; v < 7; ++v) g.add_edge(v, v + 1);
  EXPECT_THROW(congest::make_packaging_setup(g, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// A buggy node program (double send on one edge) is rejected by the engine
// even in LOCAL mode — the one-message-per-edge-per-round rule is the
// synchronous model, not a bandwidth matter.
// ---------------------------------------------------------------------------

class DoubleSender : public net::NodeProgram {
 public:
  void on_round(net::NodeContext& ctx) override {
    if (ctx.id() == 0 && ctx.round() == 0) {
      net::Message msg;
      msg.push_field(1, 1);
      ctx.send(ctx.neighbors()[0], msg);
      ctx.send(ctx.neighbors()[0], msg);
    }
    ctx.halt();
  }
};

TEST(FailureInjection, DoubleSendRejectedInLocalModel) {
  const Graph g = Graph::line(2);
  net::Engine engine(g, net::EngineConfig{net::Model::kLocal, 0, 10, 1});
  DoubleSender a;
  DoubleSender b;
  std::vector<net::NodeProgram*> raw{&a, &b};
  EXPECT_THROW(engine.run(raw), net::ProtocolViolation);
}

// ---------------------------------------------------------------------------
// Planner misuse: running a tester against the wrong domain or an
// infeasible plan is an error, not undefined behavior. (Per-module tests
// cover most of these; the cross-module CONGEST one lives here.)
// ---------------------------------------------------------------------------

TEST(FailureInjection, CongestRunRejectsForeignGraph) {
  const auto plan = congest::plan_congest(1 << 12, 4096, 1.2);
  ASSERT_TRUE(plan.feasible);
  const core::AliasSampler sampler(core::uniform(1 << 12));
  const Graph wrong = Graph::ring(128);
  EXPECT_THROW(congest::make_congest_setup(plan, wrong),
               std::invalid_argument);
}

TEST(FailureInjection, ZeroBandwidthCongestEngineRejected) {
  const Graph g = Graph::line(2);
  EXPECT_THROW(net::Engine(g, net::EngineConfig{net::Model::kCongest, 0,
                                                10, 1}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Luby MIS under an adversarially tiny round limit: aborts loudly.
// ---------------------------------------------------------------------------

TEST(FailureInjection, MisUnderTinyRoundLimitAborts) {
  const Graph g = Graph::random_connected(256, 4.0, 3);
  std::vector<std::unique_ptr<local::LubyMisProgram>> programs;
  std::vector<net::NodeProgram*> raw;
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    programs.push_back(std::make_unique<local::LubyMisProgram>());
    raw.push_back(programs.back().get());
  }
  net::Engine engine(g, net::EngineConfig{net::Model::kLocal, 0, 2, 7});
  EXPECT_THROW(engine.run(raw), net::RoundLimitExceeded);
}

// ---------------------------------------------------------------------------
// Invalid parameter domains must be rejected at the library boundary.
// ---------------------------------------------------------------------------

TEST(FailureInjection, OutOfDomainParametersRejectedEverywhere) {
  // The gap tester's delta domain.
  EXPECT_THROW(core::solve_gap_tester(1 << 10, 0.5, 1.5),
               std::invalid_argument);
  // Distances beyond L1's range.
  EXPECT_THROW(core::plan_threshold(1 << 10, 64, 2.5), std::invalid_argument);
  EXPECT_THROW(core::far_instance(1 << 10, 2.0), std::invalid_argument);
  // Error probabilities that are not errors.
  EXPECT_THROW(core::plan_and_rule(1 << 10, 64, 0.5, 0.5),
               std::invalid_argument);
  EXPECT_THROW(congest::plan_congest(1 << 10, 64, 0.5, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace dut
