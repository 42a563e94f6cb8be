// Deterministic fault injection (net::FaultPlan). Draws are a counter-based
// pure function of (key, round, edge, msg index), so a faulted Monte-Carlo
// sweep is bit-identical whether its trials run sequentially, on reused
// pooled engines, or fanned out across any number of worker threads. The
// per-type tests pin down each fault's delivery contract: drop removes,
// duplicate doubles, corrupt rewrites payload bits without changing shape,
// delay defers-or-expires, crash-stop silences a node mid-protocol.

#include "dut/net/fault.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dut/net/engine.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/protocol_driver.hpp"
#include "dut/obs/trace.hpp"

namespace dut::net {
namespace {

/// Broadcasts one rng-derived value per round for `rounds` rounds and
/// digests everything received (value, sender, arrival round), so any
/// dropped, duplicated, corrupted or re-timed delivery changes the digest.
class ChatterProgram : public NodeProgram {
 public:
  explicit ChatterProgram(std::uint64_t rounds) : rounds_(rounds) {}

  void on_round(NodeContext& ctx) override {
    for (const MessageView m : ctx.inbox()) {
      digest_ = digest_ * 1099511628211ULL + m.field(0) + m.sender +
                (ctx.round() << 20);
      ++received_;
    }
    if (ctx.round() < rounds_) {
      Message msg;
      msg.push_field(ctx.rng()() >> 32, 32);
      ctx.broadcast(msg);
    } else {
      ctx.halt();
    }
  }

  std::uint64_t digest() const { return digest_; }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t rounds_;
  std::uint64_t digest_ = 14695981039346656037ULL;
  std::uint64_t received_ = 0;
};

struct ChatterRun {
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> received;
  EngineMetrics metrics;
};

ChatterRun run_chatter(Engine& engine, std::uint64_t seed,
                       std::uint64_t rounds = 3) {
  std::vector<ChatterProgram> progs(engine.graph().num_nodes(),
                                    ChatterProgram(rounds));
  std::vector<NodeProgram*> raw;
  for (auto& p : progs) raw.push_back(&p);
  engine.run(raw, seed);
  ChatterRun result;
  result.metrics = engine.metrics();
  for (const auto& p : progs) {
    result.digests.push_back(p.digest());
    result.received.push_back(p.received());
  }
  return result;
}

std::uint64_t total_received(const ChatterRun& run) {
  std::uint64_t total = 0;
  for (const std::uint64_t r : run.received) total += r;
  return total;
}

FaultRates mixed_rates() {
  FaultRates rates;
  rates.drop = 0.10;
  rates.duplicate = 0.10;
  rates.corrupt = 0.10;
  rates.delay = 0.15;
  rates.max_delay_rounds = 2;
  return rates;
}

TEST(FaultDraws, PureFunctionOfCoordinates) {
  FaultRates rates;
  rates.drop = 0.3;
  rates.duplicate = 0.3;
  rates.corrupt = 0.3;
  rates.delay = 0.3;
  rates.max_delay_rounds = 5;

  const FaultDraw a = resolve_faults(rates, 123, 7, 42, 3);
  const FaultDraw b = resolve_faults(rates, 123, 7, 42, 3);
  EXPECT_EQ(a.drop, b.drop);
  EXPECT_EQ(a.duplicate, b.duplicate);
  EXPECT_EQ(a.corrupt, b.corrupt);
  EXPECT_EQ(a.delay, b.delay);
  EXPECT_EQ(a.delay_rounds, b.delay_rounds);
  EXPECT_EQ(a.corrupt_mask, b.corrupt_mask);

  // Each coordinate decorrelates the stream: sweeping any one of them at
  // 30% rates must produce both faulted and clean draws.
  int drops = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    drops += resolve_faults(rates, 123, 7, 42, i).drop ? 1 : 0;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 64);
}

TEST(FaultDraws, ZeroRatesNeverFault) {
  const FaultRates rates;  // all zero
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (std::uint64_t edge = 0; edge < 8; ++edge) {
      const FaultDraw d = resolve_faults(rates, 99, round, edge, 0);
      EXPECT_FALSE(d.drop || d.duplicate || d.corrupt || d.delay);
    }
  }
}

TEST(FaultDraws, DelayRoundsWithinBound) {
  FaultRates rates;
  rates.delay = 1.0;
  rates.max_delay_rounds = 4;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const FaultDraw d = resolve_faults(rates, 5, 1, 2, i);
    ASSERT_TRUE(d.delay);
    EXPECT_GE(d.delay_rounds, 1u);
    EXPECT_LE(d.delay_rounds, 4u);
  }
}

/// Runs the same faulted seed sweep over a ProtocolDriver with `threads`
/// workers pulling trials off a shared counter — the mechanism behind
/// DUT_THREADS trial fan-out — and returns one digest per trial.
std::vector<std::uint64_t> faulted_sweep(const Graph& g, const FaultPlan& plan,
                                         std::size_t trials,
                                         unsigned threads) {
  ProtocolDriver driver(g, EngineConfig{Model::kCongest, 64, 200, 1}, plan);
  std::vector<std::uint64_t> out(trials, 0);
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < trials; i = next++) {
      out[i] = driver.run_trial(
          1000 + i, /*traced=*/false,
          [&](std::uint32_t) { return std::make_unique<ChatterProgram>(4); },
          [&](const auto& programs, const EngineMetrics& metrics,
              Transport&) {
            std::uint64_t digest = metrics.faults.total();
            for (const auto& p : programs) {
              digest = digest * 31 + p->digest();
            }
            return digest;
          });
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  return out;
}

TEST(FaultPlanDeterminism, SweepIsThreadWidthInvariant) {
  const Graph g = Graph::random_connected(24, 2.0, 3);
  FaultPlan plan(/*salt=*/11);
  plan.set_rates(mixed_rates());
  plan.add_crash(5, 2);

  const auto width1 = faulted_sweep(g, plan, 16, 1);
  const auto width2 = faulted_sweep(g, plan, 16, 2);
  const auto width8 = faulted_sweep(g, plan, 16, 8);
  EXPECT_EQ(width1, width2);
  EXPECT_EQ(width1, width8);
}

TEST(FaultPlanDeterminism, ReusedEngineMatchesFreshEngine) {
  const Graph g = Graph::random_connected(16, 2.0, 7);
  FaultPlan plan(/*salt=*/3);
  plan.set_rates(mixed_rates());

  Engine reused(g, EngineConfig{Model::kCongest, 64, 200, 1});
  reused.set_fault_plan(plan);
  std::vector<ChatterRun> warm;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    warm.push_back(run_chatter(reused, seed));
  }
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Engine fresh(g, EngineConfig{Model::kCongest, 64, 200, 1});
    fresh.set_fault_plan(plan);
    const ChatterRun cold = run_chatter(fresh, seed);
    EXPECT_EQ(warm[seed].digests, cold.digests) << "seed " << seed;
    EXPECT_EQ(warm[seed].metrics.faults.total(),
              cold.metrics.faults.total());
  }
}

TEST(FaultInjection, DropEverythingEmptiesInboxes) {
  const Graph g = Graph::complete(3);
  FaultPlan plan(1);
  FaultRates rates;
  rates.drop = 1.0;
  plan.set_rates(rates);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);

  const ChatterRun run = run_chatter(engine, 9);
  EXPECT_EQ(total_received(run), 0u);
  // 3 nodes x 2 neighbors x 3 sending rounds, all dropped.
  EXPECT_EQ(run.metrics.faults.dropped, 18u);
}

TEST(FaultInjection, DuplicateEverythingDoublesDeliveries) {
  const Graph g = Graph::complete(3);
  FaultPlan plan(1);
  FaultRates rates;
  rates.duplicate = 1.0;
  plan.set_rates(rates);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);

  const ChatterRun run = run_chatter(engine, 9);
  EXPECT_EQ(total_received(run), 36u);
  EXPECT_EQ(run.metrics.faults.duplicated, 18u);
}

TEST(FaultInjection, CorruptionRewritesPayloadNotShape) {
  const Graph g = Graph::line(2);
  const EngineConfig config{Model::kCongest, 64, 100, 9};
  Engine clean(g, config);
  const ChatterRun baseline = run_chatter(clean, 9);

  FaultPlan plan(1);
  FaultRates rates;
  rates.corrupt = 1.0;
  plan.set_rates(rates);
  Engine engine(g, config);
  engine.set_fault_plan(plan);
  const ChatterRun run = run_chatter(engine, 9);

  // Same delivery pattern (2 nodes x 3 sending rounds), different bits.
  EXPECT_EQ(total_received(run), total_received(baseline));
  EXPECT_EQ(total_received(run), 6u);
  EXPECT_EQ(run.metrics.faults.corrupted, 6u);
  EXPECT_NE(run.digests, baseline.digests);
  EXPECT_EQ(run.metrics.max_message_bits, baseline.metrics.max_message_bits);
}

TEST(FaultInjection, DelayDefersOrExpiresButNeverForges) {
  const Graph g = Graph::line(2);
  FaultPlan plan(1);
  FaultRates rates;
  rates.delay = 1.0;
  rates.max_delay_rounds = 2;
  plan.set_rates(rates);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);

  const ChatterRun run = run_chatter(engine, 9);
  EXPECT_EQ(run.metrics.faults.delayed, 6u);
  // Every send is either eventually delivered or expired against a halted
  // receiver — nothing vanishes without being accounted for.
  EXPECT_EQ(total_received(run) + run.metrics.faults.expired, 6u);
}

TEST(FaultInjection, CrashStopSilencesNodeAtItsRound) {
  const Graph g = Graph::complete(3);
  FaultPlan plan(1);
  plan.add_crash(/*node=*/2, /*round=*/1);  // node 2 executes round 0 only
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);

  const ChatterRun run = run_chatter(engine, 9);
  EXPECT_EQ(run.metrics.faults.crashes, 1u);
  // Nodes 0 and 1 hear 3 rounds from each other plus node 2's single
  // round-0 broadcast; node 2 never reads an inbox (round 0 is empty).
  EXPECT_EQ(run.received[0], 4u);
  EXPECT_EQ(run.received[1], 4u);
  EXPECT_EQ(run.received[2], 0u);
}

TEST(FaultInjection, CrashAtRoundZeroMeansNeverRan) {
  const Graph g = Graph::complete(3);
  FaultPlan plan(1);
  plan.add_crash(/*node=*/1, /*round=*/0);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);

  const ChatterRun run = run_chatter(engine, 9);
  // Survivors hear only each other.
  EXPECT_EQ(run.received[0], 3u);
  EXPECT_EQ(run.received[2], 3u);
  EXPECT_EQ(run.received[1], 0u);
}

TEST(FaultInjection, PerEdgeOverrideBeatsDefaultRates) {
  const Graph g = Graph::line(2);
  FaultPlan plan(1);
  FaultRates kill;
  kill.drop = 1.0;
  plan.set_edge_rates(0, 1, kill);  // directed: only 0 -> 1 is lossy
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);

  const ChatterRun run = run_chatter(engine, 9);
  EXPECT_EQ(run.received[1], 0u);
  EXPECT_EQ(run.received[0], 3u);
  EXPECT_EQ(run.metrics.faults.dropped, 3u);
}

TEST(FaultInjection, ZeroRatePlanMatchesNoPlan) {
  const Graph g = Graph::random_connected(16, 2.0, 4);
  const EngineConfig config{Model::kCongest, 64, 200, 1};
  Engine bare(g, config);
  const ChatterRun baseline = run_chatter(bare, 21);

  Engine faulted(g, config);
  faulted.set_fault_plan(FaultPlan{});  // fault mode, zero rates
  const ChatterRun run = run_chatter(faulted, 21);
  EXPECT_EQ(run.digests, baseline.digests);
  EXPECT_EQ(run.metrics.messages, baseline.metrics.messages);
  EXPECT_EQ(run.metrics.faults.total(), 0u);
}

/// Collects on_fault events; everything else is ignored.
class FaultRecorder : public obs::TraceSink {
 public:
  void on_run_start(const obs::TraceRunInfo&) override {}
  void on_round(std::uint64_t, std::uint32_t) override {}
  void on_send(std::uint64_t, std::uint32_t, std::uint32_t,
               std::uint64_t) override {}
  void on_halt(std::uint64_t, std::uint32_t) override {}
  void on_violation(std::uint64_t, std::string_view,
                    std::string_view) override {}
  void on_run_end(const obs::TraceRunTotals&) override {}
  void on_fault(std::uint64_t, std::string_view kind, std::uint32_t,
                std::uint32_t) override {
    ++counts_[std::string(kind)];
  }

  std::uint64_t count(const std::string& kind) const {
    const auto it = counts_.find(kind);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::uint64_t> counts_;
};

TEST(FaultInjection, EveryFaultReachesTheTraceSink) {
  const Graph g = Graph::complete(4);
  FaultPlan plan(/*salt=*/2);
  plan.set_rates(mixed_rates());
  plan.add_crash(3, 1);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 9});
  engine.set_fault_plan(plan);
  FaultRecorder recorder;
  engine.set_trace_sink(&recorder);

  const ChatterRun run = run_chatter(engine, 9, /*rounds=*/5);
  EXPECT_EQ(recorder.count("drop"), run.metrics.faults.dropped);
  EXPECT_EQ(recorder.count("dup"), run.metrics.faults.duplicated);
  EXPECT_EQ(recorder.count("corrupt"), run.metrics.faults.corrupted);
  EXPECT_EQ(recorder.count("delay"), run.metrics.faults.delayed);
  EXPECT_EQ(recorder.count("expire"), run.metrics.faults.expired);
  EXPECT_EQ(recorder.count("crash"), run.metrics.faults.crashes);
  EXPECT_GT(run.metrics.faults.total(), 0u);
}

TEST(FaultPlanParse, RoundTripsTheCliSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "drop=0.05,dup=0.01,corrupt=0.02,delay=0.1:4,crash=3@0+17@12,seed=9");
  const FaultRates& rates = plan.rates_for(0, 1);
  EXPECT_DOUBLE_EQ(rates.drop, 0.05);
  EXPECT_DOUBLE_EQ(rates.duplicate, 0.01);
  EXPECT_DOUBLE_EQ(rates.corrupt, 0.02);
  EXPECT_DOUBLE_EQ(rates.delay, 0.1);
  EXPECT_EQ(rates.max_delay_rounds, 4u);
  EXPECT_EQ(plan.salt(), 9u);
  EXPECT_TRUE(plan.has_message_faults());
  ASSERT_TRUE(plan.crash_round(3).has_value());
  EXPECT_EQ(*plan.crash_round(3), 0u);
  ASSERT_TRUE(plan.crash_round(17).has_value());
  EXPECT_EQ(*plan.crash_round(17), 12u);
  EXPECT_FALSE(plan.crash_round(4).has_value());
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("crash=3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("delay=0.1:0"), std::invalid_argument);
}

}  // namespace
}  // namespace dut::net
