// ProtocolDriver pooling semantics across delivery backends, and the
// transport determinism contract on a toy protocol: the same trial run
// in-process and sharded over ShmTransport (fork-based rank processes)
// must produce bit-identical results and metrics; a protocol violation on
// any rank must abort the whole group, surface as the same exception type
// on the coordinator, and leave the pooled engines reusable for the next
// trial.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dut/net/engine.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/protocol_driver.hpp"
#include "dut/net/transport/shm_session.hpp"
#include "dut/net/transport/shm_transport.hpp"
#include "dut/net/transport/transport.hpp"
#include "dut/net/transport/worker_group.hpp"

namespace dut::net {
namespace {

/// Broadcasts a mixing hash of (id, round) for `rounds` rounds while
/// accumulating everything it hears, then halts. With `poison`, sends to a
/// non-neighbor at round 1 — a CONGEST model violation caught at the send
/// site on whichever rank owns the node.
class EchoSum : public NodeProgram {
 public:
  EchoSum(std::uint32_t k, std::uint64_t rounds, bool poison)
      : k_(k), rounds_(rounds), poison_(poison) {}

  void on_round(NodeContext& ctx) override {
    for (const MessageView msg : ctx.inbox()) {
      total_ += msg.field(0) * 31 + msg.sender;
    }
    if (poison_ && ctx.round() == 1) {
      Message bad;
      bad.push_field(1, 8);
      ctx.send((ctx.id() + 2) % k_, bad);  // ring: id+2 is never adjacent
    }
    if (ctx.round() < rounds_) {
      Message msg;
      const std::uint64_t value =
          (ctx.id() * 1315423911ULL + ctx.round() * 2654435761ULL) &
          0xFFFFFFFFULL;
      msg.push_field(value, 32);
      ctx.broadcast(msg);
    } else {
      ctx.halt();
    }
  }

  std::uint64_t total() const noexcept { return total_; }

 private:
  std::uint32_t k_;
  std::uint64_t rounds_;
  bool poison_;
  std::uint64_t total_ = 0;
};

struct ToyResult {
  std::uint64_t sum = 0;
  EngineMetrics metrics;
};

void expect_equal(const ToyResult& a, const ToyResult& b) {
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.total_bits, b.metrics.total_bits);
  EXPECT_EQ(a.metrics.max_message_bits, b.metrics.max_message_bits);
  EXPECT_EQ(a.metrics.faults.dropped, b.metrics.faults.dropped);
  EXPECT_EQ(a.metrics.faults.expired, b.metrics.faults.expired);
  EXPECT_EQ(a.metrics.faults.crashes, b.metrics.faults.crashes);
  EXPECT_EQ(a.metrics.budget.messages, b.metrics.budget.messages);
  EXPECT_EQ(a.metrics.budget.max_edge_round_bits,
            b.metrics.budget.max_edge_round_bits);
  EXPECT_EQ(a.metrics.budget.max_node_bits, b.metrics.budget.max_node_bits);
  EXPECT_EQ(a.metrics.budget.busiest_node, b.metrics.budget.busiest_node);
  EXPECT_EQ(a.metrics.budget.violations, b.metrics.budget.violations);
}

constexpr std::uint64_t kRounds = 6;

/// Trial flags on the session wire: 0 = clean, v+1 = node v poisons.
ToyResult run_toy_trial(ProtocolDriver& driver, const Graph& graph,
                        std::uint64_t seed, std::uint64_t flags) {
  const std::uint32_t k = graph.num_nodes();
  return driver.run_trial(
      seed, false, {},
      [&](std::uint32_t v) {
        return std::make_unique<EchoSum>(k, kRounds,
                                         flags != 0 && v == flags - 1);
      },
      [&](const auto& programs, const EngineMetrics& metrics,
          Transport& transport) {
        ToyResult result;
        result.metrics = metrics;
        const auto [first, last] = transport.shard(k);
        std::uint64_t local = 0;
        for (std::uint32_t v = first; v < last; ++v) {
          local += programs[v]->total();
        }
        std::vector<std::uint64_t> all;
        transport.exchange_summaries(
            std::span<const std::uint64_t>(&local, 1), all);
        for (const std::uint64_t part : all) result.sum += part;
        return result;
      });
}

/// Coordinator + forked worker ranks for the toy protocol, mirroring the
/// structure of congest::run_congest_uniformity_sharded.
class ShardedToyHarness {
 public:
  ShardedToyHarness(const Graph& graph, const EngineConfig& config,
                    std::uint32_t num_ranks, const FaultPlan* faults)
      : graph_(graph),
        config_(config),
        faults_(faults == nullptr ? std::optional<FaultPlan>{} : *faults),
        session_(ShmSession::create_anonymous(
            ShmSession::Options{.num_ranks = num_ranks})),
        group_(session_, [this](std::uint32_t rank) { serve(rank); }),
        driver_(graph, config),
        transport_(session_, 0) {
    if (faults_.has_value()) driver_.set_fault_plan(*faults_);
    driver_.set_transport(&transport_);
  }

  ToyResult run(std::uint64_t seed, std::uint64_t flags = 0) {
    const std::uint64_t seq = session_.begin_trial(seed, flags);
    try {
      ToyResult result = run_toy_trial(driver_, graph_, seed, flags);
      session_.post_ready(0, seq);
      return result;
    } catch (const TransportAborted&) {
      session_.post_ready(0, seq);
      switch (static_cast<TransportAbortCode>(session_.abort_code())) {
        case TransportAbortCode::kProtocolViolation:
          throw ProtocolViolation("peer rank violation");
        case TransportAbortCode::kBandwidthExceeded:
          throw BandwidthExceeded("peer rank bandwidth violation");
        case TransportAbortCode::kRoundLimitExceeded:
          throw RoundLimitExceeded("peer rank round limit");
        default:
          throw;
      }
    } catch (...) {
      session_.post_ready(0, seq);
      throw;
    }
  }

  ProtocolDriver& driver() noexcept { return driver_; }
  void finish() { group_.finish(); }

 private:
  void serve(std::uint32_t rank) {
    ProtocolDriver worker_driver(graph_, config_);
    ShmTransport transport(session_, rank);
    if (faults_.has_value()) worker_driver.set_fault_plan(*faults_);
    worker_driver.set_transport(&transport);
    std::uint64_t last_seq = 0;
    for (;;) {
      const ShmSession::Trial trial = session_.wait_trial(last_seq);
      if (trial.shutdown) return;
      last_seq = trial.seq;
      try {
        (void)run_toy_trial(worker_driver, graph_, trial.seed, trial.flags);
      } catch (const TransportAborted&) {
      } catch (const ProtocolViolation&) {
        // The engine already published the abort code on its unwind path.
      } catch (const BandwidthExceeded&) {
      } catch (const RoundLimitExceeded&) {
      } catch (...) {
        session_.publish_abort(
            static_cast<std::uint64_t>(TransportAbortCode::kOther), rank);
      }
      session_.post_ready(rank, trial.seq);
    }
  }

  const Graph& graph_;
  EngineConfig config_;
  std::optional<FaultPlan> faults_;
  ShmSession session_;
  WorkerGroup group_;  // forks after session_, before driver_/transport_
  ProtocolDriver driver_;
  ShmTransport transport_;
};

const EngineConfig kToyConfig{Model::kCongest, 64, 1 << 12, 0};

TEST(TransportEquivalence, ShmMatchesInProcBitForBit) {
  const Graph g = Graph::ring(12);
  ProtocolDriver inproc(g, kToyConfig);
  for (const std::uint32_t num_ranks : {2u, 3u, 4u}) {
    ShardedToyHarness sharded(g, kToyConfig, num_ranks, nullptr);
    for (std::uint64_t seed = 40; seed < 44; ++seed) {
      const ToyResult a = run_toy_trial(inproc, g, seed, 0);
      const ToyResult b = sharded.run(seed);
      expect_equal(a, b);
      EXPECT_GT(b.sum, 0u);
      EXPECT_EQ(b.metrics.rounds, kRounds + 1);
    }
    sharded.finish();
  }
}

TEST(TransportEquivalence, RateZeroFaultPlanMatchesInProc) {
  // Attaching an all-zero-rate plan flips the engine into fault mode on
  // every rank; the verdict and every counter must still match in-proc.
  const Graph g = Graph::ring(12);
  FaultPlan plan(99);
  ProtocolDriver inproc(g, kToyConfig);
  inproc.set_fault_plan(plan);
  ShardedToyHarness sharded(g, kToyConfig, 3, &plan);
  for (std::uint64_t seed = 80; seed < 84; ++seed) {
    const ToyResult a = run_toy_trial(inproc, g, seed, 0);
    const ToyResult b = sharded.run(seed);
    expect_equal(a, b);
    EXPECT_EQ(b.metrics.faults.total(), 0u);
  }
  sharded.finish();
}

TEST(TransportEquivalence, CrashScheduleMatchesInProc) {
  // Crash-stop faults cross the shard boundary: node 5 (rank 1 of 3)
  // crashes mid-run, and its neighbors' sends to it expire. Global totals
  // must match the in-process run exactly.
  const Graph g = Graph::ring(12);
  FaultPlan plan(7);
  plan.add_crash(5, 3);
  ProtocolDriver inproc(g, kToyConfig);
  inproc.set_fault_plan(plan);
  ShardedToyHarness sharded(g, kToyConfig, 3, &plan);
  for (std::uint64_t seed = 60; seed < 63; ++seed) {
    const ToyResult a = run_toy_trial(inproc, g, seed, 0);
    const ToyResult b = sharded.run(seed);
    expect_equal(a, b);
    EXPECT_EQ(b.metrics.faults.crashes, 1u);
    EXPECT_GT(b.metrics.faults.expired, 0u);
  }
  sharded.finish();
}

TEST(TransportEquivalence, ViolationAbortsEveryRankAndRecovers) {
  const Graph g = Graph::ring(12);
  ProtocolDriver inproc(g, kToyConfig);
  ShardedToyHarness sharded(g, kToyConfig, 3, nullptr);

  // Poison on the coordinator's own shard: the local engine throws.
  EXPECT_THROW((void)sharded.run(11, /*flags=*/1), ProtocolViolation);
  // Poison on the last rank's shard: the abort crosses the session and the
  // coordinator rethrows the mapped type.
  EXPECT_THROW((void)sharded.run(12, /*flags=*/12), ProtocolViolation);

  // Recovery: the pooled engines and the session serve the next trials
  // cleanly, still bit-identical to in-proc.
  for (std::uint64_t seed = 20; seed < 23; ++seed) {
    const ToyResult a = run_toy_trial(inproc, g, seed, 0);
    const ToyResult b = sharded.run(seed);
    expect_equal(a, b);
  }
  sharded.finish();
}

/// On a line, node `receiver` halts in round kRaceRound, and in that same
/// round its lower neighbor — stepped first — sends to it. Every other node
/// halts three rounds later, so the run goes on past the race.
class HaltRace : public NodeProgram {
 public:
  static constexpr std::uint64_t kRaceRound = 2;

  explicit HaltRace(std::uint32_t receiver) : receiver_(receiver) {}

  void on_round(NodeContext& ctx) override {
    if (ctx.round() == kRaceRound && ctx.id() + 1 == receiver_) {
      Message msg;
      msg.push_field(1, 8);
      ctx.send(receiver_, msg);
    }
    if (ctx.round() == (ctx.id() == receiver_ ? kRaceRound : kRaceRound + 3)) {
      ctx.halt();
    }
  }

 private:
  std::uint32_t receiver_;
};

void run_halt_race(Engine& engine, std::uint32_t receiver) {
  std::vector<HaltRace> programs(engine.graph().num_nodes(),
                                 HaltRace(receiver));
  std::vector<NodeProgram*> raw;
  for (HaltRace& p : programs) raw.push_back(&p);
  engine.run(raw, 1);
}

TEST(TransportEquivalence, HaltedReceiverThrowsOnEveryBackend) {
  // A message queued for a node that halts in the send round is a racy
  // termination in the strict model, whichever rank owns either end. Over
  // 2 ranks, nodes {0, 1} sit on rank 0 and {2, 3} on rank 1: receivers 1
  // and 3 race within one rank, receiver 2 across the shard boundary.
  const Graph g = Graph::line(4);
  const EngineConfig config{Model::kCongest, 64, 100, 0};
  for (std::uint32_t receiver = 1; receiver < 4; ++receiver) {
    Engine engine(g, config);
    EXPECT_THROW(run_halt_race(engine, receiver), ProtocolViolation)
        << "in process, receiver " << receiver;
  }

  ShmSession session =
      ShmSession::create_anonymous(ShmSession::Options{.num_ranks = 2});
  WorkerGroup group(session, [&](std::uint32_t rank) {
    Engine engine(g, config);
    ShmTransport transport(session, rank);
    engine.set_transport(&transport);
    std::uint64_t last_seq = 0;
    for (;;) {
      const ShmSession::Trial trial = session.wait_trial(last_seq);
      if (trial.shutdown) return;
      last_seq = trial.seq;
      try {
        run_halt_race(engine, static_cast<std::uint32_t>(trial.flags));
      } catch (const TransportAborted&) {
      } catch (const ProtocolViolation&) {
        // The engine already published the abort code on its unwind path.
      } catch (...) {
        session.publish_abort(
            static_cast<std::uint64_t>(TransportAbortCode::kOther), rank);
      }
      session.post_ready(rank, trial.seq);
    }
  });
  Engine engine(g, config);
  ShmTransport transport(session, 0);
  engine.set_transport(&transport);
  for (std::uint32_t receiver = 1; receiver < 4; ++receiver) {
    const std::uint64_t seq = session.begin_trial(1, receiver);
    bool violation = false;
    try {
      run_halt_race(engine, receiver);
    } catch (const ProtocolViolation&) {
      violation = true;
    } catch (const TransportAborted&) {
      violation = session.abort_code() ==
                  static_cast<std::uint64_t>(
                      TransportAbortCode::kProtocolViolation);
    }
    session.post_ready(0, seq);
    EXPECT_TRUE(violation) << "2 shm ranks, receiver " << receiver;
  }
  group.finish();
}

TEST(TransportEquivalence, AttachedDriverIsSingleLease) {
  const Graph g = Graph::ring(12);
  ShmSession session =
      ShmSession::create_anonymous(ShmSession::Options{.num_ranks = 2});
  ShmTransport transport(session, 0);
  ProtocolDriver driver(g, kToyConfig);

  {
    // set_transport while an engine is leased is a logic error.
    ProtocolDriver::Lease lease = driver.acquire();
    EXPECT_THROW(driver.set_transport(&transport), std::logic_error);
  }
  driver.set_transport(&transport);
  {
    // With a transport attached the pool never grows: a second concurrent
    // lease throws instead of handing out an engine the transport cannot
    // serve.
    ProtocolDriver::Lease lease = driver.acquire();
    EXPECT_THROW((void)driver.acquire(), std::logic_error);
  }
  // Sequential leases reuse the single pooled engine.
  EXPECT_NO_THROW({
    ProtocolDriver::Lease again = driver.acquire();
    (void)again;
  });
  // Detaching restores the growable pool.
  driver.set_transport(nullptr);
  ProtocolDriver::Lease a = driver.acquire();
  EXPECT_NO_THROW((void)driver.acquire());
}

}  // namespace
}  // namespace dut::net
