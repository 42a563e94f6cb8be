// Event-driven rounds: a node that calls NodeContext::sleep() is skipped
// until a message reaches it. Sleeping must be invisible — the same trace
// events, EngineMetrics and program results as a run that never sleeps, in
// process and over a 2-rank ShmTransport — while net.node_steps shows the
// steps it saved against net.live_node_rounds.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dut/net/engine.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/transport/shm_session.hpp"
#include "dut/net/transport/shm_transport.hpp"
#include "dut/net/transport/worker_group.hpp"
#include "dut/obs/metrics.hpp"
#include "dut/obs/trace.hpp"

namespace dut::net {
namespace {

/// Keeps every event as one text line, so two runs compare with ==.
class RecordingSink : public obs::TraceSink {
 public:
  void on_run_start(const obs::TraceRunInfo& info) override {
    add("run_start", info.nodes, info.seed, info.level);
  }
  void on_round(std::uint64_t round, std::uint32_t active) override {
    add("round", round, active);
  }
  void on_send(std::uint64_t round, std::uint32_t from, std::uint32_t to,
               std::uint64_t bits) override {
    add("send", round, from, to, bits);
  }
  void on_deliver(std::uint64_t round, std::uint32_t from, std::uint32_t to,
                  std::uint64_t bits) override {
    add("deliver", round, from, to, bits);
  }
  void on_halt(std::uint64_t round, std::uint32_t node) override {
    add("halt", round, node);
  }
  void on_fault(std::uint64_t round, std::string_view kind,
                std::uint32_t from, std::uint32_t to) override {
    add("fault " + std::string(kind), round, from, to);
  }
  void on_violation(std::uint64_t round, std::string_view kind,
                    std::string_view detail) override {
    events.push_back("violation " + std::to_string(round) + " " +
                     std::string(kind) + " " + std::string(detail));
  }
  void on_run_end(const obs::TraceRunTotals& totals) override {
    add("run_end", totals.rounds, totals.messages, totals.total_bits,
        totals.max_message_bits);
  }

  std::vector<std::string> events;

 private:
  template <typename... Words>
  void add(std::string line, Words... words) {
    ((line += " " + std::to_string(words)), ...);
    events.push_back(std::move(line));
  }
};

/// Random walkers plus a stop flood; RNG is drawn only when a walker
/// arrives. In round 0 each origin launches one walker to a fixed
/// neighbor; it takes `hops` hops in all, each later one to a neighbor
/// drawn by the node it reaches, and walkers bound for the same neighbor
/// in one round share a message. All walkers end together, and every node
/// where one ends starts a stop flood: each node broadcasts STOP once, on
/// its first STOP or walker end, and halts when STOP has arrived from
/// every neighbor. Every step after round 0 acts on its inbox alone, so
/// with `sleepy` the node sleeps after every step.
class Relay : public NodeProgram {
 public:
  Relay(bool origin, std::uint64_t hops, bool sleepy)
      : origin_(origin), hops_(hops), sleepy_(sleepy) {}

  void on_round(NodeContext& ctx) override {
    outbound_.assign(ctx.degree(), 0);
    if (ctx.round() == 0 && origin_) ++outbound_[ctx.id() % ctx.degree()];
    std::uint64_t left = hops_;  // hops the walkers here have left
    std::uint64_t arrived = 0;
    for (const MessageView m : ctx.inbox()) {
      acc_ = (acc_ ^ (m.sender * 0x9E3779B97F4A7C15ULL + m.field(1) +
                      (m.field(2) << 20) + ctx.round())) *
             0x100000001B3ULL;
      if (m.field(0) == kStop) {
        ++stops_;
      } else {
        left = m.field(1);
        arrived += m.field(2);
      }
    }
    walkers_seen_ += arrived;
    if (left > 0) {
      for (std::uint64_t w = 0; w < arrived; ++w) {
        ++outbound_[ctx.rng().below(ctx.degree())];
      }
      for (std::uint32_t i = 0; i < ctx.degree(); ++i) {
        if (outbound_[i] == 0) continue;
        Message msg;
        msg.push_field(kWalk, 2);
        msg.push_field(left - 1, 16);
        msg.push_field(outbound_[i], 8);
        ctx.send(ctx.neighbors()[i], msg);
      }
    }
    if (!stop_sent_ && (stops_ > 0 || (arrived > 0 && left == 0))) {
      Message msg;
      msg.push_field(kStop, 2);
      msg.push_field(0, 16);
      msg.push_field(0, 8);
      ctx.broadcast(msg);
      stop_sent_ = true;
    }
    if (stop_sent_ && stops_ == ctx.degree()) {
      halt_round_ = ctx.round();
      ctx.halt();
    } else if (sleepy_) {
      ctx.sleep();
    }
  }

  std::vector<std::uint64_t> result() const {
    return {acc_, halt_round_, walkers_seen_};
  }

 private:
  static constexpr std::uint64_t kWalk = 1;
  static constexpr std::uint64_t kStop = 2;

  bool origin_;
  std::uint64_t hops_;
  bool sleepy_;
  std::vector<std::uint64_t> outbound_;
  std::uint64_t acc_ = 0;
  std::uint64_t stops_ = 0;
  bool stop_sent_ = false;
  std::uint64_t halt_round_ = 0;
  std::uint64_t walkers_seen_ = 0;
};

constexpr std::uint64_t kHops = 9;

std::uint64_t fnv(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

struct RelayRun {
  std::vector<std::string> events;     ///< this rank's trace events
  std::vector<std::uint64_t> results;  ///< this rank's shard, id order
  EngineMetrics metrics;
  /// Per rank, in rank order: digest of its events, digest of its results.
  std::vector<std::uint64_t> digests;
};

/// One relay run on `engine` (over whatever transport it has attached);
/// every rank of a sharded run calls it with the same arguments.
RelayRun run_relay(Engine& engine, std::uint64_t seed, bool sleepy) {
  const std::uint32_t k = engine.graph().num_nodes();
  std::vector<Relay> programs;
  programs.reserve(k);
  for (std::uint32_t v = 0; v < k; ++v) {
    programs.emplace_back(v % 7 == 3, kHops, sleepy);
  }
  std::vector<NodeProgram*> raw;
  for (Relay& p : programs) raw.push_back(&p);
  RecordingSink sink;
  engine.set_trace_sink(&sink);
  engine.run(raw, seed);
  engine.set_trace_sink(nullptr);

  RelayRun run;
  run.events = std::move(sink.events);
  run.metrics = engine.metrics();
  const auto [first, last] = engine.transport().shard(k);
  for (std::uint32_t v = first; v < last; ++v) {
    for (const std::uint64_t word : programs[v].result()) {
      run.results.push_back(word);
    }
  }
  std::uint64_t events_digest = 0xCBF29CE484222325ULL;
  for (const std::string& e : run.events) events_digest = fnv(events_digest, e);
  std::uint64_t results_digest = 0xCBF29CE484222325ULL;
  for (const std::uint64_t word : run.results) {
    results_digest = fnv(results_digest, std::to_string(word) + ",");
  }
  const std::uint64_t local[2] = {events_digest, results_digest};
  engine.transport().exchange_summaries(local, run.digests);
  return run;
}

void expect_same_metrics(const EngineMetrics& a, const EngineMetrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
  EXPECT_EQ(a.faults.total(), b.faults.total());
  EXPECT_EQ(a.budget.messages, b.budget.messages);
  EXPECT_EQ(a.budget.max_edge_round_bits, b.budget.max_edge_round_bits);
  EXPECT_EQ(a.budget.max_node_bits, b.budget.max_node_bits);
  EXPECT_EQ(a.budget.busiest_node, b.budget.busiest_node);
  EXPECT_EQ(a.budget.violations, b.budget.violations);
}

const EngineConfig kRelayConfig{Model::kCongest, 64, 4096, 0};

/// Level-2 tracing for the test's lifetime, so the deliver events — read
/// off the transport's receivers — are part of what must match.
class ScopedDeliverTrace {
 public:
  ScopedDeliverTrace() { setenv("DUT_TRACE_LEVEL", "2", 1); }
  ~ScopedDeliverTrace() { unsetenv("DUT_TRACE_LEVEL"); }
};

struct Counts {
  std::uint64_t node_steps = 0;
  std::uint64_t live_node_rounds = 0;
};

Counts read_counts() {
  return {obs::counter("net.node_steps").value(),
          obs::counter("net.live_node_rounds").value()};
}

TEST(EngineSleep, SleepingIsInvisibleInProcess) {
  const ScopedDeliverTrace deliver_trace;
  for (const std::uint32_t k : {24u, 57u, 80u}) {
    for (std::uint64_t graph_seed = 1; graph_seed <= 3; ++graph_seed) {
      const Graph g = Graph::random_connected(k, 2.0, graph_seed);
      Engine engine(g, kRelayConfig);
      const std::uint64_t seed = 1000 * k + graph_seed;
      const RelayRun polled = run_relay(engine, seed, /*sleepy=*/false);
      const RelayRun sleepy = run_relay(engine, seed, /*sleepy=*/true);
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " graph_seed=" + std::to_string(graph_seed));
      EXPECT_EQ(polled.events, sleepy.events);
      EXPECT_EQ(polled.results, sleepy.results);
      EXPECT_EQ(polled.digests, sleepy.digests);
      expect_same_metrics(polled.metrics, sleepy.metrics);
      EXPECT_GT(polled.metrics.rounds, kHops);
    }
  }
}

TEST(EngineSleep, SleepingIsInvisibleOverTwoShmRanks) {
  const ScopedDeliverTrace deliver_trace;
  for (const std::uint32_t k : {24u, 57u}) {
    for (std::uint64_t graph_seed = 4; graph_seed <= 5; ++graph_seed) {
      const Graph g = Graph::random_connected(k, 2.0, graph_seed);
      ShmSession session =
          ShmSession::create_anonymous(ShmSession::Options{.num_ranks = 2});
      WorkerGroup group(session, [&](std::uint32_t rank) {
        Engine engine(g, kRelayConfig);
        ShmTransport transport(session, rank);
        engine.set_transport(&transport);
        std::uint64_t last_seq = 0;
        for (;;) {
          const ShmSession::Trial trial = session.wait_trial(last_seq);
          if (trial.shutdown) return;
          last_seq = trial.seq;
          try {
            (void)run_relay(engine, trial.seed, trial.flags != 0);
          } catch (...) {
            session.publish_abort(
                static_cast<std::uint64_t>(TransportAbortCode::kOther), rank);
          }
          session.post_ready(rank, trial.seq);
        }
      });
      Engine engine(g, kRelayConfig);
      ShmTransport transport(session, 0);
      engine.set_transport(&transport);
      Engine reference(g, kRelayConfig);
      const auto sharded = [&](std::uint64_t seed, bool sleepy) {
        const std::uint64_t seq = session.begin_trial(seed, sleepy ? 1 : 0);
        try {
          RelayRun run = run_relay(engine, seed, sleepy);
          session.post_ready(0, seq);
          return run;
        } catch (...) {
          session.post_ready(0, seq);
          throw;
        }
      };
      const std::uint64_t seed = 77 * k + graph_seed;
      const RelayRun polled = sharded(seed, /*sleepy=*/false);
      const RelayRun sleepy = sharded(seed, /*sleepy=*/true);
      group.finish();
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " graph_seed=" + std::to_string(graph_seed));
      ASSERT_EQ(polled.digests.size(), 4u);
      EXPECT_EQ(polled.events, sleepy.events);
      EXPECT_EQ(polled.digests, sleepy.digests);
      expect_same_metrics(polled.metrics, sleepy.metrics);
      // And the sharded metrics are the in-process ones.
      expect_same_metrics(polled.metrics,
                          run_relay(reference, seed, true).metrics);
    }
  }
}

/// Node 0 counts rounds awake and sends once to node 1 in round `at`;
/// node 1 sleeps from round 0 and halts when the message arrives.
class WakeProbe : public NodeProgram {
 public:
  explicit WakeProbe(std::uint64_t at) : at_(at) {}

  void on_round(NodeContext& ctx) override {
    stepped_.push_back(ctx.round());
    if (ctx.id() == 0) {
      if (ctx.round() == at_) {
        Message msg;
        msg.push_field(1, 8);
        ctx.send(1, msg);
        ctx.halt();
      }
      return;
    }
    if (!ctx.inbox().empty()) {
      ctx.halt();
    } else {
      ctx.sleep();
    }
  }

  std::vector<std::uint64_t> stepped_;

 private:
  std::uint64_t at_;
};

TEST(EngineSleep, SleeperIsSteppedInTheRoundAMessageReachesIt) {
  const Graph g = Graph::line(2);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 5});
  std::vector<WakeProbe> programs(2, WakeProbe(6));
  std::vector<NodeProgram*> raw{&programs[0], &programs[1]};
  engine.run(raw);
  EXPECT_EQ(programs[0].stepped_,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(programs[1].stepped_, (std::vector<std::uint64_t>{0, 7}));
  EXPECT_EQ(engine.metrics().rounds, 8u);
  EXPECT_EQ(engine.metrics().messages, 1u);
}

class Insomniac : public NodeProgram {
 public:
  void on_round(NodeContext& ctx) override {
    ++steps_;
    ctx.sleep();
  }
  std::uint64_t steps_ = 0;
};

TEST(EngineSleep, EternalSleeperStillHitsTheRoundLimit) {
  const Graph g = Graph::ring(6);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 40, 5});
  RecordingSink sink;
  engine.set_trace_sink(&sink);
  std::vector<Insomniac> programs(6);
  std::vector<NodeProgram*> raw;
  for (Insomniac& p : programs) raw.push_back(&p);
  EXPECT_THROW(engine.run(raw), RoundLimitExceeded);
  for (const Insomniac& p : programs) EXPECT_EQ(p.steps_, 1u);
  // One round event per round, then the round-limit violation.
  std::uint64_t rounds = 0;
  for (const std::string& e : sink.events) {
    if (e.rfind("round ", 0) == 0) ++rounds;
  }
  EXPECT_EQ(rounds, 40u);
  ASSERT_FALSE(sink.events.empty());
  EXPECT_EQ(sink.events.back().rfind("violation 40 round_limit", 0), 0u)
      << sink.events.back();
}

/// Never sleeps; node v halts in round v % 5 + 2, so the live count falls.
class Staggered : public NodeProgram {
 public:
  void on_round(NodeContext& ctx) override {
    if (ctx.round() == ctx.id() % 5 + 2) ctx.halt();
  }
};

TEST(EngineSleep, PollingProgramStepsEveryLiveNodeRound) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled (DUT_OBS_LEVEL=0)";
  const Graph g = Graph::grid(4, 5);
  Engine engine(g, EngineConfig{Model::kCongest, 64, 100, 5});
  std::vector<Staggered> programs(20);
  std::vector<NodeProgram*> raw;
  for (Staggered& p : programs) raw.push_back(&p);
  const Counts before = read_counts();
  engine.run(raw);
  const Counts after = read_counts();
  const std::uint64_t steps = after.node_steps - before.node_steps;
  // Four nodes each live for 3, 4, 5, 6 and 7 rounds.
  EXPECT_EQ(steps, 4u * (3 + 4 + 5 + 6 + 7));
  EXPECT_EQ(steps, after.live_node_rounds - before.live_node_rounds);
}

TEST(EngineSleep, SleepingRelayStepsFewerNodes) {
  if (!obs::enabled()) GTEST_SKIP() << "metrics disabled (DUT_OBS_LEVEL=0)";
  const Graph g = Graph::random_connected(80, 2.0, 9);
  Engine engine(g, kRelayConfig);
  Counts before = read_counts();
  (void)run_relay(engine, 31, /*sleepy=*/false);
  Counts after = read_counts();
  const std::uint64_t polled_steps = after.node_steps - before.node_steps;
  const std::uint64_t live = after.live_node_rounds - before.live_node_rounds;
  EXPECT_EQ(polled_steps, live);

  before = read_counts();
  (void)run_relay(engine, 31, /*sleepy=*/true);
  after = read_counts();
  EXPECT_EQ(after.live_node_rounds - before.live_node_rounds, live);
  EXPECT_LT(after.node_steps - before.node_steps, polled_steps / 2);
}

}  // namespace
}  // namespace dut::net
