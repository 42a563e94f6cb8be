#pragma once

// Synchronous message-passing engine for the LOCAL and CONGEST models.
//
// Execution follows the standard synchronous round structure: in round t,
// every non-halted node receives the messages sent to it in round t-1, runs
// its program, and queues messages for delivery in round t+1. The engine is
// fully deterministic given (graph, seed, programs): nodes execute in id
// order and each node's RNG is the derived stream (seed, node id).
//
// Rounds are event-driven. A program that calls NodeContext::sleep()
// declares that a step with an empty inbox would do nothing, and the
// engine skips the node until a message reaches it. Each round therefore
// steps last round's non-sleepers plus this round's receivers, in
// ascending id order; a program that never sleeps is stepped every round
// it is live. Since a skipped step is by contract a no-op, sleeping
// changes no transcript, metric or result — only the work per round, which
// falls from O(live nodes) to O(woken nodes + messages).
//
// Model enforcement is loud:
//  * CONGEST: any message whose declared size exceeds the bandwidth budget
//    throws BandwidthExceeded; a second message on the same directed edge in
//    the same round throws ProtocolViolation (both models).
//  * Sending to a non-adjacent or halted node throws ProtocolViolation —
//    protocols must respect the topology and terminate cleanly.
// The run aborts with RoundLimitExceeded if config.max_rounds elapse before
// every node halts, so livelocked protocols fail fast instead of spinning.
//
// Delivery: messages in flight live behind a net::Transport
// (dut/net/transport/transport.hpp). The default backend is the engine's
// own InProcTransport — a flat payload slab plus a flat record array per
// direction (detail::RoundArena), flipped at each round boundary by a
// stable scatter that gives each receiver its CSR inbox range and touches
// no other node. The transport lists the round's receivers, ascending
// (a bitmap walk, no sort), which is how the engine finds the sleepers to
// wake. Programs read their inbox through MessageView windows into the
// slab, and the buffers' capacity persists both across rounds and across
// run() calls. That makes an Engine cheaply re-runnable: run(programs,
// seed) fully resets round state and metrics, so one engine per worker
// thread amortizes all allocation across a Monte-Carlo sweep (see
// net::ProtocolDriver). Attaching a ShmTransport instead shards the node
// range over multiple rank processes that exchange rounds through shared
// memory; the engine then executes only its rank's shard and the metrics
// it reports are the all-rank fold (bit-identical to the single-process
// run).
//
// Sync points and round cost. Ranks synchronize at exactly one point per
// round: Transport::exchange_round, called once before round 0 and once
// at the end of every round. It ships the round's sends and returns the
// all-rank live count (the loop condition and the round-limit check) and
// the all-rank count of live nodes the crash schedule stops next round
// (live minus crashes is the `round` event's `active`). flip_round then
// builds the inboxes locally. A round therefore costs one exchange plus
// O(woken nodes + messages + fields + receivers + span/4096) — the last
// term the arena's receiver-bitmap summary — with no per-message
// allocation; in-process the exchange is the identity. After the loop a
// run synchronizes once more: it gathers every rank's 15 EngineMetrics
// words through Transport::exchange_summaries and folds them (max of
// rounds and widths, sum of counts), the 1-block identity in process.
//
// Observability: a run emits structured events (run_start, round, send,
// deliver, halt, violation, run_end) to an obs::TraceSink attached with
// set_trace_sink(), or — when no sink is attached — to a JSONL writer named
// by the DUT_TRACE environment variable (DUT_TRACE_TAIL=N keeps only the
// last N rounds, DUT_TRACE_LEVEL=2 adds per-message deliver events). Under
// parallel trials, set_env_trace(false) opts a worker's engine out of the
// DUT_TRACE resolution so exactly one designated trial produces the
// transcript. Sharded runs append the transport's rank suffix to the
// DUT_TRACE path, writing one transcript shard per rank
// (obs::merge_trace_shards reassembles the global transcript). The sink is
// flushed before any model-violation throw, so the transcript always
// contains the offending round. Aggregate counters and per-round
// message/bit histograms land in the obs metrics registry under "net.*"
// (per-round histograms cover this rank's shard; everything derived from
// EngineMetrics is global). net.node_steps counts on_round calls and
// net.live_node_rounds what a polling engine would have stepped (the
// per-round sum of live nodes); both are shard-local, and their ratio is
// the share of work event-driven rounds still do.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dut/net/arena.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/message.hpp"
#include "dut/net/transport/transport.hpp"
#include "dut/obs/budget.hpp"
#include "dut/stats/rng.hpp"

namespace dut::obs {
class TraceSink;
}  // namespace dut::obs

namespace dut::net {

class InProcTransport;

enum class Model { kLocal, kCongest };

struct EngineConfig {
  Model model = Model::kCongest;
  /// Per-message bit budget in CONGEST (ignored in LOCAL).
  std::uint64_t bandwidth_bits = 64;
  /// Hard cap on rounds; exceeding it throws RoundLimitExceeded.
  std::uint64_t max_rounds = 1 << 20;
  /// Master seed for the per-node RNG streams (run() can override per call).
  std::uint64_t seed = 0;
};

class BandwidthExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ProtocolViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class RoundLimitExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EngineMetrics {
  std::uint64_t rounds = 0;        ///< rounds executed until quiescence
  std::uint64_t messages = 0;      ///< total send attempts (faulty included)
  std::uint64_t total_bits = 0;    ///< sum of declared message sizes
  std::uint64_t max_message_bits = 0;
  /// Injected-fault tallies; all zero unless a FaultPlan is attached.
  FaultCounts faults;
  /// Communication-budget usage metered by the run's obs::BudgetLedger.
  obs::BudgetUsage budget;
};

class Engine;

/// Per-round view a node program receives.
class NodeContext {
 public:
  std::uint32_t id() const noexcept { return id_; }
  std::uint64_t round() const noexcept { return round_; }
  std::span<const std::uint32_t> neighbors() const noexcept {
    return neighbors_;
  }
  std::uint32_t degree() const noexcept {
    return static_cast<std::uint32_t>(neighbors_.size());
  }

  /// Messages delivered this round (sent by neighbors last round). The views
  /// point into the transport's round arena and expire when the round ends.
  /// Empty when the engine steps the node only because it did not sleep.
  InboxView inbox() const noexcept { return inbox_; }

  /// Queues `msg` for delivery to `neighbor` next round. `neighbor` must be
  /// adjacent; model constraints are enforced immediately.
  void send(std::uint32_t neighbor, const Message& msg);

  /// Sends a copy of `msg` to every neighbor.
  void broadcast(const Message& msg);

  /// This node's deterministic RNG stream.
  stats::Xoshiro256& rng() noexcept { return *rng_; }

  /// Marks the node as finished; on_round will not be called again.
  void halt() noexcept { halted_ = true; }

  /// Declares that stepping this node with an empty inbox would do nothing
  /// (no send, no halt, no RNG draw, no state change). The engine then
  /// skips the node until a message reaches it and steps it in the round
  /// that message is delivered. The declaration covers one step: a woken
  /// node that has nothing left to do calls sleep() again. A node that
  /// sleeps forever without halting still counts as active, so the run
  /// ends with RoundLimitExceeded as it would under polling.
  void sleep() noexcept { asleep_ = true; }

 private:
  friend class Engine;
  NodeContext() = default;

  Engine* engine_ = nullptr;
  std::uint32_t id_ = 0;
  std::uint64_t round_ = 0;
  std::span<const std::uint32_t> neighbors_;
  InboxView inbox_;
  stats::Xoshiro256* rng_ = nullptr;
  bool halted_ = false;
  bool asleep_ = false;
};

/// A distributed algorithm, instantiated once per node.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  /// Called in round 0 (with an empty inbox) and then in every round until
  /// the node halts via ctx.halt() — except the rounds it sleeps through
  /// (ctx.sleep()), which end when a message reaches it.
  virtual void on_round(NodeContext& ctx) = 0;
};

class Engine : private TransportHooks {
 public:
  Engine(const Graph& graph, EngineConfig config);
  ~Engine();

  /// Runs `programs[v]` on node v until all nodes halt. `programs` must
  /// have exactly num_nodes entries; the caller retains ownership and can
  /// read results out of the programs afterwards. Fully resets round state,
  /// metrics and RNG streams, so back-to-back calls are independent. Over a
  /// sharded transport only this rank's shard executes (the other entries
  /// of `programs` are required but untouched).
  void run(const std::vector<NodeProgram*>& programs);

  /// Same, but derives the per-node RNG streams (and stamps the transcript)
  /// with `seed` instead of config.seed — one engine serves a whole
  /// Monte-Carlo sweep without reconstruction.
  void run(const std::vector<NodeProgram*>& programs, std::uint64_t seed);

  const EngineMetrics& metrics() const noexcept { return metrics_; }
  const Graph& graph() const noexcept { return graph_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// Attaches a delivery backend for subsequent run() calls (nullptr
  /// restores the built-in InProcTransport). The caller retains ownership
  /// and must keep the transport alive across run(); one transport serves
  /// one engine at a time.
  void set_transport(Transport* transport) noexcept;
  Transport& transport() const noexcept { return *transport_; }

  /// Attaches a trace sink for subsequent run() calls (nullptr detaches).
  /// An attached sink takes precedence over the DUT_TRACE environment
  /// variable; the caller retains ownership and must keep it alive across
  /// run().
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_sink_ = sink; }

  /// Controls whether run() resolves the DUT_TRACE environment variable
  /// (default true). Parallel trial runners disable it on all but the
  /// designated trial so the transcript covers exactly one run. An attached
  /// sink is unaffected.
  void set_env_trace(bool enabled) noexcept { env_trace_ = enabled; }

  /// Attaches a copy of `plan` and switches the engine into fault mode for
  /// subsequent run() calls (see dut/net/fault.hpp for the semantics; a
  /// plan with all rates zero and no crashes still relaxes the lossless
  /// model checks). Fault randomness is keyed on (plan salt, run seed,
  /// round, edge, msg index) only, so it is independent of DUT_THREADS.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  void clear_fault_plan() noexcept { fault_plan_.reset(); }
  bool fault_mode() const noexcept { return fault_plan_.has_value(); }
  const FaultPlan* fault_plan() const noexcept {
    return fault_plan_.has_value() ? &*fault_plan_ : nullptr;
  }

  /// Builds the replay metadata of a run_start preamble (trace.hpp).
  using RunPreamble =
      std::function<std::vector<std::pair<std::string, std::string>>()>;

  /// The preamble builder for the next runs. run() calls it only when the
  /// run has a trace sink, before the transcript opens: an untraced run
  /// never renders its preamble, so a setup that has no replay spec (a
  /// per-edge FaultPlan) still runs, while a traced one fails with the
  /// builder's exception and writes nothing. Replaced only by the next
  /// call, so pooled engines must be re-stamped (or blanked) per lease.
  /// Runners pass it through ProtocolDriver::run_trial.
  void set_run_preamble(RunPreamble preamble) {
    run_preamble_ = std::move(preamble);
  }

 private:
  friend class NodeContext;
  void deliver(std::uint32_t from, std::uint32_t to, const Message& msg);
  /// How many live nodes of the shard [shard_first, shard_last) the crash
  /// schedule stops at the start of `round`: what the crash block will
  /// apply, counted ahead for the round exchange.
  std::uint64_t crashes_due(std::uint64_t round, std::uint32_t shard_first,
                            std::uint32_t shard_last) const;
  /// Tallies the fault in the metrics registry and emits the trace event.
  void emit_fault(std::string_view kind, std::uint32_t from, std::uint32_t to);
  /// Records a violation on the active sink (flushing it so the transcript
  /// survives the imminent throw) and in the metrics registry.
  void trace_violation(std::string_view kind, const std::string& detail);

  // TransportHooks: delivery-time bookkeeping the transport reports back.
  bool is_halted(std::uint32_t node) const noexcept override {
    return halted_[node];
  }
  std::uint64_t halt_key(std::uint32_t node) const noexcept override {
    return halt_key_[node];
  }
  void count_expired(std::uint32_t from, std::uint32_t to) override;
  [[noreturn]] void reject_remote_to_halted(std::uint32_t from,
                                            std::uint32_t to) override;

  /// "Never carried a message" sentinel for the directed-edge guard. The
  /// guard stores the actual round number of the last send; current_round_
  /// is always < config.max_rounds when a send executes, so it can never
  /// reach this value and the sentinel is unambiguous even in round 0.
  static constexpr std::uint64_t kNeverSent =
      std::numeric_limits<std::uint64_t>::max();

  const Graph& graph_;
  EngineConfig config_;
  EngineMetrics metrics_;

  std::uint64_t current_round_ = 0;
  std::vector<bool> halted_;
  /// Per-node halt visibility key (kNeverHalted while running) — see
  /// transport.hpp; maintained alongside halted_ for the halt_key hook.
  std::vector<std::uint64_t> halt_key_;
  std::vector<stats::Xoshiro256> rngs_;

  /// The delivery backend: the built-in single-process arena unless
  /// set_transport attached another one.
  std::unique_ptr<InProcTransport> inproc_;
  Transport* transport_ = nullptr;

  /// The woken set. awake_ lists, ascending, the shard nodes whose last
  /// step neither slept nor halted; each round steps awake_ ∪ the
  /// transport's receivers (merged into stepping_) and rebuilds awake_.
  std::vector<std::uint32_t> awake_;
  std::vector<std::uint32_t> stepping_;

  /// Sorted adjacency in CSR layout (the graph's own lists are not sorted):
  /// node v's neighbors, ascending, occupy sorted_adj_[edge_offset_[v],
  /// edge_offset_[v+1]). Membership checks on send are a binary search, and
  /// the directed-edge guard slot for v's i-th sorted neighbor is
  /// last_sent_round_[edge_offset_[v] + i] — one flat allocation reset per
  /// run.
  std::vector<std::size_t> edge_offset_;  // size num_nodes + 1
  std::vector<std::uint32_t> sorted_adj_;
  std::vector<std::uint64_t> last_sent_round_;

  /// Fault state. The crash cursor walks the plan's sorted crash schedule;
  /// delayed-message buffers live in the transport.
  std::optional<FaultPlan> fault_plan_;
  std::size_t crash_cursor_ = 0;
  std::uint64_t fault_key_ = 0;   // mixed (salt, run seed) for resolve_faults
  bool message_faults_ = false;   // cached fault_plan_->has_message_faults()
  std::vector<std::uint64_t> corrupt_scratch_;  // corrupted-payload staging

  obs::TraceSink* trace_sink_ = nullptr;  // attached via set_trace_sink
  obs::TraceSink* active_sink_ = nullptr;  // effective sink for current run
  bool trace_delivers_ = false;            // DUT_TRACE_LEVEL >= 2
  bool env_trace_ = true;                  // DUT_TRACE resolution enabled

  obs::BudgetLedger ledger_;
  RunPreamble run_preamble_;

  /// Every rank's packed EngineMetrics, gathered after each run through
  /// the transport; kept so a pooled engine's gather stays allocation-free.
  std::vector<std::uint64_t> metrics_gather_;
};

}  // namespace dut::net
