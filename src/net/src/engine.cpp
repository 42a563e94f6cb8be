#include "dut/net/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <string>

#include "dut/net/transport/inproc.hpp"
#include "dut/obs/env.hpp"
#include "dut/obs/metrics.hpp"
#include "dut/obs/trace.hpp"

namespace dut::net {

void NodeContext::send(std::uint32_t neighbor, const Message& msg) {
  engine_->deliver(id_, neighbor, msg);
}

void NodeContext::broadcast(const Message& msg) {
  for (const std::uint32_t u : neighbors_) send(u, msg);
}

Engine::Engine(const Graph& graph, EngineConfig config)
    : graph_(graph), config_(config) {
  if (config_.model == Model::kCongest && config_.bandwidth_bits == 0) {
    throw std::invalid_argument("Engine: CONGEST needs a bandwidth budget");
  }
  const std::uint32_t k = graph_.num_nodes();
  edge_offset_.resize(k + 1);
  edge_offset_[0] = 0;
  for (std::uint32_t v = 0; v < k; ++v) {
    edge_offset_[v + 1] = edge_offset_[v] + graph_.degree(v);
  }
  sorted_adj_.resize(edge_offset_.back());
  for (std::uint32_t v = 0; v < k; ++v) {
    const auto neighbors = graph_.neighbors(v);
    std::copy(neighbors.begin(), neighbors.end(),
              sorted_adj_.begin() + static_cast<std::ptrdiff_t>(
                                        edge_offset_[v]));
    std::sort(sorted_adj_.begin() +
                  static_cast<std::ptrdiff_t>(edge_offset_[v]),
              sorted_adj_.begin() +
                  static_cast<std::ptrdiff_t>(edge_offset_[v + 1]));
  }
  last_sent_round_.assign(edge_offset_.back(), kNeverSent);
  inproc_ = std::make_unique<InProcTransport>();
  transport_ = inproc_.get();
}

Engine::~Engine() = default;

void Engine::set_transport(Transport* transport) noexcept {
  transport_ = transport != nullptr ? transport : inproc_.get();
}

void Engine::trace_violation(std::string_view kind, const std::string& detail) {
  if (obs::enabled()) obs::counter("net.violations").add();
  if (active_sink_ != nullptr) {
    active_sink_->on_violation(current_round_, kind, detail);
    active_sink_->flush();
  }
}

void Engine::count_expired(std::uint32_t from, std::uint32_t to) {
  ++metrics_.faults.expired;
  emit_fault("expire", from, to);
}

void Engine::reject_remote_to_halted(std::uint32_t from, std::uint32_t to) {
  // Worded exactly like the sender-side strict check so a sharded run's
  // merged transcript matches the in-process one.
  const std::string detail = "node " + std::to_string(from) +
                             " sent to halted node " + std::to_string(to);
  trace_violation("protocol", detail);
  throw ProtocolViolation(detail);
}

void Engine::deliver(std::uint32_t from, std::uint32_t to, const Message& msg) {
  const std::size_t adj_begin = edge_offset_[from];
  const std::size_t adj_end = edge_offset_[from + 1];
  const auto first = sorted_adj_.begin() + static_cast<std::ptrdiff_t>(
                                               adj_begin);
  const auto last =
      sorted_adj_.begin() + static_cast<std::ptrdiff_t>(adj_end);
  const auto it = std::lower_bound(first, last, to);
  if (it == last || *it != to) {
    const std::string detail = "node " + std::to_string(from) +
                               " sent to non-neighbor " + std::to_string(to);
    trace_violation("protocol", detail);
    throw ProtocolViolation(detail);
  }
  const auto edge_index = static_cast<std::size_t>(it - first);
  std::uint64_t& guard = last_sent_round_[adj_begin + edge_index];
  if (guard == current_round_) {
    const std::string detail =
        "node " + std::to_string(from) + " sent twice to " +
        std::to_string(to) + " in round " + std::to_string(current_round_);
    trace_violation("protocol", detail);
    throw ProtocolViolation(detail);
  }
  // Sharded caveat: halted_ only tracks this rank's shard, so a strict-mode
  // send to a halted *remote* node passes here and is rejected by the owning
  // rank at the delivery boundary instead (reject_remote_to_halted).
  if (halted_[to] && !fault_plan_.has_value()) {
    const std::string detail = "node " + std::to_string(from) +
                               " sent to halted node " + std::to_string(to);
    trace_violation("protocol", detail);
    throw ProtocolViolation(detail);
  }
  guard = current_round_;

  // The send attempt is traced before the bandwidth check so a transcript of
  // an aborted run still shows the offending message.
  if (active_sink_ != nullptr) {
    active_sink_->on_send(current_round_, from, to, msg.bits);
  }
  if (config_.model == Model::kCongest && msg.bits > config_.bandwidth_bits) {
    const std::string detail =
        "message of " + std::to_string(msg.bits) + " bits exceeds budget of " +
        std::to_string(config_.bandwidth_bits) + " (edge " +
        std::to_string(from) + " -> " + std::to_string(to) + ")";
    trace_violation("bandwidth", detail);
    throw BandwidthExceeded(detail);
  }

  ++metrics_.messages;
  metrics_.total_bits += msg.bits;
  metrics_.max_message_bits = std::max(metrics_.max_message_bits, msg.bits);
  if (const std::string breach = ledger_.on_send(current_round_, from,
                                                 msg.bits);
      !breach.empty()) {
    // The ledger's spec derives from the limits enforced above, so a breach
    // means the two disagree. Soft by design: record and keep running so
    // the full blast radius lands in one transcript.
    if (obs::enabled()) obs::counter("net.budget.violations").add();
    trace_violation("budget", breach);
  }

  if (halted_[to]) {
    // Fault mode: the receiver halted or crashed; the message is lost on
    // the floor instead of being a protocol violation.
    ++metrics_.faults.expired;
    emit_fault("expire", from, to);
    return;
  }

  FaultDraw draw;
  if (message_faults_) {
    draw = resolve_faults(fault_plan_->rates_for(from, to), fault_key_,
                          current_round_, adj_begin + edge_index, 0);
  }
  if (draw.drop) {
    ++metrics_.faults.dropped;
    emit_fault("drop", from, to);
    return;
  }

  std::span<const std::uint64_t> fields = msg.fields();
  detail::ArenaRecord rec;
  rec.sender = from;
  rec.to = to;
  rec.num_fields = static_cast<std::uint32_t>(fields.size());
  rec.bits = msg.bits;
  if (draw.corrupt && rec.num_fields > 0) {
    // Corruption is staged in an engine-owned scratch copy before the
    // transport takes the payload; it flips bits within the field's occupied
    // width only: the arena does not retain per-field declared widths, so
    // this is the strongest corruption that provably keeps the value
    // wire-valid (a corrupted field never exceeds the width its sender
    // declared).
    corrupt_scratch_.assign(fields.begin(), fields.end());
    std::uint64_t& slot =
        corrupt_scratch_[draw.corrupt_field % rec.num_fields];
    const int occupied = slot == 0 ? 1 : std::bit_width(slot);
    std::uint64_t mask = occupied >= 64
                             ? draw.corrupt_mask
                             : draw.corrupt_mask & ((1ULL << occupied) - 1);
    if (mask == 0) mask = 1;
    slot ^= mask;
    fields = corrupt_scratch_;
    ++metrics_.faults.corrupted;
    emit_fault("corrupt", from, to);
  }
  if (draw.delay) {
    transport_->enqueue_delayed(rec, fields,
                                current_round_ + 1 + draw.delay_rounds,
                                draw.duplicate);
    ++metrics_.faults.delayed;
    emit_fault("delay", from, to);
  } else {
    transport_->enqueue(rec, fields, draw.duplicate);
  }
  if (draw.duplicate) {
    // The duplicate shares the original's payload range (and corruption)
    // and follows its delayed-or-immediate path.
    ++metrics_.faults.duplicated;
    emit_fault("dup", from, to);
  }
}

void Engine::emit_fault(std::string_view kind, std::uint32_t from,
                        std::uint32_t to) {
  if (obs::enabled()) obs::counter("net.faults").add();
  if (active_sink_ != nullptr) {
    active_sink_->on_fault(current_round_, kind, from, to);
  }
}

void Engine::run(const std::vector<NodeProgram*>& programs) {
  run(programs, config_.seed);
}

void Engine::run(const std::vector<NodeProgram*>& programs,
                 std::uint64_t seed) {
  const std::uint32_t k = graph_.num_nodes();
  if (programs.size() != k) {
    throw std::invalid_argument("Engine::run: one program per node required");
  }
  for (NodeProgram* const p : programs) {
    if (p == nullptr) {
      throw std::invalid_argument("Engine::run: null program");
    }
  }
  const auto [shard_first, shard_last] = transport_->shard(k);

  // Full round-state reset, preserving every buffer's capacity so repeated
  // runs on one engine stay allocation-free after warm-up. The transport
  // resets its own delivery buffers (including any deferred messages a run
  // aborted mid-flight left queued) in begin_run.
  metrics_ = EngineMetrics{};
  current_round_ = 0;
  halted_.assign(k, false);
  halt_key_.assign(k, kNeverHalted);
  std::fill(last_sent_round_.begin(), last_sent_round_.end(), kNeverSent);
  transport_->begin_run(k, fault_plan_.has_value(), *this);
  crash_cursor_ = 0;
  message_faults_ =
      fault_plan_.has_value() && fault_plan_->has_message_faults();
  fault_key_ = fault_plan_.has_value()
                   ? stats::SplitMix64(fault_plan_->salt()).next() ^
                         stats::SplitMix64(seed).next()
                   : 0;
  // The run's communication budget: the model limits the engine enforces
  // anyway (CONGEST bandwidth + round cap, LOCAL round cap), so the ledger
  // meters without ever soft-violating.
  ledger_.begin_run(
      k, config_.model == Model::kCongest
             ? obs::BudgetSpec::congest(config_.bandwidth_bits,
                                        config_.max_rounds)
             : obs::BudgetSpec::local(config_.max_rounds));

  // Resolve the trace sink for this run: an attached sink wins; otherwise —
  // unless set_env_trace(false) opted this engine out — DUT_TRACE names a
  // JSONL transcript (fresh per run, appended to the file). Sharded
  // transports suffix the path so every rank writes its own shard. The
  // writer lives only for this run so the process-wide file lock it holds is
  // released on every exit path, including throws.
  active_sink_ = trace_sink_;
  const char* env_path = nullptr;
  if (active_sink_ == nullptr && env_trace_ && obs::enabled()) {
    env_path = std::getenv("DUT_TRACE");
    if (env_path != nullptr && *env_path == '\0') env_path = nullptr;
  }
  // Only a traced run renders its replay preamble, and before the
  // transcript opens, so a preamble that cannot be rendered fails the run
  // without leaving a file behind.
  std::vector<std::pair<std::string, std::string>> annotations;
  if ((active_sink_ != nullptr || env_path != nullptr) && run_preamble_) {
    annotations = run_preamble_();
  }
  std::unique_ptr<obs::JsonlTraceWriter> env_writer;
  if (env_path != nullptr) {
    const std::uint64_t tail =
        obs::env_u64("DUT_TRACE_TAIL", 0, 1ULL << 32).value_or(0);
    env_writer = std::make_unique<obs::JsonlTraceWriter>(
        std::string(env_path) + transport_->trace_suffix(), tail);
    active_sink_ = env_writer.get();
  }
  trace_delivers_ =
      active_sink_ != nullptr &&
      obs::env_u64("DUT_TRACE_LEVEL", 1, 9).value_or(1) >= 2;

  const bool instrumented = obs::enabled();
  if (instrumented) obs::counter("net.runs").add();
  if (active_sink_ != nullptr) {
    obs::TraceRunInfo info;
    info.model = config_.model == Model::kCongest ? "congest" : "local";
    info.nodes = k;
    info.bandwidth_bits =
        config_.model == Model::kCongest ? config_.bandwidth_bits : 0;
    info.max_rounds = config_.max_rounds;
    info.seed = seed;
    info.level = trace_delivers_ ? 2 : 1;
    info.budget = ledger_.spec();
    info.annotations = std::move(annotations);
    active_sink_->on_run_start(info);
  }

  // Every rank derives all k streams (not just its shard's) so stream
  // identity is a function of (seed, node id) alone.
  rngs_.clear();
  rngs_.reserve(k);
  for (std::uint32_t v = 0; v < k; ++v) {
    rngs_.push_back(stats::derive_stream(seed, v));
  }

  // `local_active` counts this shard's live nodes; `active` is the all-rank
  // sum (identical: in-process the transport's sync is the identity). The
  // sync points are fixed — once before the loop, once after the crash
  // block, once after execution — so every rank runs the same sequence and
  // a step counter suffices to pair the exchanges.
  std::uint64_t local_active = shard_last - shard_first;
  std::uint64_t active = transport_->sync_active(local_active);
  // Everyone is stepped in round 0; sleepers drop out of awake_ afterwards.
  awake_.resize(shard_last - shard_first);
  std::iota(awake_.begin(), awake_.end(), shard_first);
  std::uint64_t node_steps = 0;
  std::uint64_t live_node_rounds = 0;
  try {
    while (active > 0) {
      if (current_round_ >= config_.max_rounds) {
        const std::string detail = "protocol did not terminate within " +
                                   std::to_string(config_.max_rounds) +
                                   " rounds (" + std::to_string(active) +
                                   " nodes still active)";
        trace_violation("round_limit", detail);
        throw RoundLimitExceeded(detail);
      }
      // Deliver last round's sends.
      transport_->flip_round(current_round_);

      // Crash-stop: node v executes rounds < r, so it is removed here, after
      // its round-r inbox materialized but before it could read it.
      if (fault_plan_.has_value()) {
        const auto& schedule = fault_plan_->crash_schedule();
        while (crash_cursor_ < schedule.size() &&
               schedule[crash_cursor_].first <= current_round_) {
          const std::uint32_t v = schedule[crash_cursor_].second;
          ++crash_cursor_;
          if (v >= k || v < shard_first || v >= shard_last || halted_[v]) {
            continue;
          }
          halted_[v] = true;
          halt_key_[v] = halt_key_crash(current_round_);
          --local_active;
          ++metrics_.faults.crashes;
          emit_fault("crash", v, v);
          if (active_sink_ != nullptr) {
            active_sink_->on_halt(current_round_, v);
          }
        }
      }
      active = transport_->sync_active(local_active);

      const std::span<const std::uint32_t> receivers =
          transport_->receivers();
      if (active_sink_ != nullptr) {
        active_sink_->on_round(current_round_, active);
        if (trace_delivers_) {
          for (const std::uint32_t v : receivers) {
            for (const MessageView m : transport_->inbox(v)) {
              active_sink_->on_deliver(current_round_, m.sender, v, m.bits);
            }
          }
        }
      }
      const std::uint64_t messages_before = metrics_.messages;
      const std::uint64_t bits_before = metrics_.total_bits;

      // Step the woken set — last round's non-sleepers and this round's
      // receivers — in ascending id order. Every other live node slept, so
      // stepping it with its empty inbox would have done nothing.
      stepping_.clear();
      std::set_union(awake_.begin(), awake_.end(), receivers.begin(),
                     receivers.end(), std::back_inserter(stepping_));
      awake_.clear();
      live_node_rounds += local_active;
      for (const std::uint32_t v : stepping_) {
        if (halted_[v]) {
          // Strict mode refuses sends to a halted node at the send site
          // (and, across ranks, at admit_fresh's boundary), so a halted
          // receiver holds a message queued before it halted in the send
          // round: the protocol's termination is racy. In fault mode this
          // is routine (retransmissions race halts and crashes) and the
          // message lands in a dead inbox.
          if (!fault_plan_.has_value()) {
            const std::string detail =
                "node " + std::to_string(v) +
                " halted with queued incoming messages";
            trace_violation("protocol", detail);
            throw ProtocolViolation(detail);
          }
          continue;
        }
        NodeContext ctx;
        ctx.engine_ = this;
        ctx.id_ = v;
        ctx.round_ = current_round_;
        ctx.neighbors_ = graph_.neighbors(v);
        ctx.inbox_ = transport_->inbox(v);
        ctx.rng_ = &rngs_[v];
        programs[v]->on_round(ctx);
        ++node_steps;
        if (ctx.halted_) {
          halted_[v] = true;
          halt_key_[v] = halt_key_voluntary(current_round_, v);
          --local_active;
          if (active_sink_ != nullptr) {
            active_sink_->on_halt(current_round_, v);
          }
        } else if (!ctx.asleep_) {
          awake_.push_back(v);
        }
      }
      if (instrumented) {
        // Shard-local by construction: a sharded run's per-round histograms
        // cover this rank's sends only (the run_end totals are global).
        static obs::Histogram& round_messages =
            obs::histogram("net.round.messages");
        static obs::Histogram& round_bits = obs::histogram("net.round.bits");
        round_messages.record(metrics_.messages - messages_before);
        round_bits.record(metrics_.total_bits - bits_before);
      }
      ++current_round_;
      active = transport_->sync_active(local_active);
    }
    metrics_.rounds = current_round_;
    if (const std::string breach = ledger_.finish_run(metrics_.rounds);
        !breach.empty()) {
      if (obs::enabled()) obs::counter("net.budget.violations").add();
      trace_violation("budget", breach);
    }
    metrics_.budget = ledger_.usage();

    // Quiescence check: nothing may remain in flight after everyone halted.
    // Skipped in fault mode, where in-flight messages to halted nodes are
    // the expected debris of a degraded network; delayed messages that never
    // came due are accounted as expired (settle_run).
    if (fault_plan_.has_value()) {
      transport_->settle_run(current_round_);
    } else if (transport_->has_undelivered()) {
      const std::string detail = "messages in flight after global termination";
      trace_violation("protocol", detail);
      throw ProtocolViolation(detail);
    }
    // Fold per-rank tallies into the global figures every rank reports
    // identically (identity in-process).
    transport_->reduce_metrics(metrics_);
  } catch (const ProtocolViolation&) {
    transport_->abort_run(TransportAbortCode::kProtocolViolation);
    throw;
  } catch (const BandwidthExceeded&) {
    transport_->abort_run(TransportAbortCode::kBandwidthExceeded);
    throw;
  } catch (const RoundLimitExceeded&) {
    transport_->abort_run(TransportAbortCode::kRoundLimitExceeded);
    throw;
  } catch (const TransportAborted&) {
    // A peer already published the abort; just unwind.
    throw;
  } catch (...) {
    transport_->abort_run(TransportAbortCode::kOther);
    throw;
  }

  if (instrumented) {
    obs::counter("net.rounds").add(metrics_.rounds);
    obs::counter("net.messages").add(metrics_.messages);
    obs::counter("net.bits").add(metrics_.total_bits);
    // Shard-local, like the per-round histograms.
    obs::counter("net.node_steps").add(node_steps);
    obs::counter("net.live_node_rounds").add(live_node_rounds);
    // Per-run budget figures, one histogram record per completed run; the
    // report's "budget" section is budget_from_snapshot() over these. A
    // sharded run records the post-reduction (global) figures, so the
    // section matches the in-process run bit for bit.
    if (config_.model == Model::kCongest) {
      static obs::Histogram& rounds_used =
          obs::histogram("net.congest.rounds");
      static obs::Histogram& rounds_limit =
          obs::histogram("net.congest.rounds_limit");
      static obs::Histogram& edge_bits =
          obs::histogram("net.congest.edge_bits");
      static obs::Histogram& edge_bits_limit =
          obs::histogram("net.congest.edge_bits_limit");
      static obs::Histogram& node_bits =
          obs::histogram("net.congest.node_bits");
      rounds_used.record(metrics_.rounds);
      rounds_limit.record(ledger_.spec().max_rounds);
      edge_bits.record(metrics_.max_message_bits);
      edge_bits_limit.record(ledger_.spec().bits_per_edge_round);
      node_bits.record(metrics_.budget.max_node_bits);
    } else {
      static obs::Histogram& rounds_used = obs::histogram("net.local.rounds");
      static obs::Histogram& rounds_limit =
          obs::histogram("net.local.rounds_limit");
      static obs::Histogram& node_bits = obs::histogram("net.local.node_bits");
      rounds_used.record(metrics_.rounds);
      rounds_limit.record(ledger_.spec().max_rounds);
      node_bits.record(metrics_.budget.max_node_bits);
    }
  }
  if (active_sink_ != nullptr) {
    obs::TraceRunTotals totals;
    totals.rounds = metrics_.rounds;
    totals.messages = metrics_.messages;
    totals.total_bits = metrics_.total_bits;
    totals.max_message_bits = metrics_.max_message_bits;
    active_sink_->on_run_end(totals);
    active_sink_->flush();
    active_sink_ = nullptr;
  }
}

}  // namespace dut::net
