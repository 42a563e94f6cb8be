#include "dut/local/mis.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace dut::local {

void LubyMisProgram::on_round(net::NodeContext& ctx) {
  if (!initialized_) {
    initialized_ = true;
    undecided_.assign(ctx.degree(), true);
    undecided_count_ = ctx.degree();
  }

  const std::uint64_t sub = ctx.round() % 3;

  // Process the inbox first: priorities in sub 1, JOINED in sub 2, OUT in
  // sub 0 (sent during the previous phase's sub 2).
  for (const net::MessageView msg : ctx.inbox()) {
    const auto neighbors = ctx.neighbors();
    std::size_t idx = 0;
    while (neighbors[idx] != msg.sender) ++idx;
    switch (static_cast<Tag>(msg.field(0))) {
      case kPriority: {
        const std::uint64_t their_priority = msg.field(1);
        // Lexicographic (priority, id) tie-break keeps adjacent double-wins
        // impossible even on (vanishingly unlikely) equal priorities.
        if (their_priority > priority_ ||
            (their_priority == priority_ && msg.sender > ctx.id())) {
          priority_beaten_ = true;
        }
        break;
      }
      case kJoined: {
        if (state_ == State::kUndecided) state_ = State::kOut;
        if (undecided_[idx]) {
          undecided_[idx] = false;
          --undecided_count_;
        }
        break;
      }
      case kOut: {
        if (undecided_[idx]) {
          undecided_[idx] = false;
          --undecided_count_;
        }
        break;
      }
    }
  }

  if (decided_pending_halt_) {
    // Grace round absorbed (simultaneous OUT announcements); leave now.
    ctx.halt();
    return;
  }

  if (state_ == State::kUndecided && ctx.round() / 3 >= max_phases_) {
    // Round-timeout fallback (fault runs): resign instead of hanging on
    // announcements that may have been dropped.
    state_ = State::kOut;
    timed_out_ = true;
    ctx.halt();
    return;
  }

  switch (sub) {
    case 0: {  // A: draw and exchange priorities
      if (state_ != State::kUndecided) break;
      if (undecided_count_ == 0) {
        // No contention left: join and leave silently (nobody listens).
        state_ = State::kInMis;
        ctx.halt();
        return;
      }
      priority_ = ctx.rng()();
      priority_beaten_ = false;
      net::Message msg;
      msg.push_field(kPriority, 2);
      msg.push_field(priority_, 64);
      const auto neighbors = ctx.neighbors();
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (undecided_[i]) ctx.send(neighbors[i], msg);
      }
      break;
    }
    case 1: {  // B: winners join and announce
      if (state_ != State::kUndecided) break;
      if (!priority_beaten_) {
        state_ = State::kInMis;
        net::Message msg;
        msg.push_field(kJoined, 2);
        const auto neighbors = ctx.neighbors();
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          if (undecided_[i]) ctx.send(neighbors[i], msg);
        }
        // Safe to leave immediately: neighbors prune us from their
        // undecided sets before any further sends (see module comment).
        ctx.halt();
        return;
      }
      break;
    }
    case 2: {  // C: JOINED receivers drop out and announce
      if (state_ == State::kOut) {
        net::Message msg;
        msg.push_field(kOut, 2);
        const auto neighbors = ctx.neighbors();
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          if (undecided_[i]) ctx.send(neighbors[i], msg);
        }
        // One grace round: a simultaneous dropout may still announce to us.
        decided_pending_halt_ = true;
      }
      break;
    }
  }
}

MisResult compute_mis(const net::Graph& graph, std::uint64_t seed) {
  return compute_mis(graph, seed, nullptr, UINT64_MAX);
}

MisResult compute_mis(const net::Graph& graph, std::uint64_t seed,
                      const net::FaultPlan* faults,
                      std::uint64_t max_phases) {
  if (max_phases == 0) {
    throw std::invalid_argument("compute_mis: max_phases must be >= 1");
  }
  const std::uint32_t k = graph.num_nodes();
  std::vector<std::unique_ptr<LubyMisProgram>> programs;
  programs.reserve(k);
  std::vector<net::NodeProgram*> raw;
  raw.reserve(k);
  for (std::uint32_t v = 0; v < k; ++v) {
    programs.push_back(std::make_unique<LubyMisProgram>(max_phases));
    raw.push_back(programs.back().get());
  }

  net::EngineConfig config;
  config.model = net::Model::kLocal;
  // Luby needs O(log k) phases whp; the phase cap (when set) dominates.
  config.max_rounds =
      max_phases == UINT64_MAX ? 10000 : 3 * max_phases + 10;
  config.seed = seed;
  net::Engine engine(graph, config);
  if (faults != nullptr) engine.set_fault_plan(*faults);
  if (!graph.spec().empty()) {
    // Replay preamble: the run seed is already in run_start, so the spec'd
    // topology (plus the optional phase cap and fault plan) fully determines
    // this run. Hand-built graphs have no spec and stay unreplayable.
    engine.set_run_preamble([&graph, faults, max_phases] {
      std::vector<std::pair<std::string, std::string>> ann;
      ann.emplace_back("proto", "mis");
      ann.emplace_back("topo", graph.spec());
      if (max_phases != UINT64_MAX) {
        ann.emplace_back("cap", std::to_string(max_phases));
      }
      if (faults != nullptr) ann.emplace_back("faults", faults->spec());
      return ann;
    });
  }
  engine.run(raw);

  MisResult result;
  result.metrics = engine.metrics();
  result.phases = (engine.metrics().rounds + 2) / 3;
  result.in_mis.resize(k);
  for (std::uint32_t v = 0; v < k; ++v) {
    if (programs[v]->state() == LubyMisProgram::State::kUndecided) {
      if (faults == nullptr) {
        throw std::logic_error("compute_mis: node finished undecided");
      }
      // Crashed (engine-halted) before it could resign: counts as forced
      // out, like a phase-cap timeout.
      ++result.fallback_outs;
    }
    result.in_mis[v] = programs[v]->in_mis();
    if (programs[v]->timed_out()) ++result.fallback_outs;
  }
  return result;
}

}  // namespace dut::local
