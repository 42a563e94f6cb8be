#include "dut/obs/trace_reader.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dut/obs/json.hpp"

namespace dut::obs {

namespace {

std::uint64_t field_u64(const Json& line, const char* key) {
  const Json* v = line.get(key);
  if (v == nullptr) {
    throw std::runtime_error(std::string("trace line missing field '") + key +
                             "'");
  }
  return v->as_u64();
}

bool known_event_kind(const std::string& kind) {
  return kind == "round" || kind == "send" || kind == "deliver" ||
         kind == "halt" || kind == "fault" || kind == "violation" ||
         kind == "run_end";
}

/// `round_edges` holds the directed edges (from << 32 | to) that sent since
/// the last round marker of the open run.
TraceEvent apply_line(const Json& line, std::vector<TraceRunSummary>& runs,
                      std::set<std::uint64_t>& round_edges) {
  const Json* ev = line.get("ev");
  if (ev == nullptr) throw std::runtime_error("trace line missing 'ev'");
  const std::string& kind = ev->as_string();
  TraceEvent event;

  if (kind == "run_start") {
    TraceRunSummary run;
    run.info.model = line.get("model") ? line.get("model")->as_string() : "";
    run.info.nodes = static_cast<std::uint32_t>(field_u64(line, "nodes"));
    run.info.bandwidth_bits = field_u64(line, "bandwidth_bits");
    run.info.max_rounds = field_u64(line, "max_rounds");
    run.info.seed = field_u64(line, "seed");
    if (const Json* level = line.get("level")) {
      run.info.level = static_cast<int>(level->as_i64());
    }
    if (const Json* tail = line.get("tail")) {
      run.declared_tail = tail->as_u64();
    }
    if (const Json* budget = line.get("budget")) {
      if (const Json* v = budget->get("bits_per_edge_round")) {
        run.info.budget.bits_per_edge_round = v->as_u64();
      }
      if (const Json* v = budget->get("max_rounds")) {
        run.info.budget.max_rounds = v->as_u64();
      }
      if (const Json* v = budget->get("max_messages")) {
        run.info.budget.max_messages = v->as_u64();
      }
    }
    if (const Json* replay = line.get("replay")) {
      for (const auto& [key, value] : replay->items()) {
        run.info.annotations.emplace_back(key, value.as_string());
      }
    }
    run.per_node_sent_bits.assign(run.info.nodes, 0);
    runs.push_back(std::move(run));
    round_edges.clear();
    event.kind = TraceEvent::Kind::kRunStart;
    return event;
  }

  // An unrecognized kind is counted, not fatal — schema drift must be
  // visible in summaries, and it must not fabricate a phantom partial run
  // after a completed one.
  if (!known_event_kind(kind)) {
    if (runs.empty()) {
      TraceRunSummary partial;
      partial.truncated_tail = true;
      runs.push_back(std::move(partial));
    }
    ++runs.back().unknown_events;
    event.kind = TraceEvent::Kind::kUnknown;
    return event;
  }

  // Tail-mode traces can begin mid-run, with run_start evicted; collect
  // into a marked partial summary instead of failing.
  if (runs.empty() || runs.back().has_end) {
    TraceRunSummary partial;
    partial.truncated_tail = true;
    runs.push_back(std::move(partial));
    round_edges.clear();
  }
  TraceRunSummary& run = runs.back();

  if (kind == "round") {
    ++run.rounds_seen;
    round_edges.clear();
    event.kind = TraceEvent::Kind::kRound;
    event.round = field_u64(line, "round");
    event.active = static_cast<std::uint32_t>(field_u64(line, "active"));
  } else if (kind == "send") {
    const std::uint64_t bits = field_u64(line, "bits");
    const std::uint32_t from =
        static_cast<std::uint32_t>(field_u64(line, "from"));
    ++run.messages;
    run.total_bits += bits;
    run.max_message_bits = std::max(run.max_message_bits, bits);
    if (from >= run.per_node_sent_bits.size()) {
      run.per_node_sent_bits.resize(from + 1, 0);
    }
    run.per_node_sent_bits[from] += bits;
    if (run.info.model == "congest" && run.info.bandwidth_bits > 0 &&
        bits > run.info.bandwidth_bits) {
      ++run.over_budget_sends;
    }
    event.kind = TraceEvent::Kind::kSend;
    event.round = field_u64(line, "round");
    event.from = from;
    event.to = static_cast<std::uint32_t>(field_u64(line, "to"));
    if (!round_edges.insert((std::uint64_t{from} << 32) | event.to).second) {
      ++run.duplicate_sends;
    }
    // dut-lint: allow(bits-funnel): parsed-back trace field, not a payload.
    event.bits = bits;
  } else if (kind == "deliver") {
    // Level-2 detail; carries no totals the send didn't already.
    ++run.delivers;
    event.kind = TraceEvent::Kind::kDeliver;
    event.round = field_u64(line, "round");
    event.from = static_cast<std::uint32_t>(field_u64(line, "from"));
    event.to = static_cast<std::uint32_t>(field_u64(line, "to"));
    // dut-lint: allow(bits-funnel): parsed-back trace field, not a payload.
    event.bits = field_u64(line, "bits");
  } else if (kind == "halt") {
    ++run.halts;
    event.kind = TraceEvent::Kind::kHalt;
    event.round = field_u64(line, "round");
    event.from = static_cast<std::uint32_t>(field_u64(line, "node"));
  } else if (kind == "fault") {
    ++run.faults;
    event.kind = TraceEvent::Kind::kFault;
    event.round = field_u64(line, "round");
    event.from = static_cast<std::uint32_t>(field_u64(line, "from"));
    event.to = static_cast<std::uint32_t>(field_u64(line, "to"));
  } else if (kind == "violation") {
    const Json* violation_kind = line.get("kind");
    const Json* detail = line.get("detail");
    run.violations.push_back(
        (violation_kind ? violation_kind->as_string() : "?") + ": " +
        (detail ? detail->as_string() : ""));
    event.kind = TraceEvent::Kind::kViolation;
    event.round = field_u64(line, "round");
  } else {
    run.has_end = true;
    run.declared.rounds = field_u64(line, "rounds");
    run.declared.messages = field_u64(line, "messages");
    run.declared.total_bits = field_u64(line, "total_bits");
    run.declared.max_message_bits = field_u64(line, "max_message_bits");
    event.kind = TraceEvent::Kind::kRunEnd;
    event.round = run.declared.rounds;
  }
  return event;
}

std::vector<TraceRunSummary> read_stream(std::istream& in,
                                         std::vector<TraceRun>* full) {
  std::vector<TraceRunSummary> runs;
  std::set<std::uint64_t> round_edges;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const std::size_t before = runs.size();
      const TraceEvent event =
          apply_line(Json::parse(line), runs, round_edges);
      if (full != nullptr) {
        if (runs.size() > before) full->emplace_back();
        full->back().events.push_back(event);
      }
    } catch (const std::exception& error) {
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": " + error.what());
    }
  }
  if (full != nullptr) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      (*full)[i].summary = runs[i];
    }
  }
  return runs;
}

}  // namespace

std::vector<TraceRunSummary> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_trace_file: cannot open " + path);
  }
  return read_stream(in, nullptr);
}

std::vector<TraceRunSummary> read_trace_text(const std::string& text) {
  std::istringstream in(text);
  return read_stream(in, nullptr);
}

std::vector<TraceRun> read_trace_runs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_trace_runs: cannot open " + path);
  }
  std::vector<TraceRun> full;
  read_stream(in, &full);
  return full;
}

}  // namespace dut::obs
