#include "dut/obs/trace_reader.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
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

/// The open run's round state: the directed edges (from << 32 | to) that
/// sent since its last round marker, and that marker's round (none before
/// the first marker).
struct OpenRound {
  std::set<std::uint64_t> edges;
  std::optional<std::uint64_t> marker;

  void reset() {
    edges.clear();
    marker.reset();
  }
};

TraceEvent apply_line(const Json& line, std::vector<TraceRunSummary>& runs,
                      OpenRound& open) {
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
    open.reset();
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
    open.reset();
  }
  TraceRunSummary& run = runs.back();

  if (kind == "round") {
    ++run.rounds_seen;
    event.kind = TraceEvent::Kind::kRound;
    event.round = field_u64(line, "round");
    open.edges.clear();
    open.marker = event.round;
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
    if (!open.edges.insert((std::uint64_t{from} << 32) | event.to).second) {
      ++run.duplicate_sends;
    }
    if (open.marker.has_value() && *open.marker != event.round) {
      ++run.misstamped_sends;
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

/// Folds every line of `in` into per-run summaries and hands each parsed
/// event, with the index of the run it belongs to, to `on_event`, which
/// returns false to stop reading.
template <class OnEvent>
std::vector<TraceRunSummary> read_stream(std::istream& in, OnEvent on_event) {
  std::vector<TraceRunSummary> runs;
  OpenRound open;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      const TraceEvent event = apply_line(Json::parse(line), runs, open);
      if (!on_event(runs.size() - 1, event)) break;
    } catch (const std::exception& error) {
      throw std::runtime_error("trace line " + std::to_string(line_no) +
                               ": " + error.what());
    }
  }
  return runs;
}

bool keep_reading(std::size_t, const TraceEvent&) { return true; }

}  // namespace

std::vector<TraceRunSummary> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_trace_file: cannot open " + path);
  }
  return read_stream(in, keep_reading);
}

std::vector<TraceRunSummary> read_trace_text(const std::string& text) {
  std::istringstream in(text);
  return read_stream(in, keep_reading);
}

std::vector<TraceEvent> read_trace_events(const std::string& path,
                                          std::size_t run) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_trace_events: cannot open " + path);
  }
  std::vector<TraceEvent> events;
  const std::vector<TraceRunSummary> runs =
      read_stream(in, [&](std::size_t index, const TraceEvent& event) {
        if (index == run) events.push_back(event);
        return index <= run;
      });
  if (run >= runs.size()) {
    throw std::runtime_error("read_trace_events: " + path + " holds no run " +
                             std::to_string(run));
  }
  return events;
}

}  // namespace dut::obs
