#pragma once

// Reader side of the JSONL trace format: parses a trace file back into
// per-run summaries so the dut_trace tool and the tests can cross-check a
// transcript against the engine's own metrics and the run's declared
// budget. A file may hold several runs (the writer appends); each
// run_start opens a new summary. The summaries stream: memory grows with
// the runs and their node counts, not with the events.

#include <cstdint>
#include <string>
#include <vector>

#include "dut/obs/trace.hpp"

namespace dut::obs {

struct TraceRunSummary {
  TraceRunInfo info;

  // Recounted from the send events.
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;
  std::uint64_t rounds_seen = 0;  ///< round events observed
  std::vector<std::uint64_t> per_node_sent_bits;  ///< indexed by node id
  std::uint64_t delivers = 0;  ///< level-2 deliver events
  std::uint64_t halts = 0;
  std::uint64_t faults = 0;  ///< injected-fault events (net::FaultPlan)

  /// Events whose "ev" kind this reader does not know. Schema drift must
  /// be visible: dut_trace prints the count and `dut_trace check` fails
  /// when it is non-zero.
  std::uint64_t unknown_events = 0;

  /// The writer's declared tail window ("tail" in run_start; 0 = stream).
  std::uint64_t declared_tail = 0;

  /// Sends whose declared bits exceed info.bandwidth_bits (CONGEST only;
  /// always 0 for a healthy run — the engine throws before delivering).
  std::uint64_t over_budget_sends = 0;

  /// Sends on a directed edge that already carried a send since the last
  /// round marker. The engine admits one send per directed edge per round,
  /// so any count here means the transcript breaks that guard.
  std::uint64_t duplicate_sends = 0;

  // Violations recorded before the run aborted.
  std::vector<std::string> violations;

  // The engine's own totals from run_end, when the run completed.
  bool has_end = false;
  TraceRunTotals declared;

  bool truncated_tail = false;  ///< no run_start seen (tail-mode eviction)

  /// Recount matches the engine's declared totals (vacuously false before
  /// run_end). Tail-truncated traces never consistency-match.
  bool consistent() const noexcept {
    return has_end && !truncated_tail && messages == declared.messages &&
           total_bits == declared.total_bits &&
           max_message_bits == declared.max_message_bits &&
           rounds_seen == declared.rounds;
  }
};

/// Parses a whole trace file. Throws std::runtime_error on unreadable
/// files or malformed lines (with the line number).
std::vector<TraceRunSummary> read_trace_file(const std::string& path);

/// Same, over in-memory JSONL text (for tests).
std::vector<TraceRunSummary> read_trace_text(const std::string& text);

// --- Full-event view -------------------------------------------------------
// `dut_trace lineage` and `critical-path` rebuild the send→deliver
// happens-before DAG, so they need every event rather than the roll-up.

struct TraceEvent {
  enum class Kind {
    kRunStart,
    kRound,
    kSend,
    kDeliver,
    kHalt,
    kFault,
    kViolation,
    kRunEnd,
    kUnknown,
  };
  Kind kind = Kind::kUnknown;
  std::uint64_t round = 0;
  std::uint32_t from = 0;  ///< halt/fault: the node
  std::uint32_t to = 0;
  std::uint64_t bits = 0;
  std::uint32_t active = 0;  ///< round events only
};

struct TraceRun {
  TraceRunSummary summary;
  std::vector<TraceEvent> events;  ///< in file order, run_start..run_end
};

/// Parses a whole trace file keeping every event, one TraceRun per
/// summary. Throws like read_trace_file.
std::vector<TraceRun> read_trace_runs(const std::string& path);

}  // namespace dut::obs
