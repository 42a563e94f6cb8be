#pragma once

// Round-level protocol tracing for the message-passing engine.
//
// The engine emits structured events to an obs::TraceSink: run_start,
// round (one per synchronous round, with the active-node count), send
// (from/to/declared bits), optional deliver, halt, violation, run_end
// (the engine's own totals, so readers can cross-check their recount).
//
// The shipped sink is JsonlTraceWriter: one JSON object per line
// (schema v1, DESIGN.md §9), appended to a file. Two modes:
//
//  * stream (tail_rounds == 0): every event is written as it happens. The
//    writer holds a process-wide file lock for its lifetime, so
//    concurrently-traced runs (parallel Monte-Carlo trials with DUT_TRACE
//    set) serialize instead of interleaving their transcripts.
//  * tail (tail_rounds == N): only the last N rounds are kept, in memory,
//    and written at flush()/destruction — bounded memory and disk for
//    huge runs while still producing a replayable transcript of the
//    moments before a model violation (the engine flushes the sink before
//    throwing BandwidthExceeded / ProtocolViolation / RoundLimitExceeded).
//    A run_start that scrolls out of the window is evicted with its
//    rounds; readers then mark the transcript tail-truncated and skip the
//    totals cross-check (runs shorter than the window stay complete).
//
// The engine enables tracing itself when the DUT_TRACE environment
// variable names a path (DUT_TRACE_TAIL=N selects tail mode,
// DUT_TRACE_LEVEL=2 adds deliver events); attach a sink programmatically
// with Engine::set_trace_sink for tests and tools.

#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dut/obs/budget.hpp"

namespace dut::obs {

inline constexpr int kTraceSchemaVersion = 1;

struct TraceRunInfo {
  std::string model;  ///< "local" or "congest"
  std::uint32_t nodes = 0;
  std::uint64_t bandwidth_bits = 0;  ///< 0 in LOCAL (unbounded)
  std::uint64_t max_rounds = 0;
  std::uint64_t seed = 0;
  int level = 1;  ///< trace detail level (2 adds deliver events)
  /// Declared communication budget; written into the run_start preamble
  /// (when bounded) so `dut_trace check` can recount it offline.
  BudgetSpec budget;
  /// Replay metadata: ordered (key, value) pairs describing how to rebuild
  /// this exact run — protocol, topology spec, sampler spec, plan
  /// parameters, fault plan. Written as the run_start "replay" object;
  /// `dut_trace replay` re-executes from it and byte-diffs the regenerated
  /// trace.
  std::vector<std::pair<std::string, std::string>> annotations;
};

struct TraceRunTotals {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_run_start(const TraceRunInfo& info) = 0;
  virtual void on_round(std::uint64_t round, std::uint32_t active) = 0;
  virtual void on_send(std::uint64_t round, std::uint32_t from,
                       std::uint32_t to, std::uint64_t bits) = 0;
  /// Delivery of a round-(r-1) send at the start of round r. Optional
  /// (level-2) detail; default-ignored so sinks can opt out.
  virtual void on_deliver(std::uint64_t round, std::uint32_t from,
                          std::uint32_t to, std::uint64_t bits) {
    (void)round; (void)from; (void)to; (void)bits;
  }
  virtual void on_halt(std::uint64_t round, std::uint32_t node) = 0;
  /// An injected fault (net::FaultPlan): kind is one of "drop", "dup",
  /// "corrupt", "delay", "expire", "crash" (from == to for crashes).
  /// Default-ignored so fault-oblivious sinks keep compiling.
  virtual void on_fault(std::uint64_t round, std::string_view kind,
                        std::uint32_t from, std::uint32_t to) {
    (void)round; (void)kind; (void)from; (void)to;
  }
  virtual void on_violation(std::uint64_t round, std::string_view kind,
                            std::string_view detail) = 0;
  virtual void on_run_end(const TraceRunTotals& totals) = 0;
  /// Force buffered events out (called by the engine before throwing).
  virtual void flush() {}
};

class JsonlTraceWriter : public TraceSink {
 public:
  /// Appends to `path`. tail_rounds == 0 streams every event; N > 0 keeps
  /// only the last N rounds (plus run_start/violation/run_end markers).
  /// Throws std::runtime_error if the file cannot be opened.
  explicit JsonlTraceWriter(const std::string& path,
                            std::uint64_t tail_rounds = 0);
  ~JsonlTraceWriter() override;

  JsonlTraceWriter(const JsonlTraceWriter&) = delete;
  JsonlTraceWriter& operator=(const JsonlTraceWriter&) = delete;

  void on_run_start(const TraceRunInfo& info) override;
  void on_round(std::uint64_t round, std::uint32_t active) override;
  void on_send(std::uint64_t round, std::uint32_t from, std::uint32_t to,
               std::uint64_t bits) override;
  void on_deliver(std::uint64_t round, std::uint32_t from, std::uint32_t to,
                  std::uint64_t bits) override;
  void on_halt(std::uint64_t round, std::uint32_t node) override;
  void on_fault(std::uint64_t round, std::string_view kind, std::uint32_t from,
                std::uint32_t to) override;
  void on_violation(std::uint64_t round, std::string_view kind,
                    std::string_view detail) override;
  void on_run_end(const TraceRunTotals& totals) override;
  void flush() override;

 private:
  void emit(std::uint64_t round, std::string line);
  void drain();

  std::FILE* file_ = nullptr;
  std::uint64_t tail_rounds_ = 0;
  /// Buffered {round, line} in emission order (tail mode only).
  std::deque<std::pair<std::uint64_t, std::string>> pending_;
  /// Serializes concurrently-traced runs; held for the writer's lifetime.
  std::unique_lock<std::mutex> file_lock_;
};

}  // namespace dut::obs
