#pragma once

// Communication-budget ledger (DESIGN.md §13). The paper's guarantees are
// resource claims — the CONGEST tester uses c·log n bits per edge per round
// in O(D + τ) rounds (Thm 1.4), the LOCAL tester halts within a fixed
// locality radius (§6), and the 0-round testers send nothing at all — so
// every engine run carries a BudgetSpec and a BudgetLedger that meters
// actual usage against it. The spec is written into the trace's run_start
// preamble (recounted offline by `dut_trace check`), the usage lands in
// EngineMetrics and, aggregated over a process, in the run report's
// `budget` section.
//
// The engine derives the spec from its EngineConfig and already *enforces*
// those limits hard (BandwidthExceeded, RoundLimitExceeded), so a ledger
// violation means the ledger and the engine disagree. Violations are soft —
// a "budget" trace violation event plus the net.budget.violations counter,
// failing `dut_trace check` and report validation rather than aborting the
// run.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dut::obs {

/// Declared per-protocol communication budget. Zero means "unbounded" for
/// the two limit fields; max_messages uses UINT64_MAX as the unbounded
/// sentinel so zero_round() can declare that *no* message is allowed.
struct BudgetSpec {
  static constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

  std::uint64_t bits_per_edge_round = 0;  ///< CONGEST bandwidth; 0 = none
  std::uint64_t max_rounds = 0;           ///< round/radius bound; 0 = none
  std::uint64_t max_messages = kUnlimited;

  /// CONGEST: c·log n bits across each edge each round, bounded rounds.
  static BudgetSpec congest(std::uint64_t bits_per_edge_round,
                            std::uint64_t max_rounds) {
    BudgetSpec spec;
    spec.bits_per_edge_round = bits_per_edge_round;
    spec.max_rounds = max_rounds;
    return spec;
  }
  /// LOCAL: unbounded message width, rounds bounded by the gather radius.
  static BudgetSpec local(std::uint64_t max_rounds) {
    BudgetSpec spec;
    spec.max_rounds = max_rounds;
    return spec;
  }
  /// 0-round testers communicate nothing at all.
  static BudgetSpec zero_round() {
    BudgetSpec spec;
    spec.max_rounds = 0;
    spec.max_messages = 0;
    return spec;
  }

  bool bounded() const noexcept {
    return bits_per_edge_round != 0 || max_rounds != 0 ||
           max_messages != kUnlimited;
  }
};

/// What one run actually spent, as metered by the ledger.
struct BudgetUsage {
  std::uint64_t messages = 0;
  std::uint64_t max_edge_round_bits = 0;  ///< widest single message
  std::uint64_t max_node_bits = 0;        ///< busiest sender, total bits
  std::uint32_t busiest_node = 0;
  std::uint64_t violations = 0;
};

/// Per-run accumulator. One ledger lives inside each net::Engine; begin_run
/// resets it (keeping the per-node vector's capacity, engines are pooled),
/// on_send meters every accepted send, finish_run checks the round count.
class BudgetLedger {
 public:
  void begin_run(std::uint32_t nodes, const BudgetSpec& spec);

  /// Meters one send; true when it breaches the spec (the breach is counted
  /// in usage().violations). Inline and allocation-free: it runs on every
  /// send, and only a breach has anything to describe (send_breach).
  [[nodiscard]] bool on_send(std::uint32_t from, std::uint64_t bits) {
    ++usage_.messages;
    usage_.max_edge_round_bits = std::max(usage_.max_edge_round_bits, bits);
    if (from < node_bits_.size()) node_bits_[from] += bits;
    if (over_width(bits) || usage_.messages > spec_.max_messages) {
      ++usage_.violations;
      return true;
    }
    return false;
  }

  /// Describes the breach on_send just reported for this send (`round` is
  /// the send's round, for the text only).
  std::string send_breach(std::uint64_t round, std::uint32_t from,
                          std::uint64_t bits) const;

  /// Closes the run: checks `rounds` against the spec and finalizes the
  /// busiest-node figures. Returns a violation description or empty.
  std::string finish_run(std::uint64_t rounds);

  const BudgetSpec& spec() const noexcept { return spec_; }
  const BudgetUsage& usage() const noexcept { return usage_; }

 private:
  bool over_width(std::uint64_t bits) const noexcept {
    return spec_.bits_per_edge_round != 0 && bits > spec_.bits_per_edge_round;
  }

  BudgetSpec spec_;
  BudgetUsage usage_;
  std::vector<std::uint64_t> node_bits_;
};

}  // namespace dut::obs
