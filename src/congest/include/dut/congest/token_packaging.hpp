#pragma once

// The tau-token-packaging protocol (paper Definition 2, Theorem 5.1), built
// on an honest CONGEST implementation of its prerequisites:
//
//  Phase 1 — leader election + BFS tree. FloodMax with echo (PIF)
//    termination detection: every node floods the largest external id it has
//    seen, adopting the first sender of the eventual maximum as its BFS
//    parent; acknowledgements flow back up each candidate's wave, and only
//    the global maximum's wave can complete (a losing wave is always
//    superseded before covering the graph). The winner learns completion in
//    O(D) rounds without knowing D — matching the paper's remark that nodes
//    need not know the diameter.
//  Phase 2 — c(v) convergecast. The leader broadcasts a start signal down
//    the finished tree; each node v computes c(v) = (1 + sum_children c(u))
//    mod tau and sends it to its parent (paper Section 5's recurrence).
//  Phase 3 — token pipelining. Each node forwards the first c(v) tokens it
//    holds (its own token first, then arrivals in order) to its parent, one
//    per round per the CONGEST budget; the root discards its first c(r).
//    Nodes need no global clock: a node starts as soon as its own c(v) is
//    fixed, and correctness follows from per-node counting.
//  Phase 4 — packaging. Once a node has sent its c(v) tokens and received
//    the sum of its children's announced counts, its remaining tokens number
//    an exact multiple of tau and are chopped into packages.
//  Phase 5 — report convergecast + verdict broadcast. Each node reports an
//    aggregate (hook: number of packages, or number of *rejecting* packages
//    for the uniformity tester) up the tree; the root decides (hook) and
//    broadcasts the verdict; everyone halts.
//
// Total round complexity: O(D + tau). Every message fits in
// O(log n + log k) bits — enforced, not assumed, by the engine.
//
// Resilient mode (PackagingResilience.enabled) hardens the protocol against
// a faulty network (net::FaultPlan): every message carries a per-edge
// monotone sequence number and a 4-bit checksum; receivers discard
// corrupted or duplicate arrivals; each message is retransmitted up to
// `retransmits` extra times in rounds where the edge slot is otherwise idle
// (a newer message to the same neighbor supersedes the remaining copies, so
// fault-free timing is identical to the plain protocol); reports carry the
// number of nodes covered by the subtree and the number of packages formed
// in it; and a round schedule bounds every phase, staggered so each forced
// action leaves room for the previous one's messages to propagate:
//
//   phase1_timeout      blocked nodes release their parent's wave (forced
//                       ack despite unresponsive neighbors)
//   leader_timeout      blocked self-candidates claim leadership — AFTER
//                       the forced-ack cascade had D rounds to reach them,
//                       so a candidate whose tree did complete late still
//                       learns of it before claiming an empty tree
//   package_round       nodes that never saw the start signal begin phase
//                       two over their local subtree
//   force_package_round packaging is forced (full tau-packages from the
//                       surviving tokens, remainder dropped) — AFTER the
//                       late starters had D + tau rounds to push tokens
//   report_base         reports forced at a depth-staggered round
//   deadline            the root decides via decide_with_quorum
//
// decide_with_quorum sees the covered-node count and the formed-package
// count and applies reject-bias when either falls short (sound for
// one-sided testers, which may only err toward rejection). With all fault
// rates zero no timeout ever fires and the verdict stream is bit-identical
// to the plain protocol's.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dut/net/engine.hpp"

namespace dut::congest {

/// Per-node widths used to declare message sizes honestly.
struct MessageWidths {
  unsigned id_bits;     ///< external ids and depths: bits_for(k)
  unsigned token_bits;  ///< token values: bits_for(n)
  unsigned count_bits;  ///< c-values and report sums: bits_for(k + 1)
};

/// The resilient-mode round schedule and knobs (see file comment). All
/// rounds are absolute; resolve them from the graph diameter and tau so the
/// timeouts sit safely past the fault-free completion round (then they
/// never fire on a healthy network).
struct PackagingResilience {
  bool enabled = false;
  std::uint64_t retransmits = 2;     ///< extra copies per protocol message
  std::uint64_t phase1_timeout = 0;  ///< blocked nodes force their ack here
  std::uint64_t leader_timeout = 0;  ///< blocked candidates claim leadership
  std::uint64_t package_round = 0;   ///< missed-start nodes begin phase two
  std::uint64_t force_package_round = 0;  ///< force packaging here
  std::uint64_t report_base = 0;     ///< deepest nodes force reports here
  std::uint64_t depth_budget = 0;    ///< report stagger window (>= tree depth)
  std::uint64_t deadline = 0;        ///< root decides; all halt soon after
  std::uint64_t quorum = 0;          ///< min covered nodes for an accept
  unsigned seq_bits = 20;            ///< sequence-number field width
};

/// The 4-bit checksum appended (after the sequence number) to every
/// resilient-mode message, over all preceding fields. Exposed so tests can
/// corrupt a field and verify the receiver's round-trip detection.
std::uint64_t packaging_checksum(const std::uint64_t* fields,
                                 std::size_t count) noexcept;

class TokenPackagingProgram : public net::NodeProgram {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  /// `external_id` is the node's identity for leader election (the paper's
  /// arbitrary-id assumption: pass a permutation, not necessarily the
  /// engine id). `token` is this node's sample/token in [n].
  TokenPackagingProgram(std::uint64_t external_id, std::uint64_t token,
                        std::uint64_t tau, MessageWidths widths);

  /// Multi-token variant: the paper's "each node starts with a single
  /// sample" is a simplification ("the results generalize in a
  /// straightforward manner to larger s"); here a node may hold any number
  /// of tokens, and the recurrence becomes c(v) = (|own| + sum c(u)) mod
  /// tau. Round complexity stays O(D + tau): c(v) < tau regardless.
  TokenPackagingProgram(std::uint64_t external_id,
                        std::vector<std::uint64_t> tokens, std::uint64_t tau,
                        MessageWidths widths);

  /// Resilient-mode variant; `resil` supplies the retransmission budget and
  /// the timeout schedule (resil.enabled may be false, which is exactly the
  /// plain constructor).
  TokenPackagingProgram(std::uint64_t external_id,
                        std::vector<std::uint64_t> tokens, std::uint64_t tau,
                        MessageWidths widths, PackagingResilience resil);

  void on_round(net::NodeContext& ctx) override;

  // --- results, valid after the engine run completes ---
  bool is_leader() const noexcept { return is_leader_; }
  std::uint32_t parent() const noexcept { return parent_; }
  const std::vector<std::uint32_t>& children() const noexcept {
    return children_;
  }
  std::uint64_t depth() const noexcept { return depth_; }
  std::uint64_t leader_external_id() const noexcept { return best_; }
  std::uint64_t c_value() const noexcept { return c_value_ ? *c_value_ : 0; }
  const std::vector<std::vector<std::uint64_t>>& packages() const noexcept {
    return packages_;
  }
  /// Verdict decided at the root and broadcast to everyone.
  std::uint64_t verdict() const noexcept { return verdict_; }
  /// Root only: the aggregated report value.
  std::uint64_t total_report() const noexcept { return report_sum_; }
  /// Root only, resilient mode: nodes covered by the reports that made it
  /// (own node included) at decision time.
  std::uint64_t covered_total() const noexcept { return covered_decided_; }
  /// Root only, resilient mode: packages formed network-wide according to
  /// the reports that made it (own packages included) at decision time.
  std::uint64_t formed_total() const noexcept { return formed_decided_; }
  const PackagingResilience& resilience() const noexcept { return resil_; }
  /// Resilient mode: inbound messages discarded for a failed checksum.
  std::uint64_t corrupt_discards() const noexcept { return corrupt_discards_; }
  /// Resilient mode: inbound messages discarded as duplicates (stale seq).
  std::uint64_t duplicate_discards() const noexcept { return dup_discards_; }

 protected:
  /// Saturates a count at its count_bits field capacity: report/coverage
  /// sums can exceed it only when a corrupted field escaped the 4-bit
  /// checksum, and a saturated (still wire-valid) report beats an aborted
  /// run.
  std::uint64_t clamp_count(std::uint64_t value) const noexcept {
    if (widths_.count_bits >= 64) return value;
    const std::uint64_t cap = (1ULL << widths_.count_bits) - 1;
    return value < cap ? value : cap;
  }

  /// Called once when this node's packages are final; the return value is
  /// summed up the tree. Default: the number of packages.
  virtual std::uint64_t local_report(net::NodeContext& ctx);

  /// Called at the root with the network-wide report sum; the returned
  /// verdict is broadcast. Default: echo the total.
  virtual std::uint64_t decide_at_root(std::uint64_t total);

  /// Resilient-mode root decision: `covered` is the number of nodes whose
  /// reports reached the root (transitively, own node included) and
  /// `formed` the number of packages those reports account for. Default
  /// ignores both and defers to decide_at_root; the uniformity tester
  /// overrides it with the quorum rule (coverage AND token mass).
  virtual std::uint64_t decide_with_quorum(std::uint64_t total,
                                           std::uint64_t covered,
                                           std::uint64_t formed);

 private:
  enum Tag : std::uint64_t {
    kCandidate = 0,
    kAck = 1,
    kStart = 2,
    kCValue = 3,
    kToken = 4,
    kReport = 5,
    kVerdict = 6,
  };

  /// What upward_slot sends to the parent on this node's next step.
  enum class Upward { kIdle, kCValue, kToken, kReport };

  void process_inbox(net::NodeContext& ctx);
  void phase_one(net::NodeContext& ctx);
  void begin_phase_two(net::NodeContext& ctx);
  void upward_slot(net::NodeContext& ctx);
  /// The one predicate behind both upward_slot and the plain-mode sleep
  /// decision, so the two cannot drift apart.
  Upward next_upward() const noexcept;
  /// A held token is still owed upward (discarded at the root).
  bool has_token_to_forward() const noexcept {
    return !packaged_ && tokens_forwarded_ < *c_value_ &&
           tokens_forwarded_ < token_store_.size();
  }
  void try_package(net::NodeContext& ctx);
  void finish(net::NodeContext& ctx, std::uint64_t verdict);

  // Resilient-mode machinery.
  void handle_message(net::NodeContext& ctx, const net::MessageView& msg);
  void apply_timeouts(net::NodeContext& ctx);
  void force_package(net::NodeContext& ctx);
  std::uint64_t forced_report_round() const noexcept;
  void decide_as_root(net::NodeContext& ctx);
  /// Routes a send: direct in plain mode; in resilient mode stamps seq +
  /// checksum and loads the per-neighbor retransmission slot (the first
  /// copy still leaves this round, via flush_slots).
  void emit(net::NodeContext& ctx, std::uint32_t to, const net::Message& msg);
  void flush_slots(net::NodeContext& ctx);

  std::size_t neighbor_index(net::NodeContext& ctx, std::uint32_t id);
  net::Message make(Tag tag) const;

  // Immutable parameters.
  std::uint64_t my_external_id_;
  std::vector<std::uint64_t> own_tokens_;
  std::uint64_t tau_;
  MessageWidths widths_;
  PackagingResilience resil_;

  // Phase 1 state.
  std::uint64_t best_;
  std::uint64_t depth_ = 0;
  std::uint32_t parent_ = kNoParent;
  std::vector<bool> responded_;
  std::vector<std::uint32_t> children_;
  bool pending_broadcast_ = true;
  bool acked_ = false;
  bool is_leader_ = false;
  bool started_ = false;

  // Phase 2/3 state.
  std::optional<std::uint64_t> c_value_;
  bool c_sent_ = false;
  std::uint64_t c_children_sum_ = 0;
  std::uint64_t c_received_count_ = 0;
  std::uint64_t expected_tokens_ = 0;
  std::uint64_t tokens_received_ = 0;
  std::uint64_t tokens_forwarded_ = 0;  // sent up (or discarded at the root)
  std::vector<std::uint64_t> token_store_;  // own token + arrivals, in order
  std::vector<std::vector<std::uint64_t>> packages_;
  bool packaged_ = false;

  // Phase 5 state.
  std::uint64_t report_sum_ = 0;
  std::uint64_t reports_received_ = 0;
  bool report_sent_ = false;
  std::uint64_t verdict_ = 0;
  bool done_ = false;

  // Resilient-mode state: per-neighbor sequence counters and one
  // retransmission slot per neighbor (latest message + copies left).
  std::vector<std::uint64_t> seq_out_;
  std::vector<std::uint64_t> last_seq_in_;
  std::vector<net::Message> slot_msg_;
  std::vector<std::uint32_t> slot_copies_;
  std::uint64_t covered_sum_ = 0;      ///< children's covered counts received
  std::uint64_t covered_decided_ = 0;  ///< root: coverage at decision time
  std::uint64_t formed_sum_ = 0;       ///< children's package counts received
  std::uint64_t formed_decided_ = 0;   ///< root: formed count at decision
  std::uint64_t corrupt_discards_ = 0;
  std::uint64_t dup_discards_ = 0;
};

}  // namespace dut::congest
