#pragma once

// Transport: the round-delivery seam under net::Engine.
//
// The engine owns model enforcement (adjacency, duplicate-send guard,
// bandwidth, budgets, fault draws) and node execution; everything about
// *moving* a committed message to its destination inbox — the flat-slab
// round arena, the receivers-only scatter, and (multi-process) the
// shared-memory exchange between rank shards — lives behind this interface.
//
// Two backends ship, and both build their inboxes through one
// detail::RoundArena (dut/net/transport/round_arena.hpp):
//  * InProcTransport (dut/net/transport/inproc.hpp): the single-process
//    arena over the whole node range, zero-copy for programs.
//  * ShmTransport (dut/net/transport/shm_transport.hpp): each rank process
//    owns a contiguous node shard and exchanges per-peer message batches
//    through shared-memory rings in lockstep rounds.
//
// Determinism contract across backends: node shards are contiguous
// ascending id ranges and every rank executes its nodes in id order, so
// concatenating per-rank batches in rank order reproduces the global
// in-process send order; the arena's stable scatter by destination then
// yields bit-identical inbox orders, and all seed/round/edge-keyed
// randomness (per-node RNG streams, fault draws) is rank-independent by
// construction. DESIGN.md §14 carries the full argument.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dut/net/arena.hpp"

namespace dut::net {

struct EngineMetrics;

/// Halt/send visibility keys: the engine executes nodes in ascending id
/// order within a round, so "was `to` halted when `from` sent in round R"
/// is a total order comparison. A crash at round H (applied before round
/// H's execution) is visible to every sender of rounds >= H; a voluntary
/// halt by node v during round H is visible to same-round senders with id
/// > v and to every later round. Encoding both sides as
/// (round << 33) | (node + 1) — crashes with a zero low part — makes the
/// predicate a single compare: halted-as-seen iff halt key < send key.
/// (33 low bits fit any node id + 1; rounds are capped far below 2^31.)
inline constexpr std::uint64_t kNeverHalted = ~std::uint64_t{0};
constexpr std::uint64_t halt_key_crash(std::uint64_t round) noexcept {
  return round << 33;
}
constexpr std::uint64_t halt_key_voluntary(std::uint64_t round,
                                           std::uint32_t node) noexcept {
  return (round << 33) | (static_cast<std::uint64_t>(node) + 1);
}
constexpr std::uint64_t send_visibility_key(std::uint64_t round,
                                            std::uint32_t sender) noexcept {
  return (round << 33) | (static_cast<std::uint64_t>(sender) + 1);
}

/// Engine-side callbacks a transport needs at delivery time. Delivery-time
/// bookkeeping (halted state, fault tallies, violation tracing) belongs to
/// the engine; the transport only reports what it saw.
class TransportHooks {
 public:
  /// Whether `node` (always shard-local) has halted or crashed.
  virtual bool is_halted(std::uint32_t node) const noexcept = 0;
  /// `node`'s halt visibility key (kNeverHalted while running): lets a
  /// multi-process transport replay the in-process send-site halted check
  /// exactly at the delivery boundary, via
  /// halt_key(to) < send_visibility_key(send_round, from).
  virtual std::uint64_t halt_key(std::uint32_t node) const noexcept = 0;
  /// A queued message addressed to a node that halted before delivery was
  /// discarded (fault mode): count it and emit the "expire" trace event.
  virtual void count_expired(std::uint32_t from, std::uint32_t to) = 0;
  /// Strict mode only: a message from a remote rank arrived for an
  /// already-halted node. The in-process engine rejects such sends at send
  /// time; across ranks the sender cannot see remote halted state, so the
  /// owning rank rejects at the delivery boundary instead. Must throw
  /// ProtocolViolation (after tracing it).
  [[noreturn]] virtual void reject_remote_to_halted(std::uint32_t from,
                                                    std::uint32_t to) = 0;

 protected:
  ~TransportHooks() = default;
};

/// Thrown on ranks whose peer aborted a run (model violation or crash on
/// another shard): every spin-wait inside a multi-process transport watches
/// the shared abort flag and bails with this instead of deadlocking. The
/// coordinating layer maps the shared abort code back to the peer's
/// original exception type (see congest::ShardedUniformity).
class TransportAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Abort codes published through Transport::abort_run so peers can re-throw
/// what the faulting rank threw.
enum class TransportAbortCode : std::uint64_t {
  kNone = 0,
  kProtocolViolation = 1,
  kBandwidthExceeded = 2,
  kRoundLimitExceeded = 3,
  kOther = 4,
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::uint32_t rank() const noexcept = 0;
  virtual std::uint32_t num_ranks() const noexcept = 0;
  /// The contiguous node range [first, last) this rank owns and executes.
  virtual std::pair<std::uint32_t, std::uint32_t> shard(
      std::uint32_t num_nodes) const = 0;
  /// Appended to the DUT_TRACE path when the engine resolves it, so each
  /// rank writes its own transcript shard ("" single-process, ".rank<r>"
  /// sharded; obs::merge_trace_shards reassembles the global transcript).
  virtual std::string trace_suffix() const { return {}; }

  /// Resets per-run delivery state (capacity-preserving) and latches the
  /// engine's hooks for this run.
  virtual void begin_run(std::uint32_t num_nodes, bool fault_mode,
                         TransportHooks& hooks) = 0;

  /// Queues one committed message for the next round flip. `fields` is
  /// copied; `rec.payload_begin` is transport-owned. `duplicate` queues a
  /// second record sharing the same payload (fault injection).
  virtual void enqueue(const detail::ArenaRecord& rec,
                       std::span<const std::uint64_t> fields,
                       bool duplicate) = 0;
  /// Queues one delayed message for injection at `due_round`'s flip.
  virtual void enqueue_delayed(const detail::ArenaRecord& rec,
                               std::span<const std::uint64_t> fields,
                               std::uint64_t due_round, bool duplicate) = 0;

  /// Round boundary: exchanges batches with peer ranks (multi-process) and
  /// scatters everything due for `round` into CSR inbox order.
  virtual void flip_round(std::uint64_t round) = 0;

  /// Sums `local_active` over all ranks. Called in the same sequence on
  /// every rank (the engine's loop structure is identical across ranks), so
  /// the transport may use an internal step counter to pair the exchanges.
  virtual std::uint64_t sync_active(std::uint64_t local_active) = 0;

  /// Node `node`'s inbox for the current round (shard-local nodes only).
  virtual InboxView inbox(std::uint32_t node) const noexcept = 0;
  /// The shard-local nodes whose inbox is non-empty this round, ascending
  /// (valid until the next flip). The engine wakes them; every other inbox
  /// is empty.
  virtual std::span<const std::uint32_t> receivers() const noexcept = 0;

  /// Whether any message is still queued or staged after the loop exited
  /// (the strict-mode quiescence violation).
  virtual bool has_undelivered() const = 0;
  /// Fault-mode post-loop settlement: expire everything still deferred or
  /// in flight via hooks.count_expired. `round` is the round the loop
  /// exited on (one past the last executed round); a multi-process backend
  /// uses it to pump the final round's staged sends through the
  /// delivery-boundary expiry that the in-process engine already applied
  /// at their send sites.
  virtual void settle_run(std::uint64_t round) = 0;

  /// Folds every rank's metrics into one global EngineMetrics (identical
  /// result on all ranks). Identity for single-process transports.
  virtual void reduce_metrics(EngineMetrics& metrics) = 0;

  /// All-gathers a small per-rank word vector (post-run verdict summaries).
  /// `all` receives num_ranks() blocks of `local.size()` words, rank order.
  /// Every rank must call with the same word count.
  virtual void exchange_summaries(std::span<const std::uint64_t> local,
                                  std::vector<std::uint64_t>& all) = 0;

  /// Publishes an abort to peer ranks before an exception escapes run().
  /// No-op for single-process transports. Idempotent; first code wins.
  virtual void abort_run(TransportAbortCode code) noexcept = 0;
};

}  // namespace dut::net
