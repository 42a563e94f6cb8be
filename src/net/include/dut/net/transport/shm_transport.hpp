#pragma once

// ShmTransport: multi-process delivery backend. Each rank process owns a
// contiguous node shard and runs its own Engine over the shared graph; at
// every round boundary the ranks exchange per-peer message batches through
// the session's shared-memory rings (exchange_round — one batch per peer
// per round, whose header also carries the rank's live and crash counts,
// so the round needs no other synchronization), and flip_round splices
// them into a shard-sized detail::RoundArena — the same arena
// InProcTransport delivers through, so the flip touches only this shard's
// receivers and deferred messages are injected by the same code. The
// post-run gathers (exchange_summaries: the engine's metrics, then the
// protocol's verdict summaries) travel the same rings as record-less
// batches, so the rings are the one wire between ranks.
//
// Determinism (DESIGN.md §14 carries the full argument): shards are
// contiguous ascending id ranges and every rank executes its nodes in id
// order, so splicing per-rank batches in rank order — this rank's own
// staging at its own rank slot — reproduces the global in-process send
// order exactly; the stable scatter then yields bit-identical inbox orders,
// and all randomness is keyed on (seed, node) or (fault key, round, edge),
// never on rank. The engine-visible divergences are confined to fault-mode
// bookkeeping of cross-rank sends to halted nodes (classified/timed at the
// delivery boundary instead of the send site) and are documented in §14.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dut/net/transport/round_arena.hpp"
#include "dut/net/transport/shm_session.hpp"
#include "dut/net/transport/transport.hpp"

namespace dut::net {

class ShmTransport final : public Transport {
 public:
  ShmTransport(ShmSession& session, std::uint32_t rank);

  std::uint32_t rank() const noexcept override { return rank_; }
  std::uint32_t num_ranks() const noexcept override { return num_ranks_; }
  std::pair<std::uint32_t, std::uint32_t> shard(
      std::uint32_t num_nodes) const override {
    return shard_of(rank_, num_nodes, num_ranks_);
  }
  /// The shard owning `node` under the contiguous block partition.
  static std::pair<std::uint32_t, std::uint32_t> shard_of(
      std::uint32_t rank, std::uint32_t num_nodes, std::uint32_t num_ranks);
  std::string trace_suffix() const override {
    return ".rank" + std::to_string(rank_);
  }

  void begin_run(std::uint32_t num_nodes, bool fault_mode,
                 TransportHooks& hooks) override;
  void enqueue(const detail::ArenaRecord& rec,
               std::span<const std::uint64_t> fields, bool duplicate) override;
  void enqueue_delayed(const detail::ArenaRecord& rec,
                       std::span<const std::uint64_t> fields,
                       std::uint64_t due_round, bool duplicate) override;
  RoundCounts exchange_round(std::uint64_t round,
                             RoundCounts local) override;
  void flip_round(std::uint64_t round) override;
  InboxView inbox(std::uint32_t node) const noexcept override {
    return arena_.inbox(node);
  }
  std::span<const std::uint32_t> receivers() const noexcept override {
    return arena_.receivers();
  }
  bool has_undelivered() const override {
    return !local_records_.empty() || !remote_records_.empty();
  }
  void settle_run(std::uint64_t round) override;
  void exchange_summaries(std::span<const std::uint64_t> local,
                          std::vector<std::uint64_t>& all) override;
  void abort_run(TransportAbortCode code) noexcept override {
    session_->publish_abort(static_cast<std::uint64_t>(code), rank_);
  }

 private:
  struct StagedRecord {
    detail::ArenaRecord rec;    // payload_begin indexes the staging slab
    std::uint64_t due_round;    // 0 for fresh records
    bool delayed;
    bool duplicate;
  };

  std::uint32_t owner_of(std::uint32_t node) const noexcept;
  /// Serializes this round's staged records for peer `peer` into out.
  void serialize_batch(std::uint32_t peer, std::uint64_t round,
                       RoundCounts counts,
                       std::vector<std::uint64_t>& out) const;
  /// Pushes all outgoing batches and drains exactly one incoming batch per
  /// peer — its header first, then the length the header announces —
  /// interleaved so oversized batches can never deadlock a rank pair.
  /// Every incoming header must carry `tag` (the round, or kGatherTag).
  void pump_rings(std::uint64_t tag);
  /// Splices one rank's records (own staging or a decoded batch) into the
  /// arena — fresh ones pending, delayed ones deferred — in that rank's
  /// send order.
  void merge_own_staging();
  void merge_peer_batch(std::uint32_t peer, std::uint64_t round);
  void stage(const detail::ArenaRecord& rec,
             std::span<const std::uint64_t> fields, bool delayed,
             std::uint64_t due_round, bool duplicate);
  /// Pushes one decoded-or-local fresh record (and its duplicate) to the
  /// arena, with the delivery-boundary halted check for records from
  /// remote senders. `send_round` is the round the sender staged the record
  /// in (flip round minus one); it anchors the halt-visibility compare so
  /// the check matches the in-process send-site check exactly.
  void admit_fresh(const detail::ArenaRecord& rec,
                   std::span<const std::uint64_t> fields, bool duplicate,
                   bool remote, std::uint64_t send_round);

  ShmSession* session_;
  std::uint32_t rank_ = 0;
  std::uint32_t num_ranks_ = 1;
  std::uint32_t num_nodes_ = 0;
  std::uint32_t shard_first_ = 0;
  std::uint32_t shard_last_ = 0;
  bool fault_mode_ = false;
  TransportHooks* hooks_ = nullptr;

  // This round's staged sends, in send order, partitioned by owning rank:
  // local_records_ (destined to this shard) splice at this rank's slot of
  // the global order; remote_records_ serialize into per-peer batches.
  std::vector<StagedRecord> local_records_;
  std::vector<StagedRecord> remote_records_;
  std::vector<std::uint64_t> staging_payload_;

  // The delivery arena over this shard; its deferred list holds the
  // delayed messages owned by this shard, in global deferred order.
  detail::RoundArena arena_;

  // Ring pump state, one slot per rank (this rank's own slot stays
  // unused), kept across runs so a pooled transport reuses its buffers.
  // in_batches_[peer] holds the batch the last exchange received until
  // flip_round merges it (or exchange_summaries copies it out); it is sized
  // to the words still expected (the header, then the whole batch) and
  // in_read_ counts those already popped.
  std::vector<std::vector<std::uint64_t>> out_batches_;   // per peer
  std::vector<std::size_t> out_sent_;                     // words pushed
  std::vector<std::vector<std::uint64_t>> in_batches_;    // per peer
  std::vector<std::size_t> in_read_;                      // words popped
};

}  // namespace dut::net
