#pragma once

// RoundArena: the delivery arena both transports build inboxes through.
//
// Committed messages append to the pending side — records in arrival
// order, fields packed into the payload slab — and every destination is
// marked, the first time a round sends to it, in a two-level bitmap over
// the arena's node range: one bit per node, plus one summary bit per
// 64-node word that has any bit set. flip() turns the pending side into
// the delivered side touching only those receivers: it walks the bitmap in
// ascending node order (summary words first, so a word with no receiver
// is never read) and clears it as it goes, gives each receiver its CSR
// range of the record array, scatters the records stably (each inbox keeps
// arrival order), and retires the previous round's receivers. A round
// therefore costs O(messages + fields + receivers + span/4096): no sort,
// and one summary word covers 4096 nodes. Delayed (fault-injected)
// messages wait in a deferred list — payload in its own slab, so flips
// never invalidate the offsets — until inject_deferred() moves the due
// ones behind the round's fresh arrivals.
//
// The arena covers the node range [first, first + span): the whole graph
// in-process, one rank's shard under ShmTransport. Node ids in and out
// are global. All buffers keep their capacity across rounds and runs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dut/net/arena.hpp"
#include "dut/net/transport/transport.hpp"

namespace dut::net::detail {

class RoundArena {
 public:
  /// Resets all round and deferred state for a run over [first, first +
  /// span). Deferred messages an aborted run left queued are dropped too.
  void reset(std::uint32_t first, std::uint32_t span);

  /// Appends a message for the next flip; `fields` is copied. `duplicate`
  /// appends a second record sharing the same payload range.
  void push(const ArenaRecord& rec, std::span<const std::uint64_t> fields,
            bool duplicate);
  /// Holds a message back until `due_round`'s inject_deferred().
  void defer(const ArenaRecord& rec, std::span<const std::uint64_t> fields,
             std::uint64_t due_round, bool duplicate);
  /// Moves the deferred messages due by `round` to the pending side, in
  /// deferral order; copies addressed to halted nodes expire instead.
  void inject_deferred(std::uint64_t round, TransportHooks& hooks);
  /// Expires every message still deferred (post-run settlement).
  void expire_deferred(TransportHooks& hooks);

  /// Round boundary: the pending side becomes the delivered side.
  void flip();

  InboxView inbox(std::uint32_t node) const noexcept {
    const Slot& slot = slots_[node - first_];
    return InboxView(delivered_records_.data() + slot.begin, slot.count,
                     delivered_payload_.data());
  }
  /// This round's receivers, ascending (valid until the next flip).
  std::span<const std::uint32_t> receivers() const noexcept {
    return delivered_receivers_;
  }
  bool has_pending() const noexcept { return !pending_records_.empty(); }

 private:
  struct Slot {
    std::size_t begin = 0;      ///< delivered inbox range start
    std::uint32_t count = 0;    ///< delivered inbox size (0 off-receivers)
    std::uint32_t pending = 0;  ///< pushed since the last flip
  };
  struct DeferredRecord {
    ArenaRecord rec;  ///< payload_begin indexes deferred_payload_
    std::uint64_t due_round = 0;
  };

  void append(const ArenaRecord& rec);

  std::uint32_t first_ = 0;
  std::vector<Slot> slots_;  // indexed by node - first_

  std::vector<ArenaRecord> pending_records_;
  std::vector<std::uint64_t> pending_payload_;
  // This round's receivers: bit i of receiver_bits_ marks node first_ + i;
  // bit j of receiver_words_ marks a non-zero receiver_bits_[j].
  std::vector<std::uint64_t> receiver_bits_;
  std::vector<std::uint64_t> receiver_words_;
  std::vector<ArenaRecord> delivered_records_;
  std::vector<std::uint64_t> delivered_payload_;
  std::vector<std::uint32_t> delivered_receivers_;  // ascending

  std::vector<DeferredRecord> deferred_records_;
  std::vector<std::uint64_t> deferred_payload_;
};

}  // namespace dut::net::detail
