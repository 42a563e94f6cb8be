#include "dut/net/transport/round_arena.hpp"

#include <bit>
#include <utility>

namespace dut::net::detail {

void RoundArena::reset(std::uint32_t first, std::uint32_t span) {
  first_ = first;
  slots_.assign(span, Slot{});
  pending_records_.clear();
  pending_payload_.clear();
  receiver_bits_.assign((std::size_t{span} + 63) / 64, 0);
  receiver_words_.assign((receiver_bits_.size() + 63) / 64, 0);
  delivered_records_.clear();
  delivered_payload_.clear();
  delivered_receivers_.clear();
  // A run aborted mid-flight (e.g. a ProtocolViolation on a pooled engine)
  // may have left delayed messages queued; replaying them into the next
  // trial would corrupt it.
  deferred_records_.clear();
  deferred_payload_.clear();
}

void RoundArena::append(const ArenaRecord& rec) {
  pending_records_.push_back(rec);
  const std::uint32_t i = rec.to - first_;
  if (slots_[i].pending++ == 0) {
    receiver_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
    receiver_words_[i / 4096] |= std::uint64_t{1} << (i / 64 % 64);
  }
}

void RoundArena::push(const ArenaRecord& rec,
                      std::span<const std::uint64_t> fields, bool duplicate) {
  ArenaRecord stored = rec;
  stored.payload_begin = pending_payload_.size();
  pending_payload_.insert(pending_payload_.end(), fields.begin(),
                          fields.end());
  append(stored);
  // The duplicate shares the original's payload range (and corruption).
  if (duplicate) append(stored);
}

void RoundArena::defer(const ArenaRecord& rec,
                       std::span<const std::uint64_t> fields,
                       std::uint64_t due_round, bool duplicate) {
  DeferredRecord d{rec, due_round};
  d.rec.payload_begin = deferred_payload_.size();
  deferred_payload_.insert(deferred_payload_.end(), fields.begin(),
                           fields.end());
  deferred_records_.push_back(d);
  if (duplicate) deferred_records_.push_back(d);
}

void RoundArena::inject_deferred(std::uint64_t round, TransportHooks& hooks) {
  if (deferred_records_.empty()) return;
  std::size_t kept = 0;
  for (const DeferredRecord& d : deferred_records_) {
    if (d.due_round > round) {
      deferred_records_[kept++] = d;
      continue;
    }
    if (hooks.is_halted(d.rec.to)) {
      hooks.count_expired(d.rec.sender, d.rec.to);
      continue;
    }
    push(d.rec,
         std::span<const std::uint64_t>(
             deferred_payload_.data() + d.rec.payload_begin,
             d.rec.num_fields),
         /*duplicate=*/false);
  }
  deferred_records_.resize(kept);
  // The slab can only be reclaimed once nothing references it; the deferral
  // window is bounded by max_delay_rounds, so this happens regularly.
  if (deferred_records_.empty()) deferred_payload_.clear();
}

void RoundArena::expire_deferred(TransportHooks& hooks) {
  for (const DeferredRecord& d : deferred_records_) {
    hooks.count_expired(d.rec.sender, d.rec.to);
  }
  deferred_records_.clear();
  deferred_payload_.clear();
}

void RoundArena::flip() {
  // Only the previous round's receivers hold inbox ranges; retire them.
  for (const std::uint32_t v : delivered_receivers_) {
    slots_[v - first_].count = 0;
  }
  delivered_receivers_.clear();
  // Ascending bitmap walk, clearing as it goes: each receiver's inbox range
  // starts where the previous (lower-id) receiver's ends.
  std::size_t offset = 0;
  for (std::size_t w = 0; w < receiver_words_.size(); ++w) {
    for (std::uint64_t words = std::exchange(receiver_words_[w], 0);
         words != 0; words &= words - 1) {
      const std::size_t b = w * 64 + std::countr_zero(words);
      for (std::uint64_t bits = std::exchange(receiver_bits_[b], 0);
           bits != 0; bits &= bits - 1) {
        const auto i = static_cast<std::uint32_t>(b * 64 +
                                                  std::countr_zero(bits));
        Slot& slot = slots_[i];
        slot.begin = offset;
        offset += slot.pending;
        slot.pending = 0;
        delivered_receivers_.push_back(first_ + i);
      }
    }
  }
  // Stable scatter in arrival order; each count doubles as its inbox's
  // cursor and ends at the inbox size.
  delivered_records_.resize(pending_records_.size());
  for (const ArenaRecord& rec : pending_records_) {
    Slot& slot = slots_[rec.to - first_];
    delivered_records_[slot.begin + slot.count++] = rec;
  }
  // The pending slab becomes the delivered slab; payload_begin offsets in
  // the records stay valid across the swap.
  std::swap(pending_payload_, delivered_payload_);
  pending_records_.clear();
  pending_payload_.clear();
}

}  // namespace dut::net::detail
