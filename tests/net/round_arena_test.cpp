// RoundArena against a reference model: random push / defer /
// inject_deferred / flip sequences, duplicates included, over shards that
// start past node 0 and spans on either side of the bitmap's 64-node word
// and 4096-node summary boundaries, with the arena reused across reset().
// After every flip, receivers() must be strictly ascending and every inbox
// must equal a reference scatter built with std::stable_sort by
// destination.

#include "dut/net/transport/round_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dut/stats/rng.hpp"

namespace dut::net::detail {
namespace {

/// Hooks over a fixed halted set; counts the expiries the arena reports.
class RecordingHooks final : public TransportHooks {
 public:
  std::set<std::uint32_t> halted;
  std::uint64_t expired = 0;

  bool is_halted(std::uint32_t node) const noexcept override {
    return halted.count(node) != 0;
  }
  std::uint64_t halt_key(std::uint32_t node) const noexcept override {
    return is_halted(node) ? 0 : kNeverHalted;
  }
  void count_expired(std::uint32_t, std::uint32_t) override { ++expired; }
  [[noreturn]] void reject_remote_to_halted(std::uint32_t,
                                            std::uint32_t) override {
    throw std::logic_error("RoundArena never rejects");
  }
};

/// A message as an inbox shows it.
struct Delivered {
  std::uint32_t sender = 0;
  std::uint32_t to = 0;
  std::uint64_t declared_bits = 0;
  std::vector<std::uint64_t> fields;

  bool operator==(const Delivered&) const = default;
};

struct Deferred {
  Delivered msg;
  std::uint64_t due_round = 0;
};

/// The arena's contract, spelled out the slow way.
class ReferenceArena {
 public:
  void push(const Delivered& msg, bool duplicate) {
    pending_.push_back(msg);
    if (duplicate) pending_.push_back(msg);
  }
  void defer(const Delivered& msg, std::uint64_t due_round, bool duplicate) {
    deferred_.push_back({msg, due_round});
    if (duplicate) deferred_.push_back({msg, due_round});
  }
  std::uint64_t inject_deferred(std::uint64_t round,
                                const std::set<std::uint32_t>& halted) {
    std::uint64_t expired = 0;
    std::vector<Deferred> kept;
    for (const Deferred& d : deferred_) {
      if (d.due_round > round) {
        kept.push_back(d);
      } else if (halted.count(d.msg.to) != 0) {
        ++expired;
      } else {
        pending_.push_back(d.msg);
      }
    }
    deferred_ = kept;
    return expired;
  }
  /// The delivered side after a flip: every message, stably sorted by
  /// destination (each inbox keeps arrival order).
  std::vector<Delivered> flip() {
    std::vector<Delivered> delivered = std::move(pending_);
    pending_.clear();
    std::stable_sort(delivered.begin(), delivered.end(),
                     [](const Delivered& a, const Delivered& b) {
                       return a.to < b.to;
                     });
    return delivered;
  }
  bool has_pending() const { return !pending_.empty(); }

 private:
  std::vector<Delivered> pending_;
  std::vector<Deferred> deferred_;
};

Delivered random_message(stats::Xoshiro256& rng, std::uint32_t first,
                         std::uint32_t span) {
  Delivered msg;
  msg.sender = static_cast<std::uint32_t>(rng.below(1u << 20));
  // Half the destinations are among the shard's first or last three
  // nodes, so inboxes hold several messages and the bitmap's edge words
  // are hit.
  const std::uint64_t pick = rng.below(4);
  const auto edge = static_cast<std::uint32_t>(rng.below(std::min(span, 3u)));
  std::uint32_t offset = static_cast<std::uint32_t>(rng.below(span));
  if (pick == 0) offset = edge;
  if (pick == 1) offset = span - 1 - edge;
  msg.to = first + offset;
  msg.declared_bits = 1 + rng.below(64);
  const std::uint64_t num_fields = rng.below(4);
  for (std::uint64_t f = 0; f < num_fields; ++f) msg.fields.push_back(rng());
  return msg;
}

ArenaRecord record_of(const Delivered& msg) {
  // payload_begin is arena-owned: the arena must overwrite it.
  return ArenaRecord{msg.sender, msg.to,
                     static_cast<std::uint32_t>(msg.fields.size()),
                     msg.declared_bits, 0x5eed};
}

/// Checks the arena's delivered side against the reference's after a flip.
void expect_matches(const RoundArena& arena,
                    const std::vector<Delivered>& expected,
                    std::uint32_t first, std::uint32_t span) {
  const std::span<const std::uint32_t> receivers = arena.receivers();
  for (std::size_t i = 1; i < receivers.size(); ++i) {
    ASSERT_LT(receivers[i - 1], receivers[i]) << "receivers not ascending";
  }
  std::vector<std::uint32_t> expected_receivers;
  for (const Delivered& msg : expected) {
    if (expected_receivers.empty() || expected_receivers.back() != msg.to) {
      expected_receivers.push_back(msg.to);
    }
  }
  ASSERT_EQ(std::vector<std::uint32_t>(receivers.begin(), receivers.end()),
            expected_receivers);

  std::vector<Delivered> got;
  for (std::uint32_t v = first; v < first + span; ++v) {
    for (const MessageView view : arena.inbox(v)) {
      Delivered msg;
      msg.sender = view.sender;
      msg.to = v;
      msg.declared_bits = view.bits;
      const auto fields = view.fields();
      msg.fields.assign(fields.begin(), fields.end());
      got.push_back(std::move(msg));
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "message " << i << " of the scatter";
  }
}

/// One run of `rounds` random rounds over [first, first + span).
void run_random_rounds(RoundArena& arena, stats::Xoshiro256& rng,
                       std::uint32_t first, std::uint32_t span,
                       std::uint64_t rounds) {
  arena.reset(first, span);
  ReferenceArena reference;
  RecordingHooks hooks;
  std::uint64_t expected_expired = 0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    // Some rounds send nothing; others up to ~3 messages per node.
    const std::uint64_t sends =
        rng.below(4) == 0 ? 0 : rng.below(3 * std::uint64_t{span} + 2);
    for (std::uint64_t s = 0; s < sends; ++s) {
      const Delivered msg = random_message(rng, first, span);
      const bool duplicate = rng.below(6) == 0;
      if (rng.below(5) == 0) {
        const std::uint64_t due = round + 1 + rng.below(3);
        arena.defer(record_of(msg), msg.fields, due, duplicate);
        reference.defer(msg, due, duplicate);
      } else {
        arena.push(record_of(msg), msg.fields, duplicate);
        reference.push(msg, duplicate);
      }
    }
    // Halt a node now and then, so some due messages expire.
    if (rng.below(3) == 0) {
      hooks.halted.insert(first + static_cast<std::uint32_t>(rng.below(span)));
    }
    ASSERT_EQ(arena.has_pending(), reference.has_pending());
    arena.inject_deferred(round + 1, hooks);
    expected_expired += reference.inject_deferred(round + 1, hooks.halted);
    arena.flip();
    expect_matches(arena, reference.flip(), first, span);
    ASSERT_EQ(hooks.expired, expected_expired);
  }
  arena.expire_deferred(hooks);
}

TEST(RoundArena, RandomRoundsMatchAStableScatterByDestination) {
  RoundArena arena;  // one arena for every case: reuse across reset()
  std::uint64_t seed = 1;
  for (const std::uint32_t span : {1u, 63u, 64u, 65u, 4097u}) {
    for (const std::uint32_t first : {0u, 1u, 4096u + 37u}) {
      stats::Xoshiro256 rng(seed++);
      SCOPED_TRACE("span " + std::to_string(span) + ", first " +
                   std::to_string(first));
      run_random_rounds(arena, rng, first, span, span > 1000 ? 6 : 25);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(RoundArena, ResetDropsPendingReceiversAndDeferredMessages) {
  RoundArena arena;
  RecordingHooks hooks;
  arena.reset(100, 70);
  const Delivered msg{
      .sender = 1, .to = 160, .declared_bits = 8, .fields = {42}};
  arena.push(record_of(msg), msg.fields, /*duplicate=*/true);
  arena.defer(record_of(msg), msg.fields, 1, /*duplicate=*/false);
  // An aborted run leaves both sides non-empty; the next run starts clean,
  // even over a different range.
  arena.reset(0, 65);
  EXPECT_FALSE(arena.has_pending());
  arena.inject_deferred(5, hooks);
  arena.flip();
  EXPECT_TRUE(arena.receivers().empty());
  for (std::uint32_t v = 0; v < 65; ++v) EXPECT_TRUE(arena.inbox(v).empty());
  EXPECT_EQ(hooks.expired, 0u);
}

}  // namespace
}  // namespace dut::net::detail
