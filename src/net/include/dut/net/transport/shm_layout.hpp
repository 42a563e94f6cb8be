#pragma once

// Shared-memory segment layout for ShmTransport (DESIGN.md §14).
//
// One segment serves one rank group. It holds, in order: a control block
// (trial lockstep state), one exchange cell per rank (the all-gather used
// for sync_active / metrics reduction / verdict summaries), and one SPSC
// word ring per directed rank pair (round-batch traffic). Everything is
// plain-old-data over std::atomic<std::uint64_t>; the segment is mapped at
// different addresses in different processes, so the layout stores no
// pointers — only offsets computed from (num_ranks, ring_words).
//
// This header is the wire/reinterpret_cast funnel for the transport: all
// casting between the raw mapping and these structs happens in
// ShmSession (shm_session.cpp), nowhere else — dut_lint enforces that.
//
// Synchronization recap:
//  * ExchangeCell implements a lockstep all-gather. Publish number c
//    (1-based) writes words[c & 1] then seq.store(c, release); readers wait
//    for seq >= c and read words[c & 1]. Double-buffering by parity is
//    sufficient: a rank only starts publish c+2 (overwriting c's slot)
//    after observing every peer at c+1, and a peer posts c+1 only after it
//    finished reading c.
//  * Ring is a single-producer single-consumer ring of uint64 words.
//    head/tail are free-running word counts on separate cache lines; the
//    data region (ring_words words, not necessarily a power of two) follows
//    the header. Producers and consumers make progress independently, and
//    ShmTransport pumps sends and receives together so oversized round
//    batches can never deadlock a rank pair.
//  * The trial protocol (ShmSession::begin_trial / wait_trial / post_ready)
//    resets rings, exchange cells and the abort state between trials, so an
//    aborted run can never leave two ranks' exchange counters misaligned
//    for the next one.

#include <atomic>
#include <cstdint>

namespace dut::net::shm {

inline constexpr std::uint64_t kMagic = 0x4455545348'4d5631ULL;  // "DUTSHMV1"
inline constexpr std::uint32_t kMaxRanks = 16;
/// Words per exchange publish; large enough for the metrics reduction and
/// the congest verdict summaries with room to grow.
inline constexpr std::uint32_t kExchangeWords = 64;
inline constexpr std::size_t kCacheLine = 64;
/// Bytes of the abort cause kept in the control block, NUL included.
inline constexpr std::size_t kAbortCauseBytes = 256;

/// Lockstep all-gather slot for one rank (see file comment).
struct alignas(kCacheLine) ExchangeCell {
  std::atomic<std::uint64_t> seq{0};  ///< completed publishes, 1-based
  std::uint64_t words[2][kExchangeWords]{};  ///< double-buffered by parity
};

/// SPSC word-ring header; `ring_words` data words follow immediately.
struct alignas(kCacheLine) RingHeader {
  std::atomic<std::uint64_t> tail{0};  ///< words produced (writer-owned)
  char pad_[kCacheLine - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> head{0};  ///< words consumed (reader-owned)
};

/// Segment-global coordination state, at offset 0 of the mapping.
struct alignas(kCacheLine) ShmControl {
  std::uint64_t magic = 0;
  std::uint32_t num_ranks = 0;
  std::uint32_t reserved_ = 0;
  std::uint64_t ring_words = 0;
  std::uint64_t total_bytes = 0;

  /// Trial lockstep: the coordinator publishes (trial_seed, trial_flags)
  /// and then bumps trial_seq (release); workers spin on trial_seq and run
  /// one engine pass per bump. A worker reports completion — success or
  /// abort alike — by storing the trial's seq into ready[rank]; the
  /// coordinator starts trial t+1 only after every ready slot reached t,
  /// which is what makes the inter-trial reset race-free.
  std::atomic<std::uint64_t> trial_seq{0};
  std::uint64_t trial_seed = 0;
  std::uint64_t trial_flags = 0;
  /// Abort code for the current trial (TransportAbortCode), stored only by
  /// the abort_claim winner. Non-zero makes every spin loop in the segment
  /// throw TransportAborted.
  std::atomic<std::uint64_t> abort_code{0};
  /// First-wins claim on the abort: 0 while unclaimed, else the aborting
  /// rank + 1. The winner writes abort_cause, then publishes abort_code.
  std::atomic<std::uint64_t> abort_claim{0};
  /// NUL-terminated, truncated cause of the abort; valid once abort_code
  /// reads non-zero.
  char abort_cause[kAbortCauseBytes]{};
  /// Session teardown: workers drain out of wait_trial and exit.
  std::atomic<std::uint64_t> shutdown{0};

  alignas(kCacheLine) std::atomic<std::uint64_t> ready[kMaxRanks]{};
  ExchangeCell exchange[kMaxRanks];
  // RingHeader + data for directed pair (from, to) at ring index
  // from * num_ranks + to follow; see ShmSession for offset math.
};

/// Round-batch wire format, all uint64 words, written into the (from → to)
/// ring once per round flip:
///
///   header:  { round, fresh_count, delayed_count, payload_words }
///   fresh:   fresh_count records of 3 words
///              { sender | to << 32, bits, num_fields | dup_flag << 32 }
///   delayed: delayed_count records of 4 words (fresh layout + due_round)
///   payload: payload_words words — each record's fields in record order,
///            fresh first; a dup-flagged record contributes one copy that
///            both deliveries share, exactly like the in-process arena.
inline constexpr std::size_t kBatchHeaderWords = 4;
inline constexpr std::size_t kFreshRecordWords = 3;
inline constexpr std::size_t kDelayedRecordWords = 4;
inline constexpr std::uint64_t kDupFlag = 1ULL << 32;

inline std::uint64_t pack_endpoints(std::uint32_t sender, std::uint32_t to) {
  return static_cast<std::uint64_t>(sender) |
         (static_cast<std::uint64_t>(to) << 32);
}

}  // namespace dut::net::shm
