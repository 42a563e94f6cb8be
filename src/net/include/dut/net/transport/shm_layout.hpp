#pragma once

// Shared-memory segment layout for ShmTransport (DESIGN.md §14).
//
// One anonymous segment serves one rank group. It holds, in order: a
// control block (trial lockstep state) and one SPSC word ring per directed
// rank pair. The rings carry every word that crosses ranks: the round
// batches, which also carry each rank's live and crash counts, and the
// post-run gather batches (metrics and verdict summaries). Everything is
// plain-old-data over std::atomic integers, and the layout stores no
// pointers — only offsets computed from (num_ranks, ring_words).
//
// This header is the wire/reinterpret_cast funnel for the transport: all
// casting between the raw mapping and these structs happens in
// ShmSession (shm_session.cpp), nowhere else — dut_lint enforces that.
//
// Synchronization recap:
//  * Ring is a single-producer single-consumer ring of uint64 words.
//    head/tail are free-running word counts on separate cache lines; the
//    data region (ring_words words, not necessarily a power of two) follows
//    the header. Producers and consumers make progress independently, and
//    ShmTransport pumps sends and receives together so batches larger than
//    the ring can never deadlock a rank pair. No barrier keeps the ranks in
//    step between batches, so a rank may already have queued its next
//    batch behind the one a slower peer is still reading: a reader takes
//    exactly one batch per exchange — the header words first, then exactly
//    the length the header announces — and never reads past it.
//  * trial_wake is a 32-bit futex word. A worker that has spun and yielded
//    through its backoff in wait_trial blocks on it (1 ms timeout per wait);
//    begin_trial and end_session bump it and wake every waiter.
//  * The trial protocol (ShmSession::begin_trial / wait_trial / post_ready)
//    resets the rings and the abort state between trials, so an aborted
//    run can never leave a half-read batch in a ring for the next one.

#include <atomic>
#include <cstdint>

namespace dut::net::shm {

inline constexpr std::uint32_t kMaxRanks = 16;
inline constexpr std::size_t kCacheLine = 64;
/// Bytes of the abort cause kept in the control block, NUL included.
inline constexpr std::size_t kAbortCauseBytes = 256;

/// SPSC word-ring header; `ring_words` data words follow immediately.
struct alignas(kCacheLine) RingHeader {
  std::atomic<std::uint64_t> tail{0};  ///< words produced (writer-owned)
  char pad_[kCacheLine - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> head{0};  ///< words consumed (reader-owned)
};

/// Segment-global coordination state, at offset 0 of the mapping.
struct alignas(kCacheLine) ShmControl {
  std::uint32_t num_ranks = 0;
  std::uint32_t reserved_ = 0;
  std::uint64_t ring_words = 0;

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
  /// Futex word for workers blocked in wait_trial: bumped after every
  /// trial_seq publication (begin_trial, end_session), then woken.
  std::atomic<std::uint32_t> trial_wake{0};

  alignas(kCacheLine) std::atomic<std::uint64_t> ready[kMaxRanks]{};
  // RingHeader + data for directed pair (from, to) at ring index
  // from * num_ranks + to follow; see ShmSession for offset math.
};

/// Round-batch wire format, all uint64 words, written into the (from → to)
/// ring once per round exchange:
///
///   header:  { round, fresh_count, delayed_count, payload_words,
///              live, crashes }
///   fresh:   fresh_count records of 3 words
///              { sender | to << 32, bits, num_fields | dup_flag << 32 }
///   delayed: delayed_count records of 4 words (fresh layout + due_round)
///   payload: payload_words words — each record's fields in record order,
///            fresh first; a dup-flagged record contributes one copy that
///            both deliveries share, exactly like the in-process arena.
///
/// `live` and `crashes` are the sender's RoundCounts (transport.hpp): its
/// live nodes after the round that just ended, and how many of them the
/// crash schedule stops next round. Every peer gets the same two words, so
/// the batches alone give each rank the all-rank sums. A reader takes
/// exactly one batch per exchange: kBatchHeaderWords words, then exactly
/// the record and payload words they announce (see the Ring note above).
///
/// A post-run gather (Transport::exchange_summaries) travels the same way,
/// as a batch with no records: header { kGatherTag, 0, 0, n, 0, 0 }, then
/// the sender's n words. Rounds stay below 2^31, so no round batch carries
/// the tag, and the reader's sequence check refuses a round batch where a
/// gather is due and a gather where a round is.
inline constexpr std::size_t kBatchHeaderWords = 6;
inline constexpr std::uint64_t kGatherTag = ~std::uint64_t{0};
inline constexpr std::size_t kFreshRecordWords = 3;
inline constexpr std::size_t kDelayedRecordWords = 4;
inline constexpr std::uint64_t kDupFlag = 1ULL << 32;

inline std::uint64_t pack_endpoints(std::uint32_t sender, std::uint32_t to) {
  return static_cast<std::uint64_t>(sender) |
         (static_cast<std::uint64_t>(to) << 32);
}

}  // namespace dut::net::shm
