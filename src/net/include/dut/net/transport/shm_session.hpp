#pragma once

// ShmSession: one anonymous shared-memory segment shared by a group of
// rank processes, plus the coordination protocol that runs over it (trial
// lockstep, abort propagation, SPSC rings). The delivery semantics built on
// top live in ShmTransport — round batches and post-run gathers alike
// cross ranks through the rings; this class only moves words and keeps
// the group in step.
//
// Lifetime: the coordinator creates the segment before it forks the
// workers (WorkerGroup), which inherit the mapping; it dies with the last
// process that maps it, so no name is ever left behind. The coordinator
// drives trials with begin_trial / end_session; workers loop on
// wait_trial / post_ready. All blocking waits are iteration-counted — no
// wall-clock reads — and watch both the abort code and shutdown flag, so a
// crashed or aborting peer turns into a TransportAborted throw instead of
// a deadlock. A worker idle in wait_trial ends up blocked on a futex that
// begin_trial and end_session wake, so a trial published while it sleeps
// starts at once.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "dut/net/transport/shm_layout.hpp"

namespace dut::net {

class ShmSession {
 public:
  struct Options {
    std::uint32_t num_ranks = 2;
    /// Data words per directed-pair ring. Round batches larger than this
    /// still go through (the transport pumps sends and receives together);
    /// the ring is just the in-flight window.
    std::uint64_t ring_words = 1ULL << 14;
  };

  /// Anonymous MAP_SHARED segment: visible to children of the creating
  /// process (fork-based WorkerGroup) and to threads, never named in the
  /// filesystem.
  static ShmSession create_anonymous(const Options& options);

  ShmSession(ShmSession&& other) noexcept;
  ShmSession& operator=(ShmSession&&) = delete;
  ShmSession(const ShmSession&) = delete;
  ShmSession& operator=(const ShmSession&) = delete;
  ~ShmSession();

  std::uint32_t num_ranks() const noexcept;

  // -- trial lockstep (coordinator side) ------------------------------------
  /// Waits for every worker to finish the previous trial, resets all
  /// per-trial state (rings, abort code), publishes
  /// (seed, flags) and releases the group into the next trial. Returns the
  /// new trial sequence number.
  std::uint64_t begin_trial(std::uint64_t seed, std::uint64_t flags);
  /// Releases workers out of wait_trial for good. Idempotent.
  void end_session() noexcept;

  // -- trial lockstep (worker side) -----------------------------------------
  struct Trial {
    bool shutdown = false;
    std::uint64_t seq = 0;
    std::uint64_t seed = 0;
    std::uint64_t flags = 0;
  };
  /// Blocks until the coordinator opens a trial newer than `last_seq` (or
  /// shuts the session down).
  Trial wait_trial(std::uint64_t last_seq);
  /// Reports this rank done with trial `seq` (normally or via abort).
  void post_ready(std::uint32_t rank, std::uint64_t seq);

  // -- abort propagation -----------------------------------------------------
  /// First caller wins; every blocking wait observes it. `rank` is the
  /// caller's rank and `cause` (truncated to shm::kAbortCauseBytes - 1
  /// bytes) says why; both reach every TransportAborted the abort raises.
  void publish_abort(std::uint64_t code, std::uint32_t rank,
                     std::string_view cause = {}) noexcept;
  std::uint64_t abort_code() const noexcept;
  /// Throws TransportAborted — naming the aborting rank, the code and the
  /// cause — if the current trial was aborted, or if the session shut down
  /// mid-trial.
  void check_abort() const;

  // -- SPSC rings ------------------------------------------------------------
  /// Pushes up to `count` words into the (from → to) ring; returns how many
  /// fit. Never blocks.
  std::size_t ring_try_push(std::uint32_t from, std::uint32_t to,
                            const std::uint64_t* words, std::size_t count);
  /// Pops up to `max` words from the (from → to) ring; returns how many
  /// were available. Never blocks.
  std::size_t ring_try_pop(std::uint32_t from, std::uint32_t to,
                           std::uint64_t* out, std::size_t max);

  /// One bounded backoff step inside a spin loop: busy first, then yields,
  /// then millisecond sleeps; throws TransportAborted after the deadline or
  /// as soon as `session.check_abort()` would. Loop-local, cheap to reset.
  class Backoff {
   public:
    void pause(const ShmSession& session) {
      step(session, true, nullptr, 0);
    }
    /// Same schedule without watching the abort code — for the inter-trial
    /// waits, where a stale abort from the finished trial is not an error.
    void pause_ignoring_abort(const ShmSession& session) {
      step(session, false, nullptr, 0);
    }
    /// pause_ignoring_abort whose sleep stage blocks on the futex `word`
    /// (up to 1 ms per step, so the deadline is unchanged) while it still
    /// reads `seen`; a writer that bumps the word and wakes it ends the
    /// wait at once.
    void wait_ignoring_abort(const ShmSession& session,
                             const std::atomic<std::uint32_t>& word,
                             std::uint32_t seen) {
      step(session, false, &word, seen);
    }

   private:
    void step(const ShmSession& session, bool watch_abort,
              const std::atomic<std::uint32_t>* word, std::uint32_t seen);
    std::uint64_t spins_ = 0;
  };

 private:
  ShmSession() = default;
  shm::ShmControl* control() const noexcept;
  shm::RingHeader* ring_header(std::uint32_t from, std::uint32_t to) const;
  std::uint64_t* ring_data(std::uint32_t from, std::uint32_t to) const;

  void* base_ = nullptr;
  std::size_t mapped_bytes_ = 0;
};

}  // namespace dut::net
