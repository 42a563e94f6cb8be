#pragma once

// ShmSession: one shared-memory segment shared by a group of rank
// processes, plus the coordination protocol that runs over it (trial
// lockstep, abort propagation, SPSC rings, lockstep all-gather). The
// delivery semantics built on top live in ShmTransport; this class only
// moves words and keeps the group in step.
//
// Lifetime: the coordinator creates the segment (anonymous for fork-based
// workers, named for exec'd ones) and drives trials with begin_trial /
// end_session; workers attach (inherit the object across fork, or
// open_named) and loop on wait_trial / post_ready. All blocking waits are
// iteration-counted — no wall-clock reads — and watch both the abort code
// and shutdown flag, so a crashed or aborting peer turns into a
// TransportAborted throw instead of a deadlock.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

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
  /// POSIX shm object for exec'd workers (dut_cli --worker). The creator
  /// owns the name and unlinks it on destruction.
  static ShmSession create_named(const std::string& name,
                                 const Options& options);
  /// Attaches to an existing named segment and validates its layout.
  static ShmSession open_named(const std::string& name);

  ShmSession(ShmSession&& other) noexcept;
  ShmSession& operator=(ShmSession&&) = delete;
  ShmSession(const ShmSession&) = delete;
  ShmSession& operator=(const ShmSession&) = delete;
  ~ShmSession();

  std::uint32_t num_ranks() const noexcept;
  const std::string& name() const noexcept { return name_; }

  // -- trial lockstep (coordinator side) ------------------------------------
  /// Waits for every worker to finish the previous trial, resets all
  /// per-trial state (rings, exchange cells, abort code), publishes
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

  // -- lockstep all-gather ---------------------------------------------------
  /// Publish number `publish` (1-based, identical sequence on every rank)
  /// of `local` (≤ kExchangeWords words, same count on every rank); fills
  /// `all` with num_ranks blocks of local.size() words in rank order.
  void exchange(std::uint32_t rank, std::uint64_t publish,
                std::span<const std::uint64_t> local,
                std::vector<std::uint64_t>& all);

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
    void pause(const ShmSession& session) { step(session, true); }
    /// Same schedule without watching the abort code — for the inter-trial
    /// waits, where a stale abort from the finished trial is not an error.
    void pause_ignoring_abort(const ShmSession& session) {
      step(session, false);
    }

   private:
    void step(const ShmSession& session, bool watch_abort);
    std::uint64_t spins_ = 0;
  };

 private:
  ShmSession() = default;
  static ShmSession map_segment(int fd, bool owner, const std::string& name,
                                const Options* options);
  shm::ShmControl* control() const noexcept;
  shm::RingHeader* ring_header(std::uint32_t from, std::uint32_t to) const;
  std::uint64_t* ring_data(std::uint32_t from, std::uint32_t to) const;

  void* base_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  std::string name_;    // empty for anonymous segments
  bool owner_ = false;  // created (vs attached): unlinks the name, resets
};

}  // namespace dut::net
