#include "dut/net/transport/shm_session.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <stdexcept>

#include "dut/net/transport/transport.hpp"

namespace dut::net {

namespace {

// Backoff schedule (iteration-counted; deliberately no wall-clock reads so
// replay determinism never depends on timing): busy-spin briefly, yield for
// a while, then sleep 1ms per step. ~2 minutes of sleeping before a stuck
// peer is declared dead.
constexpr std::uint64_t kBusySpins = 1 << 10;
constexpr std::uint64_t kYieldSpins = 1 << 14;
constexpr std::uint64_t kMaxSleeps = 120'000;

std::size_t segment_bytes(std::uint32_t num_ranks, std::uint64_t ring_words) {
  const std::size_t ring_bytes =
      sizeof(shm::RingHeader) + ring_words * sizeof(std::uint64_t);
  return sizeof(shm::ShmControl) +
         static_cast<std::size_t>(num_ranks) * num_ranks * ring_bytes;
}

}  // namespace

shm::ShmControl* ShmSession::control() const noexcept {
  // The segment is mapped raw; this cast (and the two ring accessors below)
  // is the only place the transport reinterprets shared bytes as layout
  // structs.
  return static_cast<shm::ShmControl*>(base_);
}

shm::RingHeader* ShmSession::ring_header(std::uint32_t from,
                                         std::uint32_t to) const {
  const shm::ShmControl& c = *control();
  const std::size_t ring_bytes =
      sizeof(shm::RingHeader) + c.ring_words * sizeof(std::uint64_t);
  const std::size_t index =
      static_cast<std::size_t>(from) * c.num_ranks + to;
  char* rings = static_cast<char*>(base_) + sizeof(shm::ShmControl);
  return reinterpret_cast<shm::RingHeader*>(rings + index * ring_bytes);
}

std::uint64_t* ShmSession::ring_data(std::uint32_t from,
                                     std::uint32_t to) const {
  return reinterpret_cast<std::uint64_t*>(
      reinterpret_cast<char*>(ring_header(from, to)) +
      sizeof(shm::RingHeader));
}

ShmSession ShmSession::map_segment(int fd, bool owner, const std::string& name,
                                   const Options* options) {
  std::size_t bytes = 0;
  if (options != nullptr) {
    if (options->num_ranks < 2 || options->num_ranks > shm::kMaxRanks) {
      throw std::invalid_argument("ShmSession: num_ranks out of range");
    }
    if (options->ring_words < shm::kBatchHeaderWords) {
      throw std::invalid_argument("ShmSession: ring_words too small");
    }
    bytes = segment_bytes(options->num_ranks, options->ring_words);
    if (fd >= 0 && ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
      throw std::runtime_error(std::string("ShmSession: ftruncate: ") +
                               std::strerror(errno));
    }
  } else {
    // Attaching: map the control block first to learn the full size.
    void* probe = mmap(nullptr, sizeof(shm::ShmControl), PROT_READ,
                       MAP_SHARED, fd, 0);
    if (probe == MAP_FAILED) {
      throw std::runtime_error(std::string("ShmSession: mmap probe: ") +
                               std::strerror(errno));
    }
    const auto* c = static_cast<const shm::ShmControl*>(probe);
    if (c->magic != shm::kMagic) {
      munmap(probe, sizeof(shm::ShmControl));
      throw std::runtime_error("ShmSession: segment magic mismatch");
    }
    bytes = c->total_bytes;
    munmap(probe, sizeof(shm::ShmControl));
  }

  const int flags = fd >= 0 ? MAP_SHARED : MAP_SHARED | MAP_ANONYMOUS;
  void* base =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, fd, 0);
  if (base == MAP_FAILED) {
    throw std::runtime_error(std::string("ShmSession: mmap: ") +
                             std::strerror(errno));
  }

  ShmSession session;
  session.base_ = base;
  session.mapped_bytes_ = bytes;
  session.name_ = name;
  session.owner_ = owner;
  if (options != nullptr) {
    auto* c = new (base) shm::ShmControl();
    c->num_ranks = options->num_ranks;
    c->ring_words = options->ring_words;
    c->total_bytes = bytes;
    c->magic = shm::kMagic;  // last: attachers gate on it
  }
  return session;
}

ShmSession ShmSession::create_anonymous(const Options& options) {
  return map_segment(-1, /*owner=*/true, /*name=*/"", &options);
}

ShmSession ShmSession::create_named(const std::string& name,
                                    const Options& options) {
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    throw std::runtime_error(std::string("ShmSession: shm_open(create ") +
                             name + "): " + std::strerror(errno));
  }
  try {
    ShmSession session = map_segment(fd, /*owner=*/true, name, &options);
    close(fd);
    return session;
  } catch (...) {
    close(fd);
    shm_unlink(name.c_str());
    throw;
  }
}

ShmSession ShmSession::open_named(const std::string& name) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) {
    throw std::runtime_error(std::string("ShmSession: shm_open(") + name +
                             "): " + std::strerror(errno));
  }
  try {
    ShmSession session = map_segment(fd, /*owner=*/false, name, nullptr);
    close(fd);
    return session;
  } catch (...) {
    close(fd);
    throw;
  }
}

ShmSession::ShmSession(ShmSession&& other) noexcept
    : base_(other.base_),
      mapped_bytes_(other.mapped_bytes_),
      name_(std::move(other.name_)),
      owner_(other.owner_) {
  other.base_ = nullptr;
  other.mapped_bytes_ = 0;
  other.owner_ = false;
}

ShmSession::~ShmSession() {
  if (base_ != nullptr) munmap(base_, mapped_bytes_);
  if (owner_ && !name_.empty()) shm_unlink(name_.c_str());
}

std::uint32_t ShmSession::num_ranks() const noexcept {
  return control()->num_ranks;
}

void ShmSession::Backoff::step(const ShmSession& session, bool watch_abort) {
  if (watch_abort) session.check_abort();
  ++spins_;
  if (spins_ <= kBusySpins) {
    return;
  }
  if (spins_ <= kBusySpins + kYieldSpins) {
    sched_yield();
    return;
  }
  if (spins_ > kBusySpins + kYieldSpins + kMaxSleeps) {
    throw TransportAborted(
        "ShmSession: peer made no progress within the spin deadline");
  }
  timespec ts{0, 1'000'000};  // 1ms
  nanosleep(&ts, nullptr);
}

void ShmSession::check_abort() const {
  const shm::ShmControl& c = *control();
  const std::uint64_t code =
      // dut-lint: ordering(abort-visibility): acquire pairs with the
      // release store in publish_abort, so the claim and the cause written
      // before it are visible before the code is acted on.
      c.abort_code.load(std::memory_order_acquire);
  if (code != 0) {
    const std::uint64_t claim = c.abort_claim.load(std::memory_order_relaxed);
    std::string what = "ShmSession: rank " + std::to_string(claim - 1) +
                       " aborted the trial (code " + std::to_string(code) +
                       ")";
    if (c.abort_cause[0] != '\0') what += std::string(": ") + c.abort_cause;
    throw TransportAborted(what);
  }
  // dut-lint: ordering(shutdown-visibility): acquire pairs with the
  // release store in end_session.
  if (c.shutdown.load(std::memory_order_acquire) != 0) {
    throw TransportAborted("ShmSession: session shut down mid-trial");
  }
}

void ShmSession::publish_abort(std::uint64_t code, std::uint32_t rank,
                               std::string_view cause) noexcept {
  shm::ShmControl& c = *control();
  std::uint64_t unclaimed = 0;
  if (!c.abort_claim.compare_exchange_strong(
          // dut-lint: ordering(abort-claim): acq_rel — first writer wins,
          // so every rank reports one abort cause; a loser leaves the code
          // to the winner, which stores it right after the cause.
          unclaimed, std::uint64_t{rank} + 1, std::memory_order_acq_rel,
          std::memory_order_relaxed)) {
    return;
  }
  const std::size_t length = std::min(cause.size(), shm::kAbortCauseBytes - 1);
  std::copy_n(cause.data(), length, c.abort_cause);
  c.abort_cause[length] = '\0';
  // dut-lint: ordering(abort-publish): release publishes the aborting
  // rank's state, its claim and its cause with the code.
  c.abort_code.store(code, std::memory_order_release);
}

std::uint64_t ShmSession::abort_code() const noexcept {
  // dut-lint: ordering(abort-visibility): acquire pairs with the release
  // store in publish_abort (same edge as check_abort).
  return control()->abort_code.load(std::memory_order_acquire);
}

std::uint64_t ShmSession::begin_trial(std::uint64_t seed,
                                      std::uint64_t flags) {
  shm::ShmControl& c = *control();
  // dut-lint: ordering(trial-publish): acquire pairs with the release
  // store below — the coordinator re-reads its own last publication.
  const std::uint64_t prev = c.trial_seq.load(std::memory_order_acquire);
  // All workers must have posted completion of the previous trial before
  // any shared state is reset under them. The coordinator's own rank-0 slot
  // participates too, for uniformity: it posts like any worker.
  for (std::uint32_t r = 0; r < c.num_ranks; ++r) {
    Backoff backoff;
    // dut-lint: ordering(quiescence): acquire pairs with post_ready's
    // release store; after this loop no worker touches trial state.
    while (c.ready[r].load(std::memory_order_acquire) < prev) {
      // A worker that aborted still posts ready, so a stale abort code is
      // not an error here — only shutdown or the spin deadline is.
      // dut-lint: ordering(shutdown-visibility): acquire pairs with the
      // release store in end_session.
      if (c.shutdown.load(std::memory_order_acquire) != 0) {
        throw TransportAborted("ShmSession: session shut down mid-trial");
      }
      backoff.pause_ignoring_abort(*this);
    }
  }
  for (std::uint32_t r = 0; r < c.num_ranks; ++r) {
    // dut-lint: handoff(seq): quiescence barrier — every rank posted
    // ready above, so the exchange cells are idle and the coordinator
    // may reset the owner's (exchange's) field between trials.
    c.exchange[r].seq.store(0, std::memory_order_relaxed);
  }
  for (std::uint32_t from = 0; from < c.num_ranks; ++from) {
    for (std::uint32_t to = 0; to < c.num_ranks; ++to) {
      shm::RingHeader* ring = ring_header(from, to);
      // dut-lint: handoff(head): quiescence barrier — rings are idle
      // after the ready sweep; the reader-owned head resets to zero.
      ring->head.store(0, std::memory_order_relaxed);
      // dut-lint: handoff(tail): quiescence barrier — rings are idle
      // after the ready sweep; the writer-owned tail resets to zero.
      ring->tail.store(0, std::memory_order_relaxed);
    }
  }
  // dut-lint: handoff(abort_code): quiescence barrier — a stale abort
  // from the finished trial is cleared before the next one is published.
  c.abort_code.store(0, std::memory_order_relaxed);
  // dut-lint: handoff(abort_claim): quiescence barrier — the finished
  // trial's claim is released with its code.
  c.abort_claim.store(0, std::memory_order_relaxed);
  c.trial_seed = seed;
  c.trial_flags = flags;
  const std::uint64_t seq = prev + 1;
  // dut-lint: ordering(trial-publish): release publishes trial_seed and
  // trial_flags (and the resets above) to wait_trial's acquire load.
  c.trial_seq.store(seq, std::memory_order_release);
  return seq;
}

void ShmSession::end_session() noexcept {
  shm::ShmControl& c = *control();
  // dut-lint: ordering(shutdown-visibility): release pairs with the
  // acquire loads in check_abort / wait_trial / begin_trial.
  c.shutdown.store(1, std::memory_order_release);
  // Bump the trial counter so wait_trial wakes even if it raced the flag.
  // dut-lint: handoff(trial_seq): shutdown wake-up — the one write off
  // the coordinator's begin_trial path, forcing sleeping workers to
  // re-check the shutdown flag.
  // dut-lint: ordering(shutdown-visibility): release so the wake-up bump
  // is never seen before the shutdown flag itself.
  c.trial_seq.fetch_add(1, std::memory_order_release);
}

ShmSession::Trial ShmSession::wait_trial(std::uint64_t last_seq) {
  shm::ShmControl& c = *control();
  Backoff backoff;
  for (;;) {
    // The counter is read before the flag: end_session sets the flag and
    // then bumps the counter, so a bump seen here implies the flag is seen
    // below. In the other order the shutdown bump could be taken for a
    // trial.
    // dut-lint: ordering(trial-publish): acquire pairs with begin_trial's
    // release store; trial_seed/flags and the resets are visible here.
    const std::uint64_t seq = c.trial_seq.load(std::memory_order_acquire);
    // dut-lint: ordering(shutdown-visibility): acquire pairs with the
    // release store in end_session.
    if (c.shutdown.load(std::memory_order_acquire) != 0) {
      return Trial{.shutdown = true};
    }
    if (seq > last_seq) {
      return Trial{.shutdown = false,
                   .seq = seq,
                   .seed = c.trial_seed,
                   .flags = c.trial_flags};
    }
    backoff.pause_ignoring_abort(*this);
  }
}

void ShmSession::post_ready(std::uint32_t rank, std::uint64_t seq) {
  // dut-lint: ordering(quiescence): release publishes everything this rank
  // wrote during the trial to begin_trial's acquire sweep.
  control()->ready[rank].store(seq, std::memory_order_release);
}

void ShmSession::exchange(std::uint32_t rank, std::uint64_t publish,
                          std::span<const std::uint64_t> local,
                          std::vector<std::uint64_t>& all) {
  shm::ShmControl& c = *control();
  const std::size_t words = local.size();
  if (words > shm::kExchangeWords) {
    throw std::invalid_argument("ShmSession::exchange: payload too wide");
  }
  const std::size_t parity = publish & 1;
  shm::ExchangeCell& mine = c.exchange[rank];
  std::copy(local.begin(), local.end(), mine.words[parity]);
  // dut-lint: ordering(exchange-publish): release publishes this rank's
  // payload words before the sequence number that announces them.
  mine.seq.store(publish, std::memory_order_release);

  all.assign(static_cast<std::size_t>(c.num_ranks) * words, 0);
  for (std::uint32_t r = 0; r < c.num_ranks; ++r) {
    const shm::ExchangeCell& cell = c.exchange[r];
    Backoff backoff;
    // dut-lint: ordering(exchange-publish): acquire pairs with the peer's
    // release store; its payload words are valid once seq catches up.
    while (cell.seq.load(std::memory_order_acquire) < publish) {
      backoff.pause(*this);
    }
    const std::uint64_t* src = cell.words[parity];
    std::copy(src, src + words, all.begin() + r * words);
  }
}

std::size_t ShmSession::ring_try_push(std::uint32_t from, std::uint32_t to,
                                      const std::uint64_t* words,
                                      std::size_t count) {
  shm::RingHeader* ring = ring_header(from, to);
  const std::uint64_t cap = control()->ring_words;
  const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
  // dut-lint: ordering(ring-consume): acquire pairs with the reader's head
  // release; slots below head are free to overwrite.
  const std::uint64_t head = ring->head.load(std::memory_order_acquire);
  const std::uint64_t free = cap - (tail - head);
  const std::size_t n = count < free ? count : static_cast<std::size_t>(free);
  if (n == 0) return 0;
  std::uint64_t* data = ring_data(from, to);
  for (std::size_t i = 0; i < n; ++i) {
    data[(tail + i) % cap] = words[i];
  }
  // dut-lint: ordering(ring-publish): release publishes the copied words
  // before the tail that makes them visible to the reader.
  ring->tail.store(tail + n, std::memory_order_release);
  return n;
}

std::size_t ShmSession::ring_try_pop(std::uint32_t from, std::uint32_t to,
                                     std::uint64_t* out, std::size_t max) {
  shm::RingHeader* ring = ring_header(from, to);
  const std::uint64_t cap = control()->ring_words;
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  // dut-lint: ordering(ring-publish): acquire pairs with the writer's tail
  // release; payload words below tail are valid to read.
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  const std::uint64_t avail = tail - head;
  const std::size_t n = max < avail ? max : static_cast<std::size_t>(avail);
  if (n == 0) return 0;
  const std::uint64_t* data = ring_data(from, to);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = data[(head + i) % cap];
  }
  // dut-lint: ordering(ring-consume): release retires the consumed slots
  // before the head that hands them back to the writer.
  ring->head.store(head + n, std::memory_order_release);
  return n;
}

}  // namespace dut::net
