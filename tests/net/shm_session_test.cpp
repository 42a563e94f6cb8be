// ShmSession unit coverage: the contiguous shard partition, the SPSC
// rings, the lockstep all-gather, first-wins abort propagation and the
// trial handshake. The session is plain shared memory, so two std::threads
// over one anonymous segment exercise the same code paths two rank
// processes would.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "dut/net/transport/shm_session.hpp"
#include "dut/net/transport/shm_transport.hpp"
#include "dut/net/transport/transport.hpp"

namespace dut::net {
namespace {

TEST(ShmShard, PartitionIsContiguousBalancedAndComplete) {
  for (std::uint32_t num_ranks : {2u, 3u, 4u, 7u, 16u}) {
    for (std::uint32_t k : {num_ranks, 17u, 64u, 4097u}) {
      std::uint32_t expected_first = 0;
      std::uint32_t min_size = k, max_size = 0;
      for (std::uint32_t r = 0; r < num_ranks; ++r) {
        const auto [first, last] = ShmTransport::shard_of(r, k, num_ranks);
        EXPECT_EQ(first, expected_first) << "gap before rank " << r;
        EXPECT_LT(first, last) << "empty shard at rank " << r;
        const std::uint32_t size = last - first;
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
        expected_first = last;
      }
      EXPECT_EQ(expected_first, k) << "partition does not cover all nodes";
      EXPECT_LE(max_size - min_size, 1u) << "shards are unbalanced";
    }
  }
}

TEST(ShmSession, RingRoundTripsWordsInOrder) {
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2, .ring_words = 64});
  std::vector<std::uint64_t> words(40);
  std::iota(words.begin(), words.end(), 1000);

  ASSERT_EQ(session.ring_try_push(0, 1, words.data(), words.size()),
            words.size());
  // The (0 -> 1) and (1 -> 0) rings are distinct.
  std::uint64_t scratch[8];
  EXPECT_EQ(session.ring_try_pop(1, 0, scratch, 8), 0u);

  std::vector<std::uint64_t> out(words.size());
  ASSERT_EQ(session.ring_try_pop(0, 1, out.data(), out.size()), out.size());
  EXPECT_EQ(out, words);
  EXPECT_EQ(session.ring_try_pop(0, 1, scratch, 8), 0u);
}

TEST(ShmSession, RingPushIsBoundedAndResumable) {
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2, .ring_words = 16});
  std::vector<std::uint64_t> words(100);
  std::iota(words.begin(), words.end(), 0);

  // A push larger than the ring window accepts only a prefix; popping the
  // prefix makes room for the rest, and order is preserved end to end.
  std::size_t pushed = session.ring_try_push(0, 1, words.data(), words.size());
  ASSERT_GT(pushed, 0u);
  ASSERT_LT(pushed, words.size());
  std::vector<std::uint64_t> out;
  std::uint64_t scratch[32];
  while (out.size() < words.size()) {
    const std::size_t got = session.ring_try_pop(0, 1, scratch, 32);
    out.insert(out.end(), scratch, scratch + got);
    if (pushed < words.size()) {
      pushed += session.ring_try_push(0, 1, words.data() + pushed,
                                      words.size() - pushed);
    }
  }
  EXPECT_EQ(out, words);
}

TEST(ShmSession, ExchangeAllGathersInRankOrder) {
  constexpr std::uint32_t kRanks = 3;
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = kRanks});
  std::vector<std::vector<std::uint64_t>> gathered(kRanks);

  // Three publishes per rank, the third after two barriers, to check the
  // parity double-buffering survives consecutive rounds.
  auto participant = [&](std::uint32_t rank) {
    std::vector<std::uint64_t> all;
    for (std::uint64_t publish = 1; publish <= 3; ++publish) {
      const std::uint64_t local[2] = {100 * publish + rank, rank};
      session.exchange(rank, publish, std::span<const std::uint64_t>(local, 2),
                       all);
      gathered[rank] = all;  // keep the last gather only
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t r = 1; r < kRanks; ++r) threads.emplace_back(participant, r);
  participant(0);
  for (auto& t : threads) t.join();

  for (std::uint32_t r = 0; r < kRanks; ++r) {
    ASSERT_EQ(gathered[r].size(), 2u * kRanks);
    for (std::uint32_t from = 0; from < kRanks; ++from) {
      EXPECT_EQ(gathered[r][2 * from], 300 + from) << "rank " << r;
      EXPECT_EQ(gathered[r][2 * from + 1], from) << "rank " << r;
    }
  }
}

TEST(ShmSession, AbortIsFirstWinsAndObservable) {
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2});
  (void)session.begin_trial(1, 0);
  EXPECT_EQ(session.abort_code(), 0u);
  EXPECT_NO_THROW(session.check_abort());

  session.publish_abort(
      static_cast<std::uint64_t>(TransportAbortCode::kBandwidthExceeded), 1,
      "first cause");
  session.publish_abort(
      static_cast<std::uint64_t>(TransportAbortCode::kProtocolViolation), 0,
      "second cause");
  EXPECT_EQ(session.abort_code(),
            static_cast<std::uint64_t>(TransportAbortCode::kBandwidthExceeded));
  EXPECT_THROW(session.check_abort(), TransportAborted);
  // The winner's rank and cause travel with its code.
  try {
    session.check_abort();
  } catch (const TransportAborted& aborted) {
    EXPECT_NE(std::string(aborted.what()).find("rank 1 aborted"),
              std::string::npos);
    EXPECT_NE(std::string(aborted.what()).find("first cause"),
              std::string::npos);
    EXPECT_EQ(std::string(aborted.what()).find("second"), std::string::npos);
  }

  // The next trial starts clean: begin_trial resets the code.
  session.post_ready(0, 1);
  session.post_ready(1, 1);
  (void)session.begin_trial(2, 0);
  EXPECT_EQ(session.abort_code(), 0u);
  EXPECT_NO_THROW(session.check_abort());
}

TEST(ShmSession, TrialHandshakeDeliversSeedsInOrder) {
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> served;  // (seed, flags)

  // Real trials synchronize all ranks through the transport before the
  // coordinator moves on; a bare exchange stands in for that here (without
  // it, end_session could legitimately win the race against the worker's
  // pickup of the final trial).
  std::vector<std::uint64_t> all;
  std::thread worker([&] {
    std::uint64_t last_seq = 0;
    std::vector<std::uint64_t> worker_all;
    for (;;) {
      const ShmSession::Trial trial = session.wait_trial(last_seq);
      if (trial.shutdown) return;
      last_seq = trial.seq;
      served.emplace_back(trial.seed, trial.flags);
      const std::uint64_t local = trial.seed;
      session.exchange(1, 1, std::span<const std::uint64_t>(&local, 1),
                       worker_all);
      session.post_ready(1, trial.seq);
    }
  });

  for (std::uint64_t t = 0; t < 3; ++t) {
    const std::uint64_t seq = session.begin_trial(7000 + t, t == 1 ? 1 : 0);
    const std::uint64_t local = 7000 + t;
    session.exchange(0, 1, std::span<const std::uint64_t>(&local, 1), all);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], all[1]);
    session.post_ready(0, seq);
  }
  session.end_session();
  worker.join();

  ASSERT_EQ(served.size(), 3u);
  for (std::uint64_t t = 0; t < 3; ++t) {
    EXPECT_EQ(served[t].first, 7000 + t);
    EXPECT_EQ(served[t].second, t == 1 ? 1u : 0u);
  }
}

TEST(ShmSession, NamedSegmentsRoundTrip) {
  const std::string name = "/dut_shm_session_test_" +
                           std::to_string(::getpid());
  ShmSession owner = ShmSession::create_named(
      name, ShmSession::Options{.num_ranks = 2, .ring_words = 32});
  ShmSession peer = ShmSession::open_named(name);
  EXPECT_EQ(peer.num_ranks(), 2u);

  const std::uint64_t words[3] = {11, 22, 33};
  ASSERT_EQ(owner.ring_try_push(0, 1, words, 3), 3u);
  std::uint64_t out[3] = {};
  ASSERT_EQ(peer.ring_try_pop(0, 1, out, 3), 3u);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(out[2], 33u);

  EXPECT_THROW(ShmSession::open_named("/dut_shm_no_such_segment"),
               std::runtime_error);
}

}  // namespace
}  // namespace dut::net
