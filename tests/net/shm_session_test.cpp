// ShmSession unit coverage: the contiguous shard partition, the SPSC
// rings, first-wins abort propagation, the trial handshake, and
// ShmTransport's one wire — round batches and post-run gathers framed alike
// and taken exactly one per call. The session is plain shared memory, so
// std::threads over one anonymous segment exercise the same code paths
// rank processes would.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <stdexcept>
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

  // Three gathers per rank with no barrier between them: a fast rank queues
  // its next gather batch behind the last one, and each gather must still
  // take exactly its own batch from every peer.
  auto participant = [&](std::uint32_t rank) {
    ShmTransport transport(session, rank);
    std::vector<std::uint64_t> all;
    for (std::uint64_t publish = 1; publish <= 3; ++publish) {
      const std::uint64_t local[2] = {100 * publish + rank, rank};
      transport.exchange_summaries(local, all);
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
  // coordinator moves on; a bare gather stands in for that here (without
  // it, end_session could legitimately win the race against the worker's
  // pickup of the final trial).
  ShmTransport coordinator(session, 0);
  std::vector<std::uint64_t> all;
  std::thread worker([&] {
    ShmTransport transport(session, 1);
    std::uint64_t last_seq = 0;
    std::vector<std::uint64_t> worker_all;
    for (;;) {
      const ShmSession::Trial trial = session.wait_trial(last_seq);
      if (trial.shutdown) return;
      last_seq = trial.seq;
      served.emplace_back(trial.seed, trial.flags);
      const std::uint64_t local = trial.seed;
      transport.exchange_summaries(std::span<const std::uint64_t>(&local, 1),
                                   worker_all);
      session.post_ready(1, trial.seq);
    }
  });

  for (std::uint64_t t = 0; t < 3; ++t) {
    const std::uint64_t seq = session.begin_trial(7000 + t, t == 1 ? 1 : 0);
    const std::uint64_t local = 7000 + t;
    coordinator.exchange_summaries(std::span<const std::uint64_t>(&local, 1),
                                   all);
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

/// Idles the calling thread for 20 ms, longer than a ShmSession::Backoff
/// spends spinning and yielding (~5 ms).
void idle_past_the_yield_stage() {
  // dut-lint: allow(os-primitives-confined): the test needs real idle time
  // so the peer thread reaches its futex stage; no protocol code runs here.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(ShmSession, WorkerIdlePastItsYieldStageServesEveryTrial) {
  // The coordinator idles before each trial and before the shutdown, so
  // the worker is blocked in wait_trial's futex stage whenever either is
  // published: begin_trial and end_session must wake it, and every trial
  // must be served in order.
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2});
  constexpr std::uint64_t kTrials = 4;
  std::vector<std::uint64_t> served;
  std::thread worker([&] {
    ShmTransport transport(session, 1);
    std::uint64_t last_seq = 0;
    std::vector<std::uint64_t> worker_all;
    for (;;) {
      const ShmSession::Trial trial = session.wait_trial(last_seq);
      if (trial.shutdown) return;
      last_seq = trial.seq;
      served.push_back(trial.seed);
      const std::uint64_t local = trial.seed;
      transport.exchange_summaries(std::span<const std::uint64_t>(&local, 1),
                                   worker_all);
      session.post_ready(1, trial.seq);
    }
  });

  ShmTransport coordinator(session, 0);
  std::vector<std::uint64_t> all;
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    idle_past_the_yield_stage();
    const std::uint64_t seq = session.begin_trial(500 + t, 0);
    const std::uint64_t local = 500 + t;
    coordinator.exchange_summaries(std::span<const std::uint64_t>(&local, 1),
                                   all);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0], all[1]) << "trial " << t;
    session.post_ready(0, seq);
  }
  idle_past_the_yield_stage();
  session.end_session();
  worker.join();

  ASSERT_EQ(served.size(), kTrials);
  for (std::uint64_t t = 0; t < kTrials; ++t) EXPECT_EQ(served[t], 500 + t);
}

/// Hooks for a transport driven by hand: nobody halts, nothing expires.
class IdleHooks final : public TransportHooks {
 public:
  bool is_halted(std::uint32_t) const noexcept override { return false; }
  std::uint64_t halt_key(std::uint32_t) const noexcept override {
    return kNeverHalted;
  }
  void count_expired(std::uint32_t, std::uint32_t) override { ++expired; }
  [[noreturn]] void reject_remote_to_halted(std::uint32_t,
                                            std::uint32_t) override {
    throw std::logic_error("no node halts here");
  }
  std::uint64_t expired = 0;
};

TEST(ShmTransport, ExchangeTakesExactlyOneQueuedBatchPerRound) {
  // No barrier keeps ranks in step between exchanges, so a fast peer may
  // queue round r+1's batch behind round r's before this rank reads either.
  // Rank 1's two batches are written into its ring by hand here; rank 0's
  // exchange must take round r's batch and counts, then round r+1's, and
  // each flip must merge its own batch's records exactly once.
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2});
  constexpr std::uint32_t kNodes = 8;  // rank 0: [0, 4), rank 1: [4, 8)
  const std::vector<std::uint64_t> batches = {
      // round 3: 5 -> 1 (2 fields), 6 -> 2 (1 field, duplicated)
      3, 2, 0, 3, /*live=*/4, /*crashes=*/1,
      shm::pack_endpoints(5, 1), 10, 2,
      shm::pack_endpoints(6, 2), 20, 1 | shm::kDupFlag,
      111, 112, 113,
      // round 4: 4 -> 1 (1 field)
      4, 1, 0, 1, /*live=*/3, /*crashes=*/0,
      shm::pack_endpoints(4, 1), 9, 1,
      444};
  ASSERT_EQ(session.ring_try_push(1, 0, batches.data(), batches.size()),
            batches.size());

  IdleHooks hooks;
  ShmTransport transport(session, 0);
  transport.begin_run(kNodes, /*fault_mode=*/false, hooks);
  const auto messages = [&](std::uint32_t node) {
    std::vector<std::vector<std::uint64_t>> out;
    for (const MessageView m : transport.inbox(node)) {
      std::vector<std::uint64_t> words = {m.sender, m.bits};
      words.insert(words.end(), m.fields().begin(), m.fields().end());
      out.push_back(words);
    }
    return out;
  };
  using Inbox = std::vector<std::vector<std::uint64_t>>;

  const RoundCounts r3 =
      transport.exchange_round(3, {.live = 4, .crashes = 0});
  EXPECT_EQ(r3.live, 8u);
  EXPECT_EQ(r3.crashes, 1u);
  transport.flip_round(3);
  EXPECT_EQ(messages(1), (Inbox{{5, 10, 111, 112}}));
  EXPECT_EQ(messages(2), (Inbox{{6, 20, 113}, {6, 20, 113}}));
  EXPECT_EQ(std::vector<std::uint32_t>(transport.receivers().begin(),
                                       transport.receivers().end()),
            (std::vector<std::uint32_t>{1, 2}));

  // Round 4's batch must still be queued whole. Checked by popping it and
  // pushing it back: a reader that swallowed it would leave the round-4
  // exchange waiting out the backoff deadline (~2 minutes) instead.
  const std::vector<std::uint64_t> round4(batches.begin() + 15,
                                          batches.end());
  std::vector<std::uint64_t> queued(round4.size() + 1);
  queued.resize(session.ring_try_pop(1, 0, queued.data(), queued.size()));
  ASSERT_EQ(queued, round4) << "the round-3 exchange read past its batch";
  ASSERT_EQ(session.ring_try_push(1, 0, queued.data(), queued.size()),
            queued.size());

  const RoundCounts r4 =
      transport.exchange_round(4, {.live = 4, .crashes = 2});
  EXPECT_EQ(r4.live, 7u);
  EXPECT_EQ(r4.crashes, 2u);
  transport.flip_round(4);
  EXPECT_EQ(messages(1), (Inbox{{4, 9, 444}}));
  EXPECT_TRUE(messages(2).empty());
  std::uint64_t rest[1];
  EXPECT_EQ(session.ring_try_pop(1, 0, rest, 1), 0u) << "ring not drained";

  // Rank 0's own batches went out the same way: one empty batch per round,
  // each carrying this rank's counts.
  std::uint64_t sent[2 * shm::kBatchHeaderWords + 1];
  ASSERT_EQ(session.ring_try_pop(0, 1, sent, std::size(sent)),
            2 * shm::kBatchHeaderWords);
  EXPECT_EQ(std::vector<std::uint64_t>(sent, sent + 2 * shm::kBatchHeaderWords),
            (std::vector<std::uint64_t>{3, 0, 0, 0, 4, 0, 4, 0, 0, 0, 4, 2}));
  EXPECT_EQ(hooks.expired, 0u);
}

TEST(ShmTransport, GatherLargerThanTheRingArrivesWhole) {
  // An 8-word ring carries a 26-word gather batch (6 header words and 20
  // payload words): the pump interleaves pushes and pops, so a gather, like
  // a round batch, is never bounded by the ring.
  constexpr std::size_t kWords = 20;
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2, .ring_words = 8});
  ASSERT_GT(shm::kBatchHeaderWords + kWords, 8u);
  std::vector<std::vector<std::uint64_t>> gathered(2);
  auto participant = [&](std::uint32_t rank) {
    ShmTransport transport(session, rank);
    std::vector<std::uint64_t> local(kWords);
    std::iota(local.begin(), local.end(), 1000 * std::uint64_t{rank + 1});
    transport.exchange_summaries(local, gathered[rank]);
  };
  std::thread peer(participant, 1);
  participant(0);
  peer.join();

  std::vector<std::uint64_t> expected(2 * kWords);
  std::iota(expected.begin(), expected.begin() + kWords, 1000);
  std::iota(expected.begin() + kWords, expected.end(), 2000);
  EXPECT_EQ(gathered[0], expected);
  EXPECT_EQ(gathered[1], expected);
}

TEST(ShmTransport, RoundAndGatherEachTakeOnlyTheirOwnBatch) {
  // A peer that finished its run may queue its final round batch and then
  // its gather batch before this rank reads either. Rank 1's two batches
  // are written into its ring by hand: exchange_round must take the round
  // batch only, and exchange_summaries the gather batch only.
  ShmSession session = ShmSession::create_anonymous(
      ShmSession::Options{.num_ranks = 2});
  constexpr std::uint32_t kNodes = 8;  // rank 0: [0, 4), rank 1: [4, 8)
  const std::vector<std::uint64_t> batches = {
      // round 5: 4 -> 1 (1 field)
      5, 1, 0, 1, /*live=*/4, /*crashes=*/0,
      shm::pack_endpoints(4, 1), 9, 1,
      444,
      // gather: 3 words
      shm::kGatherTag, 0, 0, 3, 0, 0,
      71, 72, 73};
  ASSERT_EQ(session.ring_try_push(1, 0, batches.data(), batches.size()),
            batches.size());

  IdleHooks hooks;
  ShmTransport transport(session, 0);
  transport.begin_run(kNodes, /*fault_mode=*/false, hooks);
  const RoundCounts r5 =
      transport.exchange_round(5, {.live = 4, .crashes = 0});
  EXPECT_EQ(r5.live, 8u);
  EXPECT_EQ(r5.crashes, 0u);

  // The gather batch must still be queued whole (popped and pushed back,
  // as in ExchangeTakesExactlyOneQueuedBatchPerRound).
  const std::vector<std::uint64_t> gather(batches.begin() + 10,
                                          batches.end());
  std::vector<std::uint64_t> queued(gather.size() + 1);
  queued.resize(session.ring_try_pop(1, 0, queued.data(), queued.size()));
  ASSERT_EQ(queued, gather) << "the round exchange read past its batch";
  ASSERT_EQ(session.ring_try_push(1, 0, queued.data(), queued.size()),
            queued.size());

  transport.flip_round(5);
  ASSERT_EQ(transport.inbox(1).size(), 1u);
  EXPECT_EQ(transport.inbox(1)[0].sender, 4u);
  EXPECT_EQ(transport.inbox(1)[0].fields()[0], 444u);

  const std::uint64_t local[3] = {61, 62, 63};
  std::vector<std::uint64_t> all;
  transport.exchange_summaries(local, all);
  EXPECT_EQ(all, (std::vector<std::uint64_t>{61, 62, 63, 71, 72, 73}));
  std::uint64_t rest[1];
  EXPECT_EQ(session.ring_try_pop(1, 0, rest, 1), 0u) << "ring not drained";

  // Rank 0's own two batches went out the same way, in call order.
  const std::vector<std::uint64_t> sent_expected = {
      5, 0, 0, 0, 4, 0, shm::kGatherTag, 0, 0, 3, 0, 0, 61, 62, 63};
  std::vector<std::uint64_t> sent(sent_expected.size() + 1);
  sent.resize(session.ring_try_pop(0, 1, sent.data(), sent.size()));
  EXPECT_EQ(sent, sent_expected);
}

TEST(ShmTransport, BatchOfTheWrongKindAborts) {
  IdleHooks hooks;
  const std::uint64_t local[1] = {1};
  std::vector<std::uint64_t> all;
  {
    // A round batch where a gather is due.
    ShmSession session = ShmSession::create_anonymous(
        ShmSession::Options{.num_ranks = 2});
    const std::uint64_t round7[] = {7, 0, 0, 0, 4, 0};
    ASSERT_EQ(session.ring_try_push(1, 0, round7, std::size(round7)),
              std::size(round7));
    ShmTransport transport(session, 0);
    transport.begin_run(8, /*fault_mode=*/false, hooks);
    EXPECT_THROW(transport.exchange_summaries(local, all), TransportAborted);
  }
  {
    // A gather batch where round 3's batch is due.
    ShmSession session = ShmSession::create_anonymous(
        ShmSession::Options{.num_ranks = 2});
    const std::uint64_t gather[] = {shm::kGatherTag, 0, 0, 1, 0, 0, 2};
    ASSERT_EQ(session.ring_try_push(1, 0, gather, std::size(gather)),
              std::size(gather));
    ShmTransport transport(session, 0);
    transport.begin_run(8, /*fault_mode=*/false, hooks);
    EXPECT_THROW((void)transport.exchange_round(3, {.live = 4, .crashes = 0}),
                 TransportAborted);
  }
}

}  // namespace
}  // namespace dut::net
