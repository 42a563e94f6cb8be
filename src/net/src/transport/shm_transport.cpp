#include "dut/net/transport/shm_transport.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

namespace dut::net {

using shm::kBatchHeaderWords;
using shm::kDelayedRecordWords;
using shm::kDupFlag;
using shm::kFreshRecordWords;

ShmTransport::ShmTransport(ShmSession& session, std::uint32_t rank)
    : session_(&session),
      rank_(rank),
      num_ranks_(session.num_ranks()),
      out_batches_(num_ranks_),
      out_sent_(num_ranks_, 0),
      in_batches_(num_ranks_),
      in_read_(num_ranks_, 0) {
  if (rank_ >= num_ranks_) {
    throw std::invalid_argument("ShmTransport: rank out of range");
  }
}

std::pair<std::uint32_t, std::uint32_t> ShmTransport::shard_of(
    std::uint32_t rank, std::uint32_t num_nodes, std::uint32_t num_ranks) {
  // Contiguous ascending blocks, remainder spread over the lowest ranks:
  // the partition the whole determinism argument rests on.
  const std::uint32_t base = num_nodes / num_ranks;
  const std::uint32_t rem = num_nodes % num_ranks;
  const std::uint32_t first = rank * base + std::min(rank, rem);
  const std::uint32_t len = base + (rank < rem ? 1 : 0);
  return {first, first + len};
}

std::uint32_t ShmTransport::owner_of(std::uint32_t node) const noexcept {
  const std::uint32_t base = num_nodes_ / num_ranks_;
  const std::uint32_t rem = num_nodes_ % num_ranks_;
  const std::uint32_t fat = rem * (base + 1);  // nodes in the widened shards
  if (node < fat) return node / (base + 1);
  return rem + (node - fat) / base;
}

void ShmTransport::begin_run(std::uint32_t num_nodes, bool fault_mode,
                             TransportHooks& hooks) {
  num_nodes_ = num_nodes;
  fault_mode_ = fault_mode;
  hooks_ = &hooks;
  const auto [first, last] = shard(num_nodes);
  shard_first_ = first;
  shard_last_ = last;

  local_records_.clear();
  remote_records_.clear();
  staging_payload_.clear();
  arena_.reset(first, last - first);
}

void ShmTransport::stage(const detail::ArenaRecord& rec,
                         std::span<const std::uint64_t> fields, bool delayed,
                         std::uint64_t due_round, bool duplicate) {
  StagedRecord staged;
  staged.rec = rec;
  staged.rec.payload_begin = staging_payload_.size();
  staging_payload_.insert(staging_payload_.end(), fields.begin(),
                          fields.end());
  staged.due_round = due_round;
  staged.delayed = delayed;
  staged.duplicate = duplicate;
  const bool local = rec.to >= shard_first_ && rec.to < shard_last_;
  (local ? local_records_ : remote_records_).push_back(staged);
}

void ShmTransport::enqueue(const detail::ArenaRecord& rec,
                           std::span<const std::uint64_t> fields,
                           bool duplicate) {
  stage(rec, fields, /*delayed=*/false, /*due_round=*/0, duplicate);
}

void ShmTransport::enqueue_delayed(const detail::ArenaRecord& rec,
                                   std::span<const std::uint64_t> fields,
                                   std::uint64_t due_round, bool duplicate) {
  stage(rec, fields, /*delayed=*/true, due_round, duplicate);
}

void ShmTransport::serialize_batch(std::uint32_t peer, std::uint64_t round,
                                   RoundCounts counts,
                                   std::vector<std::uint64_t>& out) const {
  const auto [peer_first, peer_last] = shard_of(peer, num_nodes_, num_ranks_);
  out.clear();
  out.resize(kBatchHeaderWords, 0);
  std::uint64_t fresh = 0;
  std::uint64_t delayed = 0;
  // Records first (fresh then delayed), payloads after, both in send order.
  for (const StagedRecord& s : remote_records_) {
    if (s.rec.to < peer_first || s.rec.to >= peer_last || s.delayed) continue;
    ++fresh;
    out.push_back(shm::pack_endpoints(s.rec.sender, s.rec.to));
    out.push_back(s.rec.bits);
    out.push_back(static_cast<std::uint64_t>(s.rec.num_fields) |
                  (s.duplicate ? kDupFlag : 0));
  }
  for (const StagedRecord& s : remote_records_) {
    if (s.rec.to < peer_first || s.rec.to >= peer_last || !s.delayed) continue;
    ++delayed;
    out.push_back(shm::pack_endpoints(s.rec.sender, s.rec.to));
    out.push_back(s.rec.bits);
    out.push_back(static_cast<std::uint64_t>(s.rec.num_fields) |
                  (s.duplicate ? kDupFlag : 0));
    out.push_back(s.due_round);
  }
  const std::size_t payload_at = out.size();
  for (const bool want_delayed : {false, true}) {
    for (const StagedRecord& s : remote_records_) {
      if (s.rec.to < peer_first || s.rec.to >= peer_last ||
          s.delayed != want_delayed) {
        continue;
      }
      const std::uint64_t* fields =
          staging_payload_.data() + s.rec.payload_begin;
      out.insert(out.end(), fields, fields + s.rec.num_fields);
    }
  }
  out[0] = round;
  out[1] = fresh;
  out[2] = delayed;
  out[3] = out.size() - payload_at;
  out[4] = counts.live;
  out[5] = counts.crashes;
}

void ShmTransport::pump_rings(std::uint64_t tag) {
  for (std::uint32_t peer = 0; peer < num_ranks_; ++peer) {
    if (peer == rank_) continue;
    out_sent_[peer] = 0;
    in_batches_[peer].resize(kBatchHeaderWords);
    in_read_[peer] = 0;
  }
  ShmSession::Backoff backoff;
  for (;;) {
    bool progress = false;
    bool done = true;
    for (std::uint32_t peer = 0; peer < num_ranks_; ++peer) {
      if (peer == rank_) continue;
      // Push whatever fits of our batch for `peer`.
      std::vector<std::uint64_t>& out = out_batches_[peer];
      if (out_sent_[peer] < out.size()) {
        const std::size_t pushed = session_->ring_try_push(
            rank_, peer, out.data() + out_sent_[peer],
            out.size() - out_sent_[peer]);
        out_sent_[peer] += pushed;
        progress = progress || pushed != 0;
        if (out_sent_[peer] < out.size()) done = false;
      }
      // Drain `peer`'s batch for us: the header, then exactly the words it
      // announces. The peer may already have queued its next batch behind
      // this one; those words stay in the ring for the next call.
      std::vector<std::uint64_t>& in = in_batches_[peer];
      std::size_t& read = in_read_[peer];
      while (read < in.size()) {
        const std::size_t popped = session_->ring_try_pop(
            peer, rank_, in.data() + read, in.size() - read);
        if (popped == 0) break;
        progress = true;
        read += popped;
        if (read == kBatchHeaderWords && in.size() == kBatchHeaderWords) {
          if (in[0] != tag) {
            throw TransportAborted("ShmTransport: batch sequence mismatch");
          }
          in.resize(kBatchHeaderWords + in[1] * kFreshRecordWords +
                    in[2] * kDelayedRecordWords + in[3]);
        }
      }
      if (read < in.size()) done = false;
    }
    if (done) return;
    if (!progress) backoff.pause(*session_);
  }
}

void ShmTransport::admit_fresh(const detail::ArenaRecord& rec,
                               std::span<const std::uint64_t> fields,
                               bool duplicate, bool remote,
                               std::uint64_t send_round) {
  if (remote && hooks_->halt_key(rec.to) <
                    send_visibility_key(send_round, rec.sender)) {
    // The sender's rank could not see this node's halted state; the check
    // the in-process engine makes at send time happens here, at the
    // delivery boundary, with the same visibility: a halt is seen only if
    // it preceded the send in (round, execution order). A node that halted
    // later in the send round keeps the message in its (dead) inbox,
    // exactly like in-process delivery. The duplicate vanishes with the
    // original without a second expired count: the in-process send path
    // counts one expiry and never draws the duplication fault.
    if (!fault_mode_) hooks_->reject_remote_to_halted(rec.sender, rec.to);
    hooks_->count_expired(rec.sender, rec.to);
    return;
  }
  arena_.push(rec, fields, duplicate);
}

void ShmTransport::merge_own_staging() {
  for (const StagedRecord& s : local_records_) {
    const std::span<const std::uint64_t> fields(
        staging_payload_.data() + s.rec.payload_begin, s.rec.num_fields);
    if (s.delayed) {
      arena_.defer(s.rec, fields, s.due_round, s.duplicate);
    } else {
      admit_fresh(s.rec, fields, s.duplicate, /*remote=*/false,
                  /*send_round=*/0);
    }
  }
}

void ShmTransport::merge_peer_batch(std::uint32_t peer, std::uint64_t round) {
  const std::vector<std::uint64_t>& in = in_batches_[peer];
  // Batches exchanged for round R carry the sends staged while round R-1
  // executed (exchange_round(0) ships empty batches).
  const std::uint64_t send_round = round == 0 ? 0 : round - 1;
  const std::uint64_t fresh = in[1];
  const std::uint64_t delayed = in[2];
  std::size_t rec_at = kBatchHeaderWords;
  std::size_t payload_at = kBatchHeaderWords + fresh * kFreshRecordWords +
                           delayed * kDelayedRecordWords;
  for (std::uint64_t i = 0; i < fresh + delayed; ++i) {
    const bool is_delayed = i >= fresh;
    detail::ArenaRecord rec;
    rec.sender = static_cast<std::uint32_t>(in[rec_at]);
    rec.to = static_cast<std::uint32_t>(in[rec_at] >> 32);
    rec.bits = in[rec_at + 1];
    rec.num_fields = static_cast<std::uint32_t>(in[rec_at + 2]);
    const bool duplicate = (in[rec_at + 2] & kDupFlag) != 0;
    const std::span<const std::uint64_t> fields(in.data() + payload_at,
                                                rec.num_fields);
    payload_at += rec.num_fields;
    if (is_delayed) {
      arena_.defer(rec, fields, in[rec_at + 3], duplicate);
      rec_at += kDelayedRecordWords;
    } else {
      admit_fresh(rec, fields, duplicate, /*remote=*/true, send_round);
      rec_at += kFreshRecordWords;
    }
  }
}

RoundCounts ShmTransport::exchange_round(std::uint64_t round,
                                         RoundCounts local) {
  for (std::uint32_t peer = 0; peer < num_ranks_; ++peer) {
    if (peer != rank_) serialize_batch(peer, round, local, out_batches_[peer]);
  }
  pump_rings(round);
  RoundCounts total = local;
  for (std::uint32_t peer = 0; peer < num_ranks_; ++peer) {
    if (peer == rank_) continue;
    total.live += in_batches_[peer][4];
    total.crashes += in_batches_[peer][5];
  }
  return total;
}

void ShmTransport::flip_round(std::uint64_t round) {
  // Splice every rank's sends destined to this shard in rank order — this
  // rank's own staging at its own slot — reproducing the global send order
  // the in-process arena sees; then the due delayed messages, whose list is
  // maintained in the same global order.
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    if (r == rank_) {
      merge_own_staging();
    } else {
      merge_peer_batch(r, round);
    }
  }
  if (fault_mode_) arena_.inject_deferred(round, *hooks_);
  arena_.flip();
  local_records_.clear();
  remote_records_.clear();
  staging_payload_.clear();
}

void ShmTransport::settle_run(std::uint64_t round) {
  // Sends staged during the final executed round never saw a delivery
  // flip, but the loop's last exchange_round already carried them. Flip
  // once more: remote records pass the same delivery-boundary expiry the
  // in-process engine applied at their send sites, and final-round delayed
  // records join the arena's deferred list so the sweep below settles them
  // too.
  flip_round(round);
  arena_.expire_deferred(*hooks_);
}

void ShmTransport::exchange_summaries(std::span<const std::uint64_t> local,
                                      std::vector<std::uint64_t>& all) {
  // One batch with no records per peer, through the same rings and the same
  // one-batch-per-call pump as every round.
  const std::size_t words = local.size();
  for (std::uint32_t peer = 0; peer < num_ranks_; ++peer) {
    if (peer == rank_) continue;
    std::vector<std::uint64_t>& out = out_batches_[peer];
    out.assign({shm::kGatherTag, 0, 0, words, 0, 0});
    out.insert(out.end(), local.begin(), local.end());
  }
  pump_rings(shm::kGatherTag);
  all.resize(static_cast<std::size_t>(num_ranks_) * words);
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    const auto at = all.begin() + static_cast<std::ptrdiff_t>(r * words);
    if (r == rank_) {
      std::copy(local.begin(), local.end(), at);
      continue;
    }
    const std::vector<std::uint64_t>& in = in_batches_[r];
    if (in[3] != words) {
      throw TransportAborted("ShmTransport: gather width mismatch");
    }
    std::copy(in.begin() + kBatchHeaderWords, in.end(), at);
  }
}

}  // namespace dut::net
