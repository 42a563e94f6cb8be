#include "dut/net/transport/shm_transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "dut/net/engine.hpp"

namespace dut::net {

using shm::kBatchHeaderWords;
using shm::kDelayedRecordWords;
using shm::kDupFlag;
using shm::kFreshRecordWords;

ShmTransport::ShmTransport(ShmSession& session, std::uint32_t rank)
    : session_(&session),
      rank_(rank),
      num_ranks_(session.num_ranks()) {
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
  exchange_publishes_ = 0;

  local_records_.clear();
  remote_records_.clear();
  staging_payload_.clear();
  arena_.reset(first, last - first);

  out_batches_.assign(num_ranks_, {});
  out_sent_.assign(num_ranks_, 0);
  in_batches_.assign(num_ranks_, {});
  in_expected_.assign(num_ranks_, 0);
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
}

void ShmTransport::pump_rings(std::uint64_t round) {
  for (std::uint32_t peer = 0; peer < num_ranks_; ++peer) {
    if (peer == rank_) continue;
    serialize_batch(peer, round, out_batches_[peer]);
    out_sent_[peer] = 0;
    in_batches_[peer].clear();
    in_expected_[peer] = 0;
  }
  std::uint64_t pop_buf[256];
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
      // Drain whatever `peer` has pushed for us.
      std::vector<std::uint64_t>& in = in_batches_[peer];
      if (in_expected_[peer] == 0 || in.size() < in_expected_[peer]) {
        const std::size_t want =
            in_expected_[peer] == 0
                ? sizeof pop_buf / sizeof pop_buf[0]
                : std::min(in_expected_[peer] - in.size(),
                           sizeof pop_buf / sizeof pop_buf[0]);
        const std::size_t popped =
            session_->ring_try_pop(peer, rank_, pop_buf, want);
        in.insert(in.end(), pop_buf, pop_buf + popped);
        progress = progress || popped != 0;
        if (in_expected_[peer] == 0 && in.size() >= kBatchHeaderWords) {
          if (in[0] != round) {
            throw TransportAborted(
                "ShmTransport: round-batch sequence mismatch");
          }
          in_expected_[peer] = kBatchHeaderWords +
                               in[1] * kFreshRecordWords +
                               in[2] * kDelayedRecordWords + in[3];
        }
        if (in_expected_[peer] == 0 || in.size() < in_expected_[peer]) {
          done = false;
        }
      }
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
  // Batches pumped at flip_round(R) carry the sends staged while round R-1
  // executed (flip_round(0) pumps empty batches).
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

void ShmTransport::flip_round(std::uint64_t round) {
  pump_rings(round);
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

std::uint64_t ShmTransport::sync_active(std::uint64_t local_active) {
  const std::uint64_t word = local_active;
  session_->exchange(rank_, ++exchange_publishes_, {&word, 1}, sync_scratch_);
  std::uint64_t total = 0;
  for (const std::uint64_t v : sync_scratch_) total += v;
  return total;
}

void ShmTransport::settle_run(std::uint64_t round) {
  // Sends staged during the final executed round never saw a delivery
  // flip. Pump them once more: remote records pass the same
  // delivery-boundary expiry the in-process engine applied at their send
  // sites, and final-round delayed records join the arena's deferred list
  // so the sweep below settles them too. Every rank reaches this point in fault
  // mode, so the exchange pairs up like any other round flip.
  flip_round(round);
  arena_.expire_deferred(*hooks_);
}

void ShmTransport::reduce_metrics(EngineMetrics& metrics) {
  // All-gather the per-rank tallies and fold them the same way on every
  // rank, so each rank reports identical global figures.
  const std::uint64_t local[15] = {
      metrics.rounds,
      metrics.messages,
      metrics.total_bits,
      metrics.max_message_bits,
      metrics.faults.dropped,
      metrics.faults.duplicated,
      metrics.faults.corrupted,
      metrics.faults.delayed,
      metrics.faults.expired,
      metrics.faults.crashes,
      metrics.budget.messages,
      metrics.budget.max_edge_round_bits,
      metrics.budget.max_node_bits,
      metrics.budget.busiest_node,
      metrics.budget.violations,
  };
  std::vector<std::uint64_t> all;
  session_->exchange(rank_, ++exchange_publishes_, local, all);

  EngineMetrics out;
  for (std::uint32_t r = 0; r < num_ranks_; ++r) {
    const std::uint64_t* w = all.data() + static_cast<std::size_t>(r) * 15;
    out.rounds = std::max(out.rounds, w[0]);
    out.messages += w[1];
    out.total_bits += w[2];
    out.max_message_bits = std::max(out.max_message_bits, w[3]);
    out.faults.dropped += w[4];
    out.faults.duplicated += w[5];
    out.faults.corrupted += w[6];
    out.faults.delayed += w[7];
    out.faults.expired += w[8];
    out.faults.crashes += w[9];
    out.budget.messages += w[10];
    out.budget.max_edge_round_bits =
        std::max(out.budget.max_edge_round_bits, w[11]);
    // Busiest sender: strictly-greater scan over ascending ranks picks the
    // lowest node id among ties, exactly like the single-process ledger's
    // scan over ascending node ids (shards are ascending id blocks).
    if (w[12] > out.budget.max_node_bits) {
      out.budget.max_node_bits = w[12];
      out.budget.busiest_node = static_cast<std::uint32_t>(w[13]);
    }
    out.budget.violations += w[14];
  }
  metrics = out;
}

void ShmTransport::exchange_summaries(std::span<const std::uint64_t> local,
                                      std::vector<std::uint64_t>& all) {
  session_->exchange(rank_, ++exchange_publishes_, local, all);
}

}  // namespace dut::net
