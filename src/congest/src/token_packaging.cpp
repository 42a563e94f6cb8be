#include "dut/congest/token_packaging.hpp"

#include <algorithm>
#include <stdexcept>

#include "dut/stats/rng.hpp"

namespace dut::congest {

std::uint64_t packaging_checksum(const std::uint64_t* fields,
                                 std::size_t count) noexcept {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h = stats::SplitMix64(h ^ fields[i]).next();
  }
  return h & 0xF;
}

TokenPackagingProgram::TokenPackagingProgram(std::uint64_t external_id,
                                             std::uint64_t token,
                                             std::uint64_t tau,
                                             MessageWidths widths)
    : TokenPackagingProgram(external_id,
                            std::vector<std::uint64_t>{token}, tau, widths) {}

TokenPackagingProgram::TokenPackagingProgram(
    std::uint64_t external_id, std::vector<std::uint64_t> tokens,
    std::uint64_t tau, MessageWidths widths)
    : TokenPackagingProgram(external_id, std::move(tokens), tau, widths,
                            PackagingResilience{}) {}

TokenPackagingProgram::TokenPackagingProgram(
    std::uint64_t external_id, std::vector<std::uint64_t> tokens,
    std::uint64_t tau, MessageWidths widths, PackagingResilience resil)
    : my_external_id_(external_id),
      own_tokens_(std::move(tokens)),
      tau_(tau),
      widths_(widths),
      resil_(resil),
      best_(external_id) {
  if (tau == 0) {
    throw std::invalid_argument("TokenPackagingProgram: tau must be >= 1");
  }
  if (own_tokens_.empty()) {
    throw std::invalid_argument(
        "TokenPackagingProgram: node must hold at least one token");
  }
  if (resil_.enabled &&
      (resil_.deadline == 0 || resil_.seq_bits == 0 ||
       resil_.leader_timeout < resil_.phase1_timeout ||
       resil_.package_round <= resil_.leader_timeout ||
       resil_.force_package_round <= resil_.package_round ||
       resil_.deadline <= resil_.report_base)) {
    throw std::invalid_argument(
        "TokenPackagingProgram: resilience schedule not resolved (rounds "
        "must be 0 < phase1_timeout <= leader_timeout < package_round < "
        "force_package_round <= report_base < deadline)");
  }
}

net::Message TokenPackagingProgram::make(Tag tag) const {
  net::Message msg;
  msg.push_field(static_cast<std::uint64_t>(tag), 3);
  return msg;
}

std::size_t TokenPackagingProgram::neighbor_index(net::NodeContext& ctx,
                                                  std::uint32_t id) {
  const auto neighbors = ctx.neighbors();
  const auto it = std::find(neighbors.begin(), neighbors.end(), id);
  if (it == neighbors.end()) {
    throw std::logic_error("token packaging: message from non-neighbor");
  }
  return static_cast<std::size_t>(it - neighbors.begin());
}

void TokenPackagingProgram::emit(net::NodeContext& ctx, std::uint32_t to,
                                 const net::Message& msg) {
  if (!resil_.enabled) {
    ctx.send(to, msg);
    return;
  }
  // Stamp the wire trailer into the retransmission slot: the first copy
  // leaves this round via flush_slots; later copies fill idle rounds until a
  // newer message to the same neighbor supersedes them.
  const std::size_t i = neighbor_index(ctx, to);
  net::Message& slot = slot_msg_[i];
  slot = msg;
  slot.push_field(++seq_out_[i], resil_.seq_bits);
  const auto stamped = slot.fields();
  slot.push_field(packaging_checksum(stamped.data(), stamped.size()), 4);
  slot_copies_[i] = static_cast<std::uint32_t>(1 + resil_.retransmits);
}

void TokenPackagingProgram::flush_slots(net::NodeContext& ctx) {
  if (slot_copies_.empty()) return;
  const auto neighbors = ctx.neighbors();
  for (std::size_t i = 0; i < slot_copies_.size(); ++i) {
    if (slot_copies_[i] == 0) continue;
    ctx.send(neighbors[i], slot_msg_[i]);
    --slot_copies_[i];
  }
}

void TokenPackagingProgram::on_round(net::NodeContext& ctx) {
  if (responded_.empty() && ctx.degree() > 0) {
    responded_.assign(ctx.degree(), false);
  }
  if (resil_.enabled && slot_copies_.empty() && ctx.degree() > 0) {
    seq_out_.assign(ctx.degree(), 0);
    last_seq_in_.assign(ctx.degree(), 0);
    slot_msg_.resize(ctx.degree());
    slot_copies_.assign(ctx.degree(), 0);
  }

  if (!done_) process_inbox(ctx);
  if (!done_) {
    if (!started_) phase_one(ctx);
    if (resil_.enabled && !done_) apply_timeouts(ctx);
    if (started_ && !done_) {
      upward_slot(ctx);
      try_package(ctx);
      // Root termination: verdict once the whole tree has reported.
      if (parent_ == kNoParent && packaged_ && !report_sent_ &&
          reports_received_ == children_.size()) {
        report_sent_ = true;
        decide_as_root(ctx);
      }
    }
  }
  // The plain protocol is message-driven except for the upward pipeline:
  // every other phase acts in the step whose inbox enabled it, so a step
  // with an empty inbox only matters while upward_slot has something to
  // send. Resilient mode keeps polling for its retransmissions and
  // absolute-round timeouts.
  if (!resil_.enabled && next_upward() == Upward::kIdle) ctx.sleep();
  if (resil_.enabled) {
    flush_slots(ctx);
    if (done_) {
      // Deferred halt: keep draining verdict retransmissions first.
      const bool drained =
          std::all_of(slot_copies_.begin(), slot_copies_.end(),
                      [](std::uint32_t c) { return c == 0; });
      if (drained ||
          ctx.round() + 1 >= resil_.deadline + resil_.retransmits + 4) {
        ctx.halt();
      }
    }
  }
}

void TokenPackagingProgram::process_inbox(net::NodeContext& ctx) {
  for (const net::MessageView msg : ctx.inbox()) {
    if (resil_.enabled) {
      // Wire validation: [tag, payload..., seq, checksum]. Anything that
      // fails the checksum, names an unknown tag, has the wrong shape for
      // its tag, or repeats a sequence number is dropped on the floor.
      const auto fields = msg.fields();
      const std::size_t nf = fields.size();
      if (nf < 3 ||
          packaging_checksum(fields.data(), nf - 1) != fields[nf - 1]) {
        ++corrupt_discards_;
        continue;
      }
      const std::uint64_t tag = fields[0];
      static constexpr std::size_t kExpectedFields[] = {
          5,  // kCandidate: tag, id, depth, seq, ck
          4,  // kAck: tag, id, seq, ck
          3,  // kStart: tag, seq, ck
          4,  // kCValue: tag, c, seq, ck
          4,  // kToken: tag, token, seq, ck
          6,  // kReport: tag, sum, covered, formed, seq, ck
          4,  // kVerdict: tag, verdict, seq, ck
      };
      if (tag > kVerdict || nf != kExpectedFields[tag]) {
        ++corrupt_discards_;
        continue;
      }
      // Semantic range guard: a corrupted candidate depth that escaped the
      // checksum must not overflow the depth we would rebroadcast (depth+1
      // in an id_bits field). Legit depths are < k and always fit.
      if (tag == kCandidate && widths_.id_bits < 64 &&
          fields[2] + 1 >= (1ULL << widths_.id_bits)) {
        ++corrupt_discards_;
        continue;
      }
      const std::size_t idx = neighbor_index(ctx, msg.sender);
      const std::uint64_t seq = fields[nf - 2];
      if (seq <= last_seq_in_[idx]) {
        ++dup_discards_;
        continue;
      }
      last_seq_in_[idx] = seq;
    }
    handle_message(ctx, msg);
    if (done_) return;
  }
}

void TokenPackagingProgram::handle_message(net::NodeContext& ctx,
                                           const net::MessageView& msg) {
  switch (static_cast<Tag>(msg.field(0))) {
    case kCandidate: {
      const std::uint64_t candidate = msg.field(1);
      const std::uint64_t depth = msg.field(2);
      if (candidate > best_) {
        // Adopt: the sender becomes our BFS parent for this wave.
        best_ = candidate;
        parent_ = msg.sender;
        depth_ = depth + 1;
        std::fill(responded_.begin(), responded_.end(), false);
        responded_[neighbor_index(ctx, msg.sender)] = true;
        children_.clear();
        acked_ = false;
        pending_broadcast_ = true;
      } else if (candidate == best_) {
        // The sender already knows our wave: it is not our child.
        responded_[neighbor_index(ctx, msg.sender)] = true;
      }
      // candidate < best_: stale wave; the sender will adopt ours.
      break;
    }
    case kAck: {
      if (msg.field(1) == best_) {
        responded_[neighbor_index(ctx, msg.sender)] = true;
        children_.push_back(msg.sender);
      }
      break;
    }
    case kStart: {
      if (!started_) begin_phase_two(ctx);
      break;
    }
    case kCValue: {
      c_children_sum_ += msg.field(1);
      ++c_received_count_;
      if (c_received_count_ == children_.size()) {
        expected_tokens_ = c_children_sum_;
        c_value_ = (own_tokens_.size() + c_children_sum_) % tau_;
      }
      break;
    }
    case kToken: {
      token_store_.push_back(msg.field(1));
      ++tokens_received_;
      break;
    }
    case kReport: {
      report_sum_ += msg.field(1);
      if (resil_.enabled) {
        covered_sum_ += msg.field(2);
        formed_sum_ += msg.field(3);
      }
      ++reports_received_;
      break;
    }
    case kVerdict: {
      finish(ctx, msg.field(1));
      return;
    }
  }
}

void TokenPackagingProgram::phase_one(net::NodeContext& ctx) {
  if (pending_broadcast_) {
    pending_broadcast_ = false;
    net::Message msg = make(kCandidate);
    msg.push_field(best_, widths_.id_bits);
    msg.push_field(depth_, widths_.id_bits);
    for (const std::uint32_t u : ctx.neighbors()) {
      if (u != parent_) emit(ctx, u, msg);
    }
  }

  const bool all_responded =
      std::all_of(responded_.begin(), responded_.end(),
                  [](bool b) { return b; });
  if (parent_ == kNoParent) {
    // Self-candidate. Only the global maximum's wave can complete.
    if (all_responded) {
      is_leader_ = true;
      begin_phase_two(ctx);
    }
  } else if (!acked_ && all_responded) {
    net::Message msg = make(kAck);
    msg.push_field(best_, widths_.id_bits);
    emit(ctx, parent_, msg);
    acked_ = true;
  }
}

void TokenPackagingProgram::begin_phase_two(net::NodeContext& ctx) {
  started_ = true;
  token_store_.insert(token_store_.end(), own_tokens_.begin(),
                      own_tokens_.end());
  const net::Message start = make(kStart);
  for (const std::uint32_t child : children_) emit(ctx, child, start);
  if (children_.empty()) {
    expected_tokens_ = 0;
    c_value_ = own_tokens_.size() % tau_;
  }
}

void TokenPackagingProgram::upward_slot(net::NodeContext& ctx) {
  if (!c_value_) return;

  if (parent_ == kNoParent) {
    // Root: "forwarding" means discarding; costs no communication.
    while (has_token_to_forward()) ++tokens_forwarded_;
    return;
  }

  switch (next_upward()) {
    case Upward::kCValue: {
      net::Message msg = make(kCValue);
      msg.push_field(*c_value_, widths_.count_bits);
      emit(ctx, parent_, msg);
      c_sent_ = true;
      return;
    }
    case Upward::kToken: {
      net::Message msg = make(kToken);
      msg.push_field(token_store_[tokens_forwarded_], widths_.token_bits);
      emit(ctx, parent_, msg);
      ++tokens_forwarded_;
      return;
    }
    case Upward::kReport: {
      net::Message msg = make(kReport);
      msg.push_field(clamp_count(report_sum_), widths_.count_bits);
      if (resil_.enabled) {
        msg.push_field(clamp_count(1 + covered_sum_), widths_.count_bits);
        msg.push_field(clamp_count(formed_sum_ + packages_.size()),
                       widths_.count_bits);
      }
      emit(ctx, parent_, msg);
      report_sent_ = true;
      return;
    }
    case Upward::kIdle:
      return;
  }
}

TokenPackagingProgram::Upward TokenPackagingProgram::next_upward()
    const noexcept {
  // One upward message per round: c-value first, then tokens, then the
  // report (order matters for the CONGEST budget and for correctness). The
  // root sends nothing upward.
  if (!started_ || done_ || !c_value_ || parent_ == kNoParent) {
    return Upward::kIdle;
  }
  if (!c_sent_) return Upward::kCValue;
  if (has_token_to_forward()) return Upward::kToken;
  if (packaged_ && !report_sent_ && reports_received_ == children_.size()) {
    return Upward::kReport;
  }
  return Upward::kIdle;
}

void TokenPackagingProgram::try_package(net::NodeContext& ctx) {
  if (packaged_ || !c_value_) return;
  // All children announced (c_value_ set requires that), all their tokens
  // arrived, and our own forwarding quota is met.
  if (tokens_received_ != expected_tokens_) return;
  if (tokens_forwarded_ != *c_value_) return;

  const std::uint64_t kept = token_store_.size() - *c_value_;
  if (kept % tau_ != 0) {
    throw std::logic_error("token packaging: kept tokens not a multiple of "
                           "tau — protocol invariant broken");
  }
  for (std::uint64_t start = *c_value_; start < token_store_.size();
       start += tau_) {
    packages_.emplace_back(token_store_.begin() + static_cast<long>(start),
                           token_store_.begin() +
                               static_cast<long>(start + tau_));
  }
  packaged_ = true;
  report_sum_ += local_report(ctx);
}

void TokenPackagingProgram::apply_timeouts(net::NodeContext& ctx) {
  const std::uint64_t r = ctx.round();
  if (!started_ && r >= resil_.phase1_timeout) {
    if (parent_ == kNoParent) {
      // A wave that cannot complete (lost acks, crashed neighbors): claim
      // leadership anyway — but only at leader_timeout, which sits a full
      // ack-cascade (D hops) past phase1_timeout. Blocked descendants force
      // their acks at phase1_timeout, and if those acks complete our tree
      // after all, the normal path fires first and the tree is intact. At
      // most one forced leader survives per surviving wave; extra leaders
      // only degrade accuracy, never liveness.
      if (r >= resil_.leader_timeout) {
        is_leader_ = true;
        begin_phase_two(ctx);
      }
    } else {
      if (!acked_) {
        // Release the parent's wave despite unresponsive neighbors.
        net::Message msg = make(kAck);
        msg.push_field(best_, widths_.id_bits);
        emit(ctx, parent_, msg);
        acked_ = true;
      }
      if (r >= resil_.package_round) {
        // The start signal never came: run the remaining phases over the
        // local subtree so our tokens still get packaged and reported.
        begin_phase_two(ctx);
      }
    }
  }
  if (started_ && !done_ && !packaged_ && r >= resil_.force_package_round) {
    // Staggered past package_round so nodes that only began phase two there
    // still had D + tau rounds to announce c-values and push tokens before
    // the pipeline is frozen.
    force_package(ctx);
  }
  if (packaged_ && !done_ && !report_sent_ && parent_ != kNoParent &&
      r >= forced_report_round()) {
    // Report without waiting for missing children (their coverage is lost).
    net::Message msg = make(kReport);
    msg.push_field(clamp_count(report_sum_), widths_.count_bits);
    msg.push_field(clamp_count(1 + covered_sum_), widths_.count_bits);
    msg.push_field(clamp_count(formed_sum_ + packages_.size()),
                   widths_.count_bits);
    emit(ctx, parent_, msg);
    report_sent_ = true;
  }
  if (!done_ && r + 1 >= resil_.deadline) {
    if (parent_ == kNoParent) {
      report_sent_ = true;
      decide_as_root(ctx);
    } else {
      // No verdict arrived in time: reject-bias (sound for one-sided
      // testers — a healthy run would have delivered the verdict).
      finish(ctx, 1);
    }
  }
}

void TokenPackagingProgram::force_package(net::NodeContext& ctx) {
  // Stop forwarding and chop the surviving unforwarded tokens into full
  // tau-packages; the remainder (< tau tokens) is dropped, mirroring the
  // root's discard of c(r) tokens in the healthy protocol.
  const std::uint64_t start = tokens_forwarded_;
  const std::uint64_t avail = token_store_.size() - start;
  const std::uint64_t full = avail - avail % tau_;
  for (std::uint64_t s = start; s < start + full; s += tau_) {
    packages_.emplace_back(token_store_.begin() + static_cast<long>(s),
                           token_store_.begin() + static_cast<long>(s + tau_));
  }
  packaged_ = true;
  report_sum_ += local_report(ctx);
}

std::uint64_t TokenPackagingProgram::forced_report_round() const noexcept {
  // Deeper nodes force first so partial sums still convergecast: depth
  // depth_budget fires at report_base, the root's children last. Each level
  // gets 1 + retransmits rounds of headroom for the hop.
  const std::uint64_t d = std::min(depth_, resil_.depth_budget);
  return resil_.report_base +
         (resil_.retransmits + 1) * (resil_.depth_budget - d);
}

void TokenPackagingProgram::decide_as_root(net::NodeContext& ctx) {
  covered_decided_ = 1 + covered_sum_;
  formed_decided_ = formed_sum_ + packages_.size();
  finish(ctx, resil_.enabled
                  ? decide_with_quorum(report_sum_, covered_decided_,
                                       formed_decided_)
                  : decide_at_root(report_sum_));
}

void TokenPackagingProgram::finish(net::NodeContext& ctx,
                                   std::uint64_t verdict) {
  verdict_ = verdict;
  net::Message msg = make(kVerdict);
  msg.push_field(verdict_, widths_.count_bits);
  for (const std::uint32_t child : children_) emit(ctx, child, msg);
  done_ = true;
  // Resilient mode defers the halt (see on_round) so the verdict's
  // retransmission copies still go out.
  if (!resil_.enabled) ctx.halt();
}

std::uint64_t TokenPackagingProgram::local_report(net::NodeContext&) {
  return packages_.size();
}

std::uint64_t TokenPackagingProgram::decide_at_root(std::uint64_t total) {
  return total;
}

std::uint64_t TokenPackagingProgram::decide_with_quorum(std::uint64_t total,
                                                        std::uint64_t covered,
                                                        std::uint64_t formed) {
  (void)covered;
  (void)formed;
  return decide_at_root(total);
}

}  // namespace dut::congest
