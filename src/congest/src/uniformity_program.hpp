#pragma once

// Private internals of the congest uniformity runner: the per-node test
// program, the deterministic per-trial derivations (external ids, message
// widths, replay annotations) and the input checks. The trial body in
// uniformity.cpp builds every trial from these pieces on every rank; the
// sharded runner (sharded.cpp) reuses the checks to validate its inputs
// before it forks any rank.

#include <cstdio>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "dut/congest/uniformity.hpp"
#include "dut/stats/rng.hpp"

namespace dut::congest::detail {

using Annotations = std::vector<std::pair<std::string, std::string>>;

/// %.17g round-trips doubles exactly, so replay metadata regenerates
/// byte-identically from the parsed-back values.
inline std::string format_param(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

inline const char* tail_bound_name(core::TailBound bound) {
  return bound == core::TailBound::kChernoff ? "chernoff" : "exact";
}

/// Replay preamble for a uniform-counts congest run: everything
/// `dut_trace replay` needs to rebuild the plan, setup and sampler and
/// re-run this seed.
/// Heterogeneous runs get no annotations (counts have no compact spec).
inline Annotations congest_annotations(const CongestPlan& plan,
                                       const net::Graph& graph,
                                       const PackagingResilience& schedule,
                                       const core::AliasSampler& sampler,
                                       const net::FaultPlan* faults) {
  Annotations ann;
  ann.emplace_back("proto", "congest_uniformity");
  ann.emplace_back("topo", graph.spec());
  ann.emplace_back("dist", sampler.spec());
  ann.emplace_back("n", std::to_string(plan.n));
  ann.emplace_back("eps", format_param(plan.epsilon));
  ann.emplace_back("p", format_param(plan.p));
  ann.emplace_back("s0", std::to_string(plan.samples_per_node));
  ann.emplace_back("bound", tail_bound_name(plan.bound));
  if (schedule.enabled) {
    ann.emplace_back("retx", std::to_string(schedule.retransmits));
    ann.emplace_back("quorum", std::to_string(schedule.quorum));
  }
  if (faults != nullptr) {
    ann.emplace_back("faults", faults->spec());
  }
  return ann;
}

/// Setup checks make_congest_setup applies: a feasible plan and a connected
/// network of exactly plan.k nodes that can meet the resilience quorum.
void check_congest_setup(const CongestPlan& plan, const net::Graph& graph,
                         const CongestResilience& opts, const char* who);

/// Trial checks every rank's trial body applies: `sampler` draws from the
/// plan's domain, and `counts` give each of the plan's k nodes at least one
/// sample and sum to k * samples_per_node.
void check_congest_trial(const CongestPlan& plan,
                         const core::AliasSampler& sampler,
                         const std::vector<std::uint64_t>& counts);

inline std::vector<std::uint64_t> uniform_counts(const CongestPlan& plan) {
  return std::vector<std::uint64_t>(plan.k, plan.samples_per_node);
}

inline MessageWidths widths_for(std::uint64_t n, std::uint32_t k) {
  return MessageWidths{net::bits_for(k), net::bits_for(n),
                       net::bits_for(static_cast<std::uint64_t>(k) + 1)};
}

/// Deterministic permutation of {0..k-1} used as external ids, so leader
/// election runs on arbitrary identifiers as in the paper.
inline std::vector<std::uint64_t> external_ids(std::uint32_t k,
                                               std::uint64_t seed) {
  std::vector<std::uint64_t> ids(k);
  std::iota(ids.begin(), ids.end(), 0);
  stats::Xoshiro256 rng = stats::derive_stream(seed, 0x1D5);
  for (std::uint32_t i = k; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.below(i)]);
  }
  return ids;
}

/// Virtual-node tester: each package of tau tokens is fed to the
/// single-collision tester; the report is the count of rejecting packages
/// and the root compares the network total against the threshold. In
/// resilient mode the root additionally requires (a) `quorum` nodes'
/// coverage and (b) a consistent token mass: the reported formed-package
/// count must account for the quorum's tokens, up to the remainder each
/// packaging site may legitimately drop. Without (b), in-flight token loss
/// (dropped or corrupt-discarded kToken messages) would silently shrink the
/// reject tally while node coverage stays high — an accept bias. Either
/// shortfall rejects (one-sided soundness keeps this safe).
class UniformityTestProgram : public TokenPackagingProgram {
 public:
  UniformityTestProgram(std::uint64_t external_id,
                        std::vector<std::uint64_t> tokens,
                        const CongestPlan& plan, MessageWidths widths,
                        PackagingResilience resil = {})
      : TokenPackagingProgram(external_id, std::move(tokens), plan.tau,
                              widths, resil),
        plan_(&plan) {}

  /// Root only, resilient mode: whether coverage reached the quorum when
  /// the verdict was decided.
  bool quorum_met() const noexcept { return quorum_met_; }

 protected:
  std::uint64_t local_report(net::NodeContext&) override {
    std::uint64_t rejecting = 0;
    for (const auto& package : packages()) {
      if (core::has_collision(package, plan_->n)) ++rejecting;
    }
    return rejecting;
  }

  std::uint64_t decide_at_root(std::uint64_t total) override {
    return total >= plan_->threshold ? 1 : 0;
  }

  std::uint64_t decide_with_quorum(std::uint64_t total, std::uint64_t covered,
                                   std::uint64_t formed) override {
    // Token-mass consistency: the quorum's tokens number quorum * s0 (s0 is
    // the per-node average for heterogeneous counts), and every packaging
    // site — the root plus up to depth_budget forced packagers on a root
    // path — may drop a remainder of at most tau - 1. Anything missing
    // beyond that slack means tokens were lost in flight, which dilutes the
    // collision statistics toward acceptance; reject instead.
    const std::uint64_t slack =
        (resilience().depth_budget + 1) * (plan_->tau - 1);
    quorum_met_ =
        covered >= resilience().quorum &&
        formed * plan_->tau + slack >=
            resilience().quorum * plan_->samples_per_node;
    if (!quorum_met_) return 1;
    return decide_at_root(total);
  }

 private:
  const CongestPlan* plan_;
  bool quorum_met_ = false;
};

}  // namespace dut::congest::detail
