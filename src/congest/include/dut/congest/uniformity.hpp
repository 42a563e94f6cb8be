#pragma once

// CONGEST uniformity testing (paper Theorem 1.4).
//
// Plan: package the k single-sample tokens into packages of size
// tau = Theta(n/(k*eps^4)), treat each package as a "virtual node" running
// the single-collision tester A_delta with s = tau samples, and apply the
// threshold decision rule over the ell = floor(k/tau) virtual nodes. The
// packaging, testing, aggregation and verdict broadcast all run inside the
// CONGEST engine in O(D + tau) rounds with O(log n + log k)-bit messages.
//
// The virtual-node count is deterministic: packaging drops exactly
// k mod tau tokens (the root's leftover), so ell = floor(k/tau) and the
// root can place the threshold locally.
//
// Fault tolerance: make_congest_setup with CongestResilience.enabled builds
// the resilient protocol variant (sequence numbers, checksums, bounded
// retransmission, timeout schedule — see token_packaging.hpp) and runs it
// under a net::FaultPlan. The root then decides with a quorum rule: accept
// only if at least `quorum` nodes' reports reached it AND the reject count
// is below the threshold; otherwise reject. The reject-bias keeps the
// tester's one-sided soundness — faults may only push a uniform input
// toward rejection, never a far input toward acceptance (up to the 4-bit
// checksum's escape probability).
//
// Entry points are setup-based: make_congest_setup validates a (plan,
// graph) pair and resolves its engine config and schedule once, and the
// run_congest_uniformity* calls run trials on the resulting CongestSetup.
// They share one trial body, which decides from per-rank shard summaries
// merged through the leased engine's transport: an in-process run is the
// 1-rank case over InProcTransport, and sharded.hpp runs the same body on
// every rank over ShmTransport.

#include <cstdint>
#include <string>
#include <vector>

#include "dut/congest/token_packaging.hpp"
#include "dut/core/gap_tester.hpp"
#include "dut/core/sampler.hpp"
#include "dut/core/verdict.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/net/engine.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/protocol_driver.hpp"

namespace dut::congest {

struct CongestPlan {
  // Inputs.
  std::uint64_t n = 0;
  std::uint32_t k = 0;
  double epsilon = 0.0;
  double p = 0.0;
  core::TailBound bound = core::TailBound::kExactBinomial;
  /// Samples (tokens) held by each node; the paper's simplifying
  /// assumption is 1, and "the results generalize in a straightforward
  /// manner to larger s" — with s0 > 1 the network has k*s0 tokens and the
  /// feasible regime extends to smaller networks / smaller eps.
  std::uint64_t samples_per_node = 1;

  // Outputs.
  bool feasible = false;
  std::string infeasible_reason;
  std::uint64_t tau = 0;            ///< package size = virtual-node samples
  std::uint64_t num_packages = 0;   ///< ell = floor(k / tau)
  core::GapTesterParams package_params;  ///< A_delta at s = tau
  std::uint64_t threshold = 0;      ///< reject iff >= T packages reject
  double eta_uniform = 0.0;
  double eta_far = 0.0;
  double bound_false_reject = 1.0;
  double bound_false_accept = 1.0;
  /// Per-message bit budget the protocol needs (O(log n + log k)).
  std::uint64_t bandwidth_bits = 0;
};

/// Chooses tau and the threshold. The search mirrors the 0-round threshold
/// planner: find the smallest reject budget A = ell * delta(tau) for which a
/// threshold exists, where delta(tau) = tau(tau-1)/(2n) is fixed by the
/// package size rather than chosen freely. ell = floor(k*samples_per_node /
/// tau) packages are formed deterministically.
CongestPlan plan_congest(std::uint64_t n, std::uint32_t k, double epsilon,
                         double p = 1.0 / 3.0,
                         core::TailBound bound =
                             core::TailBound::kExactBinomial,
                         std::uint64_t samples_per_node = 1);

/// Fault-tolerance knobs for make_congest_setup / make_packaging_setup.
struct CongestResilience {
  bool enabled = false;
  /// Extra copies of each protocol message (sent in otherwise-idle rounds).
  std::uint64_t retransmits = 2;
  /// Minimum nodes whose reports must reach the root for an accept verdict;
  /// 0 means all k (strict quorum). Ignored unless `enabled`.
  std::uint64_t quorum_nodes = 0;
};

/// A graph-bound, ready-to-run protocol instance: the pooled driver plus
/// the resolved resilience schedule. Build one with make_congest_setup; it
/// references the graph (keep it alive) and serves a whole Monte-Carlo
/// sweep, including concurrent trials. Non-movable (the driver pins engine
/// pool addresses) — take it by reference.
struct CongestSetup {
  net::ProtocolDriver driver;
  PackagingResilience schedule;  ///< disabled ⇒ plain protocol
};

struct [[nodiscard]] CongestRunResult {
  core::Verdict verdict;            ///< voters = token packages
  std::uint64_t num_packages = 0;   ///< packages actually formed
  std::uint32_t leader = 0;         ///< engine id of the winning root
  bool quorum_met = true;           ///< resilient mode: coverage >= quorum
  std::uint64_t nodes_reporting = 0;  ///< nodes whose reports reached the root
  net::EngineMetrics metrics;       ///< rounds / messages / bits / faults
};

/// Setup factory: validates feasibility, network size, connectivity and the
/// quorum once. A plain setup runs the plan's bandwidth budget under a
/// 20(k + tau) + 1000 round cap. A resilient one resolves the timeout
/// schedule from the graph diameter and the plan's tau (all timeouts sit
/// past fault-free completion, so with zero fault rates the verdict stream
/// is bit-identical to the plain protocol's) and widens the bandwidth
/// budget for the seq + checksum trailer. `faults` is attached to the
/// driver (a zero-rate plan when resilient and none is given).
CongestSetup make_congest_setup(const CongestPlan& plan,
                                const net::Graph& graph,
                                const CongestResilience& opts = {},
                                const net::FaultPlan* faults = nullptr);

/// Trial-level entry point: reuses a pooled engine and gates DUT_TRACE
/// resolution with `traced` (pass true for exactly one designated trial
/// when fanning out in parallel). Deterministic per seed at any
/// DUT_THREADS. Node v draws samples_per_node samples from `sampler` as
/// its tokens (plus an external id from a seeded permutation for leader
/// election). The verdict is merged from per-rank shard summaries through
/// the leased engine's transport, so the same call runs one rank of a
/// sharded trial when the setup's driver carries a ShmTransport
/// (sharded.hpp).
[[nodiscard]] CongestRunResult run_congest_uniformity(const CongestPlan& plan,
                                        CongestSetup& setup,
                                        const core::AliasSampler& sampler,
                                        std::uint64_t seed,
                                        bool traced = true);

/// Heterogeneous variant (synthesis of §4's asymmetry with §5's protocol):
/// node v contributes counts[v] samples — e.g. proportional to 1/cost —
/// and the packaging absorbs the imbalance transparently (c(v) < tau
/// regardless of local load). The plan must have been made with
/// samples_per_node equal to the MEAN of counts (so ell matches); the
/// counts must sum to plan.k * plan.samples_per_node. Resilient when the
/// setup is.
[[nodiscard]] CongestRunResult run_congest_uniformity_heterogeneous(
    const CongestPlan& plan, CongestSetup& setup,
    const core::AliasSampler& sampler,
    const std::vector<std::uint64_t>& counts, std::uint64_t seed,
    bool traced = true);

/// Error amplification (paper §3.2.2: the threshold model "is amenable to
/// amplification using standard techniques"): runs `repetitions`
/// independent executions of the protocol — fresh samples, fresh ids,
/// fresh randomness — and returns the majority verdict (voters =
/// repetitions). Per-side error drops from p to
/// exp(-Omega(repetitions * (1/2 - p)^2)); rounds scale linearly in
/// `repetitions` (sequential executions).
struct [[nodiscard]] AmplifiedCongestResult {
  core::Verdict verdict;  ///< voters = repetitions; rounds/bits are totals
  std::uint64_t total_rounds = 0;
  std::uint64_t total_messages = 0;
};
[[nodiscard]] AmplifiedCongestResult run_congest_uniformity_amplified(
    const CongestPlan& plan, CongestSetup& setup,
    const core::AliasSampler& sampler, std::uint64_t seed,
    std::uint64_t repetitions, bool traced = true);

/// Standalone token packaging (Theorem 5.1), for experiments: every node's
/// token is its own engine id; returns all packages plus metrics.
struct PackagingRunResult {
  std::vector<std::vector<std::uint64_t>> packages;  ///< all packages formed
  std::uint64_t tokens_dropped = 0;
  std::uint32_t leader = 0;
  net::EngineMetrics metrics;
};

/// Token-packaging setup: a driver and resolved schedule as in CongestSetup,
/// plus the package size tau (baked into the round cap and the schedule).
struct PackagingSetup {
  net::ProtocolDriver driver;
  PackagingResilience schedule;
  std::uint64_t tau;
};
/// Setup factory for token packaging: the same validation and config and
/// schedule resolution as make_congest_setup, with the k node ids as the
/// token domain.
PackagingSetup make_packaging_setup(const net::Graph& graph,
                                    std::uint64_t tau,
                                    const CongestResilience& opts = {},
                                    const net::FaultPlan* faults = nullptr);
[[nodiscard]] PackagingRunResult run_token_packaging(PackagingSetup& setup,
                                       std::uint64_t seed,
                                       bool traced = true);

}  // namespace dut::congest
