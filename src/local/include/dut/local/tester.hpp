#pragma once

// LOCAL-model uniformity testing (paper Section 6).
//
// Strategy: compute an MIS S of the power graph G^r (Luby), route every
// node's samples to an MIS node within distance r (possible by maximality),
// and let each MIS node act as a "virtual node" of the 0-round AND-rule
// tester of Theorem 1.1. The network accepts iff every MIS node accepts —
// the standard LOCAL decision semantics.
//
// Round accounting (in G): one G^r round costs r G-rounds, so the MIS takes
// 3 * phases * r rounds, and the gather flood takes r rounds. LOCAL allows
// unbounded messages, so routing is plain r-round flooding of
// (origin, destination, samples) records.
//
// The planner picks the smallest radius r whose MIS is simultaneously
// large enough for the AND-rule regime and sparse enough that every MIS
// node gathers the samples the per-node tester needs — the concrete form of
// the paper's r = Theta(...)^{1/(1 - Theta(eps^2/C_p))} balance. Each node
// may hold several samples (the paper's "s = 1 is not essential").

#include <cstdint>
#include <string>
#include <vector>

#include "dut/core/sampler.hpp"
#include "dut/core/verdict.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/local/mis.hpp"
#include "dut/net/engine.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"
#include "dut/net/protocol_driver.hpp"

namespace dut::local {

struct LocalPlan {
  // Inputs.
  std::uint64_t n = 0;
  double epsilon = 0.0;
  double p = 0.0;
  std::uint64_t samples_per_node = 1;  ///< s: samples held by each node
  /// The planning seed and radius cap that were passed to plan_local,
  /// recorded so replay metadata can regenerate the identical plan (the MIS
  /// draws depend on both).
  std::uint64_t plan_seed = 0;
  std::uint32_t planned_max_radius = 0;

  // Outputs.
  bool feasible = false;
  std::string infeasible_reason;
  std::uint32_t radius = 0;  ///< r: MIS runs on G^r, gather floods r hops
  std::vector<bool> in_mis;
  /// assignment[v] = the MIS node within distance r that collects v's
  /// samples (MIS nodes are assigned to themselves).
  std::vector<std::uint32_t> assignment;
  std::uint64_t mis_size = 0;
  std::uint64_t min_gathered = 0;  ///< min samples at any MIS node
  std::uint64_t max_gathered = 0;
  core::AndRulePlan and_plan;      ///< Theorem 1.1 over mis_size nodes
  std::uint64_t mis_phases = 0;    ///< Luby phases used during planning
  /// Total G-rounds: 3 * mis_phases * r (MIS on G^r) + r (gather).
  std::uint64_t rounds_in_g = 0;
};

/// Plans the LOCAL tester for a concrete topology: scans r = 1, 2, ... and
/// returns the smallest radius whose MIS admits a feasible AND-rule plan
/// fully fed by the gathered samples.
LocalPlan plan_local(std::uint64_t n, const net::Graph& graph, double epsilon,
                     double p, std::uint64_t samples_per_node,
                     std::uint64_t seed, std::uint32_t max_radius = 64);

struct [[nodiscard]] LocalRunResult {
  /// Voters = MIS nodes; accepts iff every MIS node accepts (AND rule).
  core::Verdict verdict;
  /// Fault runs only: MIS nodes that gathered fewer samples than the
  /// per-node tester needs (each votes reject — one-sided soundness).
  std::uint64_t mis_shortfalls = 0;
  net::EngineMetrics gather_metrics;  ///< the r-round flood on G
};

/// Builds the protocol driver for the plan's r-round gather flood on
/// `graph` (validates the plan/graph pairing once). The driver references
/// `graph`; one driver serves a whole Monte-Carlo sweep, including
/// concurrent trials. Passing `faults` attaches the fault plan and switches
/// the tester to its degraded-mode rules: gather records that arrive
/// corrupted (malformed layout or an out-of-range origin) are discarded,
/// and an MIS node starved below its planned sample count votes reject
/// instead of aborting the run.
net::ProtocolDriver make_local_driver(const LocalPlan& plan,
                                      const net::Graph& graph,
                                      const net::FaultPlan* faults = nullptr);

/// Runs the planned tester: draws samples_per_node samples per node from
/// `sampler`, floods them to the assigned MIS nodes via the LOCAL engine,
/// and runs the AND-rule repeated collision tester at each MIS node.
/// Reuses a pooled engine and gates DUT_TRACE resolution with `traced`
/// (pass true for exactly one designated trial when fanning out in
/// parallel). Deterministic per seed at any DUT_THREADS.
[[nodiscard]] LocalRunResult run_local_uniformity(const LocalPlan& plan,
                                    net::ProtocolDriver& driver,
                                    const core::AliasSampler& sampler,
                                    std::uint64_t seed, bool traced = true);

}  // namespace dut::local
