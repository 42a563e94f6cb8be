#pragma once

// Multi-process (sharded) CONGEST uniformity sweeps over ShmTransport.
//
// One process per rank: rank 0 coordinates (publishes each trial's seed and
// trace flag through the shared session and reports the results) and ranks
// 1..N-1 serve trials until shutdown. Every rank builds the identical
// CongestSetup from (plan, graph, resilience, faults), attaches its
// ShmTransport to the setup's driver and runs each trial through
// run_congest_uniformity: the same trial body, input checks included, that
// an in-process run uses as the 1-rank case. The body derives every input
// from the seed alone and merges the verdict from all ranks' shard
// summaries, so a sharded trial's verdict stream is bit-identical to the
// in-process one at the same seeds — the ctest gate transport_congest_gate
// holds this equality, and DESIGN.md §14 carries the argument.
//
// Abort semantics: a model violation or a failed input check on any rank
// publishes a shared abort code; peers unwind with net::TransportAborted
// and the coordinator rethrows the peer's exception type
// (ProtocolViolation / BandwidthExceeded / RoundLimitExceeded; other
// failures stay TransportAborted) so sharded callers observe the same
// failure the in-process runner throws. The original detail string stays
// on the faulting rank's shard transcript.

#include <cstdint>
#include <vector>

#include "dut/congest/uniformity.hpp"
#include "dut/net/transport/shm_session.hpp"

namespace dut::congest {

struct ShardedCongestOptions {
  /// Rank processes, 2..net::shm::kMaxRanks.
  std::uint32_t num_ranks = 2;
  /// One trial per seed, run in order.
  std::vector<std::uint64_t> seeds;
  /// Index into `seeds` of the trial that resolves DUT_TRACE (each rank
  /// writes `<path>.rank<r>`; the coordinator merges them back into
  /// `<path>` afterwards). kNoTrace disables tracing entirely.
  static constexpr std::uint64_t kNoTrace = ~std::uint64_t{0};
  std::uint64_t traced_trial = kNoTrace;
  /// Same knobs make_congest_setup takes; every rank must resolve the same
  /// schedule and fault plan or the lockstep rounds would diverge.
  CongestResilience resilience;
  const net::FaultPlan* faults = nullptr;
};

/// All-in-one entry point: validates the plan/graph, creates an anonymous
/// shared session, forks ranks 1..N-1 (net::WorkerGroup), coordinates every
/// trial and reaps the workers. Returns one result per seed.
[[nodiscard]] std::vector<CongestRunResult> run_congest_uniformity_sharded(
    const CongestPlan& plan, const net::Graph& graph,
    const core::AliasSampler& sampler, const ShardedCongestOptions& options);

/// Coordinator loop (rank 0) over an existing session — the building block
/// dut_cli's --workers mode drives with exec-spawned workers instead of
/// forks. Throws the mapped peer exception if any rank aborts a trial.
[[nodiscard]] std::vector<CongestRunResult> coordinate_congest_uniformity(
    net::ShmSession& session, const CongestPlan& plan,
    const net::Graph& graph, const core::AliasSampler& sampler,
    const ShardedCongestOptions& options);

/// Worker loop: serves sharded trials on `rank` until session shutdown.
/// Per-trial exceptions, failed input checks included, are swallowed
/// locally (the abort code crosses the session; the coordinator rethrows);
/// the loop keeps serving subsequent trials.
void serve_congest_uniformity(net::ShmSession& session, std::uint32_t rank,
                              const CongestPlan& plan,
                              const net::Graph& graph,
                              const core::AliasSampler& sampler,
                              const ShardedCongestOptions& options);

}  // namespace dut::congest
