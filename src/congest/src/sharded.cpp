#include "dut/congest/sharded.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "uniformity_program.hpp"

#include "dut/net/transport/shm_transport.hpp"
#include "dut/net/transport/worker_group.hpp"
#include "dut/obs/metrics.hpp"
#include "dut/obs/trace_merge.hpp"

namespace dut::congest {

namespace {

void validate_sharded_options(const ShardedCongestOptions& options) {
  if (options.num_ranks < 2 || options.num_ranks > net::shm::kMaxRanks) {
    throw std::invalid_argument(
        "run_congest_uniformity_sharded: num_ranks must be in [2, " +
        std::to_string(net::shm::kMaxRanks) + "]");
  }
}

}  // namespace

std::vector<CongestRunResult> coordinate_congest_uniformity(
    net::ShmSession& session, const CongestPlan& plan,
    const net::Graph& graph, const core::AliasSampler& sampler,
    const ShardedCongestOptions& options) {
  CongestSetup setup =
      make_congest_setup(plan, graph, options.resilience, options.faults);
  net::ShmTransport transport(session, 0);
  setup.driver.set_transport(&transport);

  std::vector<CongestRunResult> results;
  results.reserve(options.seeds.size());
  for (std::size_t t = 0; t < options.seeds.size(); ++t) {
    const bool traced = t == options.traced_trial;
    const std::uint64_t seq =
        session.begin_trial(options.seeds[t], traced ? 1 : 0);
    try {
      results.push_back(run_congest_uniformity(plan, setup, sampler,
                                               options.seeds[t], traced));
      session.post_ready(0, seq);
    } catch (const net::TransportAborted&) {
      // A peer rank aborted: map the shared code back to the exception the
      // in-process runner would have thrown. (The faulting rank's own
      // transcript shard carries the original detail string.)
      session.post_ready(0, seq);
      switch (static_cast<net::TransportAbortCode>(session.abort_code())) {
        case net::TransportAbortCode::kProtocolViolation:
          throw net::ProtocolViolation(
              "a peer rank reported a protocol violation (sharded run)");
        case net::TransportAbortCode::kBandwidthExceeded:
          throw net::BandwidthExceeded(
              "a peer rank reported a bandwidth violation (sharded run)");
        case net::TransportAbortCode::kRoundLimitExceeded:
          throw net::RoundLimitExceeded(
              "a peer rank hit the round limit (sharded run)");
        default:
          throw;  // kOther / deadline: keep the TransportAborted
      }
    } catch (...) {
      // This rank's own exception: a model violation inside the engine
      // already published its abort code; anything thrown before the engine
      // ran (an input check) publishes kOther here so the workers unwind
      // instead of waiting on the round exchange. The caller sees the
      // original exception.
      session.publish_abort(
          static_cast<std::uint64_t>(net::TransportAbortCode::kOther), 0);
      session.post_ready(0, seq);
      throw;
    }
  }
  return results;
}

void serve_congest_uniformity(net::ShmSession& session, std::uint32_t rank,
                              const CongestPlan& plan,
                              const net::Graph& graph,
                              const core::AliasSampler& sampler,
                              const ShardedCongestOptions& options) {
  CongestSetup setup =
      make_congest_setup(plan, graph, options.resilience, options.faults);
  net::ShmTransport transport(session, rank);
  setup.driver.set_transport(&transport);

  std::uint64_t last_seq = 0;
  for (;;) {
    const net::ShmSession::Trial trial = session.wait_trial(last_seq);
    if (trial.shutdown) return;
    last_seq = trial.seq;
    try {
      // The coordinator's copy of the result is the one reported.
      (void)run_congest_uniformity(plan, setup, sampler, trial.seed,
                                   (trial.flags & 1) != 0);
    } catch (const net::TransportAborted&) {
      // A peer published the abort; the coordinator rethrows it.
    } catch (const net::ProtocolViolation&) {
      // Local model exceptions: the engine published the matching abort
      // code on its unwind path; swallow and keep serving later trials.
    } catch (const net::BandwidthExceeded&) {
    } catch (const net::RoundLimitExceeded&) {
    } catch (const std::exception& error) {
      // Anything else (an input check before the engine ran) aborts the
      // trial with its message, which the coordinator's TransportAborted
      // carries.
      session.publish_abort(
          static_cast<std::uint64_t>(net::TransportAbortCode::kOther), rank,
          error.what());
    } catch (...) {
      session.publish_abort(
          static_cast<std::uint64_t>(net::TransportAbortCode::kOther), rank);
    }
    session.post_ready(rank, trial.seq);
  }
}

std::vector<CongestRunResult> run_congest_uniformity_sharded(
    const CongestPlan& plan, const net::Graph& graph,
    const core::AliasSampler& sampler, const ShardedCongestOptions& options) {
  validate_sharded_options(options);
  // Validate once, before forking: a bad input should throw in the caller's
  // process, not abort the first trial of a worker group.
  detail::check_congest_setup(plan, graph, options.resilience,
                              "run_congest_uniformity_sharded");
  detail::check_congest_trial(plan, sampler, detail::uniform_counts(plan));

  net::ShmSession session = net::ShmSession::create_anonymous(
      net::ShmSession::Options{.num_ranks = options.num_ranks});
  net::WorkerGroup group(session, [&](std::uint32_t rank) {
    serve_congest_uniformity(session, rank, plan, graph, sampler, options);
  });
  std::vector<CongestRunResult> results =
      coordinate_congest_uniformity(session, plan, graph, sampler, options);
  group.finish();

  // With a traced trial in the sweep, every rank wrote `<path>.rank<r>`;
  // splice them back into the single transcript in-process runs produce.
  // After finish(): the workers' writers are closed and flushed.
  if (options.traced_trial < options.seeds.size() && obs::enabled()) {
    if (const char* path = std::getenv("DUT_TRACE");
        path != nullptr && *path != '\0') {
      (void)obs::merge_trace_shards(path, options.num_ranks);
    }
  }
  return results;
}

}  // namespace dut::congest
