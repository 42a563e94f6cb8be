#include "dut/congest/uniformity.hpp"

#include "uniformity_program.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dut/obs/phase_timer.hpp"
#include "dut/stats/rng.hpp"

namespace dut::congest {

namespace {

/// Bit budget for the protocol's widest message: a candidate carries an id
/// and a depth; a token carries a domain element; counts carry up to k.
/// Resilient mode appends a sequence number and a 4-bit checksum to every
/// message, and reports carry two extra counts (coverage and formed
/// packages).
std::uint64_t required_bandwidth(std::uint64_t n, std::uint32_t k,
                                 const PackagingResilience& resil) {
  const unsigned id_bits = net::bits_for(k);
  const unsigned token_bits = net::bits_for(n);
  const unsigned count_bits = net::bits_for(static_cast<std::uint64_t>(k) + 1);
  if (!resil.enabled) {
    return 3 +
           std::max<std::uint64_t>({2ULL * id_bits, token_bits, count_bits});
  }
  return 3 +
         std::max<std::uint64_t>(
             {2ULL * id_bits, token_bits, 3ULL * count_bits}) +
         resil.seq_bits + 4;
}


/// Resolves the resilient-mode timeout schedule from the graph. Every stage
/// budget is the fault-free bound stretched by the retransmission factor
/// plus slack, so at zero fault rates no timeout ever fires and the run is
/// bit-identical to the plain protocol. Consecutive forced actions are
/// staggered by the time the previous one's messages need to propagate:
/// forced acks (phase1_timeout) get a D-hop cascade before blocked
/// candidates claim leadership (leader_timeout); late phase-two starters
/// (package_round) get D + tau rounds to push tokens before packaging is
/// frozen (force_package_round).
PackagingResilience resolve_schedule(const net::Graph& graph,
                                     std::uint64_t tau,
                                     const CongestResilience& opts) {
  const std::uint64_t R = opts.retransmits;
  const std::uint64_t D = std::max<std::uint32_t>(1, graph.diameter());
  PackagingResilience s;
  s.enabled = true;
  s.retransmits = R;
  s.phase1_timeout = (R + 2) * (2 * D + 4) + 8;
  s.leader_timeout = s.phase1_timeout + (R + 1) * (D + 1) + 4;
  s.package_round = s.leader_timeout + (R + 2) * (D + tau + 4) + 8;
  s.force_package_round = s.package_round + (R + 1) * (D + tau + 2) + 4;
  s.report_base = s.force_package_round + 2;
  s.depth_budget = D;
  s.deadline = s.report_base + (R + 1) * (D + 1) + 6;
  s.quorum = opts.quorum_nodes != 0 ? opts.quorum_nodes : graph.num_nodes();
  s.seq_bits = net::bits_for(4 * (s.deadline + 16));
  return s;
}

detail::Annotations packaging_annotations(const PackagingSetup& setup) {
  detail::Annotations ann;
  ann.emplace_back("proto", "token_packaging");
  ann.emplace_back("topo", setup.driver.graph().spec());
  ann.emplace_back("tau", std::to_string(setup.tau));
  if (setup.schedule.enabled) {
    ann.emplace_back("retx", std::to_string(setup.schedule.retransmits));
    ann.emplace_back("quorum", std::to_string(setup.schedule.quorum));
  }
  if (setup.driver.fault_plan() != nullptr) {
    ann.emplace_back("faults", setup.driver.fault_plan()->spec());
  }
  return ann;
}

}  // namespace

CongestPlan plan_congest(std::uint64_t n, std::uint32_t k, double epsilon,
                         double p, core::TailBound bound,
                         std::uint64_t samples_per_node) {
  if (n < 2) throw std::invalid_argument("plan_congest: n must be >= 2");
  if (k < 2) throw std::invalid_argument("plan_congest: k must be >= 2");
  if (!(epsilon > 0.0) || epsilon > 2.0) {
    throw std::invalid_argument("plan_congest: eps must be in (0, 2]");
  }
  if (!(p > 0.0) || p >= 0.5) {
    throw std::invalid_argument("plan_congest: p must be in (0, 0.5)");
  }
  if (samples_per_node == 0) {
    throw std::invalid_argument(
        "plan_congest: samples_per_node must be >= 1");
  }

  CongestPlan plan;
  plan.n = n;
  plan.k = k;
  plan.epsilon = epsilon;
  plan.p = p;
  plan.bound = bound;
  plan.samples_per_node = samples_per_node;
  plan.bandwidth_bits = required_bandwidth(n, k, PackagingResilience{});

  // Scan package sizes from small to large: the round complexity is
  // O(D + tau), so the smallest feasible tau wins. The budget A(tau) =
  // ell * delta(tau) ~ k*s0*(tau-1)/(2n) grows with tau, so the scan
  // crosses from "too little rejection mass" into feasibility and
  // eventually out of the gap domain (delta too large); stop there.
  const std::uint64_t total_tokens = k * samples_per_node;
  const std::uint64_t tau_cap = total_tokens / 2;
  for (std::uint64_t tau = 2; tau <= tau_cap; ++tau) {
    const std::uint64_t ell = total_tokens / tau;
    if (ell < 2) break;
    core::GapTesterParams params;
    try {
      params = core::params_from_samples(n, epsilon, tau);
    } catch (const std::invalid_argument&) {
      break;
    }
    if (!params.has_gap) {
      if (params.delta > 0.5) break;  // past the gap domain; no point going on
      continue;
    }
    const core::ThresholdPlacement placement =
        core::place_threshold(ell, params, p, bound);
    if (!placement.feasible) continue;
    plan.feasible = true;
    plan.tau = tau;
    plan.num_packages = ell;
    plan.package_params = params;
    plan.threshold = placement.threshold;
    plan.eta_uniform = placement.eta_uniform;
    plan.eta_far = placement.eta_far;
    plan.bound_false_reject = placement.bound_false_reject;
    plan.bound_false_accept = placement.bound_false_accept;
    return plan;
  }

  plan.infeasible_reason =
      "no package size tau admits a threshold over floor(k/tau) virtual "
      "nodes; the network holds too few samples for this (n, eps, p)";
  return plan;
}

namespace {

net::EngineConfig congest_config(std::uint64_t bandwidth_bits,
                                 std::uint64_t max_rounds) {
  net::EngineConfig config;
  config.model = net::Model::kCongest;
  config.bandwidth_bits = bandwidth_bits;
  config.max_rounds = max_rounds;
  return config;
}

void check_network(const net::Graph& graph, const CongestResilience& opts,
                   const char* who) {
  if (!graph.is_connected()) {
    // A disconnected network would elect one leader per component and
    // silently drop up to (tau-1) tokens per component, breaking
    // Definition 2; reject it up front.
    throw std::invalid_argument(std::string(who) + ": graph disconnected");
  }
  if (opts.enabled && opts.quorum_nodes > graph.num_nodes()) {
    throw std::invalid_argument(std::string(who) +
                                ": quorum exceeds the network size");
  }
}

struct ResolvedSetup {
  net::EngineConfig config;
  PackagingResilience schedule;
};

/// The config and schedule resolver behind both setup factories, for
/// packages of `tau` tokens drawn from [0, n). Plain: the protocol's
/// bandwidth under a 20(k + tau) + 1000 round cap. Resilient: the graph's
/// timeout schedule, the bandwidth widened for its message trailer, and a
/// round cap just past the schedule's deadline.
ResolvedSetup resolve_setup(const net::Graph& graph, std::uint64_t n,
                            std::uint64_t tau,
                            const CongestResilience& opts) {
  const std::uint32_t k = graph.num_nodes();
  if (!opts.enabled) {
    return {congest_config(required_bandwidth(n, k, PackagingResilience{}),
                           20ULL * (k + tau) + 1000),
            PackagingResilience{}};
  }
  const PackagingResilience schedule = resolve_schedule(graph, tau, opts);
  return {congest_config(required_bandwidth(n, k, schedule),
                         schedule.deadline + schedule.retransmits + 16),
          schedule};
}

/// The driver both setups hold, with the fault-plan attach they share:
/// `faults` when given, else a zero-rate plan for a resilient schedule.
/// Resilient runs always engage the engine's fault mode (even at all-zero
/// rates): retransmission copies may target already-halted nodes, which
/// strict mode treats as a protocol violation.
net::ProtocolDriver make_driver(const net::Graph& graph,
                                const ResolvedSetup& resolved,
                                const net::FaultPlan* faults) {
  if (faults != nullptr) {
    return net::ProtocolDriver(graph, resolved.config, *faults);
  }
  if (resolved.schedule.enabled) {
    return net::ProtocolDriver(graph, resolved.config, net::FaultPlan{});
  }
  return net::ProtocolDriver(graph, resolved.config);
}

/// Per-rank verdict summary, packed by every rank after the engine run and
/// all-gathered through the transport. Word layout:
///   0  packages formed on this shard
///   1  a leader finished on this shard (0/1)
///   2  that leader's external id
///   3  that leader's node id
///   4  that leader's total_report
///   5  that leader's verdict word
///   6  that leader's covered_total
///   7  that leader's quorum_met (0/1)
constexpr std::size_t kSummaryWords = 8;

/// The one CONGEST trial body, run identically on every rank (in-process:
/// the single rank of InProcTransport). Every rank draws all k nodes'
/// tokens from the shared (seed, 0x5A9) stream in node-id order — stream
/// identity is a function of the seed alone, so the shard a node lands on
/// never changes its tokens — and the engine runs this rank's shard. The
/// merge over the all-gathered summaries picks the winning root: under
/// faults several forced leaders can coexist, and the one with the largest
/// external id wins (its wave dominates any surviving fragment of the
/// tree), scanned in ascending rank (= ascending node) order with
/// strictly-greater wins. Every reject-bias branch reads the winner's
/// summary.
CongestRunResult run_congest_trial(const CongestPlan& plan,
                                   CongestSetup& setup,
                                   const core::AliasSampler& sampler,
                                   const std::vector<std::uint64_t>& counts,
                                   std::uint64_t seed, bool traced,
                                   net::Engine::RunPreamble preamble) {
  detail::check_congest_trial(plan, sampler, counts);
  const std::uint32_t k = setup.driver.graph().num_nodes();

  std::vector<std::vector<std::uint64_t>> tokens(k);
  {
    obs::PhaseTimer span("sample");
    stats::Xoshiro256 sample_rng = stats::derive_stream(seed, 0x5A9);
    for (std::uint32_t v = 0; v < k; ++v) {
      tokens[v] = sampler.sample_many(sample_rng, counts[v]);
    }
  }

  std::vector<std::uint64_t> ids;
  MessageWidths widths{};
  {
    obs::PhaseTimer span("encode");
    ids = detail::external_ids(k, seed);
    widths = detail::widths_for(plan.n, k);
  }

  // The "route" span covers the whole engine execution; "decide" nests
  // inside it (the extract callback runs before the engine lease returns).
  obs::PhaseTimer route_span("route");
  return setup.driver.run_trial(
      seed, traced, std::move(preamble),
      [&](std::uint32_t v) {
        return std::make_unique<detail::UniformityTestProgram>(
            ids[v], std::move(tokens[v]), plan, widths, setup.schedule);
      },
      [&](const auto& programs, const net::EngineMetrics& metrics,
          net::Transport& transport) {
        obs::PhaseTimer span("decide");
        const auto [first, last] = transport.shard(k);
        std::uint64_t summary[kSummaryWords] = {};
        const detail::UniformityTestProgram* shard_root = nullptr;
        for (std::uint32_t v = first; v < last; ++v) {
          summary[0] += programs[v]->packages().size();
          if (programs[v]->is_leader() &&
              (shard_root == nullptr ||
               programs[v]->leader_external_id() >
                   shard_root->leader_external_id())) {
            shard_root = programs[v].get();
            summary[3] = v;
          }
        }
        if (shard_root != nullptr) {
          summary[1] = 1;
          summary[2] = shard_root->leader_external_id();
          summary[4] = shard_root->total_report();
          summary[5] = shard_root->verdict();
          summary[6] = shard_root->covered_total();
          summary[7] = shard_root->quorum_met() ? 1 : 0;
        }

        std::vector<std::uint64_t> all;
        transport.exchange_summaries(
            std::span<const std::uint64_t>(summary, kSummaryWords), all);

        CongestRunResult result;
        result.metrics = metrics;  // post-reduction: already global
        const std::uint64_t* winner = nullptr;
        for (std::uint32_t r = 0; r < transport.num_ranks(); ++r) {
          const std::uint64_t* s = all.data() + r * kSummaryWords;
          result.num_packages += s[0];
          if (s[1] != 0 && (winner == nullptr || s[2] > winner[2])) {
            winner = s;
          }
        }
        bool rejects;
        std::uint64_t reject_count = 0;
        if (winner == nullptr) {
          // Leaderless network (e.g. every candidate crashed): no verdict
          // was ever decided — reject-bias.
          rejects = true;
          result.quorum_met = false;
        } else {
          result.leader = static_cast<std::uint32_t>(winner[3]);
          reject_count = winner[4];
          if (setup.schedule.enabled) {
            result.nodes_reporting = winner[6];
            if (result.nodes_reporting == 0) {
              // The root never reached its decision point (crashed or
              // starved past max_rounds): again reject-bias.
              rejects = true;
              result.quorum_met = false;
            } else {
              rejects = winner[5] == 1;
              result.quorum_met = winner[7] != 0;
            }
          } else {
            rejects = winner[5] == 1;
            result.nodes_reporting = k;
          }
        }
        result.verdict =
            core::Verdict::make(!rejects, reject_count, result.num_packages,
                                metrics.rounds, metrics.total_bits);
        return result;
      });
}

}  // namespace

namespace detail {

void check_congest_setup(const CongestPlan& plan, const net::Graph& graph,
                         const CongestResilience& opts, const char* who) {
  if (!plan.feasible) {
    throw std::logic_error(std::string(who) + ": plan is infeasible");
  }
  if (graph.num_nodes() != plan.k) {
    throw std::invalid_argument(std::string(who) + ": graph size != k");
  }
  check_network(graph, opts, who);
}

void check_congest_trial(const CongestPlan& plan,
                         const core::AliasSampler& sampler,
                         const std::vector<std::uint64_t>& counts) {
  if (sampler.n() != plan.n) {
    throw std::invalid_argument("run_congest_uniformity: domain mismatch");
  }
  if (counts.size() != plan.k) {
    throw std::invalid_argument(
        "run_congest_uniformity: one sample count per node");
  }
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    if (c == 0) {
      throw std::invalid_argument(
          "run_congest_uniformity: every node needs at least one sample");
    }
    total += c;
  }
  if (total != static_cast<std::uint64_t>(plan.k) * plan.samples_per_node) {
    throw std::invalid_argument(
        "run_congest_uniformity: sample counts do not match the plan's "
        "total budget (ell would change)");
  }
}

}  // namespace detail

CongestSetup make_congest_setup(const CongestPlan& plan,
                                const net::Graph& graph,
                                const CongestResilience& opts,
                                const net::FaultPlan* faults) {
  detail::check_congest_setup(plan, graph, opts, "make_congest_setup");
  const ResolvedSetup resolved = resolve_setup(graph, plan.n, plan.tau, opts);
  return CongestSetup{make_driver(graph, resolved, faults), resolved.schedule};
}

PackagingSetup make_packaging_setup(const net::Graph& graph,
                                    std::uint64_t tau,
                                    const CongestResilience& opts,
                                    const net::FaultPlan* faults) {
  if (tau == 0) {
    throw std::invalid_argument("make_packaging_setup: tau must be >= 1");
  }
  check_network(graph, opts, "make_packaging_setup");
  const ResolvedSetup resolved =
      resolve_setup(graph, graph.num_nodes(), tau, opts);
  return PackagingSetup{make_driver(graph, resolved, faults),
                        resolved.schedule, tau};
}

CongestRunResult run_congest_uniformity(const CongestPlan& plan,
                                        CongestSetup& setup,
                                        const core::AliasSampler& sampler,
                                        std::uint64_t seed, bool traced) {
  return run_congest_trial(
      plan, setup, sampler, detail::uniform_counts(plan), seed, traced,
      [&plan, &setup, &sampler] {
        return detail::congest_annotations(plan, setup.driver.graph(),
                                           setup.schedule, sampler,
                                           setup.driver.fault_plan());
      });
}

CongestRunResult run_congest_uniformity_heterogeneous(
    const CongestPlan& plan, CongestSetup& setup,
    const core::AliasSampler& sampler,
    const std::vector<std::uint64_t>& counts, std::uint64_t seed,
    bool traced) {
  return run_congest_trial(plan, setup, sampler, counts, seed, traced, {});
}

AmplifiedCongestResult run_congest_uniformity_amplified(
    const CongestPlan& plan, CongestSetup& setup,
    const core::AliasSampler& sampler, std::uint64_t seed,
    std::uint64_t repetitions, bool traced) {
  if (repetitions == 0 || repetitions % 2 == 0) {
    throw std::invalid_argument(
        "run_congest_uniformity_amplified: repetitions must be odd and >= 1");
  }
  AmplifiedCongestResult result;
  std::uint64_t reject_verdicts = 0;
  std::uint64_t total_bits = 0;
  for (std::uint64_t r = 0; r < repetitions; ++r) {
    const auto run = run_congest_uniformity(
        plan, setup, sampler, stats::SplitMix64(seed ^ (r + 1)).next(),
        traced);
    reject_verdicts += run.verdict.rejects();
    result.total_rounds += run.metrics.rounds;
    result.total_messages += run.metrics.messages;
    total_bits += run.metrics.total_bits;
  }
  result.verdict = core::Verdict::make(
      2 * reject_verdicts <= repetitions, reject_verdicts, repetitions,
      result.total_rounds, total_bits);
  return result;
}

PackagingRunResult run_token_packaging(PackagingSetup& setup,
                                       std::uint64_t seed, bool traced) {
  const std::uint32_t k = setup.driver.graph().num_nodes();
  std::vector<std::uint64_t> ids;
  MessageWidths widths{};
  {
    obs::PhaseTimer span("encode");
    ids = detail::external_ids(k, seed);
    // Tokens are node ids here, so tests can track every token exactly.
    widths = detail::widths_for(k, k);
  }

  obs::PhaseTimer route_span("route");
  return setup.driver.run_trial(
      seed, traced, [&setup] { return packaging_annotations(setup); },
      [&](std::uint32_t v) {
        return std::make_unique<TokenPackagingProgram>(
            ids[v], std::vector<std::uint64_t>{v}, setup.tau, widths,
            setup.schedule);
      },
      [&](const auto& programs, const net::EngineMetrics& metrics,
          net::Transport&) {
        obs::PhaseTimer span("decide");
        PackagingRunResult result;
        result.metrics = metrics;
        std::uint64_t packaged_tokens = 0;
        for (std::uint32_t v = 0; v < k; ++v) {
          if (programs[v]->is_leader()) result.leader = v;
          for (const auto& package : programs[v]->packages()) {
            packaged_tokens += package.size();
            result.packages.push_back(package);
          }
        }
        result.tokens_dropped = packaged_tokens <= k ? k - packaged_tokens : 0;
        return result;
      });
}

}  // namespace dut::congest
