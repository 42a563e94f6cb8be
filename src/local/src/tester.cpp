#include "dut/local/tester.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "dut/core/amplified.hpp"
#include "dut/net/message.hpp"
#include "dut/obs/phase_timer.hpp"

namespace dut::local {

namespace {

/// Nearest-MIS-node assignment via multi-source BFS on G (ties go to the
/// source dequeued first; sources are enqueued in id order, so the result
/// is deterministic). Returns (assignment, distance).
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
assign_to_mis(const net::Graph& graph, const std::vector<bool>& in_mis) {
  const std::uint32_t k = graph.num_nodes();
  std::vector<std::uint32_t> owner(k, UINT32_MAX);
  std::vector<std::uint32_t> dist(k, UINT32_MAX);
  std::queue<std::uint32_t> frontier;
  for (std::uint32_t v = 0; v < k; ++v) {
    if (in_mis[v]) {
      owner[v] = v;
      dist[v] = 0;
      frontier.push(v);
    }
  }
  while (!frontier.empty()) {
    const std::uint32_t v = frontier.front();
    frontier.pop();
    for (const std::uint32_t u : graph.neighbors(v)) {
      if (owner[u] == UINT32_MAX) {
        owner[u] = owner[v];
        dist[u] = dist[v] + 1;
        frontier.push(u);
      }
    }
  }
  return {std::move(owner), std::move(dist)};
}

/// r-round TTL flood of (origin, destination, samples) records on G.
/// All nodes halt together at round r, by which time every record has
/// reached its destination (distance <= r by MIS maximality on G^r).
class GatherProgram : public net::NodeProgram {
 public:
  GatherProgram(std::uint32_t k, std::uint32_t radius, std::uint32_t dest,
                std::vector<std::uint64_t> own_samples, unsigned sample_bits)
      : radius_(radius),
        dest_(dest),
        own_samples_(std::move(own_samples)),
        sample_bits_(sample_bits),
        seen_(k, false) {}

  const std::vector<std::uint64_t>& collected() const noexcept {
    return collected_;
  }

  void on_round(net::NodeContext& ctx) override {
    struct Record {
      std::uint64_t origin;
      std::uint64_t dest;
      std::uint64_t ttl;
      std::vector<std::uint64_t> samples;
    };
    std::vector<Record> pending;

    if (ctx.round() == 0) {
      seen_[ctx.id()] = true;
      if (dest_ == ctx.id()) {
        collected_.insert(collected_.end(), own_samples_.begin(),
                          own_samples_.end());
      } else {
        pending.push_back(Record{ctx.id(), dest_, radius_, own_samples_});
      }
    }

    // Bounds-checked parse: on a healthy network every check passes by
    // construction; under payload corruption (net::FaultPlan) a malformed
    // record ends the message (the rest is unparseable once a length field
    // lies) and an out-of-range origin is discarded.
    for (const net::MessageView msg : ctx.inbox()) {
      const auto fields = msg.fields();
      std::size_t f = 0;
      if (fields.empty()) continue;
      const std::uint64_t count = fields[f++];
      for (std::uint64_t i = 0; i < count; ++i) {
        if (f + 4 > fields.size()) break;
        Record rec;
        rec.origin = fields[f++];
        rec.dest = fields[f++];
        rec.ttl = fields[f++];
        const std::uint64_t num_samples = fields[f++];
        if (num_samples > fields.size() - f) break;
        rec.samples.assign(fields.begin() + static_cast<long>(f),
                           fields.begin() + static_cast<long>(f + num_samples));
        f += num_samples;
        if (rec.origin >= seen_.size() || seen_[rec.origin]) continue;
        seen_[rec.origin] = true;
        if (rec.dest == ctx.id()) {
          collected_.insert(collected_.end(), rec.samples.begin(),
                            rec.samples.end());
        } else if (rec.ttl > 0 && rec.ttl <= radius_) {
          --rec.ttl;
          pending.push_back(std::move(rec));
        }
      }
    }

    if (ctx.round() >= radius_) {
      ctx.halt();
      return;
    }
    if (!pending.empty()) {
      net::Message msg;
      msg.push_field(pending.size(), 32);
      for (const Record& rec : pending) {
        msg.push_field(rec.origin, 32);
        msg.push_field(rec.dest, 32);
        msg.push_field(rec.ttl, 32);
        msg.push_field(rec.samples.size(), 32);
        for (const std::uint64_t s : rec.samples) {
          msg.push_field(s, sample_bits_);
        }
      }
      ctx.broadcast(msg);
    }
  }

 private:
  std::uint32_t radius_;
  std::uint32_t dest_;
  std::vector<std::uint64_t> own_samples_;
  unsigned sample_bits_;
  std::vector<bool> seen_;
  std::vector<std::uint64_t> collected_;
};

}  // namespace

LocalPlan plan_local(std::uint64_t n, const net::Graph& graph, double epsilon,
                     double p, std::uint64_t samples_per_node,
                     std::uint64_t seed, std::uint32_t max_radius) {
  if (samples_per_node == 0) {
    throw std::invalid_argument("plan_local: samples_per_node must be >= 1");
  }
  LocalPlan plan;
  plan.n = n;
  plan.epsilon = epsilon;
  plan.p = p;
  plan.samples_per_node = samples_per_node;
  plan.plan_seed = seed;
  plan.planned_max_radius = max_radius;

  const std::uint32_t k = graph.num_nodes();

  // Smallest virtual-node count for which the AND-rule planner is feasible
  // at all (feasibility is monotone in k'): prunes the radius scan, since
  // the MIS only shrinks as r grows.
  std::uint64_t k_min = 0;
  for (std::uint64_t candidate = 2; candidate <= k; candidate *= 2) {
    if (core::plan_and_rule(n, candidate, epsilon, p).feasible) {
      k_min = candidate / 2 + 1;  // true minimum is in (candidate/2, candidate]
      break;
    }
  }
  if (k_min == 0) {
    plan.infeasible_reason =
        "the AND-rule 0-round tester is infeasible at every virtual-node "
        "count up to k for this (n, eps, p)";
    return plan;
  }

  // Coarse radius ladder: smallest feasible r wins on round complexity.
  for (std::uint32_t r = 1; r <= max_radius; r = r < 4 ? r + 1 : (r * 3) / 2) {
    const net::Graph power = graph.power(r);
    if (power.num_edges() > 2'000'000) break;  // dense => MIS far too small
    const MisResult mis = compute_mis(power, stats::SplitMix64(seed ^ r).next());
    const std::uint64_t mis_size = static_cast<std::uint64_t>(
        std::count(mis.in_mis.begin(), mis.in_mis.end(), true));
    if (mis_size <= 1 || mis_size < k_min) break;  // shrinks as r grows

    const auto [owner, dist] = assign_to_mis(graph, mis.in_mis);
    std::vector<std::uint64_t> gathered(k, 0);
    for (std::uint32_t v = 0; v < k; ++v) {
      if (dist[v] > r) {
        throw std::logic_error(
            "plan_local: node farther than r from every MIS node — the MIS "
            "is not maximal on G^r");
      }
      gathered[owner[v]] += samples_per_node;
    }
    std::uint64_t min_gathered = UINT64_MAX;
    std::uint64_t max_gathered = 0;
    for (std::uint32_t v = 0; v < k; ++v) {
      if (!mis.in_mis[v]) continue;
      min_gathered = std::min(min_gathered, gathered[v]);
      max_gathered = std::max(max_gathered, gathered[v]);
    }

    const core::AndRulePlan and_plan =
        core::plan_and_rule(n, mis_size, epsilon, p);
    if (!and_plan.feasible) continue;
    if (min_gathered < and_plan.samples_per_node) continue;

    plan.feasible = true;
    plan.radius = r;
    plan.in_mis = mis.in_mis;
    plan.assignment = owner;
    plan.mis_size = mis_size;
    plan.min_gathered = min_gathered;
    plan.max_gathered = max_gathered;
    plan.and_plan = and_plan;
    plan.mis_phases = mis.phases;
    plan.rounds_in_g = 3 * mis.phases * r + r;
    return plan;
  }

  plan.infeasible_reason =
      "no radius r yields an MIS that is both large enough for the AND-rule "
      "regime and sample-rich enough to feed the per-node testers";
  return plan;
}

net::ProtocolDriver make_local_driver(const LocalPlan& plan,
                                      const net::Graph& graph,
                                      const net::FaultPlan* faults) {
  if (!plan.feasible) {
    throw std::logic_error("make_local_driver: plan is infeasible");
  }
  if (plan.assignment.size() != graph.num_nodes()) {
    throw std::invalid_argument("make_local_driver: plan/graph mismatch");
  }
  net::EngineConfig config;
  config.model = net::Model::kLocal;
  config.max_rounds = plan.radius + 2;
  if (faults != nullptr) {
    return net::ProtocolDriver(graph, config, *faults);
  }
  return net::ProtocolDriver(graph, config);
}

namespace {

/// %.17g round-trips doubles exactly, so replay metadata regenerates
/// byte-identically from the parsed-back values.
std::string format_param(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Replay preamble for a LOCAL gather run: enough to regenerate the plan
/// (plan_local reruns the MIS ladder from plan_seed), the driver and the
/// sampler, then re-run this seed.
std::vector<std::pair<std::string, std::string>> local_annotations(
    const LocalPlan& plan, const net::ProtocolDriver& driver,
    const core::AliasSampler& sampler) {
  std::vector<std::pair<std::string, std::string>> ann;
  ann.emplace_back("proto", "local_uniformity");
  ann.emplace_back("topo", driver.graph().spec());
  ann.emplace_back("dist", sampler.spec());
  ann.emplace_back("n", std::to_string(plan.n));
  ann.emplace_back("eps", format_param(plan.epsilon));
  ann.emplace_back("p", format_param(plan.p));
  ann.emplace_back("s0", std::to_string(plan.samples_per_node));
  ann.emplace_back("plan_seed", std::to_string(plan.plan_seed));
  ann.emplace_back("max_r", std::to_string(plan.planned_max_radius));
  if (driver.fault_plan() != nullptr) {
    ann.emplace_back("faults", driver.fault_plan()->spec());
  }
  return ann;
}

}  // namespace

LocalRunResult run_local_uniformity(const LocalPlan& plan,
                                    net::ProtocolDriver& driver,
                                    const core::AliasSampler& sampler,
                                    std::uint64_t seed, bool traced) {
  if (sampler.n() != plan.n) {
    throw std::invalid_argument("run_local_uniformity: domain mismatch");
  }

  const std::uint32_t k = driver.graph().num_nodes();
  const unsigned sample_bits = net::bits_for(plan.n);
  const core::RepeatedGapTester tester(plan.and_plan.base,
                                       plan.and_plan.repetitions);
  // Fault runs degrade gracefully: a starved MIS node votes reject rather
  // than aborting (reject-bias preserves one-sided soundness).
  const bool faulty = driver.fault_plan() != nullptr;

  // Pre-draw each node's samples into the "sample" phase span. Unlike the
  // CONGEST runner there is no shared stream to preserve: node v's draws
  // come from its own derive_stream(seed, v), so hoisting them out of the
  // make callback is order-independent.
  std::vector<std::vector<std::uint64_t>> samples(k);
  {
    obs::PhaseTimer span("sample");
    for (std::uint32_t v = 0; v < k; ++v) {
      stats::Xoshiro256 rng = stats::derive_stream(seed, v);
      samples[v] = sampler.sample_many(rng, plan.samples_per_node);
    }
  }

  obs::PhaseTimer route_span("route");
  return driver.run_trial(
      seed, traced,
      [&plan, &driver, &sampler] {
        return local_annotations(plan, driver, sampler);
      },
      [&](std::uint32_t v) {
        return std::make_unique<GatherProgram>(k, plan.radius,
                                               plan.assignment[v],
                                               std::move(samples[v]),
                                               sample_bits);
      },
      [&](const auto& programs, const net::EngineMetrics& metrics,
          net::Transport&) {
        obs::PhaseTimer span("decide");
        LocalRunResult result;
        result.gather_metrics = metrics;
        std::uint64_t rejecting = 0;
        for (std::uint32_t v = 0; v < k; ++v) {
          if (!plan.in_mis[v]) continue;
          const auto& samples = programs[v]->collected();
          if (samples.size() < tester.total_samples()) {
            if (!faulty) {
              throw std::logic_error(
                  "run_local_uniformity: MIS node gathered fewer samples "
                  "than planned");
            }
            ++result.mis_shortfalls;
            ++rejecting;
            continue;
          }
          if (!tester.decide(samples)) ++rejecting;
        }
        result.verdict =
            core::Verdict::make(rejecting == 0, rejecting, plan.mis_size,
                                metrics.rounds, metrics.total_bits);
        return result;
      });
}

}  // namespace dut::local
