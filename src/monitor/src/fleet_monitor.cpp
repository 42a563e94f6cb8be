#include "dut/monitor/fleet_monitor.hpp"

#include <span>
#include <stdexcept>
#include <utility>

#include "dut/core/gap_tester.hpp"
#include "dut/obs/metrics.hpp"

namespace dut::monitor {

FleetMonitor::FleetMonitor(MonitorConfig config)
    : config_(std::move(config)) {
  if (config_.domain < 2) {
    throw std::invalid_argument("FleetMonitor: domain must be >= 2");
  }
  if (config_.nodes == 0) {
    throw std::invalid_argument("FleetMonitor: need at least one node");
  }

  std::uint64_t effective_n = config_.domain;
  double effective_eps = config_.epsilon;
  if (config_.reference) {
    if (config_.reference->n() != config_.domain) {
      throw std::invalid_argument(
          "FleetMonitor: reference profile domain mismatch");
    }
    filter_.emplace(*config_.reference, config_.epsilon,
                    config_.grains_per_eps);
    effective_n = filter_->output_domain();
    effective_eps = filter_->output_epsilon();
  }

  plan_ = core::plan_threshold(effective_n, config_.nodes, effective_eps,
                               config_.error, config_.bound);
  if (!plan_.feasible) {
    throw std::invalid_argument("FleetMonitor: infeasible regime — " +
                                plan_.infeasible_reason);
  }

  windows_.resize(config_.nodes);
  node_rngs_.reserve(config_.nodes);
  for (std::uint32_t v = 0; v < config_.nodes; ++v) {
    node_rngs_.push_back(stats::derive_stream(config_.seed, v));
  }
}

core::VerdictStatus FleetMonitor::observe(std::uint32_t node,
                                          std::uint64_t value) {
  if (node >= config_.nodes) {
    throw std::invalid_argument("FleetMonitor::observe: unknown node");
  }
  if (value >= config_.domain) {
    throw std::invalid_argument("FleetMonitor::observe: value out of domain");
  }
  const std::uint64_t effective =
      filter_ ? filter_->apply(value, node_rngs_[node]) : value;
  ++consumed_;
  auto& window = windows_[node];
  window.push_back(effective);
  if (window.size() == plan_.base.s) ++ready_nodes_;
  if (obs::enabled()) {
    static obs::Counter& observations = obs::counter("monitor.observations");
    observations.add();
  }
  // A burst can fill several epochs at once; close them all, in order.
  while (ready_nodes_ == config_.nodes) close_epoch();
  return status_;
}

core::VerdictStatus FleetMonitor::observe(std::uint64_t value) {
  const std::uint32_t node = next_node_;
  next_node_ = next_node_ + 1 == config_.nodes ? 0 : next_node_ + 1;
  return observe(node, value);
}

core::Verdict FleetMonitor::finalize() {
  const double confidence = epoch_ == 0 ? 0.0 : 1.0 - config_.error;
  return core::Verdict::make_anytime(status_, alarms_, epoch_, consumed_,
                                     confidence);
}

FleetMonitor::EpochReport FleetMonitor::next_report() {
  if (pending_.empty()) {
    throw std::logic_error(
        "FleetMonitor::next_report: no closed epoch is pending");
  }
  EpochReport report = std::move(pending_.front());
  pending_.pop_front();
  return report;
}

void FleetMonitor::close_epoch() {
  EpochReport report;
  report.epoch = ++epoch_;
  report.threshold = plan_.threshold;

  // One fingerprint per window: its vote is the single-collision tester's,
  // and the chi estimate pools only *within-window* pairs (cross-window
  // pairs would also be valid i.i.d. pairs, but keeping windows separate
  // matches exactly what the voters saw).
  core::CollisionWorkspace& workspace = core::thread_collision_workspace();
  std::uint64_t pairs = 0;
  std::uint64_t triples = 0;
  for (auto& window : windows_) {
    const core::Fingerprint fingerprint = workspace.fingerprint(
        std::span<const std::uint64_t>(window.data(), plan_.base.s), plan_.n);
    if (fingerprint.has_collision()) ++report.votes_to_reject;
    pairs += fingerprint.collisions(2);
    triples += fingerprint.collisions(3);
    window.erase(window.begin(),
                 window.begin() + static_cast<long>(plan_.base.s));
  }
  report.chi = core::estimate_chi(pairs, triples, plan_.base.s, config_.nodes);
  report.distance_score =
      core::collision_distance_score(report.chi.chi_hat, plan_.n);
  report.samples_consumed = report.chi.samples;

  report.alarm = report.votes_to_reject >= plan_.threshold;
  if (report.alarm) {
    ++alarms_;
    status_ = core::VerdictStatus::kReject;  // absorbing
  } else if (status_ == core::VerdictStatus::kUndecided) {
    status_ = core::VerdictStatus::kAccept;  // provisional "healthy so far"
  }
  if (obs::enabled()) {
    obs::counter("monitor.epochs").add();
    obs::histogram("monitor.epoch.votes").record(report.votes_to_reject);
    if (report.alarm) obs::counter("monitor.alarms").add();
  }

  // Re-count readiness against the carried-over surplus.
  ready_nodes_ = 0;
  for (const auto& window : windows_) {
    if (window.size() >= plan_.base.s) ++ready_nodes_;
  }
  pending_.push_back(std::move(report));
}

}  // namespace dut::monitor
