#pragma once

// Production-style wrapper around the 0-round threshold tester: a fleet of
// k observers feeds raw observations in as they arrive; the monitor
// organizes them into per-node windows (one window = one run of the
// single-collision tester A_delta), aggregates the fleet's votes per
// epoch, and raises an alarm via the planned threshold rule. Optionally a
// known reference profile is monitored instead of uniformity, by routing
// every observation through the identity filter (each node's filter uses
// its own private randomness, as the paper requires).
//
// Epoch semantics: an epoch closes automatically the moment every node has
// filled its window of plan.base.s samples; surplus observations carry
// over to the next epoch. Closed epochs queue an EpochReport — drain them
// with reports_pending()/next_report(). The report carries the alarm
// verdict plus the pooled collision estimate and the distance score from
// dut::core::estimators, so operators see "how non-uniform" alongside
// "alarm or not".
//
// SequentialTester facet (DESIGN.md §15): the monitor implements the
// shared anytime contract. Its decision target is "has the fleet ever
// alarmed" — kUndecided before the first epoch closes, kAccept while every
// closed epoch is clean, and the absorbing kReject once any epoch alarms.
// Unlike the one-shot families, the monitor never stops consuming: accept
// is the anytime "healthy so far" answer and may still escalate to reject;
// a reject is never retracted.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "dut/core/distribution.hpp"
#include "dut/core/estimators.hpp"
#include "dut/core/identity_filter.hpp"
#include "dut/core/verdict.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/stats/rng.hpp"
#include "dut/stats/sequential.hpp"

namespace dut::monitor {

struct MonitorConfig {
  std::uint64_t domain = 0;  ///< n: observation domain {0..n-1}
  std::uint32_t nodes = 0;   ///< k: fleet size
  double epsilon = 0.9;      ///< alarm distance
  double error = 1.0 / 3.0;  ///< per-epoch error budget (both sides)
  core::TailBound bound = core::TailBound::kExactBinomial;
  std::uint64_t seed = 0;    ///< drives the nodes' private randomness

  /// When set, the fleet monitors drift from this reference profile
  /// instead of non-uniformity; observations are filtered per node.
  std::optional<core::Distribution> reference;
  /// Grain density of the identity filter (see IdentityFilter).
  double grains_per_eps = 16.0;
};

class FleetMonitor final : public stats::SequentialTester {
 public:
  /// Plans the epoch tester; throws std::invalid_argument if the
  /// (n, k, eps, p) regime is infeasible (the message names the planner's
  /// reason).
  explicit FleetMonitor(MonitorConfig config);

  /// Samples each node must contribute per epoch.
  std::uint64_t window_size() const noexcept { return plan_.base.s; }
  /// Votes required to raise the alarm.
  std::uint64_t alarm_threshold() const noexcept { return plan_.threshold; }
  /// The underlying plan (for inspection/reporting).
  const core::ThresholdPlan& plan() const noexcept { return plan_; }
  /// The effective testing problem (filtered domain/eps when a reference
  /// profile is configured).
  std::uint64_t effective_domain() const noexcept { return plan_.n; }
  double effective_epsilon() const noexcept { return plan_.epsilon; }

  struct EpochReport {
    std::uint64_t epoch = 0;
    bool alarm = false;
    std::uint64_t votes_to_reject = 0;
    std::uint64_t threshold = 0;
    /// Pooled collision estimate over all windows of this epoch (in the
    /// effective/filtered domain): core::estimate_chi over the windows'
    /// within-window pair and triple counts.
    core::ChiEstimate chi;
    /// sqrt(max(0, chi_hat * n_eff - 1)): ~eps for worst-case deviations.
    double distance_score = 0.0;
    std::uint64_t samples_consumed = 0;
  };

  /// Feeds one observation (an element of {0..domain-1}) from `node`.
  /// Epochs close automatically as windows fill (surplus carries over),
  /// queueing one EpochReport per closed epoch. Returns the monitor's
  /// status after the observation.
  core::VerdictStatus observe(std::uint32_t node, std::uint64_t value);

  // --- stats::SequentialTester ---

  /// Single-feed entry point: observations are dealt to nodes round-robin
  /// (node i gets arrivals i, i + k, i + 2k, ...).
  core::VerdictStatus observe(std::uint64_t value) override;
  core::VerdictStatus poll() const noexcept override { return status_; }
  std::uint64_t samples_consumed() const noexcept override {
    return consumed_;
  }
  /// Anytime verdict: votes are closed epochs, rejects are alarms.
  [[nodiscard]] core::Verdict finalize() override;

  /// Closed-but-unread epoch reports.
  std::size_t reports_pending() const noexcept { return pending_.size(); }
  /// Pops the oldest pending report; throws std::logic_error when none is
  /// pending.
  EpochReport next_report();

  std::uint64_t epochs_completed() const noexcept { return epoch_; }
  std::uint64_t alarms_raised() const noexcept { return alarms_; }

 private:
  void close_epoch();

  MonitorConfig config_;
  std::optional<core::IdentityFilter> filter_;
  core::ThresholdPlan plan_;
  std::vector<std::vector<std::uint64_t>> windows_;  // effective-domain values
  std::vector<stats::Xoshiro256> node_rngs_;         // filter randomness
  std::deque<EpochReport> pending_;
  core::VerdictStatus status_ = core::VerdictStatus::kUndecided;
  std::uint64_t consumed_ = 0;
  std::uint32_t next_node_ = 0;
  std::uint32_t ready_nodes_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t alarms_ = 0;
};

}  // namespace dut::monitor
