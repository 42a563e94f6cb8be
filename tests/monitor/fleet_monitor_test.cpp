#include "dut/monitor/fleet_monitor.hpp"

#include <gtest/gtest.h>

#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "dut/stats/bounds.hpp"
#include "dut/stats/summary.hpp"

namespace dut::monitor {
namespace {

MonitorConfig basic_config() {
  MonitorConfig config;
  config.domain = 1 << 14;
  config.nodes = 2048;
  config.epsilon = 0.9;
  config.seed = 7;
  return config;
}

/// Streams `epochs` full epochs from `mu` through the monitor, returning
/// the number of alarms.
std::uint64_t stream_epochs(FleetMonitor& monitor,
                            const core::Distribution& mu,
                            std::uint64_t epochs, std::uint64_t seed) {
  const core::AliasSampler sampler(mu);
  stats::Xoshiro256 rng(seed);
  std::uint64_t alarms = 0;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    // Interleave node order to mimic a real stream.
    for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
      for (std::uint32_t node = 0; node < 2048; ++node) {
        monitor.observe(node, sampler.sample(rng));
      }
    }
    EXPECT_EQ(monitor.reports_pending(), 1u);
    alarms += monitor.next_report().alarm;
  }
  return alarms;
}

TEST(FleetMonitor, ConstructionValidation) {
  MonitorConfig bad = basic_config();
  bad.domain = 1;
  EXPECT_THROW(FleetMonitor{bad}, std::invalid_argument);
  bad = basic_config();
  bad.nodes = 0;
  EXPECT_THROW(FleetMonitor{bad}, std::invalid_argument);
  bad = basic_config();
  bad.nodes = 4;  // hopeless regime
  EXPECT_THROW(FleetMonitor{bad}, std::invalid_argument);
  bad = basic_config();
  bad.reference = core::zipf(64, 1.0);  // domain mismatch
  EXPECT_THROW(FleetMonitor{bad}, std::invalid_argument);
}

TEST(FleetMonitor, ObserveValidation) {
  FleetMonitor monitor(basic_config());
  EXPECT_THROW(monitor.observe(99999, 0), std::invalid_argument);
  EXPECT_THROW(monitor.observe(0, std::uint64_t{1} << 14),
               std::invalid_argument);
  // Rejected observations are not charged to the sample meter.
  EXPECT_EQ(monitor.samples_consumed(), 0u);
}

TEST(FleetMonitor, ReportsRequireFullWindows) {
  FleetMonitor monitor(basic_config());
  EXPECT_EQ(monitor.reports_pending(), 0u);
  EXPECT_THROW(monitor.next_report(), std::logic_error);
  // Fill all but one node.
  const core::AliasSampler sampler(core::uniform(1 << 14));
  stats::Xoshiro256 rng(1);
  for (std::uint32_t node = 0; node + 1 < 2048; ++node) {
    for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
      monitor.observe(node, sampler.sample(rng));
    }
  }
  EXPECT_EQ(monitor.reports_pending(), 0u);
  EXPECT_EQ(monitor.poll(), core::VerdictStatus::kUndecided);
  EXPECT_THROW(monitor.next_report(), std::logic_error);
  for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
    monitor.observe(2047, sampler.sample(rng));
  }
  EXPECT_EQ(monitor.reports_pending(), 1u);
  EXPECT_NO_THROW(monitor.next_report());
  EXPECT_EQ(monitor.reports_pending(), 0u);
}

TEST(FleetMonitor, QuietOnUniformLoudOnFar) {
  FleetMonitor monitor(basic_config());
  const std::uint64_t quiet_alarms =
      stream_epochs(monitor, core::uniform(1 << 14), 12, 11);
  // True per-epoch alarm rate <= 1/3; 12 epochs can't all alarm.
  EXPECT_LE(stats::wilson_interval(quiet_alarms, 12, 3.89).lo, 1.0 / 3.0);

  FleetMonitor monitor2(basic_config());
  const std::uint64_t far_alarms = stream_epochs(
      monitor2, core::paninski_two_bump(1 << 14, 0.9), 12, 12);
  EXPECT_GE(stats::wilson_interval(far_alarms, 12, 3.89).hi, 2.0 / 3.0);
  EXPECT_GT(far_alarms, quiet_alarms);
  EXPECT_EQ(monitor2.epochs_completed(), 12u);
  EXPECT_EQ(monitor2.alarms_raised(), far_alarms);
}

TEST(FleetMonitor, ReportCarriesCalibratedScore) {
  FleetMonitor monitor(basic_config());
  const double eps = 0.9;
  const core::AliasSampler sampler(
      core::paninski_two_bump(1 << 14, eps));
  stats::Xoshiro256 rng(3);
  for (std::uint32_t node = 0; node < 2048; ++node) {
    for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
      monitor.observe(node, sampler.sample(rng));
    }
  }
  const auto report = monitor.next_report();
  // On the two-bump family the distance score estimates eps itself; with
  // ~2048 windows pooled the estimate is tight.
  EXPECT_NEAR(report.distance_score, eps, 0.25);
  EXPECT_EQ(report.samples_consumed, 2048 * monitor.window_size());
  EXPECT_GT(report.chi.chi_hat, 1.0 / static_cast<double>(1 << 14));
}

TEST(FleetMonitor, ChiErrorBarMatchesEpochScatterOnSkewedStream) {
  // Overlapping pairs in one window are correlated through triple
  // collisions; on a skewed stream the chi(1 - chi) term alone understates
  // the epoch-to-epoch scatter of chi_hat (sd / mean error bar = 1.32 here
  // without the triple term).
  MonitorConfig config;
  config.domain = 4096;
  config.nodes = 64;
  config.epsilon = 1.6;
  config.error = 0.4;
  config.seed = 1;
  FleetMonitor monitor(config);
  const core::AliasSampler sampler(core::zipf(4096, 1.0));
  stats::Xoshiro256 rng(1);
  stats::RunningStat chi_hats;
  stats::RunningStat errors;
  while (monitor.epochs_completed() < 600) {
    monitor.observe(sampler.sample(rng));
    while (monitor.reports_pending() > 0) {
      const FleetMonitor::EpochReport report = monitor.next_report();
      chi_hats.add(report.chi.chi_hat);
      errors.add(report.chi.std_error);
    }
  }
  ASSERT_EQ(chi_hats.count(), 600u);
  const double ratio = chi_hats.stddev() / errors.mean();
  EXPECT_GE(ratio, 0.85);
  EXPECT_LE(ratio, 1.15);
}

TEST(FleetMonitor, SurplusObservationsCarryOver) {
  FleetMonitor monitor(basic_config());
  const core::AliasSampler sampler(core::uniform(1 << 14));
  stats::Xoshiro256 rng(4);
  // Feed two epochs' worth in one burst.
  for (std::uint32_t node = 0; node < 2048; ++node) {
    for (std::uint64_t i = 0; i < 2 * monitor.window_size(); ++i) {
      monitor.observe(node, sampler.sample(rng));
    }
  }
  // The surplus already filled (and closed) epoch two.
  EXPECT_EQ(monitor.reports_pending(), 2u);
  EXPECT_EQ(monitor.next_report().epoch, 1u);
  const auto second = monitor.next_report();
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_EQ(monitor.reports_pending(), 0u);
}

TEST(FleetMonitor, ReferenceProfileMode) {
  MonitorConfig config;
  config.domain = 256;
  config.nodes = 8192;
  config.epsilon = 1.6;
  config.grains_per_eps = 32.0;
  config.seed = 9;
  config.reference = core::zipf(256, 1.0);
  FleetMonitor monitor(config);
  EXPECT_GT(monitor.effective_domain(), config.domain);
  EXPECT_LT(monitor.effective_epsilon(), config.epsilon);

  // Quiet: stream the reference itself.
  const core::AliasSampler reference_sampler(*config.reference);
  stats::Xoshiro256 rng(5);
  auto feed_epoch = [&](const core::AliasSampler& sampler) {
    for (std::uint32_t node = 0; node < config.nodes; ++node) {
      for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
        monitor.observe(node, sampler.sample(rng));
      }
    }
    return monitor.next_report();
  };
  std::uint64_t quiet_alarms = 0;
  for (int e = 0; e < 4; ++e) quiet_alarms += feed_epoch(reference_sampler).alarm;
  EXPECT_LE(quiet_alarms, 3u);

  // Drift: a flash crowd far from the reference.
  std::vector<double> crowd(256, 0.03 / 255.0);
  crowd[255] = 0.97;
  const core::AliasSampler drift_sampler(
      core::Distribution::from_weights(std::move(crowd)));
  std::uint64_t drift_alarms = 0;
  for (int e = 0; e < 4; ++e) drift_alarms += feed_epoch(drift_sampler).alarm;
  EXPECT_EQ(drift_alarms, 4u);
}

TEST(FleetMonitor, SurplusCarryOverPreservesArrivalOrder) {
  // Three epochs' worth per node, fed in one burst, with epoch-distinct
  // payloads: epoch 1 and 3 windows are collision-free (consecutive
  // values), epoch 2 windows are constant (guaranteed collision). If the
  // surplus queue reordered or mixed windows, the all-reject epoch would
  // bleed into its neighbors. Fully deterministic — no sampling.
  FleetMonitor monitor(basic_config());
  const std::uint64_t s = monitor.window_size();
  const std::uint64_t n = 1 << 14;
  ASSERT_GE(s, 2u) << "constant windows need >= 2 samples to collide";
  for (std::uint32_t node = 0; node < 2048; ++node) {
    for (std::uint64_t i = 0; i < s; ++i) {
      monitor.observe(node, (node * s + i) % n);  // distinct within window
    }
    for (std::uint64_t i = 0; i < s; ++i) {
      monitor.observe(node, node % n);  // constant: certain collision
    }
    for (std::uint64_t i = 0; i < s; ++i) {
      monitor.observe(node, (node * s + i + 1) % n);  // distinct again
    }
  }

  ASSERT_EQ(monitor.reports_pending(), 3u) << "the burst fills three epochs";
  const auto first = monitor.next_report();
  EXPECT_EQ(first.votes_to_reject, 0u);
  EXPECT_FALSE(first.alarm);

  const auto second = monitor.next_report();
  EXPECT_EQ(second.votes_to_reject, 2048u);
  EXPECT_TRUE(second.alarm);

  const auto third = monitor.next_report();
  EXPECT_EQ(third.votes_to_reject, 0u);
  EXPECT_FALSE(third.alarm);

  EXPECT_EQ(monitor.reports_pending(), 0u);
  EXPECT_EQ(monitor.epochs_completed(), 3u);
  EXPECT_EQ(monitor.alarms_raised(), 1u);
}

TEST(FleetMonitor, SurplusCarryOverThroughIdentityFilter) {
  // Reference mode routes every observation through the per-node identity
  // filter before windowing; the carry-over path must behave identically
  // whether observations arrive in bursts or window-by-window (each node's
  // filter RNG consumption depends only on its own arrival order).
  MonitorConfig config;
  config.domain = 256;
  config.nodes = 8192;
  config.epsilon = 1.6;
  config.grains_per_eps = 32.0;
  config.seed = 9;
  config.reference = core::zipf(256, 1.0);

  FleetMonitor burst(config);
  FleetMonitor paced(config);
  const core::AliasSampler sampler(*config.reference);
  const std::uint64_t s = burst.window_size();

  // Identical per-node streams, different arrival interleavings.
  std::vector<std::vector<std::uint64_t>> stream(config.nodes);
  stats::Xoshiro256 rng(11);
  for (auto& values : stream) {
    values.reserve(2 * s);
    for (std::uint64_t i = 0; i < 2 * s; ++i) {
      values.push_back(sampler.sample(rng));
    }
  }

  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    for (const std::uint64_t value : stream[node]) {
      burst.observe(node, value);  // both epochs at once
    }
  }
  for (std::uint64_t e = 0; e < 2; ++e) {
    for (std::uint32_t node = 0; node < config.nodes; ++node) {
      for (std::uint64_t i = 0; i < s; ++i) {
        paced.observe(node, stream[node][e * s + i]);
      }
    }
  }

  ASSERT_EQ(burst.reports_pending(), 2u);
  for (std::uint64_t e = 1; e <= 2; ++e) {
    ASSERT_GE(paced.reports_pending(), 1u);
    const auto from_burst = burst.next_report();
    const auto from_paced = paced.next_report();
    EXPECT_EQ(from_burst.epoch, e);
    EXPECT_EQ(from_burst.alarm, from_paced.alarm);
    EXPECT_EQ(from_burst.votes_to_reject, from_paced.votes_to_reject);
    EXPECT_DOUBLE_EQ(from_burst.chi.chi_hat, from_paced.chi.chi_hat);
    EXPECT_EQ(from_burst.samples_consumed, from_paced.samples_consumed);
  }
  EXPECT_EQ(burst.reports_pending(), 0u);
}

TEST(FleetMonitor, DeterministicUnderSeed) {
  auto run = [] {
    FleetMonitor monitor(basic_config());
    const core::AliasSampler sampler(core::heavy_hitter(1 << 14, 0.02));
    stats::Xoshiro256 rng(6);
    for (std::uint32_t node = 0; node < 2048; ++node) {
      for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
        monitor.observe(node, sampler.sample(rng));
      }
    }
    return monitor.next_report();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.alarm, b.alarm);
  EXPECT_EQ(a.votes_to_reject, b.votes_to_reject);
  EXPECT_DOUBLE_EQ(a.chi.chi_hat, b.chi.chi_hat);
}

// --- stats::SequentialTester facet ---

TEST(FleetMonitor, SequentialFacetDealsRoundRobin) {
  // observe(value) deals arrival i to node i mod k: feeding the same tape
  // through the single-feed facet and through explicit routing must
  // produce bit-identical reports.
  FleetMonitor dealt(basic_config());
  FleetMonitor routed(basic_config());
  stats::SequentialTester& tester = dealt;  // exercise the virtual seam
  EXPECT_EQ(tester.poll(), core::VerdictStatus::kUndecided);

  const core::AliasSampler sampler(core::uniform(1 << 14));
  stats::Xoshiro256 rng(21);
  const std::uint64_t total = 2048 * dealt.window_size();
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t value = sampler.sample(rng);
    tester.observe(value);
    routed.observe(static_cast<std::uint32_t>(i % 2048), value);
  }
  EXPECT_EQ(tester.samples_consumed(), total);
  ASSERT_EQ(dealt.reports_pending(), 1u);
  ASSERT_EQ(routed.reports_pending(), 1u);
  const auto a = dealt.next_report();
  const auto b = routed.next_report();
  EXPECT_EQ(a.votes_to_reject, b.votes_to_reject);
  EXPECT_DOUBLE_EQ(a.chi.chi_hat, b.chi.chi_hat);
  EXPECT_EQ(a.samples_consumed, b.samples_consumed);
}

TEST(FleetMonitor, AnytimeVerdictFunnel) {
  FleetMonitor monitor(basic_config());
  const core::Verdict before = monitor.finalize();
  EXPECT_EQ(before.status, core::VerdictStatus::kUndecided);
  EXPECT_FALSE(before.decided());
  EXPECT_TRUE(before.accepts);  // undecided maps to the accept side
  EXPECT_DOUBLE_EQ(before.confidence, 0.0);
  EXPECT_EQ(before.samples_consumed, 0u);
  EXPECT_EQ(before.votes_total, 0u);

  // Constant feed: every window collides, the epoch alarms unanimously.
  core::VerdictStatus status = core::VerdictStatus::kUndecided;
  for (std::uint32_t node = 0; node < 2048; ++node) {
    for (std::uint64_t i = 0; i < monitor.window_size(); ++i) {
      status = monitor.observe(node, 7);
    }
  }
  EXPECT_EQ(status, core::VerdictStatus::kReject);
  EXPECT_EQ(monitor.poll(), core::VerdictStatus::kReject);
  const core::Verdict after = monitor.finalize();
  EXPECT_TRUE(after.rejects());
  EXPECT_TRUE(after.decided());
  EXPECT_EQ(after.status, core::VerdictStatus::kReject);
  EXPECT_EQ(after.votes_total, 1u);   // closed epochs
  EXPECT_EQ(after.votes_reject, 1u);  // alarms
  EXPECT_EQ(after.samples_consumed, 2048 * monitor.window_size());
  EXPECT_DOUBLE_EQ(after.confidence, 1.0 - 1.0 / 3.0);
  ASSERT_EQ(monitor.reports_pending(), 1u);
  EXPECT_TRUE(monitor.next_report().alarm);
}

TEST(FleetMonitor, RejectIsAbsorbing) {
  FleetMonitor monitor(basic_config());
  const std::uint64_t s = monitor.window_size();
  const std::uint64_t n = 1 << 14;
  auto feed_clean = [&] {
    for (std::uint32_t node = 0; node < 2048; ++node) {
      for (std::uint64_t i = 0; i < s; ++i) {
        monitor.observe(node, (node * s + i) % n);  // distinct within window
      }
    }
  };
  feed_clean();
  EXPECT_EQ(monitor.poll(), core::VerdictStatus::kAccept);
  for (std::uint32_t node = 0; node < 2048; ++node) {
    for (std::uint64_t i = 0; i < s; ++i) {
      monitor.observe(node, node % n);  // constant: certain alarm
    }
  }
  EXPECT_EQ(monitor.poll(), core::VerdictStatus::kReject);
  feed_clean();  // a later clean epoch never retracts the reject
  EXPECT_EQ(monitor.poll(), core::VerdictStatus::kReject);
  EXPECT_EQ(monitor.finalize().votes_reject, 1u);
  EXPECT_EQ(monitor.finalize().votes_total, 3u);
}

}  // namespace
}  // namespace dut::monitor
