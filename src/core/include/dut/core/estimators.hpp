#pragma once

// Sample-based estimators of the distribution properties the testers key
// on. The testers answer accept/reject; a monitoring deployment usually
// also wants "how non-uniform does the stream look?" — these estimators
// provide that (FleetMonitor's epoch reports carry estimate_chi and the
// distance score). Each sample-based estimator here is a functional of the
// sample's fingerprint (gap_tester.hpp).

#include <cstdint>
#include <span>

namespace dut::core {

/// Estimate of the collision probability chi(mu) = sum_x mu(x)^2.
struct ChiEstimate {
  double chi_hat = 0.0;     ///< unbiased U-statistic: pairs / binom(s, 2)
  double lambda_hat = 0.0;  ///< triple-collision rate, estimates sum mu^3
  double std_error = 0.0;   ///< plug-in U-statistic standard error
  std::uint64_t samples = 0;
};

/// Unbiased collision estimator from an i.i.d. sample vector (s >= 2).
/// The exact U-statistic variance is
///   Var = [chi(1-chi) + 2(s-2)(lambda - chi^2)] / binom(s, 2),
/// with lambda = sum_x mu(x)^3 (overlapping pairs are correlated through
/// triple collisions); std_error plugs in the empirical chi_hat and
/// lambda_hat. Tests validate both unbiasedness and the error bar against
/// the empirical scatter on skewed families.
ChiEstimate estimate_chi(std::span<const std::uint64_t> samples);

/// The same estimate from collision counts pooled over `windows`
/// independent windows of `s` samples each, counting only within-window
/// pairs and triples: chi_hat = pairs / (windows * binom(s, 2)),
/// lambda_hat = triples / (windows * binom(s, 3)), and the variance above
/// divided by `windows`. The span overload is the one-window case.
/// Requires s >= 2 and windows >= 1.
ChiEstimate estimate_chi(std::uint64_t pairs, std::uint64_t triples,
                         std::uint64_t s, std::uint64_t windows);

/// The collision "distance score": inverts Lemma 3.2's relation on the
/// worst-case (Paninski) family, eps_hat = sqrt(max(0, chi_hat * n - 1)).
/// Exact in expectation for two-bump instances; an upper-skewed proxy for
/// other shapes (a heavy hitter scores far above its L1 distance, which is
/// precisely why collision testers detect it early — see bench/e13).
double collision_distance_score(double chi_hat, std::uint64_t n);

/// Plug-in L1 distance to uniform: || mu_hat - U_n ||_1 for the empirical
/// mu_hat. Consistent only with s = Omega(n) samples; with fewer it is
/// dominated by a positive bias approaching 2 (the naive-baseline failure
/// mode the paper's collision machinery avoids).
double plugin_l1_to_uniform(std::span<const std::uint64_t> samples,
                            std::uint64_t n);

/// Support statistics with a Good-Turing unseen-mass estimate.
struct SupportEstimate {
  std::uint64_t distinct = 0;   ///< distinct values observed
  std::uint64_t singletons = 0; ///< values observed exactly once
  /// Good-Turing estimate of the probability mass on unseen elements:
  /// singletons / samples.
  double unseen_mass = 0.0;
};
SupportEstimate estimate_support(std::span<const std::uint64_t> samples);

}  // namespace dut::core
