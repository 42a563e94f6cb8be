#include "dut/core/estimators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dut/core/gap_tester.hpp"

namespace dut::core {

ChiEstimate estimate_chi(std::span<const std::uint64_t> samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("estimate_chi: need at least two samples");
  }
  const Fingerprint fingerprint =
      thread_collision_workspace().fingerprint(samples, 0);
  return estimate_chi(fingerprint.collisions(2), fingerprint.collisions(3),
                      samples.size(), 1);
}

ChiEstimate estimate_chi(std::uint64_t pairs, std::uint64_t triples,
                         std::uint64_t s, std::uint64_t windows) {
  if (s < 2 || windows == 0) {
    throw std::invalid_argument(
        "estimate_chi: need at least one window of two samples");
  }
  const auto ds = static_cast<double>(s);
  const auto w = static_cast<double>(windows);
  const double total_pairs = w * (ds * (ds - 1.0) / 2.0);
  ChiEstimate estimate;
  estimate.samples = s * windows;
  estimate.chi_hat = static_cast<double>(pairs) / total_pairs;
  estimate.lambda_hat =
      s >= 3 ? static_cast<double>(triples) /
                   (w * (ds * (ds - 1.0) * (ds - 2.0) / 6.0))
             : 0.0;
  // Exact U-statistic variance with plug-in moments; the lambda term
  // carries the correlation between overlapping pairs. Independent windows
  // divide it by their number.
  const double chi = estimate.chi_hat;
  const double variance =
      (chi * (1.0 - chi) +
       2.0 * (ds - 2.0) * std::max(0.0, estimate.lambda_hat - chi * chi)) /
      total_pairs;
  estimate.std_error = std::sqrt(std::max(0.0, variance));
  return estimate;
}

double collision_distance_score(double chi_hat, std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("collision_distance_score: n = 0");
  if (chi_hat < 0.0 || chi_hat > 1.0) {
    throw std::invalid_argument(
        "collision_distance_score: chi_hat outside [0, 1]");
  }
  return std::sqrt(
      std::max(0.0, chi_hat * static_cast<double>(n) - 1.0));
}

double plugin_l1_to_uniform(std::span<const std::uint64_t> samples,
                            std::uint64_t n) {
  if (n == 0 || samples.empty()) {
    throw std::invalid_argument("plugin_l1_to_uniform: empty input");
  }
  if (std::any_of(samples.begin(), samples.end(),
                  [n](std::uint64_t x) { return x >= n; })) {
    throw std::invalid_argument("plugin_l1_to_uniform: sample >= n");
  }
  const Fingerprint fingerprint =
      thread_collision_workspace().fingerprint(samples, n);
  const double s = static_cast<double>(samples.size());
  const double u = 1.0 / static_cast<double>(n);
  double distance = 0.0;
  for (std::size_t j = 1; j < fingerprint.f.size(); ++j) {
    distance += static_cast<double>(fingerprint.f[j]) *
                std::abs(static_cast<double>(j) / s - u);
  }
  // Elements never sampled each contribute |0 - 1/n|.
  distance += static_cast<double>(n - fingerprint.collisions(0)) * u;
  return distance;
}

SupportEstimate estimate_support(std::span<const std::uint64_t> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("estimate_support: empty input");
  }
  const Fingerprint fingerprint =
      thread_collision_workspace().fingerprint(samples, 0);
  SupportEstimate estimate;
  estimate.distinct = fingerprint.collisions(0);
  estimate.singletons = fingerprint.singletons();
  estimate.unseen_mass = static_cast<double>(estimate.singletons) /
                         static_cast<double>(samples.size());
  return estimate;
}

}  // namespace dut::core
