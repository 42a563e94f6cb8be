#include "dut/core/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dut/core/estimators.hpp"
#include "dut/core/gap_tester.hpp"

namespace dut::core {

CollisionCountingTester::CollisionCountingTester(std::uint64_t n,
                                                 double epsilon,
                                                 std::uint64_t s)
    : n_(n), s_(s) {
  if (n < 2) throw std::invalid_argument("CollisionCounting: n must be >= 2");
  if (s < 2) throw std::invalid_argument("CollisionCounting: s must be >= 2");
  if (!(epsilon > 0.0) || epsilon > 2.0) {
    throw std::invalid_argument("CollisionCounting: eps must be in (0, 2]");
  }
  // Midpoint between chi(U) = 1/n and Lemma 3.2's eps-far floor.
  threshold_ = (1.0 + epsilon * epsilon / 2.0) / static_cast<double>(n);
}

std::uint64_t CollisionCountingTester::recommended_samples(std::uint64_t n,
                                                           double epsilon,
                                                           double c) {
  if (!(epsilon > 0.0)) {
    throw std::invalid_argument("recommended_samples: eps must be > 0");
  }
  const double s =
      c * std::sqrt(static_cast<double>(n)) / (epsilon * epsilon);
  return std::max<std::uint64_t>(2, static_cast<std::uint64_t>(std::ceil(s)));
}

bool CollisionCountingTester::run(const AliasSampler& sampler,
                                  stats::Xoshiro256& rng) const {
  CollisionWorkspace& workspace = thread_collision_workspace();
  const std::uint64_t pairs =
      workspace.fingerprint(workspace.draw(sampler, rng, s_), n_)
          .collisions(2);
  const double total_pairs =
      static_cast<double>(s_) * static_cast<double>(s_ - 1) / 2.0;
  return static_cast<double>(pairs) / total_pairs <= threshold_;
}

UniqueElementsTester::UniqueElementsTester(std::uint64_t n, double epsilon,
                                           std::uint64_t s)
    : n_(n), s_(s) {
  if (n < 2) throw std::invalid_argument("UniqueElements: n must be >= 2");
  if (s < 2) throw std::invalid_argument("UniqueElements: s must be >= 2");
  if (!(epsilon > 0.0) || epsilon > 2.0) {
    throw std::invalid_argument("UniqueElements: eps must be in (0, 2]");
  }
  redundancy_threshold_ = (1.0 + epsilon * epsilon / 2.0) *
                          static_cast<double>(s) *
                          static_cast<double>(s - 1) /
                          (2.0 * static_cast<double>(n));
}

bool UniqueElementsTester::accept(
    std::span<const std::uint64_t> samples) const {
  if (samples.size() != s_) {
    throw std::invalid_argument("UniqueElements: wrong sample count");
  }
  const std::uint64_t distinct =
      thread_collision_workspace().fingerprint(samples, n_).collisions(0);
  const double redundancy = static_cast<double>(s_ - distinct);
  return redundancy <= redundancy_threshold_;
}

bool UniqueElementsTester::run(const AliasSampler& sampler,
                               stats::Xoshiro256& rng) const {
  return accept(thread_collision_workspace().draw(sampler, rng, s_));
}

EmpiricalL1Tester::EmpiricalL1Tester(std::uint64_t n, double epsilon,
                                     std::uint64_t s)
    : n_(n), epsilon_(epsilon), s_(s) {
  if (n < 1) throw std::invalid_argument("EmpiricalL1: n must be >= 1");
  if (s < 1) throw std::invalid_argument("EmpiricalL1: s must be >= 1");
  if (!(epsilon > 0.0) || epsilon > 2.0) {
    throw std::invalid_argument("EmpiricalL1: eps must be in (0, 2]");
  }
}

bool EmpiricalL1Tester::run(const AliasSampler& sampler,
                            stats::Xoshiro256& rng) const {
  return plugin_l1_to_uniform(
             thread_collision_workspace().draw(sampler, rng, s_), n_) <=
         epsilon_ / 2.0;
}

}  // namespace dut::core
