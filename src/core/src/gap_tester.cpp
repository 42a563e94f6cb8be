#include "dut/core/gap_tester.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dut::core {

std::uint64_t Fingerprint::collisions(unsigned r) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t j = 1; j < f.size(); ++j) {
    // binom(j, i) after step i; 128 bits keep every product exact.
    unsigned __int128 choose = 1;
    for (unsigned i = 0; i < r; ++i) choose = choose * (j - i) / (i + 1);
    total += static_cast<std::uint64_t>(choose) * f[j];
  }
  return total;
}

Fingerprint fingerprint(std::span<const std::uint64_t> samples) {
  CollisionWorkspace workspace;
  return workspace.fingerprint(samples, 0);
}

bool has_collision(std::span<const std::uint64_t> samples) {
  return fingerprint(samples).has_collision();
}

std::uint64_t count_colliding_pairs(std::span<const std::uint64_t> samples) {
  return fingerprint(samples).collisions(2);
}

Fingerprint CollisionWorkspace::fingerprint(
    std::span<const std::uint64_t> samples, std::uint64_t n) {
  Fingerprint result;
  const bool table =
      n != 0 && n <= kMaxCountDomain &&
      std::all_of(samples.begin(), samples.end(),
                  [n](std::uint64_t x) { return x < n; });
  if (!table) {
    scratch_.assign(samples.begin(), samples.end());
    std::sort(scratch_.begin(), scratch_.end());
    result.f.assign(1, 0);
    for (std::size_t i = 0; i < scratch_.size();) {
      std::size_t j = i + 1;
      while (j < scratch_.size() && scratch_[j] == scratch_[i]) ++j;
      if (j - i >= result.f.size()) result.f.resize(j - i + 1, 0);
      ++result.f[j - i];
      i = j;
    }
    return result;
  }
  if (counts_.size() < n) counts_.resize(static_cast<std::size_t>(n), 0);
  std::uint32_t most = 0;
  for (const std::uint64_t x : samples) {
    most = std::max(most, ++counts_[static_cast<std::size_t>(x)]);
  }
  // The first visit of each value reads its multiplicity and zeroes it, so
  // the table comes back clean after O(s) work.
  result.f.assign(most + 1, 0);
  for (const std::uint64_t x : samples) {
    std::uint32_t& m = counts_[static_cast<std::size_t>(x)];
    if (m != 0) {
      ++result.f[m];
      m = 0;
    }
  }
  return result;
}

bool CollisionWorkspace::has_collision(std::span<const std::uint64_t> samples,
                                       std::uint64_t n) {
  if (n == 0 || n > kMaxBitmapDomain) {
    return fingerprint(samples, n).has_collision();
  }
  const std::size_t words = static_cast<std::size_t>((n + 63) / 64);
  if (bits_.size() < words) bits_.resize(words, 0);

  std::size_t marked = 0;
  bool found = false;
  for (; marked < samples.size(); ++marked) {
    const std::uint64_t x = samples[marked];
    if (x >= n) break;  // out-of-contract value: undo and fall back
    const std::uint64_t mask = 1ULL << (x & 63);
    std::uint64_t& word = bits_[x >> 6];
    if (word & mask) {
      found = true;
      break;
    }
    word |= mask;
  }
  // Unmark only what was touched: O(s), the full bitmap is never rescanned.
  const bool clean = marked == samples.size() || found;
  for (std::size_t i = 0; i < marked; ++i) {
    const std::uint64_t x = samples[i];
    bits_[x >> 6] &= ~(1ULL << (x & 63));
  }
  if (!clean) return fingerprint(samples, n).has_collision();
  return found;
}

std::span<const std::uint64_t> CollisionWorkspace::draw(
    const AliasSampler& sampler, stats::Xoshiro256& rng,
    std::uint64_t count) {
  sampler.sample_into(rng, count, samples_);
  return samples_;
}

CollisionWorkspace& thread_collision_workspace() {
  // dut-lint: allow(no-mutable-static): per-thread collision scratch (PR1
  // design); kernels reset marks before use, results are reuse-independent.
  static thread_local CollisionWorkspace workspace;
  return workspace;
}

bool has_collision(std::span<const std::uint64_t> samples, std::uint64_t n) {
  return thread_collision_workspace().has_collision(samples, n);
}

std::uint64_t count_colliding_pairs(std::span<const std::uint64_t> samples,
                                    std::uint64_t n) {
  return thread_collision_workspace().fingerprint(samples, n).collisions(2);
}

double gap_slack_gamma(std::uint64_t s, double delta, double epsilon) {
  if (s < 2) return -INFINITY;
  const double root = std::sqrt(2.0 * delta * (1.0 + epsilon * epsilon));
  const double inv_s = 1.0 / static_cast<double>(s);
  return 1.0 - inv_s - root - (inv_s + root) / (epsilon * epsilon);
}

GapTesterParams solve_gap_tester(std::uint64_t n, double epsilon, double delta,
                                 Rounding rounding) {
  if (n < 2) throw std::invalid_argument("solve_gap_tester: n must be >= 2");
  if (!(epsilon > 0.0) || epsilon > 2.0) {
    throw std::invalid_argument("solve_gap_tester: eps must be in (0, 2]");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    throw std::invalid_argument("solve_gap_tester: delta must be in (0, 1)");
  }

  // Real solution of s(s-1) = 2*delta*n:  s = (1 + sqrt(1 + 8*delta*n)) / 2.
  const double target = 2.0 * delta * static_cast<double>(n);
  const double s_real = (1.0 + std::sqrt(1.0 + 4.0 * target)) / 2.0;
  std::uint64_t s = 0;
  switch (rounding) {
    case Rounding::kDown:
      s = static_cast<std::uint64_t>(std::floor(s_real));
      break;
    case Rounding::kNearest:
      s = static_cast<std::uint64_t>(std::llround(s_real));
      break;
    case Rounding::kUp:
      s = static_cast<std::uint64_t>(std::ceil(s_real));
      break;
  }
  if (s < 2) s = 2;  // one sample can never collide

  GapTesterParams p;
  p.n = n;
  p.epsilon = epsilon;
  p.delta_requested = delta;
  p.s = s;
  p.delta = static_cast<double>(s) * static_cast<double>(s - 1) /
            (2.0 * static_cast<double>(n));
  p.gamma = gap_slack_gamma(s, p.delta, epsilon);
  p.alpha = 1.0 + p.gamma * epsilon * epsilon;
  const double eps4 = std::pow(epsilon, 4.0);
  p.in_paper_domain = p.delta < eps4 / 64.0 &&
                      static_cast<double>(n) > 64.0 / (eps4 * p.delta);
  p.has_gap = p.gamma > 0.0;
  return p;
}

GapTesterParams params_from_samples(std::uint64_t n, double epsilon,
                                    std::uint64_t s) {
  if (n < 2) throw std::invalid_argument("params_from_samples: n must be >= 2");
  if (s < 2) throw std::invalid_argument("params_from_samples: s must be >= 2");
  if (!(epsilon > 0.0) || epsilon > 2.0) {
    throw std::invalid_argument("params_from_samples: eps must be in (0, 2]");
  }
  GapTesterParams p;
  p.n = n;
  p.epsilon = epsilon;
  p.s = s;
  p.delta = static_cast<double>(s) * static_cast<double>(s - 1) /
            (2.0 * static_cast<double>(n));
  p.delta_requested = p.delta;
  p.gamma = gap_slack_gamma(s, p.delta, epsilon);
  p.alpha = 1.0 + p.gamma * epsilon * epsilon;
  const double eps4 = std::pow(epsilon, 4.0);
  p.in_paper_domain = p.delta < eps4 / 64.0 &&
                      static_cast<double>(n) > 64.0 / (eps4 * p.delta);
  p.has_gap = p.gamma > 0.0;
  return p;
}

double wiener_no_collision_bound(std::uint64_t s, double chi) {
  if (chi < 0.0 || chi > 1.0) {
    throw std::invalid_argument("wiener bound: chi must be in [0,1]");
  }
  if (s < 2) return 1.0;
  const double t = static_cast<double>(s - 1) * std::sqrt(chi);
  return std::exp(-t) * (1.0 + t);
}

double uniform_no_collision_exact(std::uint64_t s, std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_no_collision_exact: n=0");
  if (s > n) return 0.0;
  double prob = 1.0;
  for (std::uint64_t i = 1; i < s; ++i) {
    prob *= 1.0 - static_cast<double>(i) / static_cast<double>(n);
  }
  return prob;
}

SingleCollisionTester::SingleCollisionTester(GapTesterParams params)
    : params_(params) {
  if (params_.s < 2) {
    throw std::invalid_argument("SingleCollisionTester: s must be >= 2");
  }
}

bool SingleCollisionTester::accept(
    std::span<const std::uint64_t> samples) const {
  if (samples.size() != params_.s) {
    throw std::invalid_argument(
        "SingleCollisionTester: wrong number of samples");
  }
  return !has_collision(samples, params_.n);
}

bool SingleCollisionTester::run(const AliasSampler& sampler,
                                stats::Xoshiro256& rng) const {
  CollisionWorkspace& workspace = thread_collision_workspace();
  return !workspace.has_collision(workspace.draw(sampler, rng, params_.s),
                                  params_.n);
}

}  // namespace dut::core
