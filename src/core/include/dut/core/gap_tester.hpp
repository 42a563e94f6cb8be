#pragma once

// The paper's single-collision gap tester A_delta (Section 3.1) and its
// parameter algebra.
//
// A_delta draws s samples with s(s-1) ~= 2*delta*n and accepts iff all
// samples are distinct. Theorem 3.1 / Lemma 3.4: this is a
// (delta, 1 + gamma*eps^2)-gap tester, where gamma is the slack term of
// paper eq. (1):
//
//   gamma = 1 - 1/s - sqrt(2*delta*(1+eps^2))
//             - (1/s + sqrt(2*delta*(1+eps^2))) / eps^2.
//
// Completeness is exact Markov: Pr[collision under U_n] <= binom(s,2)/n,
// so we expose the *effective* delta = s(s-1)/(2n) realized by the integer
// s actually used, and every downstream planner consumes that value.

#include <cstdint>
#include <span>
#include <vector>

#include "dut/core/sampler.hpp"
#include "dut/stats/rng.hpp"

namespace dut::core {

/// The sample's fingerprint: f[j] = F_j, the number of distinct values seen
/// exactly j times (f[0] is unused and 0; f.size() is the largest
/// multiplicity plus one). Every batch collision statistic is a functional
/// of it.
struct Fingerprint {
  std::vector<std::uint64_t> f;

  /// sum_j binom(j, r) * F_j: distinct values (r = 0), samples (r = 1),
  /// colliding pairs (r = 2), colliding triples (r = 3). Exact while the
  /// result fits in 64 bits.
  std::uint64_t collisions(unsigned r) const noexcept;
  /// True iff some value was seen at least twice.
  bool has_collision() const noexcept { return f.size() > 2; }
  /// F_1: values seen exactly once.
  std::uint64_t singletons() const noexcept {
    return f.size() > 1 ? f[1] : 0;
  }

  bool operator==(const Fingerprint&) const = default;
};

/// Reference fingerprint by sorting a copy: deterministic, O(s log s), no
/// domain needed. The workspace's table path is tested against it.
Fingerprint fingerprint(std::span<const std::uint64_t> samples);

/// True iff `samples` contains two equal values (sort-based reference).
bool has_collision(std::span<const std::uint64_t> samples);

/// Number of colliding *pairs*: sum over values x of binom(m_x, 2) where
/// m_x is the multiplicity of x (sort-based reference).
std::uint64_t count_colliding_pairs(std::span<const std::uint64_t> samples);

/// Per-thread scratch for the collision kernels and the testers' sample
/// draws. The tables are allocated once per (thread, domain) and then reused
/// across trials: marking and unmarking touch only the s sampled entries,
/// never the whole domain, so a trial costs O(s) after the first. Not
/// thread-safe — use thread_collision_workspace() for one instance per
/// thread.
class CollisionWorkspace {
 public:
  /// Largest domain for which has_collision uses the bitmap (n bits,
  /// 2 MiB at the cap) instead of the fingerprint.
  static constexpr std::uint64_t kMaxBitmapDomain = 1ULL << 24;
  /// Largest domain for which fingerprint() keeps a multiplicity table
  /// (4 bytes per element, 16 MiB at the cap); above it, it sorts.
  static constexpr std::uint64_t kMaxCountDomain = 1ULL << 22;

  /// The fingerprint of `samples`: one O(s) multiplicity-table pass when
  /// 0 < n <= kMaxCountDomain and every value is < n, otherwise one sorted
  /// run-length pass (n = 0 means the domain is unknown). Values >= n are
  /// legal and force the sort.
  Fingerprint fingerprint(std::span<const std::uint64_t> samples,
                          std::uint64_t n);

  /// `n`-aware has_collision: O(s) bitmap scan when the domain fits (with
  /// early exit on the first collision), fingerprint() otherwise. Values
  /// >= n are legal and force the fallback.
  bool has_collision(std::span<const std::uint64_t> samples, std::uint64_t n);

  /// Draws `count` samples into this workspace's sample buffer; the view is
  /// valid until the next draw on this workspace.
  std::span<const std::uint64_t> draw(const AliasSampler& sampler,
                                      stats::Xoshiro256& rng,
                                      std::uint64_t count);

 private:
  std::vector<std::uint64_t> bits_;    // 1 bit per domain element, lazily sized
  std::vector<std::uint32_t> counts_;  // multiplicities, lazily sized
  std::vector<std::uint64_t> scratch_;  // sort fallback buffer
  std::vector<std::uint64_t> samples_;  // draw() buffer
};

/// The calling thread's workspace (engine trials run one trial at a time per
/// thread, so one workspace per thread is exactly enough).
CollisionWorkspace& thread_collision_workspace();

/// Convenience dispatchers through the calling thread's workspace.
bool has_collision(std::span<const std::uint64_t> samples, std::uint64_t n);
std::uint64_t count_colliding_pairs(std::span<const std::uint64_t> samples,
                                    std::uint64_t n);

/// How to round the real solution of s(s-1) = 2*delta*n to an integer s.
/// kUp guarantees soundness-side sample mass at the price of a slightly
/// larger effective delta; kDown the reverse. E1 ablates this choice.
enum class Rounding { kDown, kNearest, kUp };

/// Resolved parameters of a single run of A_delta.
struct GapTesterParams {
  std::uint64_t n = 0;        ///< domain size
  double epsilon = 0.0;       ///< distance parameter
  double delta_requested = 0.0;
  std::uint64_t s = 0;        ///< integer sample count actually used
  double delta = 0.0;         ///< effective delta = s(s-1)/(2n)
  double gamma = 0.0;         ///< slack term of eq. (1) at the effective delta
  double alpha = 0.0;         ///< guaranteed gap = 1 + gamma*eps^2
  /// True iff the strict validity domain the paper uses for the distributed
  /// setting holds: delta < eps^4/64 and n > 64/(eps^4*delta), which implies
  /// gamma >= 1/2 (checked by tests across the whole grid).
  bool in_paper_domain = false;
  /// True iff gamma > 0, i.e. the tester has *some* guaranteed gap.
  bool has_gap = false;
};

/// Solves for the integer sample count given a requested delta and
/// recomputes all derived quantities at the effective delta.
/// Requires n >= 2, eps in (0, 1], delta in (0, 1).
GapTesterParams solve_gap_tester(std::uint64_t n, double epsilon, double delta,
                                 Rounding rounding = Rounding::kNearest);

/// Computes eq. (1)'s gamma for explicit (s, delta, eps).
double gap_slack_gamma(std::uint64_t s, double delta, double epsilon);

/// Builds resolved parameters from an explicit integer sample count
/// (used by the asymmetric planners, where s_i derives from a cost share).
/// Requires s >= 2.
GapTesterParams params_from_samples(std::uint64_t n, double epsilon,
                                    std::uint64_t s);

/// Upper bound of Lemma 3.3 (Wiener's birthday bound) on the probability of
/// seeing *no* collision among s samples from a distribution with collision
/// probability chi:  exp(-(s-1)*sqrt(chi)) * (1 + (s-1)*sqrt(chi)).
double wiener_no_collision_bound(std::uint64_t s, double chi);

/// Exact no-collision probability under the *uniform* distribution,
/// prod_{i<s} (1 - i/n); reference value for E3.
double uniform_no_collision_exact(std::uint64_t s, std::uint64_t n);

/// The single-collision tester A_delta. Stateless apart from its parameters
/// (per-trial scratch lives in the calling thread's CollisionWorkspace, so
/// one tester may run concurrently from many engine threads); `accept` is a
/// pure function of the samples.
class SingleCollisionTester {
 public:
  explicit SingleCollisionTester(GapTesterParams params);

  const GapTesterParams& params() const noexcept { return params_; }

  /// Accepts ("uniform") iff all samples are distinct.
  /// `samples.size()` must equal params().s.
  bool accept(std::span<const std::uint64_t> samples) const;

  /// Draws s fresh samples from `sampler` and decides.
  bool run(const AliasSampler& sampler, stats::Xoshiro256& rng) const;

 private:
  GapTesterParams params_;
};

}  // namespace dut::core
