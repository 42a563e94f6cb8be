// CollisionWorkspace vs the sort-based reference kernels. The bitmap and
// multiplicity-table paths must agree with sorting on every input — including
// out-of-contract values >= n that force the fallback and domains above the
// table and bitmap caps — and the lazily grown per-thread tables must come
// back clean after every call, or a stale mark would corrupt the next trial.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dut/core/families.hpp"
#include "dut/core/gap_tester.hpp"
#include "dut/core/sampler.hpp"
#include "dut/stats/rng.hpp"

namespace {

using namespace dut;
using core::CollisionWorkspace;
using core::Fingerprint;

std::uint64_t pairs(CollisionWorkspace& workspace,
                    const std::vector<std::uint64_t>& samples,
                    std::uint64_t n) {
  return workspace.fingerprint(samples, n).collisions(2);
}

/// Samples drawn from [base, base + width) against domain n.
struct KernelCase {
  std::uint64_t n;
  std::uint64_t base;
  std::uint64_t width;
};

constexpr std::uint64_t kCount = CollisionWorkspace::kMaxCountDomain;
constexpr std::uint64_t kBitmap = CollisionWorkspace::kMaxBitmapDomain;

// From collision-free-likely (s << sqrt(width)) to collision-dense
// (s >> sqrt(width)) regimes, on both sides of both caps.
const KernelCase kCases[] = {
    {2, 0, 2},
    {17, 0, 17},
    {1 << 10, 0, 1 << 10},
    {1 << 16, 0, 1 << 16},
    {17, 0, 34},                         // values >= n force the sort
    {1 << 10, 512, 1 << 10},             // half the values out of range
    {kCount, kCount - 4096, 4096},       // at the table cap
    {2 * kCount, 2 * kCount - 4096, 4096},    // above it: sort
    {2 * kCount, 2 * kCount - 2048, 4096},    // ... with values >= n
    {4 * kBitmap, 4 * kBitmap - 4096, 4096},  // above the bitmap cap
};

template <typename Check>
void for_each_random_input(std::uint64_t seed, Check check) {
  stats::Xoshiro256 rng(seed);
  for (const KernelCase& c : kCases) {
    for (const std::uint64_t s : {1ULL, 2ULL, 16ULL, 300ULL, 2000ULL}) {
      for (int rep = 0; rep < 20; ++rep) {
        std::vector<std::uint64_t> samples(s);
        for (auto& x : samples) x = c.base + rng.below(c.width);
        SCOPED_TRACE("n=" + std::to_string(c.n) +
                     " base=" + std::to_string(c.base) +
                     " s=" + std::to_string(s) + " rep=" + std::to_string(rep));
        check(samples, c.n);
      }
    }
  }
}

TEST(CollisionKernel, BitmapMatchesSortOnRandomInputs) {
  CollisionWorkspace workspace;
  for_each_random_input(1, [&](const std::vector<std::uint64_t>& samples,
                               std::uint64_t n) {
    const Fingerprint reference = core::fingerprint(samples);
    EXPECT_EQ(workspace.has_collision(samples, n), reference.has_collision());
    EXPECT_EQ(workspace.has_collision(samples, n),
              core::has_collision(samples));
    EXPECT_EQ(workspace.fingerprint(samples, n), reference);
  });
}

TEST(CollisionKernel, CountMatchesSortOnRandomInputs) {
  CollisionWorkspace workspace;
  for_each_random_input(2, [&](const std::vector<std::uint64_t>& samples,
                               std::uint64_t n) {
    const Fingerprint table = workspace.fingerprint(samples, n);
    EXPECT_EQ(table, core::fingerprint(samples));
    EXPECT_EQ(table.collisions(1), samples.size());
    EXPECT_EQ(table.collisions(2), core::count_colliding_pairs(samples));
    EXPECT_EQ(core::count_colliding_pairs(samples, n),
              core::count_colliding_pairs(samples));
  });
}

TEST(CollisionKernel, FingerprintFunctionalsHandComputed) {
  // Multiplicities 5 -> 3, 3 -> 2, 7 -> 1: F_1 = F_2 = F_3 = 1.
  const std::vector<std::uint64_t> samples = {5, 3, 5, 7, 5, 3};
  CollisionWorkspace workspace;
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{8},
                                std::uint64_t{100}, 4 * kBitmap}) {
    const Fingerprint fp = workspace.fingerprint(samples, n);
    EXPECT_EQ(fp.f, (std::vector<std::uint64_t>{0, 1, 1, 1})) << "n=" << n;
    EXPECT_EQ(fp.collisions(0), 3u);  // distinct values
    EXPECT_EQ(fp.collisions(1), 6u);  // samples
    EXPECT_EQ(fp.collisions(2), 4u);  // binom(2,2) + binom(3,2)
    EXPECT_EQ(fp.collisions(3), 1u);  // binom(3,3)
    EXPECT_EQ(fp.collisions(4), 0u);
    EXPECT_EQ(fp.singletons(), 1u);
    EXPECT_TRUE(fp.has_collision());
  }

  const Fingerprint empty = workspace.fingerprint({}, 100);
  EXPECT_EQ(empty.f, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(empty.collisions(0), 0u);
  EXPECT_EQ(empty.singletons(), 0u);
  EXPECT_FALSE(empty.has_collision());

  const Fingerprint distinct = core::fingerprint(
      std::vector<std::uint64_t>{0, 1, 2, 99});
  EXPECT_EQ(distinct.f, (std::vector<std::uint64_t>{0, 4}));
  EXPECT_EQ(distinct.collisions(0), 4u);
  EXPECT_EQ(distinct.collisions(2), 0u);
  EXPECT_EQ(distinct.singletons(), 4u);
  EXPECT_FALSE(distinct.has_collision());

  // All equal: F_5 = 1, so binom(5, r) r-wise collisions.
  const Fingerprint same =
      workspace.fingerprint(std::vector<std::uint64_t>(5, 42), 100);
  EXPECT_EQ(same.collisions(0), 1u);
  EXPECT_EQ(same.collisions(2), 10u);
  EXPECT_EQ(same.collisions(3), 10u);
  EXPECT_EQ(same.collisions(5), 1u);
  EXPECT_EQ(same.singletons(), 0u);

  // One value seen 4e6 times: binom(4e6, 3) fits in 64 bits although
  // 3 * binom(4e6, 3) does not.
  Fingerprint heavy;
  heavy.f.assign(4'000'001, 0);
  heavy.f.back() = 1;
  EXPECT_EQ(heavy.collisions(3), 10666658666668000000ULL);
}

TEST(CollisionKernel, HandComputedCases) {
  CollisionWorkspace workspace;
  const std::vector<std::uint64_t> empty;
  EXPECT_FALSE(workspace.has_collision(empty, 100));
  EXPECT_EQ(pairs(workspace, empty, 100), 0u);

  const std::vector<std::uint64_t> distinct = {0, 1, 2, 99};
  EXPECT_FALSE(workspace.has_collision(distinct, 100));
  EXPECT_EQ(pairs(workspace, distinct, 100), 0u);

  const std::vector<std::uint64_t> one_pair = {5, 3, 5, 7};
  EXPECT_TRUE(workspace.has_collision(one_pair, 100));
  EXPECT_EQ(pairs(workspace, one_pair, 100), 1u);

  // All equal: binom(5, 2) = 10 pairs.
  const std::vector<std::uint64_t> all_same(5, 42);
  EXPECT_TRUE(workspace.has_collision(all_same, 100));
  EXPECT_EQ(pairs(workspace, all_same, 100), 10u);
}

TEST(CollisionKernel, OutOfRangeValuesFallBackCorrectly) {
  CollisionWorkspace workspace;
  // Values >= n are out of the sampling contract but must still be handled
  // (accept() takes arbitrary user spans). 500 >= n = 100 twice -> collision.
  const std::vector<std::uint64_t> dupes_above = {1, 500, 2, 500};
  EXPECT_TRUE(workspace.has_collision(dupes_above, 100));
  EXPECT_EQ(pairs(workspace, dupes_above, 100), 1u);

  const std::vector<std::uint64_t> distinct_above = {1, 500, 2, 501};
  EXPECT_FALSE(workspace.has_collision(distinct_above, 100));
  EXPECT_EQ(pairs(workspace, distinct_above, 100), 0u);

  // In-range duplicate sitting *after* an out-of-range value: the bitmap
  // loop bails at 500 and the fallback must still see the 7/7 pair.
  const std::vector<std::uint64_t> mixed = {7, 500, 7};
  EXPECT_TRUE(workspace.has_collision(mixed, 100));
  EXPECT_EQ(pairs(workspace, mixed, 100), 1u);
}

TEST(CollisionKernel, WorkspaceStaysCleanAcrossCalls) {
  CollisionWorkspace workspace;
  // A collision run early-exits mid-scan; the next collision-free call on
  // the same domain must not see leftover marks.
  const std::vector<std::uint64_t> colliding = {1, 2, 3, 2, 9};
  const std::vector<std::uint64_t> clean = {1, 2, 3, 4, 9};
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_TRUE(workspace.has_collision(colliding, 16));
    EXPECT_FALSE(workspace.has_collision(clean, 16));
    EXPECT_EQ(pairs(workspace, colliding, 16), 1u);
    EXPECT_EQ(pairs(workspace, clean, 16), 0u);
  }
  // Alternating domains exercise the lazy table resizing.
  for (const std::uint64_t n : {16ULL, 1ULL << 12, 32ULL, 1ULL << 16}) {
    EXPECT_FALSE(workspace.has_collision(clean, n));
    EXPECT_EQ(pairs(workspace, colliding, n), 1u);
  }
}

TEST(CollisionKernel, HugeDomainsUseSortFallback) {
  CollisionWorkspace workspace;
  const std::uint64_t n = CollisionWorkspace::kMaxBitmapDomain * 4;
  const std::vector<std::uint64_t> colliding = {n - 1, 5, n - 1};
  const std::vector<std::uint64_t> clean = {n - 1, 5, n - 2};
  EXPECT_TRUE(workspace.has_collision(colliding, n));
  EXPECT_FALSE(workspace.has_collision(clean, n));
  EXPECT_EQ(pairs(workspace, colliding, n), 1u);
  EXPECT_EQ(pairs(workspace, clean, n), 0u);
}

TEST(CollisionKernel, FreeOverloadsAgreeWithWorkspace) {
  stats::Xoshiro256 rng(3);
  for (int rep = 0; rep < 10; ++rep) {
    std::vector<std::uint64_t> samples(200);
    for (auto& x : samples) x = rng.below(1 << 10);
    EXPECT_EQ(core::has_collision(samples, 1 << 10),
              core::has_collision(samples));
    EXPECT_EQ(core::count_colliding_pairs(samples, 1 << 10),
              core::count_colliding_pairs(samples));
  }
}

TEST(SampleInto, MatchesRepeatedSampleCalls) {
  // sample_into must consume the RNG stream exactly like repeated sample()
  // calls, or batched and unbatched call sites would diverge.
  const core::AliasSampler sampler(core::zipf(1 << 12, 1.0));
  stats::Xoshiro256 rng_batch(77);
  stats::Xoshiro256 rng_single(77);
  std::vector<std::uint64_t> batched;
  sampler.sample_into(rng_batch, 1000, batched);
  ASSERT_EQ(batched.size(), 1000u);
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], sampler.sample(rng_single)) << "i=" << i;
  }
  EXPECT_EQ(rng_batch(), rng_single());  // streams end in lockstep
}

TEST(SampleInto, ReusesAndResizesBuffer) {
  const core::AliasSampler sampler(core::uniform(64));
  stats::Xoshiro256 rng(5);
  std::vector<std::uint64_t> buffer;
  sampler.sample_into(rng, 100, buffer);
  EXPECT_EQ(buffer.size(), 100u);
  sampler.sample_into(rng, 7, buffer);
  EXPECT_EQ(buffer.size(), 7u);
  sampler.sample_into(rng, 131, buffer);
  EXPECT_EQ(buffer.size(), 131u);
  for (const std::uint64_t x : buffer) EXPECT_LT(x, 64u);
}

}  // namespace
