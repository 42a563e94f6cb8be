// Exhaustive (sampling-free) property sweep of the identity filter: for a
// grid of (reference family, eps, grain density), the pushforward of the
// reference is exactly uniform and the pushforward of every eps-far input
// stays at least output_epsilon()-far — the reduction's two guarantees
// evaluated exactly via the channel's matrix action.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "dut/core/families.hpp"
#include "dut/core/identity_filter.hpp"

namespace dut::core {
namespace {

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: padding bytes are indeterminate and would make the
// case names change from one process to the next.
struct FilterPoint {
  std::int64_t reference;  // index into the family list
  double eps;
  double grains;
};
static_assert(sizeof(FilterPoint) ==
              sizeof(std::int64_t) + 2 * sizeof(double));

Distribution make_reference(std::int64_t index, std::uint64_t n) {
  switch (index) {
    case 0: return uniform(n);
    case 1: return zipf(n, 1.0);
    case 2: return step(n, 0.5, 3.0);
    case 3: return heavy_hitter(n, 0.3);
    default: return zipf(n, 0.5);
  }
}

const char* reference_name(std::int64_t index) {
  switch (index) {
    case 0: return "uniform";
    case 1: return "zipf1";
    case 2: return "step";
    case 3: return "heavy30";
    default: return "zipf05";
  }
}

class IdentityFilterSweep : public ::testing::TestWithParam<FilterPoint> {};

TEST_P(IdentityFilterSweep, ReferenceMapsToExactUniform) {
  const auto [ref, eps, grains] = GetParam();
  const std::uint64_t n = 96;
  const Distribution q = make_reference(ref, n);
  const IdentityFilter filter(q, eps, grains);
  EXPECT_LT(filter.pushforward(q).l1_to_uniform(), 1e-9);
}

TEST_P(IdentityFilterSweep, FarInputsStayFar) {
  const auto [ref, eps, grains] = GetParam();
  const std::uint64_t n = 96;
  const Distribution q = make_reference(ref, n);
  const IdentityFilter filter(q, eps, grains);

  // Candidate far inputs; only those actually >= eps from q are asserted.
  std::vector<double> point(n, 0.0);
  point[n - 1] = 1.0;
  const Distribution candidates[] = {
      restricted_support(n, n / 16),
      restricted_support(n, n / 4),
      heavy_hitter(n, 0.9),
      Distribution(std::move(point)),
      uniform(n),
      zipf(n, 2.0),
  };
  int exercised = 0;
  for (const Distribution& mu : candidates) {
    if (mu.l1_distance(q) < eps) continue;
    ++exercised;
    EXPECT_GE(filter.pushforward(mu).l1_to_uniform(),
              filter.output_epsilon() - 1e-12)
        << reference_name(ref) << " eps=" << eps;
  }
  EXPECT_GT(exercised, 0) << "no candidate reached distance eps";
}

TEST_P(IdentityFilterSweep, EpsilonBookkeeping) {
  const auto [ref, eps, grains] = GetParam();
  const std::uint64_t n = 96;
  const IdentityFilter filter(make_reference(ref, n), eps, grains);
  const double nd = static_cast<double>(n);
  const double md = static_cast<double>(filter.output_domain());
  EXPECT_GE(md, grains * nd / eps - 1.0);
  EXPECT_NEAR(filter.output_epsilon(), (1.0 - 2.0 * nd / md) * eps / 2.0,
              1e-12);
  EXPECT_GT(filter.output_epsilon(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IdentityFilterSweep,
    ::testing::Values(FilterPoint{0, 0.8, 8.0}, FilterPoint{0, 1.5, 16.0},
                      FilterPoint{1, 0.8, 8.0}, FilterPoint{1, 1.2, 16.0},
                      FilterPoint{1, 1.8, 32.0}, FilterPoint{2, 1.0, 8.0},
                      FilterPoint{2, 1.6, 32.0}, FilterPoint{3, 1.2, 16.0},
                      FilterPoint{4, 0.9, 8.0}, FilterPoint{4, 1.6, 16.0}),
    [](const ::testing::TestParamInfo<FilterPoint>& info) {
      return std::string(reference_name(info.param.reference)) + "_e" +
             std::to_string(static_cast<int>(info.param.eps * 10)) + "_g" +
             std::to_string(static_cast<int>(info.param.grains));
    });

}  // namespace
}  // namespace dut::core
