#include "bgr/route/density.hpp"

#include <gtest/gtest.h>

#include "bgr/common/rng.hpp"

namespace bgr {
namespace {

TEST(Density, EmptyChannelParams) {
  DensityMap map(2, 10);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 0);
  EXPECT_EQ(p.nc_max, 10);  // every column attains the zero maximum
  EXPECT_EQ(p.c_min, 0);
  EXPECT_EQ(p.nc_min, 10);
}

TEST(Density, AddAndRemoveTotal) {
  DensityMap map(1, 10);
  map.add_total(0, {2, 6}, 1);
  map.add_total(0, {4, 8}, 1);
  EXPECT_EQ(map.total_at(0, 3), 1);
  EXPECT_EQ(map.total_at(0, 5), 2);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 2);
  EXPECT_EQ(p.nc_max, 3);  // columns 4,5,6
  map.remove_total(0, {2, 6}, 1);
  EXPECT_EQ(map.channel_params(0).c_max, 1);
}

TEST(Density, MultiPitchContributesWidth) {
  DensityMap map(1, 10);
  map.add_total(0, {0, 4}, 3);
  EXPECT_EQ(map.total_at(0, 2), 3);
  EXPECT_EQ(map.channel_params(0).c_max, 3);
}

TEST(Density, BridgeChartIsSeparate) {
  DensityMap map(1, 10);
  map.add_total(0, {0, 9}, 1);
  map.add_bridge(0, {3, 5}, 1);
  const auto& p = map.channel_params(0);
  EXPECT_EQ(p.c_max, 1);
  EXPECT_EQ(p.c_min, 1);
  EXPECT_EQ(p.nc_min, 3);
  EXPECT_EQ(map.bridge_at(0, 4), 1);
  EXPECT_EQ(map.bridge_at(0, 6), 0);
}

TEST(Density, NegativeChartRejected) {
  DensityMap map(1, 10);
  EXPECT_THROW(map.remove_total(0, {0, 0}, 1), CheckError);
}

TEST(Density, OutOfRangeRejected) {
  DensityMap map(1, 10);
  EXPECT_THROW(map.add_total(0, {8, 12}, 1), CheckError);
  EXPECT_THROW(map.add_total(0, IntInterval{}, 1), CheckError);
}

TEST(Density, EdgeParamsFigure4Semantics) {
  // Reconstruct the Fig. 4 situation: an edge interval that covers part of
  // the channel; D_M / ND_M are the chart maxima *within the interval*.
  DensityMap map(1, 12);
  map.add_total(0, {0, 3}, 1);
  map.add_total(0, {2, 9}, 1);
  map.add_total(0, {2, 5}, 1);  // peak 3 on columns 2..3
  const auto& cp = map.channel_params(0);
  EXPECT_EQ(cp.c_max, 3);
  EXPECT_EQ(cp.nc_max, 2);
  // Edge covering columns 4..9 sees maximum 2 (columns 4,5) → ND_M = 2.
  const auto ep = map.edge_params(0, {4, 9});
  EXPECT_EQ(ep.d_max, 2);
  EXPECT_EQ(ep.nd_max, 2);
  // Edge covering the peak directly.
  const auto ep2 = map.edge_params(0, {2, 3});
  EXPECT_EQ(ep2.d_max, 3);
  EXPECT_EQ(ep2.nd_max, 2);
}

TEST(Density, ChannelParamsCompareWhole) {
  // The selection loop re-keys a whole channel only when its aggregates
  // moved; a chart change below the peak must leave them equal.
  DensityMap map(1, 10);
  map.add_total(0, {0, 5}, 2);
  const ChannelDensityParams before = map.channel_params(0);
  map.add_total(0, {7, 8}, 1);
  EXPECT_EQ(map.channel_params(0), before);
  map.add_total(0, {8, 8}, 1);
  EXPECT_NE(map.channel_params(0), before);  // ties the peak: nc_max moves
}

TEST(Density, SumMaxDensity) {
  DensityMap map(3, 10);
  map.add_total(0, {0, 5}, 2);
  map.add_total(2, {0, 5}, 1);
  EXPECT_EQ(map.sum_max_density(), 3);
}

/// Property sweep: incremental params equal a brute-force recomputation.
class DensityRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DensityRandom, ParamsMatchBruteForce) {
  Rng rng(GetParam());
  constexpr std::int32_t kWidth = 24;
  DensityMap map(1, kWidth);
  std::vector<std::int32_t> total(kWidth, 0);
  std::vector<std::int32_t> bridge(kWidth, 0);
  struct Op {
    IntInterval span;
    std::int32_t w;
    bool is_bridge;
  };
  std::vector<Op> live;
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.bernoulli(0.6)) {
      Op op{IntInterval::spanning(rng.uniform_i32(0, kWidth - 1),
                                  rng.uniform_i32(0, kWidth - 1)),
            rng.uniform_i32(1, 3), rng.bernoulli(0.3)};
      live.push_back(op);
      if (op.is_bridge) {
        map.add_bridge(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          bridge[static_cast<std::size_t>(x)] += op.w;
      } else {
        map.add_total(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          total[static_cast<std::size_t>(x)] += op.w;
      }
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(live.size()) - 1));
      const Op op = live[i];
      live[i] = live.back();
      live.pop_back();
      if (op.is_bridge) {
        map.remove_bridge(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          bridge[static_cast<std::size_t>(x)] -= op.w;
      } else {
        map.remove_total(0, op.span, op.w);
        for (std::int32_t x = op.span.lo; x <= op.span.hi; ++x)
          total[static_cast<std::size_t>(x)] -= op.w;
      }
    }
    // Verify the charts and aggregates.
    std::int32_t c_max = 0, c_min = 0;
    for (std::int32_t x = 0; x < kWidth; ++x) {
      EXPECT_EQ(map.total_at(0, x), total[static_cast<std::size_t>(x)]);
      EXPECT_EQ(map.bridge_at(0, x), bridge[static_cast<std::size_t>(x)]);
      c_max = std::max(c_max, total[static_cast<std::size_t>(x)]);
      c_min = std::max(c_min, bridge[static_cast<std::size_t>(x)]);
    }
    const auto& p = map.channel_params(0);
    EXPECT_EQ(p.c_max, c_max);
    EXPECT_EQ(p.c_min, c_min);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DensityRandom, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace bgr
